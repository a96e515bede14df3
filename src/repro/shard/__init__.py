"""Shard fabric: distributed campaigns over the content-addressed store.

``repro.shard`` partitions the campaign tuple space ``(workload × kind ×
site × variant × run)`` across N worker nodes — processes simulating
machines, each with its own supervised pool and shard-local store
directory — and merges the results back into one record list and one
merged :class:`~repro.obs.manifest.RunManifest`, bit-identical to a
single-node run.

Enable it with ``DPMR_SHARDS=N`` (or ``ExecConfig(shards=N)``); the
ordinary executor entry points route here automatically.  See
``DESIGN.md`` §11 for the lease protocol, merge semantics, and the
identity argument.
"""

from .coordinator import run_sharded_campaign, sharding_fallback
from .lease import Lease, LeaseTable, lease_size
from .merge import merge_identity, merge_manifests
from .worker import node_config, shard_store_path, shard_worker

__all__ = [
    "Lease",
    "LeaseTable",
    "lease_size",
    "merge_identity",
    "merge_manifests",
    "node_config",
    "run_sharded_campaign",
    "shard_store_path",
    "shard_worker",
    "sharding_fallback",
]
