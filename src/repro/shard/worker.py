"""Shard worker: one process simulating one campaign machine.

A shard worker is forked by the coordinator and owns a *node's* worth of
state: its own shard-local :class:`~repro.eval.store.ResultStore`
directory and its own supervised executor underneath (the ordinary
:func:`~repro.eval.parallel.run_campaign_jobs_with_manifest`, re-entered
with ``shards=1``).  Work arrives as :class:`~repro.shard.lease.Lease`
batches over the supervisor's task pipe; for each lease the worker runs
exactly the single-node campaign path over the lease's tuples and
reports ``(wid, lease, ok, (wid, manifest_dict))`` back.

Records deliberately do **not** travel over the result pipe: the worker
persists every finished record into its shard-local store (atomic,
content-addressed writes — the same layout as the coordinator store) and
the coordinator syncs them back by content address after the lease
completes.  That keeps the pipe payload tiny, makes a torn write
harmless (the entry is simply re-leased), and makes the merge idempotent:
re-syncing or re-running a lease rewrites byte-identical entries under
the same keys.

Pre-fork state mirrors the executor's ``_WORKER_*`` convention: the
coordinator populates the ``_SHARD_*`` globals immediately before forking
so every worker inherits the jobs, warm build states, and config via
copy-on-write — nothing program-sized is ever pickled.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import List, Optional

from ..eval.config import ExecConfig
from ..eval.parallel import CampaignJob, JobBuildState

# Populated in the coordinator immediately before shard workers are forked
# (fork inherits them); None in a plain process.
_SHARD_JOBS: Optional[List[CampaignJob]] = None
_SHARD_STATES: Optional[List[JobBuildState]] = None
_SHARD_CONFIG: Optional[ExecConfig] = None
_SHARD_ROOT: Optional[str] = None


def shard_store_path(root: str, wid: int) -> str:
    """The shard-local store directory of worker ``wid`` under ``root``."""
    return os.path.join(root, f"shard-{wid}")


def node_config(config: ExecConfig, root: str, wid: int) -> ExecConfig:
    """The :class:`ExecConfig` one shard node runs its leases under.

    ``shards=1`` re-enters the ordinary single-node executor (no
    recursion); the store points at the node's own directory; observability
    and manifest persistence stay off — the coordinator owns the merged
    manifest, and the shard path is only taken for bare (unobserved) runs.
    """
    return replace(
        config,
        shards=1,
        store_path=shard_store_path(root, wid),
        trace_path=None,
        trace_events=None,
        counters=False,
        manifest_path=None,
    )


def shard_worker(wid: int, task_conn, result_conn) -> None:
    """Worker entry point: execute leases until told to stop.

    The supervisor contract is the same as the executor's per-experiment
    workers (``None``/EOF on the task pipe means shut down; infrastructure
    exceptions are reported as failures, not deaths), but the supervised
    *item* is a whole lease.  The success payload is ``(wid,
    manifest_dict)`` — the lease's full single-node run manifest, which the
    coordinator merges into the campaign's merged manifest.
    """
    from ..eval.parallel import run_campaign_jobs_with_manifest

    jobs = _SHARD_JOBS
    config = _SHARD_CONFIG
    root = _SHARD_ROOT
    assert jobs is not None and config is not None and root is not None, (
        "shard worker forked before _SHARD_* state was set"
    )
    my_config = node_config(config, root, wid)
    while True:
        try:
            lease = task_conn.recv()
        except (EOFError, OSError):
            return
        if lease is None:
            return
        try:
            _, manifest = run_campaign_jobs_with_manifest(
                jobs,
                config=my_config,
                build_states=_SHARD_STATES,
                items=list(lease.items),
            )
            payload = (wid, manifest.to_dict())
        except BaseException as exc:  # noqa: BLE001 — reported, not hidden
            try:
                result_conn.send(
                    (wid, lease, False, f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                os._exit(1)
            continue
        result_conn.send((wid, lease, True, payload))
