"""Shard coordinator: lease, supervise, sync, merge.

:func:`run_sharded_campaign` is the distributed twin of
:func:`repro.eval.parallel.run_campaign_jobs_with_manifest` — same
signature (minus the observability hooks, which force single-node
execution), same return contract, bit-identical records.  The executor
routes to it when ``ExecConfig.shards > 1``.

The fabric is deliberately thin, because the substrate already does the
hard parts:

* **Partition.**  Experiment tuples are pure functions of their inputs,
  so the coordinator just looks every tuple up in its store (resume /
  memoization, exactly like single-node), partitions the misses into
  contiguous :class:`~repro.shard.lease.Lease` batches, and hands leases
  to N forked shard workers — processes simulating machines, each with
  its own supervised pool and shard-local store directory.
* **Supervise.**  Leases travel through the *existing*
  :class:`~repro.eval.supervise.WorkerSupervisor`: a SIGKILLed shard is
  detected by pipe EOF and respawned, a shard wedged past
  ``lease_timeout_s`` is killed, and in both cases the lease is re-leased
  to a fresh worker with bounded retries — node loss is the same event as
  experiment loss, one level up.
* **Sync.**  A completed lease's records are read back from the shard's
  store *by content address* and written into the coordinator store.
  Atomic writes + content addressing make the sync idempotent: replayed
  leases (a worker killed after reporting, a re-leased batch) rewrite
  byte-identical entries.  A corrupt shard-store entry is detected by the
  store's checksum validation, counted, and simply re-leased in a
  recovery round.
* **Merge.**  Per-lease manifests fold through
  :func:`~repro.shard.merge.merge_manifests` (a commutative monoid, so
  completion order cannot matter) and the coordinator overlays the
  campaign-level truth: measured wall-clock, lease counters, coordinator
  store traffic, per-shard provenance.

**Identity argument.**  Every record is computed by the same
``_run_item`` over the same fork-inherited build states with the same
per-tuple seed as a single-node run; the coordinator reassembles records
in exact serial order.  Partitioning, lease size, shard count, node
deaths, and re-leases can change only *where and when* a tuple runs,
never its inputs — so the merged records are signature-identical to the
1-shard run.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import platform
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..eval.config import ExecConfig
from ..eval.experiment import ExperimentRecord
from ..eval.store import ResultStore
from ..eval.supervise import SupervisionStats, WorkerSupervisor
from ..obs.manifest import (
    QuarantineRecord,
    RunManifest,
    ShardManifest,
    usable_cpu_count,
)
from . import worker as worker_mod
from .lease import Lease, LeaseTable
from .merge import merge_manifests
from .worker import shard_store_path, shard_worker

logger = logging.getLogger("repro.shard.coordinator")

_Item = Tuple[int, int, int, int]

#: Test-only chaos hook: called as ``hook(lease, wid, fabric_root)`` right
#: before a completed lease's entries are synced out of the shard-local
#: store.  The chaos suite uses it to corrupt a shard store entry at the
#: worst possible moment; production leaves it None.
_SYNC_CHAOS_HOOK = None


class _KeyOnlyStore:
    """Store stand-in when no coordinator store is configured: every
    lookup misses, so ``_store_index`` still yields keys and key fields."""

    def get(self, key: str):
        return None


def sharding_fallback(config: ExecConfig, tracer) -> Optional[str]:
    """Why a ``shards > 1`` request must run single-node, or None.

    Observability (tracing/counters) needs every event in one process, and
    the fabric needs ``fork`` for copy-on-write build-state inheritance.
    There is deliberately no minimum-work or CPU-count heuristic here:
    shard workers simulate *machines*, and the bit-identity suite relies
    on real multi-process fabric runs even on a single core.
    """
    if tracer is not None or config.observing:
        return "observability (trace/counters) forces single-node execution"
    if "fork" not in multiprocessing.get_all_start_methods():
        return "fork start method unavailable on this platform"
    return None


def run_sharded_campaign(
    jobs,
    config: ExecConfig,
    build_states=None,
    items: Optional[Sequence[_Item]] = None,
    on_record: Optional[Callable[[_Item, ExperimentRecord, str], None]] = None,
    cancel=None,
) -> Tuple[List[ExperimentRecord], RunManifest]:
    """Run the campaign across ``config.shards`` worker nodes.

    Same contract as
    :func:`~repro.eval.parallel.run_campaign_jobs_with_manifest`, which
    calls it and persists the returned manifest: records in exact serial
    order plus a merged manifest; ``on_record`` streams store hits and
    synced lease results; ``cancel`` abandons unfinished leases.
    """
    from ..eval.parallel import (
        _all_items,
        _build_states_for,
        _job_manifests,
        _store_index,
        _warm_compiled_bases,
    )
    from ..machine.compile import set_inline_runtime

    inline_prev = set_inline_runtime(config.inline_rt)
    started = time.monotonic()
    try:
        jobs = list(jobs)
        items = _all_items(jobs) if items is None else [tuple(i) for i in items]
        incremental = config.incremental or build_states is not None

        # -- coordinator store lookup (resume / memoization) ------------
        store = config.make_store()
        cached: Dict[_Item, ExperimentRecord] = {}
        keys: Dict[_Item, str] = {}
        key_fields: Dict[_Item, Dict] = {}
        if items:
            cached, keys, key_fields = _store_index(
                jobs, items, config,
                store if store is not None else _KeyOnlyStore(),
            )
        if on_record is not None:
            for item in items:
                record = cached.get(item)
                if record is not None:
                    on_record(item, record, "store")
        misses = [item for item in items if item not in cached]
        # Build views only for jobs with tuples left to lease.
        states = None
        if incremental and misses:
            states = (
                build_states
                if build_states is not None
                else _build_states_for(jobs, misses)
            )

        # -- fabric root: shard-local stores live here -------------------
        temp_root = None
        if store is not None:
            fabric_root = os.path.join(store.root, "shards")
            os.makedirs(fabric_root, exist_ok=True)
        else:
            temp_root = tempfile.mkdtemp(prefix="dpmr-shards-")
            fabric_root = temp_root

        if config.compiled and states is not None:
            _warm_compiled_bases(states)

        table = LeaseTable(config.shards, config.lease_items)
        computed: Dict[_Item, ExperimentRecord] = {}
        #: (ji, si) -> (attempts, reason); the campaign-level quarantine map.
        site_quarantined: Dict[Tuple[int, int], Tuple[int, str]] = {}
        site_index = {
            (job.workload, job.kind, job.sites[si].site_id): (ji, si)
            for ji, job in enumerate(jobs)
            for si in range(len(job.sites))
        }
        lease_manifests: List[Tuple[int, RunManifest]] = []
        shard_handles: Dict[int, ResultStore] = {}
        synced = 0
        agg = SupervisionStats()

        def sync_lease(lease: Lease, payload) -> None:
            nonlocal synced
            wid, mdict = payload
            manifest = RunManifest.from_dict(mdict)
            lease_manifests.append((wid, manifest))
            table.mark_done(lease, wid)
            # Adopt the shard's own (within-node) quarantine verdicts so the
            # affected tuples are excluded instead of endlessly re-leased.
            for q in manifest.quarantined:
                site = site_index.get((q.workload, q.kind, q.site))
                if site is not None and site not in site_quarantined:
                    site_quarantined[site] = (q.attempts, q.reason)
            hook = _SYNC_CHAOS_HOOK
            if hook is not None:
                hook(lease, wid, fabric_root)
            handle = shard_handles.get(wid)
            if handle is None:
                handle = shard_handles[wid] = ResultStore(
                    shard_store_path(fabric_root, wid)
                )
            for item in lease.items:
                if item in computed:
                    continue
                record = handle.get(keys[item])
                if record is None:
                    continue  # quarantined within the shard, or corrupt:
                    # a recovery round re-leases whatever is not condemned.
                computed[item] = record
                synced += 1
                if store is not None:
                    store.put(keys[item], record, key_fields.get(item))
                if on_record is not None:
                    on_record(item, record, "run")

        # -- lease / supervise / sync rounds -----------------------------
        outstanding = list(misses)
        worker_mod._SHARD_JOBS = jobs
        worker_mod._SHARD_STATES = states
        worker_mod._SHARD_CONFIG = config
        worker_mod._SHARD_ROOT = fabric_root
        try:
            rounds_left = config.retries + 1
            while outstanding and rounds_left > 0:
                if cancel is not None and cancel.is_set():
                    break
                rounds_left -= 1
                leases = table.partition(outstanding)
                supervisor = WorkerSupervisor(
                    multiprocessing.get_context("fork"),
                    shard_worker,
                    min(config.shards, len(leases)),
                    retries=config.retries,
                    exp_timeout_s=config.lease_timeout_s,
                    backoff_s=config.retry_backoff_s,
                    site_of=lambda lease: lease.lease_id,
                    on_result=sync_lease,
                    cancel=cancel,
                )
                supervisor.run(leases)
                agg.retries += supervisor.stats.retries
                agg.worker_restarts += supervisor.stats.worker_restarts
                agg.exp_timeouts += supervisor.stats.exp_timeouts
                # A lease that exhausted its retries condemns every site it
                # carried — the same never-silent degradation contract as
                # the single-node executor, at lease granularity.
                by_id = {lease.lease_id: lease for lease in leases}
                for lid, (attempts, reason) in sorted(
                    supervisor.stats.quarantined.items()
                ):
                    for item in by_id[lid].items:
                        if item[:2] not in site_quarantined:
                            site_quarantined[item[:2]] = (
                                attempts,
                                f"lease {lid}: {reason}",
                            )
                outstanding = [
                    item
                    for item in outstanding
                    if item not in computed
                    and item[:2] not in site_quarantined
                ]
            cancelled = cancel is not None and cancel.is_set()
            if outstanding and not cancelled:
                # Results kept vanishing (e.g. persistent shard-store
                # corruption) and the recovery budget is spent: quarantine,
                # never hang and never lie.
                for item in outstanding:
                    if item[:2] not in site_quarantined:
                        site_quarantined[item[:2]] = (
                            config.retries + 1,
                            "shard results missing after re-lease rounds",
                        )
                outstanding = []
        finally:
            worker_mod._SHARD_JOBS = None
            worker_mod._SHARD_STATES = None
            worker_mod._SHARD_CONFIG = None
            worker_mod._SHARD_ROOT = None
            if temp_root is not None:
                shutil.rmtree(temp_root, ignore_errors=True)

        # -- reassemble in exact serial order ----------------------------
        records: List[ExperimentRecord] = []
        for item in items:
            if item[:2] in site_quarantined:
                continue
            record = cached.get(item)
            if record is None:
                record = computed.get(item)
            if record is None:
                if cancelled:
                    continue  # abandoned by cancellation
                raise RuntimeError(
                    f"experiment {item} neither synced nor quarantined "
                    "(shard coordinator invariant violated)"
                )
            records.append(record)
        if cancelled:
            logger.warning(
                "sharded campaign cancelled: %d of %d tuple(s) finished",
                len(records),
                len(items),
            )

        # -- merged manifest ---------------------------------------------
        merged = merge_manifests(m for _, m in lease_manifests)
        manifest = merged
        manifest.mode = "campaign"
        manifest.requested_jobs = config.jobs
        manifest.effective_jobs = max(1, merged.effective_jobs)
        if not misses:
            manifest.worker_reason = "all experiments served from store"
        else:
            manifest.worker_reason = (
                f"sharded: {config.shards} node(s), "
                f"{table.grants} lease(s)"
            )
        manifest.serial_fallback = None
        manifest.trace_path = None
        manifest.counters_enabled = False
        manifest.engine = "compiled" if config.compiled else "interp"
        manifest.incremental = incremental and bool(items)
        manifest.timeout_factor = config.timeout_factor
        manifest.n_jobs = len(jobs)
        manifest.n_items = len(items)
        manifest.n_records = len(records)
        manifest.python = platform.python_version()
        manifest.cpu_count = usable_cpu_count()
        if not manifest.jobs:
            manifest.jobs = _job_manifests(jobs, states)
        manifest.shared_hits = 0
        shard_corrupt = sum(h.stats.corrupt for h in shard_handles.values())
        if store is not None:
            manifest.store_path = store.root
            manifest.store_hits = store.stats.hits
            manifest.store_misses = store.stats.misses
            manifest.store_writes = store.stats.writes
            manifest.store_corrupt = store.stats.corrupt + shard_corrupt
        else:
            manifest.store_path = None
            manifest.store_hits = 0
            manifest.store_misses = 0
            manifest.store_writes = 0
            manifest.store_corrupt = shard_corrupt
        manifest.worker_restarts = merged.worker_restarts + agg.worker_restarts
        manifest.n_shards = config.shards
        manifest.lease_grants = table.grants
        manifest.lease_reassignments = agg.retries + table.regrants
        manifest.lease_expiries = agg.exp_timeouts
        manifest.store_synced = synced
        by_wid: Dict[int, ShardManifest] = {}
        for wid, m in lease_manifests:
            sm = by_wid.get(wid)
            if sm is None:
                sm = by_wid[wid] = ShardManifest(shard=wid)
            sm.leases += 1
            sm.n_records += m.n_records
            sm.store_writes += m.store_writes
            sm.retries += m.retries
            sm.wall_s += m.wall_s
        manifest.shards = [by_wid[k] for k in sorted(by_wid)]
        manifest.quarantined = [
            QuarantineRecord(
                workload=jobs[ji].workload,
                kind=jobs[ji].kind,
                site=jobs[ji].sites[si].site_id,
                attempts=attempts,
                reason=reason,
            )
            for (ji, si), (attempts, reason) in sorted(
                site_quarantined.items()
            )
        ]
        manifest.status_counts = {}
        for r in records:
            s = r.result.status.value
            manifest.status_counts[s] = manifest.status_counts.get(s, 0) + 1
        from ..obs.counters import total_counters

        manifest.counter_totals = total_counters(
            r.result.counters for r in records
        )
        manifest.wall_s = time.monotonic() - started
        return records, manifest
    finally:
        set_inline_runtime(inline_prev)
