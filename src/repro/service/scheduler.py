"""The campaign scheduler: shared expansion, dedupe, and batched execution.

One :class:`CampaignScheduler` serves every client of a daemon.  A
submitted :class:`~repro.eval.api.CampaignRequest` flows through three
stages:

1. **Expansion** (single-thread ``expand`` executor): resolve the
   request against *canonical* per-``(workload, scale, kind, percent,
   seeds, design)`` campaign jobs, with the variant list append-only so
   tuple indices stay stable across requests, and compute each tuple's
   content address (the persistent store's
   :func:`~repro.eval.store.experiment_key`).  One harness per
   ``(workload, scale)`` serves every cell of it; golden runs, site lists
   and base transforms come from the process-wide build table
   (:mod:`repro.eval.builds`), keyed by content: cells that differ only
   in seeds share all of them, variants that differ only in diversity
   share a base transform, and a new variant's base transform is built
   (or served) at admission.  Store admission (``get_many``) also happens
   here, off the event loop.
2. **Admission** (event loop): each tuple is served from the in-memory
   completed table, served from the store lookup, joined onto an
   in-flight duplicate, or scheduled as new work.  All dedupe state is
   mutated only on the loop — there are no locks around it and no races.
3. **Execution** (single-thread ``run`` executor): a runner task drains
   pending tuples in batch snapshots through
   :func:`~repro.eval.parallel.run_campaign_jobs_with_manifest`
   (``items=`` subsets, streaming ``on_record``; faulty builds are
   build-table entries too), which brings along the executor's whole
   resilience stack — supervised workers, retry/backoff, site
   quarantine, store writes.  Completions hop back to the loop via
   ``call_soon_threadsafe`` and fan out to every subscribed request.

Each request gets its own ``mode="service"`` manifest at the end:
``store_hits`` (persistent store), ``shared_hits`` (deduplicated against
other requests in this daemon's lifetime), and ``store_misses`` (tuples
this request actually caused to execute).  ``status`` reports the
daemon's build-table totals (golden runs, base transforms, site builds;
built vs. served; evictions).  Client disconnects orphan the
request's messages but never cancel its tuples — the work completes and
the store retains the results, so the next submission is free.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..eval.api import CampaignRequest
from ..eval.builds import BuildCounts, build_scope, build_table
from ..eval.config import ExecConfig
from ..eval.experiment import ExperimentRecord, WorkloadHarness
from ..eval.parallel import (
    CampaignJob,
    base_transform,
    job_for_harness,
    manifest_for,
    run_campaign_jobs_with_manifest,
)
from ..eval.store import exec_fingerprint, tuple_key, variant_fingerprint
from ..eval.variants import resolve_variants
from ..obs.manifest import RunManifest
from . import protocol
from .dedupe import DedupeTable, TupleRef
from .projections import EventLog, Projections

logger = logging.getLogger("repro.service.scheduler")


@dataclass
class RequestState:
    """One admitted request's progress, counters, and reply channel."""

    request_id: str
    request: CampaignRequest
    send: Optional[Callable[[Dict], None]]
    total: int = 0
    n_jobs: int = 0
    done: int = 0
    errors: int = 0
    store_hits: int = 0
    shared_hits: int = 0
    executed: int = 0
    orphaned: bool = False
    status_counts: Dict[str, int] = field(default_factory=dict)
    started: float = 0.0
    manifest: Optional[RunManifest] = None
    finished: Optional[asyncio.Event] = None


class CampaignScheduler:
    """The daemon's engine; construct on (and drive from) one event loop."""

    def __init__(self, config: Optional[ExecConfig] = None):
        self.config = config if config is not None else ExecConfig.from_env()
        self.store = self.config.make_store()
        self.exec_fp = exec_fingerprint(self.config)
        self.dedupe = DedupeTable()
        self.log = EventLog()
        self.projections = Projections()
        self.requests: Dict[str, RequestState] = {}
        #: canonical jobs; their variant lists only ever grow (on the
        #: expansion thread), so indices handed out to earlier requests stay
        #: valid while the run thread is mid-batch.
        self._jobs: Dict[Tuple, CampaignJob] = {}
        #: one harness per (workload, scale), shared by every cell of it.
        self._harnesses: Dict[Tuple[str, int], WorkloadHarness] = {}
        #: build-table traffic caused by this daemon's threads.
        self.builds = BuildCounts()
        self._expand_pool = ThreadPoolExecutor(1, thread_name_prefix="dpmr-expand")
        self._run_pool = ThreadPoolExecutor(1, thread_name_prefix="dpmr-run")
        self._cancel = threading.Event()
        self._runner_task: Optional[asyncio.Task] = None
        self._ids = itertools.count(1)

    # -- submission (event loop) ----------------------------------------

    async def submit(
        self,
        request: CampaignRequest,
        send: Optional[Callable[[Dict], None]] = None,
    ) -> RequestState:
        """Admit one request; returns its live state immediately.

        Record/done messages stream through ``send`` as tuples complete.
        Raises ``ValueError`` on an invalid request or a duplicate
        ``request_id``.
        """
        loop = asyncio.get_running_loop()
        request.validate()
        request_id = request.request_id or f"req-{next(self._ids):04d}"
        if request_id in self.requests:
            raise ValueError(f"duplicate request id {request_id!r}")
        started = time.monotonic()
        # Snapshot of keys already completed in memory: the expansion
        # thread skips store I/O for them without reading loop-owned state.
        known = frozenset(self.dedupe.completed)
        refs, store_records, n_jobs = await loop.run_in_executor(
            self._expand_pool, self._expand, request, known
        )
        state = RequestState(
            request_id=request_id,
            request=request,
            send=send,
            total=len(refs),
            n_jobs=n_jobs,
            started=started,
        )
        state.finished = asyncio.Event()
        self.requests[request_id] = state

        served: List[Tuple[int, ExperimentRecord, str]] = []
        scheduled = 0
        for index, ref in enumerate(refs):
            record = self.dedupe.lookup(ref.key)
            if record is not None:
                state.shared_hits += 1
                served.append((index, record, "shared"))
                continue
            record = store_records.get(ref.key)
            if record is not None:
                if self.dedupe.serve_store_hit(ref.key, record):
                    self._emit_tuple_done(ref, record, "store")
                state.store_hits += 1
                served.append((index, record, "store"))
                continue
            if self.dedupe.admit(ref, state, index) == "inflight":
                state.shared_hits += 1
            else:
                state.executed += 1
                scheduled += 1
        self._event(
            "request_admitted",
            request_id=request_id,
            n_items=state.total,
            n_jobs=n_jobs,
            store_hits=state.store_hits,
            shared_hits=state.shared_hits,
            executed=state.executed,
        )
        self._send(
            state,
            protocol.accepted_message(
                request_id,
                state.total,
                n_jobs,
                state.store_hits,
                state.shared_hits,
                state.executed,
            ),
        )
        for index, record, source in served:
            self._serve(state, index, record, source)
        if scheduled:
            self._kick_runner()
        if state.done >= state.total:
            self._finish(state)
        return state

    def orphan(self, state: RequestState) -> None:
        """Stop messaging a disconnected client; its tuples keep running."""
        if not state.orphaned:
            state.orphaned = True
            logger.info(
                "request %s orphaned at %d/%d records (tuples keep running)",
                state.request_id,
                state.done,
                state.total,
            )

    def status(self) -> Dict:
        """Projection snapshot — answered without replaying any record."""
        return {
            "type": "status",
            "n_events": len(self.log),
            "inflight": len(self.dedupe.inflight),
            "pending": len(self.dedupe.pending),
            "completed": len(self.dedupe.completed),
            "dedupe": dict(self.dedupe.stats),
            "builds": {**self.builds.to_dict(), "entries": len(build_table())},
            "projections": self.projections.to_dict(),
        }

    async def aclose(self) -> None:
        """Cooperative shutdown: stop between experiments, drain threads."""
        self._cancel.set()
        if self._runner_task is not None:
            try:
                await self._runner_task
            except Exception:  # pragma: no cover — logged in the runner
                pass
        self._expand_pool.shutdown(wait=True)
        self._run_pool.shutdown(wait=True)

    # -- expansion (expand thread) --------------------------------------

    def _expand(
        self, request: CampaignRequest, known: frozenset
    ) -> Tuple[List[TupleRef], Dict[str, ExperimentRecord], int]:
        """Resolve a request to keyed tuple refs, in its own record order.

        The enumeration (workload × kind in request order, then
        site × variant × seed per job) matches
        :func:`~repro.eval.api.request_jobs` + the executor's serial item
        order exactly, which is what makes service records arrive in the
        same order an in-process ``run(request)`` returns them.
        """
        refs: List[TupleRef] = []
        n_jobs = 0
        for workload in request.workloads:
            for kind in request.kinds:
                with build_scope(self.builds):
                    job = self._job(
                        workload,
                        request.scale,
                        kind,
                        request.percent,
                        request.seeds,
                        request.design,
                    )
                    vis = self._ensure_variants(job, request.variants, request.design)
                n_jobs += 1
                variant_fps = [variant_fingerprint(v) for v in job.variants]
                n_sites = len(job.sites)
                if request.max_sites is not None:
                    n_sites = min(n_sites, request.max_sites)
                for si in range(n_sites):
                    for vi in vis:
                        for ri in range(len(job.seeds)):
                            key, _ = tuple_key(
                                job, si, variant_fps[vi], ri, self.exec_fp
                            )
                            refs.append(TupleRef(job, si, vi, ri, key))
        store_records: Dict[str, ExperimentRecord] = {}
        if self.store is not None:
            lookup = sorted({r.key for r in refs} - known)
            store_records = self.store.get_many(lookup)
        return refs, store_records, n_jobs

    def _job(
        self,
        workload: str,
        scale: int,
        kind: str,
        percent: int,
        seeds: Sequence[int],
        design: str,
    ) -> CampaignJob:
        """The canonical job for one matrix cell (created once, ever).

        The job enumerates *all* fault sites — a request's ``max_sites``
        restricts which site indices it admits, so differing limits share
        one job.  Seeds are part of the identity because the run index
        (which the store key and the record both carry) indexes into them;
        everything built for the job is keyed by content in the build
        table, so cells that differ only in seeds build nothing twice.
        """
        key = (workload, scale, kind, percent, tuple(seeds), design)
        job = self._jobs.get(key)
        if job is None:
            harness = self._harnesses.get((workload, scale))
            if harness is None:
                from ..apps import app_factory

                harness = self._harnesses[(workload, scale)] = WorkloadHarness(
                    workload, app_factory(workload, scale), config=self.config
                )
            job = job_for_harness(harness, [], kind, percent=percent, seeds=seeds)
            self._jobs[key] = job
        return job

    def _ensure_variants(
        self, job: CampaignJob, names: Sequence[str], design: str
    ) -> List[int]:
        """Canonical variant indices for ``names``, appending new ones.

        A new variant's base transform is fetched from the build table
        (built on the first use of its content and transform
        configuration) at admission.
        """
        known = [v.name for v in job.variants]
        for variant in resolve_variants(names, design):
            if variant.name not in known:
                base_transform(job.pristine, job.pristine_digest, variant)
                job.variants.append(variant)
                known.append(variant.name)
        return [known.index(name) for name in names]

    # -- execution (runner task + run thread) ---------------------------

    def _kick_runner(self) -> None:
        if self._runner_task is None or self._runner_task.done():
            self._runner_task = asyncio.get_running_loop().create_task(
                self._run_batches()
            )

    async def _run_batches(self) -> None:
        """Drain pending tuples in batch snapshots until the queue is dry.

        Tuples admitted while a batch is executing land in the next
        snapshot; the single run thread means batches never overlap.
        """
        loop = asyncio.get_running_loop()
        while self.dedupe.pending and not self._cancel.is_set():
            keys = self.dedupe.take_pending()
            refs = [
                self.dedupe.inflight[k].ref
                for k in keys
                if k in self.dedupe.inflight
            ]
            if not refs:
                continue
            jobs: List[CampaignJob] = []
            items: List[Tuple[int, int, int, int]] = []
            key_of: Dict[Tuple[int, int, int, int], str] = {}
            job_index: Dict[int, int] = {}
            for ref in refs:
                ji = job_index.get(id(ref.job))
                if ji is None:
                    ji = len(jobs)
                    job_index[id(ref.job)] = ji
                    jobs.append(ref.job)
                item = (ji, ref.si, ref.vi, ref.ri)
                items.append(item)
                key_of[item] = ref.key

            def on_record(item, record, source, _key_of=key_of, _loop=loop):
                key = _key_of.get(tuple(item))
                if key is not None:
                    _loop.call_soon_threadsafe(self._tuple_done, key, record)

            def run_batch(_jobs=jobs, _items=items, _cb=on_record):
                with build_scope(self.builds):
                    return run_campaign_jobs_with_manifest(
                        _jobs,
                        config=self.config,
                        items=_items,
                        on_record=_cb,
                        cancel=self._cancel,
                    )

            try:
                _, manifest = await loop.run_in_executor(self._run_pool, run_batch)
            except Exception as exc:  # infrastructure failure of the batch
                logger.exception("campaign batch of %d tuple(s) failed", len(items))
                for key in keys:
                    self._tuple_failed(key, f"{type(exc).__name__}: {exc}")
                continue
            # on_record callbacks were queued via call_soon_threadsafe
            # *before* the executor future resolved, so by this point every
            # completed tuple has been served; leftovers were quarantined
            # (or abandoned by shutdown).
            self._event(
                "batch_done",
                n_items=len(items),
                wall_s=round(manifest.wall_s, 6),
                engine=manifest.engine,
                effective_jobs=manifest.effective_jobs,
            )
            if not self._cancel.is_set():
                for key in keys:
                    if key in self.dedupe.inflight:
                        self._tuple_failed(key, "quarantined after retries")

    # -- completion fan-out (event loop) --------------------------------

    def _tuple_done(self, key: str, record: ExperimentRecord) -> None:
        entry = self.dedupe.complete(key, record)
        if entry is None:
            return
        self._emit_tuple_done(entry.ref, record, "run")
        for state, index, source in entry.subscribers:
            self._serve(state, index, record, source)

    def _tuple_failed(self, key: str, reason: str) -> None:
        entry = self.dedupe.fail(key)
        if entry is None:
            return
        ref = entry.ref
        self._event(
            "tuple_error",
            workload=ref.job.workload,
            fault_kind=ref.job.kind,
            site=ref.site_id,
            reason=reason,
        )
        for state, index, _ in entry.subscribers:
            state.done += 1
            state.errors += 1
            self._send(
                state,
                protocol.tuple_error_message(
                    state.request_id,
                    index,
                    ref.site_id,
                    reason,
                    state.done,
                    state.total,
                ),
            )
            self._progress(state)

    def _serve(
        self,
        state: RequestState,
        index: int,
        record: ExperimentRecord,
        source: str,
    ) -> None:
        state.done += 1
        status = record.result.status.value
        state.status_counts[status] = state.status_counts.get(status, 0) + 1
        self._send(
            state,
            protocol.record_message(
                state.request_id, index, source, state.done, state.total, record
            ),
        )
        self._progress(state)

    def _progress(self, state: RequestState) -> None:
        self._event(
            "request_progress",
            request_id=state.request_id,
            done=state.done,
            errors=state.errors,
        )
        if state.done >= state.total:
            self._finish(state)

    def _finish(self, state: RequestState) -> None:
        if state.manifest is not None:
            return
        wall = time.monotonic() - state.started
        manifest = manifest_for(
            "service",
            self.config,
            self.config.observing,
            effective_jobs=1,
            worker_reason=(
                "empty_campaign"
                if state.total == 0
                else "shared service pool (per-batch worker decisions)"
            ),
            n_jobs=state.n_jobs,
            n_items=state.total,
            n_records=state.total - state.errors,
            store_path=self.config.store_path,
            store_hits=state.store_hits,
            store_misses=state.executed,
            shared_hits=state.shared_hits,
            status_counts=dict(state.status_counts),
            wall_s=wall,
        )
        state.manifest = manifest
        self._event(
            "request_done",
            request_id=state.request_id,
            wall_s=round(wall, 6),
            errors=state.errors,
        )
        self._send(
            state, protocol.done_message(state.request_id, state.errors, manifest)
        )
        if state.finished is not None:
            state.finished.set()

    # -- events and messaging -------------------------------------------

    def _event(self, kind: str, **fields) -> None:
        self.projections.apply(self.log.append(kind, **fields))

    def _emit_tuple_done(
        self, ref: TupleRef, record: ExperimentRecord, source: str
    ) -> None:
        """One event per *unique* completed tuple (not per subscriber)."""
        self._event(
            "tuple_done",
            workload=record.workload,
            fault_kind=ref.job.kind,
            variant=record.variant,
            status=record.result.status.value,
            covered=record.covered,
            detected=record.ddet or record.ndet,
            t2d=record.t2d,
            cycles=record.result.cycles,
            source=source,
        )

    def _send(self, state: RequestState, msg: Dict) -> None:
        if state.orphaned or state.send is None:
            return
        try:
            state.send(msg)
        except Exception:
            self.orphan(state)
