"""Parallel fault-injection campaign executor with incremental builds.

The evaluation re-runs the interpreter once per experiment tuple
``(workload, variant, site, run)`` — thousands of fully independent
machine executions.  This module fans those tuples out over a
``multiprocessing`` worker pool while keeping the results *provably
bit-identical* to a serial run:

* **Deterministic per-experiment seeding.**  Every experiment's machine RNG
  is seeded solely from its tuple (the harness seed list); nothing is drawn
  from shared or order-dependent RNG state.  Workers are forked from the
  parent, so they also inherit the parent's hash seed and build
  byte-identical modules.
* **No shared mutable machine state.**  Each experiment runs in a fresh
  :class:`~repro.machine.interpreter.Machine`; the only values that cross
  process boundaries are immutable work-item indices (parent → worker) and
  finished :class:`ExperimentRecord` values (worker → parent).
* **Serial-identical aggregation.**  Results are reassembled in the exact
  nested order the serial loop produces (job → site → variant → run),
  whatever order workers finish in.

Experiment builds go through the **incremental recompilation layer**
(:mod:`repro.core.incremental`) by default: each DPMR transform
configuration (design and comparison policy) transforms the pristine
snapshot once, and a faulty build (:func:`site_build`) is then a
copy-on-write module clone plus a re-transform of the single function
containing the fault.  Every build product — pristine snapshot, site
list, base transform, finished faulty build — lives in the process-wide
build table (:mod:`repro.eval.builds`) under a key made of its content,
so jobs that differ only in seeds, variant list or order, or fault kind,
variants that differ only in diversity, and repeated campaigns over fresh
job objects, share every build they have in common; each tuple binds its
variant's name and diversity to the shared build (:meth:`Variant.bind`).
The base transforms a campaign needs are fetched in the coordinating
process *before* the pool forks, so workers share them (copy-on-write
pages) rather than rebuilding them.  The full-rebuild oracle,
:func:`reference_build` (``DPMR_INCREMENTAL=0`` or ``incremental=False``),
re-runs the factory and transforms the whole faulty module for every
tuple, uncached; records are bit-identical on both paths.

The executor is opt-in: ``DPMR_JOBS=N`` in the environment (or an explicit
``jobs=`` argument) enables it; unset/``1`` runs the same code path
serially in-process.  A minimum-work-per-worker heuristic shrinks (or
drops to serial) the worker pool when a campaign is too small to amortize
fork/IPC cost, and the pool never exceeds the cores this process may run
on.  Platforms without the ``fork`` start method fall back to serial
execution — determinism there would require pickling program factories and
re-deriving the hash seed, which the fork path gets for free.

**Resilience** (``DPMR_STORE`` / ``DPMR_RETRIES`` / ``DPMR_EXP_TIMEOUT``):
with a store configured, every finished record is persisted under a
content address (:mod:`repro.eval.store`) and looked up before anything
is built, so re-running a campaign skips already-computed tuples (and
their builds) and an interrupted campaign resumes where it died.  Parallel
workers run under a :class:`~repro.eval.supervise.WorkerSupervisor` — a
SIGKILLed or wedged worker is detected, respawned, and its experiment
retried with exponential backoff; a serial campaign runs the same
supervisor loop in-process (one worker, no wall-clock budget).  An
experiment that keeps failing has its fault *site* quarantined: the site's
records are excluded from the result, the campaign completes, and the run
manifest records the quarantine, every retry, and all store traffic —
degradation is never silent.  All of this is bit-transparent: the
surviving records are byte-identical to an uninterrupted serial run
without a store.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.incremental import IncrementalDpmrCompiler
from ..core.pipeline import DpmrBuild
from ..faultinject.campaign import ProgramFactory, campaign_sites
from ..faultinject.injector import FAULT_KINDS, FaultSite, inject
from ..ir.module import Module
from ..obs.manifest import (
    JobManifest,
    QuarantineRecord,
    RunManifest,
    usable_cpu_count,
)
from .builds import (
    BaseTransform,
    build_scope,
    build_table,
    canonical_pristine,
    pristine_entry,
)
from .config import ExecConfig
from .experiment import ExperimentRecord
from .store import exec_fingerprint, tuple_key, variant_fingerprint
from .supervise import SupervisionStats, WorkerSupervisor, serve
from .variants import CompiledVariant, Variant

logger = logging.getLogger("repro.eval.parallel")

#: Forking a worker is only worth it if it gets at least this many
#: experiment tuples; below that, fork + import + IPC overhead dominates
#: (visible as parallel_s > serial_s on small campaigns).
MIN_ITEMS_PER_WORKER = 16


def default_jobs() -> int:
    """Worker count from ``DPMR_JOBS`` (defaults to serial execution)."""
    return ExecConfig.from_env().jobs


def effective_workers(n_items: int, processes: int) -> int:
    """Worker count actually used for ``n_items`` experiment tuples.

    Caps the requested ``processes`` at (a) the usable core count
    (:func:`~repro.obs.manifest.usable_cpu_count`) — extra workers on fewer
    cores only add fork and scheduling overhead — and (b) one worker per
    :data:`MIN_ITEMS_PER_WORKER` tuples, so tiny campaigns fall back to
    fewer workers or plain serial execution instead of paying fork cost
    they cannot amortize.
    """
    cap = usable_cpu_count()
    by_work = n_items // MIN_ITEMS_PER_WORKER
    return max(1, min(processes, cap, by_work))


@dataclass
class CampaignJob:
    """One (workload, fault-kind) campaign: everything a worker needs.

    ``sites`` is enumerated once in the parent so every process agrees on
    site identity and order.  ``pristine``, when provided (it is whenever
    the job comes from :func:`job_for_harness`), is the canonical pristine
    snapshot the sites were enumerated on and ``pristine_digest`` its
    content digest; the incremental build path derives every faulty module
    from it instead of re-running the factory.
    """

    workload: str
    factory: ProgramFactory
    kind: str
    variants: List[Variant]
    sites: List[FaultSite]
    golden_output: str
    timeout: int
    argv: Sequence[str] = ()
    seeds: Sequence[int] = (0,)
    percent: int = 50
    pristine: Optional[Module] = field(default=None, repr=False)
    pristine_digest: Optional[str] = field(default=None, repr=False)

    def pristine_snapshot(self) -> Tuple[Module, str]:
        """The canonical pristine module of this job and its digest."""
        if self.pristine is None or self.pristine_digest is None:
            module = self.pristine if self.pristine is not None else self.factory()
            self.pristine, self.pristine_digest = canonical_pristine(module)
        return self.pristine, self.pristine_digest


def job_for_harness(
    harness,
    variants,
    kind: str,
    percent: int = 50,
    max_sites: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
) -> CampaignJob:
    """Build a :class:`CampaignJob` from a ``WorkloadHarness``.

    ``seeds`` overrides the harness's seed list (the service expands
    request-specified seeds through here); None keeps the harness's.
    Sites come from the build table, enumerated once per
    (pristine content, kind, percent); nothing is transformed here.
    """
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")
    pristine, digest = harness.pristine, harness.pristine_digest
    sites = build_table().get(
        ("sites", digest, kind, percent),
        lambda: campaign_sites(harness.factory, kind, percent=percent, module=pristine),
    )
    if max_sites is not None:
        sites = sites[:max_sites]
    return CampaignJob(
        workload=harness.name,
        factory=harness.factory,
        kind=kind,
        variants=list(variants),
        sites=list(sites),
        golden_output=harness.golden.output_text,
        timeout=harness.timeout,
        argv=harness.argv,
        seeds=tuple(seeds) if seeds is not None else harness.seeds,
        percent=percent,
        pristine=pristine,
        pristine_digest=digest,
    )


def base_transform(
    pristine: Module, digest: str, variant: Variant
) -> Optional[BaseTransform]:
    """The table's base transform of ``pristine`` under ``variant``'s
    transform configuration (:meth:`Variant.transform_key`).

    None for non-DPMR variants, which need no transform.
    """
    key = variant.transform_key()
    if key is None:
        return None

    def build() -> BaseTransform:
        admitted = pristine_entry(pristine, digest)
        return BaseTransform(
            IncrementalDpmrCompiler(
                variant.transform_compiler(), admitted.module, admitted.function_fps
            )
        )

    return build_table().get(("base", digest, key), build)


#: A finished faulty build, before a variant's name and diversity are
#: bound to it: ``(faulty module, None)`` without DPMR, and ``(None, DPMR
#: build)`` with it — nothing reads the faulty source once it is
#: transformed, so the table does not keep it.
SiteBuild = Tuple[Optional[Module], Optional[DpmrBuild]]

# An experiment tuple: (job index, site index, variant index, run index).
_Item = Tuple[int, int, int, int]

#: Test-only chaos hook: a callable invoked with each experiment tuple at
#: the top of :func:`_run_item` (inherited by forked workers).  The chaos
#: test-suite uses it to SIGKILL a worker, wedge an experiment, or poison a
#: site deterministically; production leaves it None.
_CHAOS_HOOK = None


def site_build(job: CampaignJob, si: int, variant: Variant) -> SiteBuild:
    """The finished faulty build of site ``si`` under ``variant``'s
    transform: the build table's ``site`` entry, built at most once per
    content in this process.

    The build clones the module the base transform was built on, so every
    unchanged function is recognized by identity, injects the fault, and
    re-transforms the changed function under the base entry's lock (its
    policy object and memo are not thread-safe).  The entry keeps only
    what runs: the transformed build, not the faulty source it was made
    from (see :data:`SiteBuild`).  The base is read with an
    uncounted lookup, since the campaign counted it when it fetched it
    before forking; only a base missing from the table is fetched (and
    counted) here.
    """
    pristine, digest = job.pristine_snapshot()
    site = job.sites[si]
    key = variant.transform_key()

    def build() -> SiteBuild:
        base = None
        if key is not None:
            base = build_table().peek(("base", digest, key))
            if base is None:  # no campaign fetched it, or it was evicted since
                base = base_transform(pristine, digest, variant)
        source = base.compiler.pristine if base is not None else pristine
        faulty = inject(
            source.clone(mutable_functions=(site.function,)), site, job.percent
        )
        if base is None:
            return faulty, None
        with base.lock:
            return None, base.compiler.compile(faulty)

    return build_table().get(
        ("site", digest, job.kind, job.percent, site.site_id, key), build
    )


def reference_build(job: CampaignJob, si: int, variant: Variant) -> CompiledVariant:
    """The full-rebuild oracle for site ``si`` under ``variant``: a fresh
    factory build, fault injection and a whole-module transform, uncached."""
    return variant.compile(inject(job.factory(), job.sites[si], job.percent))


def _run_item(
    jobs: List[CampaignJob],
    item: _Item,
    tracer=None,
    counters: bool = False,
    compiled: bool = False,
    incremental: bool = True,
) -> ExperimentRecord:
    """One experiment tuple's record, built by :func:`site_build` or, with
    ``incremental`` off, by the :func:`reference_build` oracle.  A campaign
    binds everything but ``item`` (:func:`functools.partial`); forked
    workers inherit that callable, and the in-process mode calls it
    directly."""
    ji, si, vi, ri = item
    hook = _CHAOS_HOOK
    if hook is not None:
        hook(item)
    job = jobs[ji]
    v = job.variants[vi]
    if incremental:
        build = v.bind(*site_build(job, si, v))
    else:
        build = reference_build(job, si, v)
    variant = v.name
    site = job.sites[si].site_id
    trace_meta = None
    if tracer is not None:
        trace_meta = {
            "run_id": f"{job.workload}/{variant}/{site}/{ri}",
            "workload": job.workload,
            "variant": variant,
            "site": site,
            "run": ri,
            "golden_output": job.golden_output,
        }
    result = build.run(
        argv=job.argv,
        max_cycles=job.timeout,
        seed=job.seeds[ri],
        tracer=tracer,
        counters=counters,
        trace_meta=trace_meta,
        compiled=compiled,
    )
    return ExperimentRecord(
        workload=job.workload,
        variant=variant,
        site=site,
        run=ri,
        result=result,
        golden_output=job.golden_output,
    )


def _all_items(jobs: Sequence[CampaignJob]) -> List[_Item]:
    """Every experiment tuple, in exact serial execution order."""
    return [
        (ji, si, vi, ri)
        for ji, job in enumerate(jobs)
        for si in range(len(job.sites))
        for vi in range(len(job.variants))
        for ri in range(len(job.seeds))
    ]


def _worker_decision(
    requested: int, n_items: int
) -> Tuple[int, str, Optional[str]]:
    """Decide the worker count: ``(effective, reason, serial_fallback)``.

    ``serial_fallback`` is non-None exactly when parallelism was *requested*
    (``requested > 1``) but the executor runs serially anyway — the cases
    that used to be silent.
    """
    if requested <= 1:
        return 1, "serial requested (jobs=1)", None
    if n_items <= 1:
        return 1, "serial", f"campaign has {n_items} experiment(s)"
    if not _fork_available():
        return 1, "serial", "fork start method unavailable on this platform"
    cap = usable_cpu_count()
    if cap <= 1:
        # Forking on a single core only adds scheduling and IPC overhead
        # (workers time-slice one CPU); the fallback used to be implicit in
        # the min() below — make it explicit so the manifest says why.
        return 1, "serial", "single usable core"
    effective = effective_workers(n_items, requested)
    if effective <= 1:
        if n_items // MIN_ITEMS_PER_WORKER <= 1:
            detail = (
                f"min-work heuristic: {n_items} items cannot amortize fork "
                f"cost (≥{MIN_ITEMS_PER_WORKER} items/worker required)"
            )
        else:
            detail = f"{cap} usable core(s)"
        return 1, "serial", detail
    reason = (
        f"min(requested {requested}, cpu {cap}, "
        f"{n_items} items // {MIN_ITEMS_PER_WORKER}/worker)"
    )
    return effective, reason, None


def _job_manifests(jobs: Sequence[CampaignJob]) -> List[JobManifest]:
    """Per-job shape: workload, fault kind, sites, variants and seeds."""
    return [
        JobManifest(
            workload=job.workload,
            kind=job.kind,
            n_sites=len(job.sites),
            n_variants=len(job.variants),
            n_seeds=len(job.seeds),
            sites=[s.site_id for s in job.sites],
        )
        for job in jobs
    ]


def _store_index(
    jobs: List[CampaignJob],
    items: List[_Item],
    config: ExecConfig,
    store,
) -> Tuple[Dict[_Item, ExperimentRecord], Dict[_Item, str], Dict[_Item, Dict]]:
    """Look up every experiment tuple in the persistent store.

    Returns ``(cached, keys, key_fields)``: records served as hits, the
    content address of every item, and the human-readable key fields
    persisted with each entry (:func:`~repro.eval.store.tuple_key`).
    """
    exec_fp = exec_fingerprint(config)
    variant_fps = [[variant_fingerprint(v) for v in job.variants] for job in jobs]

    cached: Dict[_Item, ExperimentRecord] = {}
    keys: Dict[_Item, str] = {}
    key_fields: Dict[_Item, Dict] = {}
    for item in items:
        ji, si, vi, ri = item
        key, key_fields[item] = tuple_key(
            jobs[ji], si, variant_fps[ji][vi], ri, exec_fp
        )
        keys[item] = key
        record = store.get(key)
        if record is not None:
            cached[item] = record
    return cached, keys, key_fields


def run_campaign_jobs_with_manifest(
    jobs: Sequence[CampaignJob],
    config: Optional[ExecConfig] = None,
    tracer=None,
    items: Optional[Sequence[_Item]] = None,
    on_record: Optional[Callable[[_Item, ExperimentRecord, str], None]] = None,
    cancel=None,
) -> Tuple[List[ExperimentRecord], RunManifest]:
    """Run every experiment of every job; records in serial order + manifest.

    The manifest captures every executor decision (requested vs. effective
    worker count and why, serial-fallback reason, build path) plus the
    shape of every job and campaign aggregates (status counts, machine
    counter totals when observability is on) and every resilience event
    (store hits/misses/corruption, retries, worker restarts, quarantined
    sites), and the campaign's build-table traffic (golden runs, base
    transforms and site builds built or served; :mod:`repro.eval.builds`).
    ``config`` defaults to :meth:`ExecConfig.from_env`; ``tracer``
    overrides the config's trace file (pass a
    :class:`~repro.obs.CollectingTracer` in tests).  Records stay
    bit-identical across serial/parallel, incremental/full-rebuild,
    store-cold/store-warm, and observability on/off execution.

    Service hooks (all optional, default to the classic batch behaviour):

    * ``items`` — run only this subset of experiment tuples
      ``(job, site, variant, run)`` instead of every job's full
      site × variant × seed cross product.  The campaign service passes
      exactly the tuples its dedupe table left over, so overlapping
      client requests never recompute shared work.
    * ``on_record(item, record, source)`` — streaming callback invoked in
      the coordinator process for every finished record: once per store
      hit (``source="store"``, before execution starts) and once per
      computed record as it completes (``source="run"``, in completion
      order).  Records are *also* returned at the end, in serial order.
    * ``cancel`` — a ``threading.Event``-alike polled between dispatches;
      when set, remaining items are abandoned and only finished records
      are returned.
    """
    from ..machine.compile import codegen_stats
    from ..obs.tracer import real_tracer

    config = config if config is not None else ExecConfig.from_env()
    jobs = list(jobs)
    items = _all_items(jobs) if items is None else [tuple(i) for i in items]
    own_tracer = tracer is None
    if own_tracer:
        tracer = config.make_tracer()
    tracer = real_tracer(tracer)
    counters = config.counters or tracer is not None
    with build_scope() as builds:
        try:
            # -- persistent store lookup, before anything is built -------
            store = config.make_store()
            cached: Dict[_Item, ExperimentRecord] = {}
            keys: Dict[_Item, str] = {}
            key_fields: Dict[_Item, Dict] = {}
            if store is not None and items:
                cached, keys, key_fields = _store_index(jobs, items, config, store)
            misses = [item for item in items if item not in cached]
            if on_record is not None:
                for item in items:
                    record = cached.get(item)
                    if record is not None:
                        on_record(item, record, "store")
            on_result = None
            if store is not None or on_record is not None:

                def on_result(item, record):  # noqa: E731 — composed callback
                    if store is not None:
                        store.put(keys[item], record, key_fields.get(item))
                    if on_record is not None:
                        on_record(item, record, "run")

            # The base transforms of jobs with work left, fetched before
            # the pool forks so workers inherit them; a store-warm campaign
            # transforms nothing.
            if config.incremental:
                for ji in sorted({item[0] for item in misses}):
                    pristine, digest = jobs[ji].pristine_snapshot()
                    for variant in jobs[ji].variants:
                        base_transform(pristine, digest, variant)

            if not items:
                # An explicit decision, not a silent no-op: a service-side
                # expansion bug that produces zero tuples must be visible
                # in the manifest.
                effective, reason, fallback = 1, "empty_campaign", None
                logger.warning(
                    "campaign over %d job(s) expanded to zero experiment tuples",
                    len(jobs),
                )
            elif not misses:
                effective, reason, fallback = (
                    1,
                    "all experiments served from store",
                    None,
                )
            else:
                effective, reason, fallback = _worker_decision(
                    config.jobs, len(misses)
                )
            if fallback is not None:
                logger.warning(
                    "campaign requested %d workers but runs serially: %s",
                    config.jobs,
                    fallback,
                )
            if effective <= 1 and misses and config.exp_timeout_s > 0:
                # Keep the missing process boundary visible: nothing can
                # preempt an experiment that runs in this process.
                reason += (
                    f"; {config.exp_timeout_s:g}s experiment budget not "
                    "enforced in-process"
                )
                logger.warning(
                    "campaign runs in-process: the %gs per-experiment wall "
                    "budget is not enforced",
                    config.exp_timeout_s,
                )
            manifest = manifest_for(
                "campaign",
                config,
                counters,
                effective_jobs=effective,
                worker_reason=reason,
                serial_fallback=fallback,
                incremental=config.incremental and bool(items),
                trace_path=(
                    config.trace_path if (own_tracer and tracer is not None) else None
                ),
                n_jobs=len(jobs),
                n_items=len(items),
            )
            run_item = functools.partial(
                _run_item,
                jobs,
                tracer=tracer,
                counters=counters,
                compiled=config.compiled,
                incremental=config.incremental,
            )
            supervisor = WorkerSupervisor(
                _fork_context() if effective > 1 else None,
                functools.partial(serve, run_item),
                effective,
                retries=config.retries,
                exp_timeout_s=config.exp_timeout_s,
                backoff_s=config.retry_backoff_s,
                site_of=lambda item: item[:2],
                on_result=on_result,
                cancel=cancel,
            )
            # Coordinator-process snapshot: forked workers' codegen stats do
            # not cross the process boundary, so the deltas cover in-process
            # runs and the coordinator's share of parallel ones (still
            # enough to show the content-addressed cache working across a
            # campaign).
            cg_before = codegen_stats()
            started = time.monotonic()
            computed = supervisor.run(
                misses, inline=run_item if effective <= 1 else None
            )
            stats = supervisor.stats
            cancelled = cancel is not None and cancel.is_set()
            records = []
            for item in items:
                if item[:2] in stats.quarantined:
                    continue
                record = cached.get(item)
                if record is None:
                    record = computed.get(item)
                if record is None:
                    if cancelled:
                        continue  # abandoned by cancellation, not an invariant hole
                    raise RuntimeError(
                        f"experiment {item} neither computed nor quarantined "
                        "(supervisor invariant violated)"
                    )
                records.append(record)
            if cancelled:
                logger.warning(
                    "campaign cancelled: %d of %d experiment tuple(s) finished",
                    len(records),
                    len(items),
                )
        finally:
            if own_tracer and tracer is not None:
                tracer.close()

    wall_s = time.monotonic() - started
    manifest.jobs = _job_manifests(jobs)
    builds.add_to(manifest)
    _record_outcome(manifest, jobs, stats, store)
    finish_manifest(manifest, config, records, wall_s, cg_before)
    return records, manifest


def manifest_for(mode: str, config: ExecConfig, counters: bool, **fields) -> RunManifest:
    """A run manifest's configuration snapshot; ``fields`` set the rest.

    ``counters`` says whether runs are observed (counters or a tracer).
    Observed runs execute on the instrumented interpreter whatever
    ``config.compiled`` asks (:class:`~repro.machine.interpreter.Machine`
    makes that choice), so this is the one place that names the engine.
    ``fields`` may override ``incremental`` where a run builds no campaign.
    """
    snapshot = {
        "requested_jobs": config.jobs,
        "incremental": config.incremental,
        "counters_enabled": counters,
        "engine": "compiled" if config.compiled and not counters else "interp",
        "timeout_factor": config.timeout_factor,
    }
    snapshot.update(fields)
    return RunManifest(mode=mode, **snapshot)


def finish_manifest(
    manifest: RunManifest,
    config: ExecConfig,
    records: List[ExperimentRecord],
    wall_s: float,
    codegen_before: Dict[str, int],
) -> None:
    """Outcome of a run → manifest: wall time, codegen traffic since
    ``codegen_before``, record aggregates; then persist it if ``config``
    names a manifest path."""
    from ..machine.compile import codegen_stats
    from ..obs.counters import total_counters

    manifest.wall_s = wall_s
    codegen = codegen_stats()
    manifest.codegen_hits = codegen["hits"] - codegen_before["hits"]
    manifest.codegen_misses = codegen["misses"] - codegen_before["misses"]
    manifest.n_records = len(records)
    for r in records:
        s = r.result.status.value
        manifest.status_counts[s] = manifest.status_counts.get(s, 0) + 1
    manifest.counter_totals = total_counters(r.result.counters for r in records)
    out_path = config.effective_manifest_path()
    if out_path is not None:
        manifest.write(out_path)


def _record_outcome(
    manifest: RunManifest,
    jobs: List[CampaignJob],
    stats: SupervisionStats,
    store,
) -> None:
    """Resilience events and store traffic → manifest."""
    manifest.retries = stats.retries
    manifest.worker_restarts = stats.worker_restarts
    manifest.exp_timeouts = stats.exp_timeouts
    for (ji, si), (attempts, reason) in sorted(stats.quarantined.items()):
        manifest.quarantined.append(
            QuarantineRecord(
                workload=jobs[ji].workload,
                kind=jobs[ji].kind,
                site=jobs[ji].sites[si].site_id,
                attempts=attempts,
                reason=reason,
            )
        )
    if store is not None:
        manifest.store_path = store.root
        manifest.store_hits = store.stats.hits
        manifest.store_misses = store.stats.misses
        manifest.store_writes = store.stats.writes
        manifest.store_corrupt = store.stats.corrupt


def run_campaign_jobs(
    jobs: Sequence[CampaignJob],
    config: Optional[ExecConfig] = None,
) -> List[ExperimentRecord]:
    """Run every experiment of every job; results in serial order.

    Thin records-only wrapper over :func:`run_campaign_jobs_with_manifest`.
    Execution is governed entirely by ``config`` (defaulting to the
    environment via :meth:`ExecConfig.from_env`); the pre-PR-4
    ``processes=``/``incremental=`` keyword aliases are gone — see the
    README migration notes.
    """
    records, _ = run_campaign_jobs_with_manifest(jobs, config=config)
    return records


# ``multiprocessing`` is imported only where a pool may fork, so a serial
# campaign, and a daemon that runs one, never loads it.
def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _fork_context():
    import multiprocessing

    return multiprocessing.get_context("fork")
