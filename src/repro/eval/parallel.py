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
(:mod:`repro.core.incremental`) by default: each DPMR variant transforms
the pristine snapshot once, and a faulty build is then a copy-on-write
module clone plus a re-transform of the single function containing the
fault.  Every build product — pristine snapshot, site list, base
transform, finished faulty build — lives in the process-wide build table
(:mod:`repro.eval.builds`) under a key made of its content, so jobs that
differ only in seeds, variant list or order, or fault kind, and repeated
campaigns over fresh job objects, share every build they have in common.
The base transforms a campaign needs are fetched in the coordinating
process *before* the pool forks, so workers share them (copy-on-write
pages) rather than rebuilding them; records are bit-identical to the
full-rebuild path (set ``DPMR_INCREMENTAL=0`` or pass
``incremental=False`` to use it), whose builds workers memoise in a small
per-call LRU keyed by ``(workload, variant, site)``.

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
retried with exponential backoff; serial execution applies the same
bounded-retry policy to infrastructure exceptions.  An experiment that
keeps failing has its fault *site* quarantined: the site's records are
excluded from the result, the campaign completes, and the run manifest
records the quarantine, every retry, and all store traffic — degradation
is never silent.  All of this
is bit-transparent: the surviving records are byte-identical to an
uninterrupted serial run without a store.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.incremental import IncrementalDpmrCompiler
from ..faultinject.campaign import ProgramFactory, campaign_sites
from ..faultinject.injector import FAULT_KINDS, FaultSite, inject
from ..ir.module import Module
from ..obs.manifest import (
    JobManifest,
    QuarantineRecord,
    RunManifest,
    usable_cpu_count,
)
from .builds import BaseTransform, build_scope, build_table, canonical_pristine
from .config import ExecConfig
from .experiment import ExperimentRecord
from .store import (
    exec_fingerprint,
    experiment_key,
    variant_fingerprint,
)
from .supervise import SupervisionStats, WorkerSupervisor
from .variants import CompiledVariant, Variant

logger = logging.getLogger("repro.eval.parallel")

#: Full-rebuild variants cached per worker; small, since consecutive work
#: items share the same (site, variant) and only chunk boundaries ever look
#: back.
_COMPILED_CACHE_SIZE = 32

#: Forking a worker is only worth it if it gets at least this many
#: experiment tuples; below that, fork + import + IPC overhead dominates
#: (visible as parallel_s > serial_s on small campaigns).
MIN_ITEMS_PER_WORKER = 16


def default_jobs() -> int:
    """Worker count from ``DPMR_JOBS`` (defaults to serial execution)."""
    return ExecConfig.from_env().jobs


def incremental_default() -> bool:
    """Whether the incremental build path is enabled (``DPMR_INCREMENTAL``)."""
    return ExecConfig.from_env().incremental


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

    def build_state(self) -> "JobBuildState":
        """This job's view onto the build table.

        Holds the pristine snapshot plus one base transform (function-level
        cache) per DPMR variant — the only full-program build work of a
        campaign, done once per content in this process, whatever job asks
        for it.  Fetched in the coordinator before forking, so workers
        inherit the warm transforms.
        """
        from ..machine.compile import inline_runtime_enabled

        pristine, digest = self.pristine_snapshot()
        inline_rt = inline_runtime_enabled()
        return JobBuildState(
            pristine=pristine,
            digest=digest,
            inline_rt=inline_rt,
            variant_fps=[variant_fingerprint(v) for v in self.variants],
            bases=[
                base_transform(pristine, digest, v, inline_rt) for v in self.variants
            ],
        )


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
    pristine: Module, digest: str, variant: Variant, inline_rt: bool
) -> Optional[BaseTransform]:
    """The table's base transform of ``pristine`` under ``variant``.

    None for non-DPMR variants, which need no transform.  ``inline_rt``
    must be the runtime-specialization flag in force, which the
    transform reads when it is built.
    """
    if not variant.dpmr:
        return None
    return build_table().get(
        ("base", digest, variant_fingerprint(variant), inline_rt),
        lambda: BaseTransform(variant.incremental_compiler(pristine)),
    )


@dataclass
class JobBuildState:
    """One job's view onto the build table, shared by coordinator and workers.

    The pristine snapshot and its digest, plus one base transform per
    variant (``None`` for non-DPMR variants).  Finished faulty builds are
    not held here: they are table entries keyed by content (see
    :meth:`site_key`).  The ``cache_*`` fields count the function-level
    transform cache traffic of the site builds made through this view.
    """

    pristine: Module
    digest: str
    inline_rt: bool
    variant_fps: List[str]
    bases: List[Optional[BaseTransform]]
    cache_hits: int = 0
    cache_misses: int = 0
    cache_full_rebuilds: int = 0

    @property
    def compilers(self) -> List[Optional[IncrementalDpmrCompiler]]:
        """The base transforms' incremental compilers (None: no DPMR)."""
        return [b.compiler if b is not None else None for b in self.bases]

    def site_key(self, job: CampaignJob, si: int, vi: int) -> Tuple:
        """Build-table key of the finished build of (site ``si``, variant ``vi``)."""
        return (
            "site",
            self.digest,
            job.kind,
            job.percent,
            job.sites[si].site_id,
            self.variant_fps[vi],
            self.inline_rt,
        )

    def cache_stats(self) -> Tuple[int, int, int]:
        return self.cache_hits, self.cache_misses, self.cache_full_rebuilds


def prepare_build_states(jobs: Sequence[CampaignJob]) -> List[JobBuildState]:
    """Each job's view onto the build table (see :meth:`CampaignJob.build_state`).

    This is the only place the campaign pays full-program build cost: one
    whole-module DPMR transform per variant whose content the table does
    not hold yet.
    """
    return [job.build_state() for job in jobs]


# An experiment tuple: (job index, site index, variant index, run index).
_Item = Tuple[int, int, int, int]
# Per-job build views of one campaign (None: incremental builds off, or,
# per job, no tuple of that job left to run).
_States = Optional[List[Optional[JobBuildState]]]

# Worker-side state.  Populated in the parent immediately before workers are
# forked (fork inherits it); None in a plain process.
_WORKER_JOBS: Optional[List[CampaignJob]] = None
_WORKER_STATES: _States = None
_WORKER_TRACER = None  # file-backed tracer shared with workers (fork-aware)
_WORKER_COUNTERS = False
_WORKER_USE_COMPILED = False  # compiled execution tier (DPMR_COMPILE)
_COMPILED: "OrderedDict[Tuple[int, int, int], CompiledVariant]" = OrderedDict()

#: Test-only chaos hook: a callable invoked with each experiment tuple at
#: the top of :func:`_run_item` (inherited by forked workers).  The chaos
#: test-suite uses it to SIGKILL a worker, wedge an experiment, or poison a
#: site deterministically; production leaves it None.
_CHAOS_HOOK = None


def _compiled_for(
    jobs: List[CampaignJob],
    states: _States,
    item: _Item,
) -> CompiledVariant:
    """Compile (or fetch) the faulty build for one experiment tuple.

    With ``states`` (the incremental path) the build is a build-table
    entry keyed by content (:meth:`JobBuildState.site_key`): built at most
    once per process — a copy-on-write clone of the pristine snapshot plus
    a single-function re-transform — and served to every later campaign,
    job or request with the same content.  Without, it is a full
    factory-rebuild and whole-module transform, memoised per worker only
    for the current executor call.
    """
    ji, si, vi, _ = item
    job = jobs[ji]
    if states is not None:
        state = states[ji]
        return build_table().get(
            state.site_key(job, si, vi), lambda: _build_site(job, state, si, vi)
        )
    key = (ji, si, vi)
    compiled = _COMPILED.get(key)
    if compiled is not None:
        _COMPILED.move_to_end(key)
        return compiled
    site = job.sites[si]
    faulty = inject(job.factory(), site, job.percent)
    compiled = job.variants[vi].compile(faulty)
    _COMPILED[key] = compiled
    if len(_COMPILED) > _COMPILED_CACHE_SIZE:
        _COMPILED.popitem(last=False)
    return compiled


def _build_site(
    job: CampaignJob, state: JobBuildState, si: int, vi: int
) -> CompiledVariant:
    """One faulty build through the job's base transform.

    The clone comes from the module the base transform was built on, so
    every unchanged function is recognized by identity.  The transform
    itself runs under the base entry's lock: its policy object and memo
    are not thread-safe.
    """
    site = job.sites[si]
    variant = job.variants[vi]
    base = state.bases[vi]
    pristine = base.compiler.pristine if base is not None else state.pristine
    clone = pristine.clone(mutable_functions=(site.function,))
    faulty = inject(clone, site, job.percent)
    if base is None:
        return variant.compile_incremental(None, faulty)
    with base.lock:
        stats = base.compiler.stats
        full_before = stats.full_rebuilds
        compiled = variant.compile_incremental(base.compiler, faulty)
        state.cache_full_rebuilds += stats.full_rebuilds - full_before
    state.cache_hits += compiled.cache_hits
    state.cache_misses += compiled.cache_misses
    return compiled


def _run_item(
    jobs: List[CampaignJob],
    states: _States,
    item: _Item,
    tracer=None,
    counters: bool = False,
    use_compiled: bool = False,
) -> ExperimentRecord:
    ji, si, vi, ri = item
    hook = _CHAOS_HOOK
    if hook is not None:
        hook(item)
    job = jobs[ji]
    variant = job.variants[vi].name
    site = job.sites[si].site_id
    compiled = _compiled_for(jobs, states, item)
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
    result = compiled.run(
        argv=job.argv,
        max_cycles=job.timeout,
        seed=job.seeds[ri],
        tracer=tracer,
        counters=counters,
        trace_meta=trace_meta,
        compiled=use_compiled,
    )
    return ExperimentRecord(
        workload=job.workload,
        variant=variant,
        site=site,
        run=ri,
        result=result,
        golden_output=job.golden_output,
    )


def _supervised_worker(wid: int, task_conn, result_conn) -> None:
    """Worker entry point: execute experiment tuples until told to stop.

    Receives one item at a time over its private task pipe (per-item
    dispatch is what lets the supervisor attribute a crash or hang to a
    specific experiment) and reports ``(wid, item, ok, payload)`` on its
    private result pipe; an infrastructure exception is reported as a
    failure message rather than killing the worker, so the supervisor can
    decide between retry and quarantine.  ``None`` or EOF on the task
    pipe means shut down.
    """
    jobs = _WORKER_JOBS
    assert jobs is not None, "worker forked before _WORKER_JOBS was set"
    while True:
        try:
            item = task_conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        try:
            record = _run_item(
                jobs,
                _WORKER_STATES,
                item,
                tracer=_WORKER_TRACER,
                counters=_WORKER_COUNTERS,
                use_compiled=_WORKER_USE_COMPILED,
            )
        except BaseException as exc:  # noqa: BLE001 — reported, not hidden
            try:
                result_conn.send(
                    (wid, item, False, f"{type(exc).__name__}: {exc}")
                )
            except Exception:
                os._exit(1)
            continue
        result_conn.send((wid, item, True, record))


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


def _warm_compiled_bases(states: Sequence[Optional[JobBuildState]]) -> None:
    """Pre-generate compiled code for every pristine/base-transform module.

    Delta codegen splices per-site code against a *base* generation of the
    same function; anchoring the bases on the pristine snapshot (and each
    DPMR variant's transformed pristine) before any faulty build compiles
    means every per-site compile takes the cheap delta path, and forked
    workers inherit the warm base info via copy-on-write.  DPMR bases are
    additionally warmed under the variant's runtime-specialization spec,
    which is part of the codegen context key — that is the context the
    per-experiment machines actually compile under.  Failures are
    ignored — anything that refuses to compile falls back to the
    interpreter at run time exactly as it would without warm-up.
    """
    from ..core.runtime import diversity_codegen_spec
    from ..machine.compile import compiled_program_for, inline_runtime_enabled

    inline_rt = inline_runtime_enabled()
    for state in states:
        if state is None:
            continue
        try:
            compiled_program_for(state.pristine)
        except Exception:  # pragma: no cover — interp fallback handles it
            pass
        for compiler in state.compilers:
            if compiler is None:
                continue
            spec = (
                diversity_codegen_spec(compiler.compiler.diversity)
                if inline_rt
                else None
            )
            try:
                compiled_program_for(compiler.base_module, spec)
            except Exception:  # pragma: no cover
                pass


def _job_manifests(
    jobs: Sequence[CampaignJob],
    states: _States,
    before: Sequence[Tuple[int, int, int]] = (),
) -> List[JobManifest]:
    """Per-job telemetry; cache stats are deltas since ``before`` (each
    view's :meth:`JobBuildState.cache_stats` at campaign start)."""
    table = build_table()
    out: List[JobManifest] = []
    for ji, job in enumerate(jobs):
        jm = JobManifest(
            workload=job.workload,
            kind=job.kind,
            n_sites=len(job.sites),
            n_variants=len(job.variants),
            n_seeds=len(job.seeds),
            sites=[s.site_id for s in job.sites],
        )
        state = states[ji] if states is not None else None
        if state is not None:
            now = state.cache_stats()
            then = before[ji] if before else (0, 0, 0)
            jm.cache_hits = now[0] - then[0]
            jm.cache_misses = now[1] - then[1]
            jm.cache_full_rebuilds = now[2] - then[2]
            jm.builds_cached = sum(
                state.site_key(job, si, vi) in table
                for si in range(len(job.sites))
                for vi in range(len(state.variant_fps))
            )
        out.append(jm)
    return out


def _store_index(
    jobs: List[CampaignJob],
    items: List[_Item],
    config: ExecConfig,
    store,
) -> Tuple[Dict[_Item, ExperimentRecord], Dict[_Item, str], Dict[_Item, Dict]]:
    """Look up every experiment tuple in the persistent store.

    Returns ``(cached, keys, key_fields)``: records served as hits, the
    content address of every item, and the human-readable key fields
    persisted with each entry.  Module fingerprints are each job's pristine
    digest — by the factory-determinism contract the snapshot's text
    equals the text of every module a worker would rebuild — so nothing
    is built to look a campaign up.
    """
    exec_fp = exec_fingerprint(config)
    module_shas = [job.pristine_snapshot()[1] for job in jobs]
    variant_fps = [[variant_fingerprint(v) for v in job.variants] for job in jobs]

    cached: Dict[_Item, ExperimentRecord] = {}
    keys: Dict[_Item, str] = {}
    key_fields: Dict[_Item, Dict] = {}
    for item in items:
        ji, si, vi, ri = item
        job = jobs[ji]
        fields = {
            "workload": job.workload,
            "kind": job.kind,
            "percent": job.percent,
            "site": job.sites[si].site_id,
            "variant_fp": variant_fps[ji][vi],
            "seed": job.seeds[ri],
            "run": ri,
            "argv": list(job.argv),
            "timeout": job.timeout,
            "exec_fp": exec_fp,
            "module_sha": module_shas[ji],
        }
        key = experiment_key(**fields)
        keys[item] = key
        key_fields[item] = fields
        record = store.get(key)
        if record is not None:
            cached[item] = record
    return cached, keys, key_fields


def _build_states_for(
    jobs: Sequence[CampaignJob], items: Sequence[_Item]
) -> List[Optional[JobBuildState]]:
    """Build-table views for the jobs ``items`` touch (None elsewhere)."""
    needed = {item[0] for item in items}
    return [job.build_state() if ji in needed else None for ji, job in enumerate(jobs)]


def _run_serial_supervised(
    jobs: List[CampaignJob],
    states: _States,
    misses: List[_Item],
    config: ExecConfig,
    tracer,
    counters: bool,
    use_compiled: bool,
    stats: SupervisionStats,
    on_result,
    cancel=None,
) -> Dict[_Item, ExperimentRecord]:
    """The serial execution path with bounded retry and quarantine.

    Serial execution cannot preempt a wedged experiment (no wall-clock
    budget applies), but infrastructure exceptions get the same
    retry-with-backoff and site-quarantine treatment as supervised workers,
    so a poisoned site degrades the campaign instead of aborting it.
    ``cancel`` (a ``threading.Event``-alike) stops dispatch between items —
    the campaign service uses it for prompt daemon shutdown.
    """
    computed: Dict[_Item, ExperimentRecord] = {}
    for item in misses:
        if cancel is not None and cancel.is_set():
            break
        site = item[:2]
        if site in stats.quarantined:
            continue
        attempt = 0
        while True:
            try:
                record = _run_item(
                    jobs,
                    states,
                    item,
                    tracer=tracer,
                    counters=counters,
                    use_compiled=use_compiled,
                )
            except Exception as exc:
                attempt += 1
                reason = f"{type(exc).__name__}: {exc}"
                if attempt > config.retries:
                    logger.warning(
                        "quarantining site %r after %d failed attempt(s): %s",
                        site,
                        attempt,
                        reason,
                    )
                    stats.quarantined[site] = (attempt, reason)
                    break
                stats.retries += 1
                logger.warning(
                    "retrying %r (attempt %d/%d): %s",
                    item,
                    attempt + 1,
                    config.retries + 1,
                    reason,
                )
                time.sleep(config.retry_backoff_s * (2 ** (attempt - 1)))
                continue
            computed[item] = record
            if on_result is not None:
                on_result(item, record)
            break
    return computed


def run_campaign_jobs_with_manifest(
    jobs: Sequence[CampaignJob],
    config: Optional[ExecConfig] = None,
    build_states: Optional[List[Optional[JobBuildState]]] = None,
    tracer=None,
    items: Optional[Sequence[_Item]] = None,
    on_record: Optional[Callable[[_Item, ExperimentRecord, str], None]] = None,
    cancel=None,
) -> Tuple[List[ExperimentRecord], RunManifest]:
    """Run every experiment of every job; records in serial order + manifest.

    The manifest captures every executor decision (requested vs. effective
    worker count and why, serial-fallback reason, incremental cache
    behaviour per job) plus campaign aggregates (status counts, machine
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
    * ``cancel`` — a ``threading.Event``-alike polled between experiments
      (serial) and dispatches (supervised workers); when set, remaining
      items are abandoned and only finished records are returned.
    """
    config = config if config is not None else ExecConfig.from_env()
    # -- shard fabric routing (DPMR_SHARDS / ExecConfig.shards) ---------
    # N>1 hands the whole invocation to the shard coordinator, which
    # partitions the tuple space across N worker nodes and re-enters this
    # function (with shards=1) inside each node.  Observability and
    # fork-less platforms fall back to single-node execution with a logged
    # reason — never silently.
    sharded = False
    if config.shards > 1:
        from ..shard.coordinator import run_sharded_campaign, sharding_fallback

        shard_fallback = sharding_fallback(config, tracer)
        sharded = shard_fallback is None
        if not sharded:
            logger.warning(
                "campaign requested %d shards but runs single-node: %s",
                config.shards,
                shard_fallback,
            )
    with build_scope() as builds:
        if sharded:
            records, manifest = run_sharded_campaign(
                jobs,
                config=config,
                build_states=build_states,
                items=items,
                on_record=on_record,
                cancel=cancel,
            )
        else:
            records, manifest = _run_single_node(
                list(jobs), config, build_states, tracer, items, on_record, cancel
            )
    builds.add_to(manifest)
    out_path = config.effective_manifest_path()
    if out_path is not None:
        manifest.write(out_path)
    return records, manifest


def _run_single_node(
    jobs: List[CampaignJob],
    config: ExecConfig,
    build_states: _States,
    tracer,
    items: Optional[Sequence[_Item]],
    on_record,
    cancel,
) -> Tuple[List[ExperimentRecord], RunManifest]:
    """The body of :func:`run_campaign_jobs_with_manifest` on one node."""
    global _WORKER_JOBS, _WORKER_STATES, _WORKER_TRACER, _WORKER_COUNTERS
    global _WORKER_USE_COMPILED
    from ..machine.compile import (
        codegen_stats,
        set_inline_runtime,
        set_persistent_code_cache,
    )
    from ..obs.counters import total_counters
    from ..obs.tracer import real_tracer

    incremental = config.incremental or build_states is not None
    items = _all_items(jobs) if items is None else [tuple(i) for i in items]
    own_tracer = tracer is None
    if own_tracer:
        tracer = config.make_tracer()
    tracer = real_tracer(tracer)
    counters = config.counters or tracer is not None
    # Observability forces the instrumented interpreter; the compiled tier
    # only engages on bare runs (records are bit-identical either way).
    use_compiled = config.compiled and not counters
    # Campaign-scoped runtime-specialization toggle: sampled by the build
    # states below (their transform journals gate on it), by base warming,
    # and inherited by forked workers.  Restored in the finally.
    inline_prev = set_inline_runtime(config.inline_rt)
    persist_prev: Optional[str] = None
    persist_set = False
    stats = SupervisionStats()
    try:
        # -- persistent store lookup, before anything is built -----------
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

        # Build views only for jobs with work left: a store-warm campaign
        # transforms nothing.
        states: _States = None
        if incremental and misses:
            states = (
                build_states
                if build_states is not None
                else _build_states_for(jobs, misses)
            )
        cache_before = [s.cache_stats() if s else (0, 0, 0) for s in states or ()]

        if not items:
            # An explicit decision, not a silent no-op: a service-side
            # expansion bug that produces zero tuples must be visible in
            # the manifest.
            effective, reason, fallback = 1, "empty_campaign", None
            logger.warning(
                "campaign over %d job(s) expanded to zero experiment tuples",
                len(jobs),
            )
        elif not misses:
            effective, reason, fallback = 1, "all experiments served from store", None
        else:
            effective, reason, fallback = _worker_decision(config.jobs, len(misses))
        if fallback is not None:
            logger.warning(
                "campaign requested %d workers but runs serially: %s",
                config.jobs,
                fallback,
            )
        manifest = RunManifest(
            mode="campaign",
            requested_jobs=config.jobs,
            effective_jobs=effective,
            worker_reason=reason,
            serial_fallback=fallback,
            incremental=incremental and bool(items),
            trace_path=(
                config.trace_path if (own_tracer and tracer is not None) else None
            ),
            counters_enabled=counters,
            engine="compiled" if use_compiled else "interp",
            timeout_factor=config.timeout_factor,
            n_jobs=len(jobs),
            n_items=len(items),
        )
        # With a store configured, generated per-site source persists next
        # to the results (<store>/codegen), so warm-resume campaigns skip
        # codegen entirely; restored in the finally below.
        if use_compiled and store is not None:
            persist_prev = set_persistent_code_cache(
                os.path.join(store.root, "codegen")
            )
            persist_set = True
        if use_compiled and states is not None:
            _warm_compiled_bases(states)
        # Coordinator-process snapshot: forked workers' codegen stats do not
        # cross the process boundary, so the deltas below cover serial runs
        # and the coordinator's share of parallel ones (still enough to show
        # the content-addressed cache working across a campaign).
        cg_before = codegen_stats()
        started = time.monotonic()
        if effective <= 1:
            _COMPILED.clear()
            try:
                computed = _run_serial_supervised(
                    jobs,
                    states,
                    misses,
                    config,
                    tracer,
                    counters,
                    use_compiled,
                    stats,
                    on_result,
                    cancel=cancel,
                )
            finally:
                _COMPILED.clear()
        else:
            ctx = multiprocessing.get_context("fork")
            _WORKER_JOBS = jobs
            _WORKER_STATES = states
            _WORKER_TRACER = tracer
            _WORKER_COUNTERS = counters
            _WORKER_USE_COMPILED = use_compiled
            _COMPILED.clear()
            try:
                supervisor = WorkerSupervisor(
                    ctx,
                    _supervised_worker,
                    effective,
                    retries=config.retries,
                    exp_timeout_s=config.exp_timeout_s,
                    backoff_s=config.retry_backoff_s,
                    site_of=lambda item: item[:2],
                    on_result=on_result,
                    cancel=cancel,
                )
                computed = supervisor.run(misses)
                stats = supervisor.stats
            finally:
                _WORKER_JOBS = None
                _WORKER_STATES = None
                _WORKER_TRACER = None
                _WORKER_COUNTERS = False
                _WORKER_USE_COMPILED = False
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
        set_inline_runtime(inline_prev)
        if persist_set:
            set_persistent_code_cache(persist_prev)
        if own_tracer and tracer is not None:
            tracer.close()

    manifest.wall_s = time.monotonic() - started
    cg_after = codegen_stats()
    manifest.codegen_hits = cg_after["hits"] - cg_before["hits"]
    manifest.codegen_misses = cg_after["misses"] - cg_before["misses"]
    manifest.n_records = len(records)
    manifest.jobs = _job_manifests(jobs, states, cache_before)
    manifest.retries = stats.retries
    manifest.worker_restarts = stats.worker_restarts
    manifest.exp_timeouts = stats.exp_timeouts
    for (ji, si), (attempts, reason_q) in sorted(stats.quarantined.items()):
        manifest.quarantined.append(
            QuarantineRecord(
                workload=jobs[ji].workload,
                kind=jobs[ji].kind,
                site=jobs[ji].sites[si].site_id,
                attempts=attempts,
                reason=reason_q,
            )
        )
    if store is not None:
        manifest.store_path = store.root
        manifest.store_hits = store.stats.hits
        manifest.store_misses = store.stats.misses
        manifest.store_writes = store.stats.writes
        manifest.store_corrupt = store.stats.corrupt
    for r in records:
        s = r.result.status.value
        manifest.status_counts[s] = manifest.status_counts.get(s, 0) + 1
    manifest.counter_totals = total_counters(r.result.counters for r in records)
    return records, manifest


def run_campaign_jobs(
    jobs: Sequence[CampaignJob],
    build_states: Optional[List[JobBuildState]] = None,
    config: Optional[ExecConfig] = None,
) -> List[ExperimentRecord]:
    """Run every experiment of every job; results in serial order.

    Thin records-only wrapper over :func:`run_campaign_jobs_with_manifest`.
    Execution is governed entirely by ``config`` (defaulting to the
    environment via :meth:`ExecConfig.from_env`); the pre-PR-4
    ``processes=``/``incremental=`` keyword aliases are gone — see the
    README migration notes.
    """
    records, _ = run_campaign_jobs_with_manifest(
        jobs, config=config, build_states=build_states
    )
    return records


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()
