#!/usr/bin/env python
"""Interpreter & campaign-executor micro-benchmark → ``BENCH_interp.json``.

Measures the two quantities the perf work of this repo is judged on:

* **interpreter throughput** — instructions/second of the mcf analog's
  golden run (the pure interpreter inner loop, no DPMR transform), plus
  the same run under the compiled execution tier (``compiled`` section:
  throughput, speedup, and a full record-identity check);
* **campaign wall-clock** — the full heap-array-resize campaign (all four
  apps, stdapp + all seven diversity variants under all-loads), serial vs
  the parallel executor and the incremental build path vs per-site full
  rebuilds, with record-level identity checks between all of them.  Each
  configuration is timed best-of-``CAMPAIGN_REPS`` (the container's
  wall-clock is noisy); PR 1's recorded ``serial_s`` was a single shot.
  The incremental path retains finished builds on its per-job
  ``JobBuildState``, so its best-of-N is the steady state a re-run campaign
  sees: later reps pay interpreter time only.  ``serial_full_rebuild_s``
  is the cold build-everything-per-site cost for comparison.

The ``campaign_compiled`` section times the same campaign under the
*default* engine (the compiled tier, since PR 7) against an explicit
``compiled=False`` interpreter run — serial, best-of-N, full
record-signature identity — and records the codegen cache traffic of a
cold first run and a warm re-run (delta codegen makes per-site compiles
cheap; the caches make re-runs nearly free).

The ``inline_rt`` section compares the inlined-runtime engine (PR 8:
DPMR hooks folded into generated code, parametrised per diversity spec
at bind time, plus provenance-stamped delta transforms) against the
PR 7 compiled-default engine (``DPMR_INLINE_RT=0``), each arm from cold
process caches with fresh job objects per rep, and decomposes the
campaign into per-stage transform / codegen / run buckets.  It gates
warm speedup ≥1.3x, warm delta-transform hit rate ≥80%, and record
identity against both the old engine and the interpreter.

Writes ``BENCH_interp.json`` at the repo root so future PRs have a perf
trajectory to regress against.  The ``seed_baseline`` block is frozen: it
holds the numbers measured on the pre-fast-path seed tree (PR 1, same
single-core container) and must not be re-measured.  Every full run also
appends a compact ``history`` snapshot (date, git sha, headline ips and
campaign seconds), so the trajectory survives section rewrites.

Usage::

    PYTHONPATH=src python benchmarks/perf_interp.py [jobs]
    PYTHONPATH=src python benchmarks/perf_interp.py --smoke

``jobs`` defaults to ``DPMR_JOBS`` or 4.  ``--smoke`` is the CI
trace-overhead gate: it asserts structurally that machines without
observability bind the uninstrumented fast-path executor, A/B-measures the
disabled-tracer path against a bare machine (must be within 5% — they run
the identical loop, so this catches anyone re-introducing per-instruction
checks), replays a small traced campaign to verify T2D is recomputable
from the JSONL trace bit-identically, and gates the compiled execution
tier: structural engine selection, campaign record identity against the
interpreter, and ≥2x throughput on the smoke workload.  Absolute
throughput is only compared against ``seed_baseline`` in the full
(non-smoke) run, because cross-machine absolute comparisons are
meaningless in CI.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.apps import WORKLOAD_ORDER, app_factory
from repro.eval import (
    ExecConfig,
    diversity_variants,
    job_for_harness,
    run_campaign_jobs,
    run_campaign_jobs_with_manifest,
    stdapp_variant,
    WorkloadHarness,
)
from repro.faultinject import HEAP_ARRAY_RESIZE
from repro.machine.process import run_process

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_interp.json"

#: Measured on the unmodified seed tree (commit 7b09b5c) on this same
#: 1-core container, before the interpreter fast path landed.  Frozen.
SEED_BASELINE = {
    "interp_mcf_scale6_ips": 700_481,
    "campaign_resize_diversity_serial_s": 3.0,
}

INTERP_SCALE = 6
INTERP_REPS = 3


@contextmanager
def _gc_disabled():
    """Timing hygiene: a cyclic-GC pass landing inside a timed run skews
    best-of-N, so every timing loop runs with the collector off (restored —
    and drained — afterwards)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()


def bench_interpreter() -> dict:
    module_factory = app_factory("mcf", INTERP_SCALE)
    best = None
    instructions = 0
    for _ in range(INTERP_REPS):
        module = module_factory()
        with _gc_disabled():
            t0 = time.perf_counter()
            result = run_process(module)
            dt = time.perf_counter() - t0
        instructions = result.instructions
        best = dt if best is None else min(best, dt)
    return {
        "workload": "mcf",
        "scale": INTERP_SCALE,
        "instructions": instructions,
        "best_wall_s": round(best, 4),
        "instructions_per_s": round(instructions / best),
    }


# -- observability overhead ---------------------------------------------------

#: Disabled-path tolerance: a machine with no tracer/counters runs the
#: byte-identical pre-observability loop, so any gap beyond noise means a
#: per-instruction check crept back in.
TRACE_OVERHEAD_TOLERANCE = 0.05

SMOKE_SCALE = 4
SMOKE_REPS = 3


def _ips(scale: int, reps: int, **run_kwargs) -> float:
    """Best-of-N golden-run throughput (instructions/second) of mcf."""
    factory = app_factory("mcf", scale)
    best = None
    instructions = 0
    for _ in range(reps):
        module = factory()
        if run_kwargs.get("compiled"):
            # Binding (codegen + exec) is build-phase work, the analog of
            # the DPMR transform this bench also keeps outside the timed
            # region; campaigns amortize it through the content-addressed
            # cache.  bench_compiled() reports the bind cost separately.
            from repro.machine.compile import compiled_program_for

            compiled_program_for(module)
        with _gc_disabled():
            t0 = time.perf_counter()
            result = run_process(module, **run_kwargs)
            dt = time.perf_counter() - t0
        instructions = result.instructions
        best = dt if best is None else min(best, dt)
    return instructions / best


#: Minimum interleaved reps for the obs A/B: a median over fewer pairs is
#: dominated by single-quantum throttling artifacts on this container.
OBS_MIN_REPS = 5


def bench_obs(scale: int = SMOKE_SCALE, reps: int = SMOKE_REPS) -> dict:
    """Throughput of the observability paths relative to the bare machine.

    The three paths are measured in interleaved round-robin reps (bare,
    null-tracer, counters, repeat) rather than three sequential blocks:
    this container's throughput drifts over tens of seconds (CPU quota
    throttling), and sequential blocks charge that drift entirely to
    whichever path runs last — which is exactly the A/B the smoke gate
    hangs a 5% tolerance on.

    Overhead is a *paired* statistic: each rep yields one (bare, null)
    timing pair measured back to back, the per-rep overhead is computed
    within that pair, and the reported overhead is the **median across
    reps** with a minimum-rep floor.  The previous best-of-N quotient
    compared timings from different reps, so one slow throttling quantum
    landing in the bare arm produced a nonsensical negative overhead
    (BENCH once recorded -10.81%).  The two arms run the byte-identical
    loop, so a negative median is measurement noise by construction: it is
    clamped to 0 and flagged, with the raw value kept alongside.
    """
    from statistics import median

    from repro.obs import NullTracer

    reps = max(reps, OBS_MIN_REPS)
    factory = app_factory("mcf", scale)
    arms = {
        "bare": {},
        "null": {"tracer": NullTracer()},
        "counters": {"counters": True},
    }
    order = list(arms)
    best: dict = {k: None for k in arms}
    instructions: dict = {k: 0 for k in arms}
    null_overheads = []
    counter_slowdowns = []
    for rep in range(reps):
        rep_dt: dict = {}
        # Rotate the within-rep arm order: a fixed order hands every rep's
        # warm-up artifact to the same arm, which shows up as a systematic
        # (even negative) overhead the median cannot remove.
        for key in order[rep % 3:] + order[: rep % 3]:
            module = factory()
            with _gc_disabled():
                t0 = time.perf_counter()
                result = run_process(module, **arms[key])
                dt = time.perf_counter() - t0
            instructions[key] = result.instructions
            rep_dt[key] = dt
            if best[key] is None or dt < best[key]:
                best[key] = dt
        null_overheads.append((rep_dt["null"] / rep_dt["bare"] - 1) * 100)
        counter_slowdowns.append(rep_dt["counters"] / rep_dt["bare"])
    raw_overhead = median(null_overheads)
    return {
        "scale": scale,
        "reps": reps,
        "bare_ips": round(instructions["bare"] / best["bare"]),
        "null_tracer_ips": round(instructions["null"] / best["null"]),
        "counters_ips": round(instructions["counters"] / best["counters"]),
        "null_tracer_overhead_pct": round(max(0.0, raw_overhead), 2),
        "null_tracer_overhead_raw_pct": round(raw_overhead, 2),
        "overhead_clamped": raw_overhead < 0,
        "counters_slowdown_x": round(median(counter_slowdowns), 2),
    }


COMPILED_MIN_SPEEDUP = 3.0


def _full_signature(result):
    return (
        result.status.value,
        result.exit_code,
        result.output_text,
        result.cycles,
        result.instructions,
        tuple(sorted(result.fault_activations.items())),
        result.detail,
    )


def bench_compiled(interp_ips: float) -> dict:
    """Compiled-tier throughput on the same mcf golden run, plus the
    bit-identity check the tier's whole contract rests on."""
    from repro.machine.compile import compiled_program_for

    factory = app_factory("mcf", INTERP_SCALE)
    interp_result = run_process(factory())
    comp_result = run_process(factory(), compiled=True)
    identical = _full_signature(interp_result) == _full_signature(comp_result)
    # Bind cost for a fresh module with a warm content cache — the
    # steady-state cost a campaign pays per build (cold codegen happens
    # once per function text, ever).
    module = factory()
    t0 = time.perf_counter()
    compiled_program_for(module)
    bind_s = time.perf_counter() - t0
    comp_ips = _ips(INTERP_SCALE, INTERP_REPS, compiled=True)
    return {
        "workload": "mcf",
        "scale": INTERP_SCALE,
        "instructions_per_s": round(comp_ips),
        "interp_instructions_per_s": round(interp_ips),
        "bind_warm_ms": round(bind_s * 1000, 2),
        "records_identical": identical,
        "speedup_vs_interp": round(comp_ips / interp_ips, 2),
        "speedup_vs_seed": round(
            comp_ips / SEED_BASELINE["interp_mcf_scale6_ips"], 2
        ),
    }


def smoke() -> None:
    """CI gate: fast path intact, null tracer free, trace replay identical."""
    from repro.machine.interpreter import Machine
    from repro.obs import NullTracer, t2d_by_run

    # 1. Structural: no observability → the uninstrumented executor, no
    #    counter dict; a NullTracer must not change that.
    module = app_factory("mcf", 1)()
    m = Machine(module)
    assert m._exec.__func__ is Machine._exec_function, (
        "default Machine no longer binds the uninstrumented fast path"
    )
    assert m.tracer is None and m.counters is None
    m_null = Machine(app_factory("mcf", 1)(), tracer=NullTracer())
    assert m_null._exec.__func__ is Machine._exec_function, (
        "NullTracer must keep the uninstrumented fast path"
    )
    m_obs = Machine(app_factory("mcf", 1)(), counters=True)
    assert m_obs._exec.__func__ is Machine._exec_function_instrumented
    print("smoke: structural fast-path checks OK")

    # 2. A/B throughput: bare vs NullTracer run the identical loop, so the
    #    gap is pure noise — gate it at TRACE_OVERHEAD_TOLERANCE.
    obs = bench_obs()
    overhead = obs["null_tracer_overhead_pct"] / 100.0
    print(
        f"smoke: bare {obs['bare_ips']:,} ips, "
        f"null-tracer {obs['null_tracer_ips']:,} ips "
        f"({obs['null_tracer_overhead_pct']:+.2f}%)"
    )
    if overhead > TRACE_OVERHEAD_TOLERANCE:
        sys.exit(
            f"FATAL: disabled-tracer path is {overhead:.1%} slower than the "
            f"bare machine (tolerance {TRACE_OVERHEAD_TOLERANCE:.0%})"
        )

    # 3. End-to-end: a small traced campaign whose T2D must be recomputable
    #    from the JSONL trace alone, bit-identically.
    import tempfile

    from repro.eval import ExecConfig, WorkloadHarness, diversity_variants, run

    harness = WorkloadHarness("mcf", app_factory("mcf", 1))
    variants = [v for v in diversity_variants("sds") if v.name in
                ("no-diversity", "rearrange-heap")]
    with tempfile.TemporaryDirectory() as td:
        trace = os.path.join(td, "smoke.jsonl")
        res = run(
            harness,
            variants,
            kind=HEAP_ARRAY_RESIZE,
            config=ExecConfig(jobs=1, trace_path=trace),
        )
        replayed = t2d_by_run(trace)
        for r in res.records:
            rid = f"{r.workload}/{r.variant}/{r.site}/{r.run}"
            assert replayed[rid] == r.t2d, (
                f"trace-replayed T2D diverged for {rid}: "
                f"{replayed[rid]} != {r.t2d}"
            )
    print(
        f"smoke: T2D replayed bit-identically from trace for "
        f"{len(res.records)} records"
    )

    # 4. Compiled tier: selection is structural (observability always wins),
    #    a small campaign is record-identical across engines, and the
    #    speedup is real (≥2x on this short smoke workload; the full bench
    #    gates the ≥3x target at scale 6).
    m_comp = Machine(app_factory("mcf", 1)(), compiled=True)
    assert m_comp._exec.__func__ is Machine._exec_function_compiled, (
        "Machine(compiled=True) no longer binds the compiled tier"
    )
    m_comp_obs = Machine(app_factory("mcf", 1)(), compiled=True, counters=True)
    assert m_comp_obs._exec.__func__ is Machine._exec_function_instrumented, (
        "observability must override the compiled tier"
    )
    res_comp = run(
        harness,
        variants,
        kind=HEAP_ARRAY_RESIZE,
        config=ExecConfig(jobs=1, compiled=True),
    )
    res_interp = run(
        harness, variants, kind=HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=1)
    )
    if [r.signature() for r in res_comp.records] != [
        r.signature() for r in res_interp.records
    ]:
        sys.exit("FATAL: compiled campaign records diverged from interpreter")
    assert res_comp.manifest.engine == "compiled"
    bare_ips = _ips(SMOKE_SCALE, SMOKE_REPS)
    comp_ips = _ips(SMOKE_SCALE, SMOKE_REPS, compiled=True)
    print(
        f"smoke: compiled {comp_ips:,.0f} ips vs interp {bare_ips:,.0f} ips "
        f"({comp_ips / bare_ips:.2f}x), campaign records identical"
    )
    if comp_ips < 2 * bare_ips:
        sys.exit(
            f"FATAL: compiled tier only {comp_ips / bare_ips:.2f}x the "
            "interpreter (smoke gate requires ≥2x)"
        )

    # 5. Campaign-level engine gate: the compiled tier is now the *default*
    #    campaign engine, and a default-config serial campaign must be
    #    signature-identical to an interpreter-default campaign and ≥2x
    #    faster end to end (the ISSUE-7 acceptance bar, also gated at full
    #    scale by the non-smoke run).
    assert ExecConfig().compiled is True, (
        "ExecConfig no longer defaults to the compiled engine"
    )
    assert ExecConfig.from_env({}).compiled is True, (
        "DPMR_COMPILE no longer defaults on"
    )
    # Big enough that run time (not per-experiment fixed cost — floored by
    # the per-run 4 MiB heap-garbage reset) dominates, small enough for CI:
    # one workload, the full diversity suite.
    gate_scale = 6
    gate_variants = diversity_variants("sds")
    gate_jobs = [
        job_for_harness(
            WorkloadHarness("mcf", app_factory("mcf", gate_scale)),
            gate_variants,
            HEAP_ARRAY_RESIZE,
        )
    ]
    comp_s, comp_records = _timed_campaign(gate_jobs, 1, True, compiled=True)
    interp_gate_jobs = [
        job_for_harness(
            WorkloadHarness("mcf", app_factory("mcf", gate_scale)),
            gate_variants,
            HEAP_ARRAY_RESIZE,
        )
    ]
    interp_s, interp_records = _timed_campaign(interp_gate_jobs, 1, True)
    if [r.signature() for r in comp_records] != [
        r.signature() for r in interp_records
    ]:
        sys.exit(
            "FATAL: compiled-default campaign records diverged from the "
            "interpreter-default campaign"
        )
    ratio = interp_s / comp_s
    print(
        f"smoke: compiled-default campaign {comp_s:.3f}s vs "
        f"interpreter-default {interp_s:.3f}s ({ratio:.2f}x), "
        f"{len(comp_records)} records identical"
    )
    if ratio < CAMPAIGN_COMPILED_MIN_SPEEDUP:
        sys.exit(
            f"FATAL: compiled-default campaign only {ratio:.2f}x the "
            f"interpreter (gate requires "
            f"≥{CAMPAIGN_COMPILED_MIN_SPEEDUP}x)"
        )

    # 6. Inlined-runtime gate: the default engine now folds the DPMR
    #    runtime hooks into generated code (PR 8); ``DPMR_INLINE_RT=0`` is
    #    the PR 7 compiled-default engine.  Both arms start from cold
    #    process caches and run twice on fresh job objects; the second rep
    #    is the warm steady state the bench gates at full scale.  The
    #    inlined campaign must be signature-identical to the interpreter
    #    campaign from step 5 and ≥INLINE_RT_MIN_SPEEDUP warm.
    from repro.eval.builds import reset_build_table
    from repro.machine.compile import reset_codegen_caches

    def _inline_arm(inline):
        reset_codegen_caches(code_cache=True)
        times, records = [], None
        for _ in range(2):
            # Fresh jobs rebuild every transform: the build table would
            # otherwise serve the first rep's builds to the second.
            reset_build_table()
            arm_jobs = [
                job_for_harness(
                    WorkloadHarness("mcf", app_factory("mcf", gate_scale)),
                    gate_variants,
                    HEAP_ARRAY_RESIZE,
                )
            ]
            with _gc_disabled():
                t0 = time.perf_counter()
                records = run_campaign_jobs(
                    arm_jobs, config=ExecConfig(jobs=1, inline_rt=inline)
                )
                times.append(time.perf_counter() - t0)
        return times, records

    off_times, off_records = _inline_arm(False)
    on_times, on_records = _inline_arm(True)
    on_sigs = [r.signature() for r in on_records]
    if on_sigs != [r.signature() for r in interp_records]:
        sys.exit(
            "FATAL: inlined-runtime campaign records diverged from the "
            "interpreter campaign"
        )
    if on_sigs != [r.signature() for r in off_records]:
        sys.exit(
            "FATAL: inlined-runtime campaign records diverged from the "
            "compiled-default (DPMR_INLINE_RT=0) campaign"
        )
    inline_ratio = off_times[1] / on_times[1]
    print(
        f"smoke: inlined-runtime campaign warm {on_times[1]:.3f}s vs "
        f"compiled-default {off_times[1]:.3f}s ({inline_ratio:.2f}x, cold "
        f"{off_times[0] / on_times[0]:.2f}x), records identical to the "
        "interpreter"
    )
    if inline_ratio < INLINE_RT_MIN_SPEEDUP:
        sys.exit(
            f"FATAL: inlined-runtime campaign only {inline_ratio:.2f}x the "
            f"compiled-default engine warm (gate requires "
            f"≥{INLINE_RT_MIN_SPEEDUP}x)"
        )
    print("smoke: OK")


def record_signature(r):
    return (
        r.workload,
        r.variant,
        r.site,
        r.run,
        r.result.status.value,
        r.result.exit_code,
        r.result.output_text,
        r.result.cycles,
        r.result.instructions,
        tuple(sorted(r.result.fault_activations.items())),
    )


CAMPAIGN_REPS = 3


def _timed_campaign(campaign_jobs, processes, incremental, compiled=False):
    """Best-of-N wall-clock (same methodology as the interpreter bench —
    this container's timings are noisy) plus the records of the last run.

    ``compiled`` defaults to False here (overriding the ExecConfig default):
    the ``campaign`` section is the *interpreter* trajectory, and
    ``bench_campaign_compiled`` owns the compiled-engine comparison.
    """
    best = None
    records = None
    for _ in range(CAMPAIGN_REPS):
        with _gc_disabled():
            t0 = time.perf_counter()
            records = run_campaign_jobs(
                campaign_jobs,
                config=ExecConfig(
                    jobs=processes, incremental=incremental, compiled=compiled
                ),
            )
            dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, records


def bench_campaign(jobs: int) -> dict:
    variants = [stdapp_variant()] + diversity_variants("sds")
    harnesses = [WorkloadHarness(a, app_factory(a, 1)) for a in WORKLOAD_ORDER]
    campaign_jobs = [
        job_for_harness(h, variants, HEAP_ARRAY_RESIZE) for h in harnesses
    ]

    # The default (incremental) path, the full-rebuild path it replaced, and
    # the parallel executor — every timing includes all build work.
    full_s, full = _timed_campaign(campaign_jobs, 1, incremental=False)
    serial_s, serial = _timed_campaign(campaign_jobs, 1, incremental=True)
    parallel_s, parallel = _timed_campaign(campaign_jobs, jobs, incremental=True)

    serial_sigs = [record_signature(r) for r in serial]
    identical = serial_sigs == [record_signature(r) for r in parallel]
    identical_inc = serial_sigs == [record_signature(r) for r in full]
    return {
        "kind": HEAP_ARRAY_RESIZE,
        "apps": list(WORKLOAD_ORDER),
        "variants": [v.name for v in variants],
        "records": len(serial),
        "serial_s": round(serial_s, 3),
        "serial_full_rebuild_s": round(full_s, 3),
        "parallel_s": round(parallel_s, 3),
        "jobs": jobs,
        "parallel_identical_to_serial": identical,
        "incremental_identical_to_full_rebuild": identical_inc,
        "speedup_parallel_vs_serial": round(serial_s / parallel_s, 2),
        "speedup_incremental_vs_full_rebuild": round(full_s / serial_s, 2),
        "speedup_serial_vs_seed": round(
            SEED_BASELINE["campaign_resize_diversity_serial_s"] / serial_s, 2
        ),
    }


#: Campaign-level floor for the compiled-default engine vs the interpreter,
#: same session, serial: the ISSUE-7 acceptance bar.
CAMPAIGN_COMPILED_MIN_SPEEDUP = 2.0


def _fresh_campaign_jobs(variants):
    harnesses = [WorkloadHarness(a, app_factory(a, 1)) for a in WORKLOAD_ORDER]
    return [
        job_for_harness(h, variants, HEAP_ARRAY_RESIZE) for h in harnesses
    ]


def bench_campaign_compiled() -> dict:
    """The compiled-by-default campaign engine vs the interpreter, end to end.

    Times the same resize campaign as ``bench_campaign`` under the default
    (compiled) engine and under ``compiled=False``, serial, best-of-N, and
    checks full record-signature identity.  The cold manifest shows delta
    codegen keeping per-site compiles cheap on a first run (the 7 diversity
    variants share transformed function text, so one delta build serves all
    of them); the warm manifest re-runs the campaign on *fresh* module
    objects — the process-wide content/delta caches must then serve nearly
    everything, which is the hit-dominated steady state a resumed campaign
    sees.
    """
    from repro.eval.builds import reset_build_table

    variants = [stdapp_variant()] + diversity_variants("sds")

    reset_build_table()
    comp_jobs = _fresh_campaign_jobs(variants)
    with _gc_disabled():
        t0 = time.perf_counter()
        comp_records, cold_manifest = run_campaign_jobs_with_manifest(
            comp_jobs, config=ExecConfig(jobs=1)
        )
        cold_s = time.perf_counter() - t0
    compiled_s, comp_records = _timed_campaign(comp_jobs, 1, True, compiled=True)

    interp_jobs = _fresh_campaign_jobs(variants)
    interp_s, interp_records = _timed_campaign(interp_jobs, 1, True)

    # Fresh module objects: every L1 memo misses, so this manifest shows the
    # content-addressed + delta caches carrying a warm re-run.
    reset_build_table()
    warm_jobs = _fresh_campaign_jobs(variants)
    _, warm_manifest = run_campaign_jobs_with_manifest(
        warm_jobs, config=ExecConfig(jobs=1)
    )

    identical = [r.signature() for r in comp_records] == [
        r.signature() for r in interp_records
    ]
    return {
        "kind": HEAP_ARRAY_RESIZE,
        "apps": list(WORKLOAD_ORDER),
        "variants": [v.name for v in variants],
        "records": len(comp_records),
        "serial_s": round(compiled_s, 3),
        "cold_serial_s": round(cold_s, 3),
        "interp_serial_s": round(interp_s, 3),
        "records_identical": identical,
        "speedup_vs_interp": round(interp_s / compiled_s, 2),
        "speedup_vs_seed": round(
            SEED_BASELINE["campaign_resize_diversity_serial_s"] / compiled_s, 2
        ),
        "codegen_cold": {
            "hits": cold_manifest.codegen_hits,
            "misses": cold_manifest.codegen_misses,
        },
        "codegen_warm": {
            "hits": warm_manifest.codegen_hits,
            "misses": warm_manifest.codegen_misses,
        },
    }


#: Campaign-level floor for the inlined-runtime engine vs the PR 7
#: compiled-default engine (``DPMR_INLINE_RT=0``), warm fresh-jobs reps.
INLINE_RT_MIN_SPEEDUP = 1.3
#: Minimum warm delta-transform hit rate: of the per-site transform builds,
#: the fraction served by instruction-granular journal replay (splices)
#: rather than whole-function re-translation (refusals).
INLINE_RT_MIN_DELTA_HIT_RATE = 0.8


def _staged_inline_sweep(inline: bool) -> dict:
    """Per-stage wall-clock of the resize campaign's build pipeline.

    Decomposes each (app, variant, site) experiment into the three stages
    the inlined-runtime work targets — DPMR *transform* (base incremental
    compiler construction + per-site delta builds), *codegen* (compiled
    program for the base and each faulty module, under the variant's
    runtime spec when ``inline``), and *run* (compiled execution) — and
    buckets the seconds per stage.  Uses the diversity variants only: the
    stdapp variant has no DPMR transform, so it has no transform/codegen
    split to attribute.  Also tallies the delta-transform journal-replay
    stats accumulated by the incremental compilers.
    """
    from repro.core.runtime import diversity_codegen_spec
    from repro.faultinject.injector import inject
    from repro.machine.compile import compiled_program_for, set_inline_runtime

    variants = diversity_variants("sds")
    prev = set_inline_runtime(inline)
    try:
        with _gc_disabled():
            t_tx = t_cg = t_run = 0.0
            experiments = 0
            splices = refusals = replayed = translated = 0
            for app in WORKLOAD_ORDER:
                job = job_for_harness(
                    WorkloadHarness(app, app_factory(app, 1)),
                    variants,
                    HEAP_ARRAY_RESIZE,
                )
                pristine = job.factory()
                t0 = time.perf_counter()
                compilers = [
                    v.incremental_compiler(pristine) for v in job.variants
                ]
                t_tx += time.perf_counter() - t0
                specs = [
                    diversity_codegen_spec(c.compiler.diversity)
                    if inline
                    else None
                    for c in compilers
                ]
                t0 = time.perf_counter()
                for inc, spec in zip(compilers, specs):
                    compiled_program_for(inc.base_module, spec)
                t_cg += time.perf_counter() - t0
                for site in job.sites:
                    for inc, spec in zip(compilers, specs):
                        t0 = time.perf_counter()
                        clone = pristine.clone(mutable_functions=(site.function,))
                        faulty = inject(clone, site, job.percent)
                        build = inc.compile(faulty)
                        t1 = time.perf_counter()
                        compiled_program_for(build.module, spec)
                        t2 = time.perf_counter()
                        build.run(
                            argv=job.argv,
                            max_cycles=job.timeout,
                            seed=job.seeds[0],
                            compiled=True,
                        )
                        t3 = time.perf_counter()
                        t_tx += t1 - t0
                        t_cg += t2 - t1
                        t_run += t3 - t2
                        experiments += 1
                for inc in compilers:
                    splices += inc.stats.delta_splices
                    refusals += inc.stats.delta_refusals
                    replayed += inc.stats.replayed_instructions
                    translated += inc.stats.translated_instructions
        delta_total = splices + refusals
        replay_total = replayed + translated
        return {
            "transform_s": round(t_tx, 3),
            "codegen_s": round(t_cg, 3),
            "run_s": round(t_run, 3),
            "total_s": round(t_tx + t_cg + t_run, 3),
            "experiments": experiments,
            "delta_splices": splices,
            "delta_refusals": refusals,
            "delta_hit_rate": round(splices / delta_total, 3)
            if delta_total
            else None,
            "delta_replay_rate": round(replayed / replay_total, 3)
            if replay_total
            else None,
        }
    finally:
        set_inline_runtime(prev)


def bench_inline_rt() -> dict:
    """The inlined-runtime engine vs the PR 7 compiled-default engine.

    Both arms run the same resize campaign as ``bench_campaign_compiled``
    through the real executor, serial.  Each arm starts from fully cold
    process caches (``reset_codegen_caches(code_cache=True)``) and runs
    ``CAMPAIGN_REPS`` reps on *fresh* job objects each rep: rep 0 is the
    cold first-campaign cost, the best of the later reps is the warm
    steady state (process caches hot, every per-module L1 memo cold) that
    a resumed or multi-workload campaign sees.  Fresh jobs per rep matter:
    reusing job objects would retain finished builds and time nothing but
    runs.  The ``stages`` sub-section decomposes the same sweep into
    transform / codegen / run buckets, cold and warm, per arm; delta
    stats come from the warm ON sweep.  Signature identity is checked
    three ways: ON vs OFF, and ON vs a plain interpreter campaign.
    """
    from repro.eval.builds import reset_build_table
    from repro.machine.compile import reset_codegen_caches

    variants = [stdapp_variant()] + diversity_variants("sds")
    arm_times = {}
    arm_records = {}
    for label, inline in (("off", False), ("on", True)):
        reset_codegen_caches(code_cache=True)
        reps = []
        records = None
        for _ in range(CAMPAIGN_REPS):
            reset_build_table()  # fresh jobs: no build carried over
            jobs = _fresh_campaign_jobs(variants)
            with _gc_disabled():
                t0 = time.perf_counter()
                records = run_campaign_jobs(
                    jobs, config=ExecConfig(jobs=1, inline_rt=inline)
                )
                reps.append(time.perf_counter() - t0)
        arm_times[label] = (reps[0], min(reps[1:]))
        arm_records[label] = records

    interp_jobs = _fresh_campaign_jobs(variants)
    interp_records = run_campaign_jobs(
        interp_jobs, config=ExecConfig(jobs=1, compiled=False)
    )

    stage_arms = {}
    for label, inline in (("off", False), ("on", True)):
        reset_codegen_caches(code_cache=True)
        cold = _staged_inline_sweep(inline)
        warm = _staged_inline_sweep(inline)
        stage_arms[label] = {"cold": cold, "warm": warm}

    on_sigs = [r.signature() for r in arm_records["on"]]
    identical_off = on_sigs == [r.signature() for r in arm_records["off"]]
    identical_interp = on_sigs == [r.signature() for r in interp_records]
    off_cold, off_warm = arm_times["off"]
    on_cold, on_warm = arm_times["on"]
    warm_delta = stage_arms["on"]["warm"]
    return {
        "kind": HEAP_ARRAY_RESIZE,
        "apps": list(WORKLOAD_ORDER),
        "variants": [v.name for v in variants],
        "records": len(arm_records["on"]),
        "off_cold_s": round(off_cold, 3),
        "off_warm_s": round(off_warm, 3),
        "on_cold_s": round(on_cold, 3),
        "on_warm_s": round(on_warm, 3),
        "speedup_cold": round(off_cold / on_cold, 2),
        "speedup_warm": round(off_warm / on_warm, 2),
        "records_identical_to_compiled_default": identical_off,
        "records_identical_to_interp": identical_interp,
        "stages": stage_arms,
        "delta_hit_rate_warm": warm_delta["delta_hit_rate"],
        "delta_replay_rate_warm": warm_delta["delta_replay_rate"],
    }


def _git_sha() -> str:
    try:
        import subprocess

        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(OUT_PATH.parent),
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        smoke()
        return
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else int(
        os.environ.get("DPMR_JOBS", "4") or "4"
    )
    interp = bench_interpreter()
    compiled = bench_compiled(interp["instructions_per_s"])
    obs = bench_obs()
    campaign = bench_campaign(jobs)
    campaign_compiled = bench_campaign_compiled()
    inline_rt = bench_inline_rt()
    previous = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    payload = {
        "meta": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "note": (
                "single-core containers cannot show multiprocess speedup; "
                "the wall-clock win there comes from the interpreter fast "
                "path (compare against seed_baseline)"
            ),
        },
        "seed_baseline": SEED_BASELINE,
        "interp": dict(
            interp,
            speedup_vs_seed=round(
                interp["instructions_per_s"]
                / SEED_BASELINE["interp_mcf_scale6_ips"],
                2,
            ),
        ),
        "compiled": compiled,
        "obs": obs,
        "campaign": campaign,
        "campaign_compiled": campaign_compiled,
        "inline_rt": inline_rt,
    }
    # Preserve the sections maintained by perf_build.py / perf_store.py.
    for section in ("build", "store"):
        if section in previous:
            payload[section] = previous[section]
    # Per-PR trajectory: append a compact snapshot instead of silently
    # overwriting — the headline numbers of every bench run stay
    # reconstructible from the file alone.  A re-run at the same commit
    # updates its entry rather than duplicating it.
    sha = _git_sha()
    snapshot = {
        "date": time.strftime("%Y-%m-%d"),
        "git_sha": sha,
        "interp_ips": interp["instructions_per_s"],
        "compiled_ips": compiled["instructions_per_s"],
        "campaign_serial_s": campaign["serial_s"],
        "campaign_compiled_serial_s": campaign_compiled["serial_s"],
        "inline_rt_warm_s": inline_rt["on_warm_s"],
        "inline_rt_speedup_warm": inline_rt["speedup_warm"],
    }
    payload["history"] = [
        h for h in previous.get("history", []) if h.get("git_sha") != sha
    ] + [snapshot]
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if not campaign["parallel_identical_to_serial"]:
        sys.exit("FATAL: parallel campaign diverged from serial run")
    if not campaign["incremental_identical_to_full_rebuild"]:
        sys.exit("FATAL: incremental campaign diverged from full rebuild")
    if not compiled["records_identical"]:
        sys.exit("FATAL: compiled golden run diverged from the interpreter")
    if compiled["speedup_vs_interp"] < COMPILED_MIN_SPEEDUP:
        sys.exit(
            f"FATAL: compiled tier {compiled['speedup_vs_interp']}x vs "
            f"interpreter, below the {COMPILED_MIN_SPEEDUP}x target"
        )
    if not campaign_compiled["records_identical"]:
        sys.exit("FATAL: compiled-default campaign diverged from interpreter")
    if campaign_compiled["speedup_vs_interp"] < CAMPAIGN_COMPILED_MIN_SPEEDUP:
        sys.exit(
            f"FATAL: compiled-default campaign only "
            f"{campaign_compiled['speedup_vs_interp']}x vs the interpreter "
            f"(target ≥{CAMPAIGN_COMPILED_MIN_SPEEDUP}x)"
        )
    if not inline_rt["records_identical_to_compiled_default"]:
        sys.exit(
            "FATAL: inlined-runtime campaign diverged from the "
            "compiled-default campaign"
        )
    if not inline_rt["records_identical_to_interp"]:
        sys.exit("FATAL: inlined-runtime campaign diverged from interpreter")
    if inline_rt["speedup_warm"] < INLINE_RT_MIN_SPEEDUP:
        sys.exit(
            f"FATAL: inlined-runtime campaign only "
            f"{inline_rt['speedup_warm']}x the compiled-default engine warm "
            f"(target ≥{INLINE_RT_MIN_SPEEDUP}x)"
        )
    if (
        inline_rt["delta_hit_rate_warm"] is None
        or inline_rt["delta_hit_rate_warm"] < INLINE_RT_MIN_DELTA_HIT_RATE
    ):
        sys.exit(
            f"FATAL: warm delta-transform hit rate "
            f"{inline_rt['delta_hit_rate_warm']} below "
            f"{INLINE_RT_MIN_DELTA_HIT_RATE}"
        )
    if obs["null_tracer_overhead_pct"] > TRACE_OVERHEAD_TOLERANCE * 100:
        sys.exit(
            "FATAL: disabled-tracer path exceeds the "
            f"{TRACE_OVERHEAD_TOLERANCE:.0%} overhead budget "
            f"({obs['null_tracer_overhead_pct']:+.2f}%)"
        )


if __name__ == "__main__":
    main()
