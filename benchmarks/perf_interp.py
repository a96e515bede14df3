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
cold first run and a warm re-run (a cold run compiles each function it
runs once; the content-addressed caches make re-runs nearly free).

Writes ``BENCH_interp.json`` at the repo root so future PRs have a perf
trajectory to regress against.  The ``seed_baseline`` block is frozen: it
holds the numbers measured on the pre-fast-path seed tree (PR 1, same
single-core container) and must not be re-measured.  Every full run also
appends a compact ``history`` snapshot (date, git sha, headline ips and
campaign seconds), so the trajectory survives section rewrites.  Every
section a full run does not write is carried over unchanged: the ones
``perf_build.py``, ``perf_store.py`` and ``perf_service.py`` maintain, and
frozen history such as ``shard`` and ``inline_rt`` (the last A/B of the
inlined-runtime engine against ``DPMR_INLINE_RT=0``, before that opt-out
was retired).

Usage::

    PYTHONPATH=src python benchmarks/perf_interp.py [jobs]
    PYTHONPATH=src python benchmarks/perf_interp.py --smoke

``jobs`` defaults to ``DPMR_JOBS`` or 4.  ``--smoke`` is a CI step: it
asserts structurally that machines without observability (or with a
``NullTracer``) bind the uninstrumented fast-path executor, prints an A/B
of the disabled-tracer path against a bare machine without gating it (they
run the identical loop, so the gap is noise; a full run gates it at 5%),
replays a small traced campaign to verify T2D is recomputable
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

    # 2. A/B throughput, reported only: bare vs NullTracer run the
    #    identical loop, so the gap is pure noise, which a shared CI host
    #    cannot hold to TRACE_OVERHEAD_TOLERANCE.  Step 1's asserts and
    #    tests/test_obs_trace.py::TestFastPath pin the same loop
    #    deterministically; a full run still gates the overhead.
    obs = bench_obs()
    print(
        f"smoke: best-of-{obs['reps']} bare {obs['bare_ips']:,} ips, "
        f"best-of-{obs['reps']} null-tracer {obs['null_tracer_ips']:,} ips; "
        f"null-tracer overhead {obs['null_tracer_overhead_raw_pct']:+.2f}% "
        f"(paired median of {obs['reps']} reps, not gated)"
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
    checks full record-signature identity.  The cold manifest shows a
    first run compiling each function it runs once (the 7 diversity
    variants share transformed function text, so one compile serves all of
    them); the warm manifest re-runs the campaign on *fresh* module
    objects — the process-wide stamp and content caches must then serve
    nearly everything, which is the hit-dominated steady state a resumed
    campaign sees.
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

    # Fresh module objects: every on-Function memo misses, so this manifest
    # shows the stamp and content-addressed caches carrying a warm re-run.
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


def carry_over_sections(previous: dict, payload: dict) -> dict:
    """``payload`` plus every section of ``previous`` it does not write:
    other scripts' sections and frozen history survive a full run."""
    for section, value in previous.items():
        payload.setdefault(section, value)
    return payload


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
    }
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
    }
    payload["history"] = [
        h for h in previous.get("history", []) if h.get("git_sha") != sha
    ] + [snapshot]
    payload = carry_over_sections(previous, payload)
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
    if obs["null_tracer_overhead_pct"] > TRACE_OVERHEAD_TOLERANCE * 100:
        sys.exit(
            "FATAL: disabled-tracer path exceeds the "
            f"{TRACE_OVERHEAD_TOLERANCE:.0%} overhead budget "
            f"({obs['null_tracer_overhead_pct']:+.2f}%)"
        )


if __name__ == "__main__":
    main()
