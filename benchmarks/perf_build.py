#!/usr/bin/env python
"""Campaign build-path benchmark → ``build`` section of ``BENCH_interp.json``.

Measures what the incremental recompilation layer (core/incremental.py)
actually buys for fault-injection campaigns, separated from interpreter run
time:

* **full-rebuild build time** — the PR 1 path: one ``factory()`` call plus a
  whole-module DPMR transform (with whole-module verification) per
  ``(site, variant)``;
* **incremental cold build time** — one pristine snapshot and one base
  transform per variant, then per site a copy-on-write clone plus a
  re-transform of only the function containing the fault (every compile a
  content-hash memo miss: the campaign's first pass);
* **incremental warm build time** — the same compiles again, now served
  from the content-addressed memo (repeat passes, multi-seed campaigns,
  and the parallel executor re-using coordinator state).

The timed passes drive :class:`IncrementalDpmrCompiler` directly.  The
identity check runs the path campaigns run: every campaign build
(``parallel.site_build``) must print byte-identically to the full-rebuild
oracle (``parallel.reference_build``) of the same (site, DPMR variant), and
campaign records must match on both paths.  ``--smoke`` runs that check
alone (small campaign, both fault kinds, exits non-zero on any divergence)
so CI can gate on it cheaply.

Usage::

    PYTHONPATH=src python benchmarks/perf_build.py          # measure + update BENCH
    PYTHONPATH=src python benchmarks/perf_build.py --smoke  # CI identity gate
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

from repro.apps import WORKLOAD_ORDER, app_factory
from repro.core import IncrementalDpmrCompiler
from repro.eval import (
    ExecConfig,
    WorkloadHarness,
    diversity_variants,
    job_for_harness,
    run_campaign_jobs,
    stdapp_variant,
)
from repro.eval.parallel import base_transform, reference_build, site_build
from repro.faultinject import HEAP_ARRAY_RESIZE, IMMEDIATE_FREE
from repro.faultinject.campaign import Campaign
from repro.faultinject.injector import inject
from repro.ir.printer import format_module

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_interp.json"

REPS = 3


def _campaigns():
    for app in WORKLOAD_ORDER:
        yield app, Campaign(app_factory(app, 1), HEAP_ARRAY_RESIZE)


def _dpmr_variants():
    return diversity_variants("sds")


def bench_build_paths() -> dict:
    """Time every DPMR (site, variant) build of the resize campaign."""
    campaigns = list(_campaigns())
    variants = _dpmr_variants()
    n_compiles = sum(len(c.sites) for _, c in campaigns) * len(variants)

    def full_pass():
        for app, camp in campaigns:
            factory = camp.factory
            for v in variants:
                for s in camp.sites:
                    v.compile(inject(factory(), s, camp.percent))

    def cold_pass():
        for app, camp in campaigns:
            incs = [
                IncrementalDpmrCompiler(v.transform_compiler(), camp.pristine)
                for v in variants
            ]
            for v, ic in zip(variants, incs):
                for s in camp.sites:
                    ic.compile(camp.faulty_module(s))

    # Warm: same compilers kept across passes → content-hash memo hits.
    warm_incs = [
        [
            IncrementalDpmrCompiler(v.transform_compiler(), camp.pristine)
            for v in variants
        ]
        for _, camp in campaigns
    ]

    def warm_pass():
        for (app, camp), incs in zip(campaigns, warm_incs):
            for v, ic in zip(variants, incs):
                for s in camp.sites:
                    ic.compile(camp.faulty_module(s))

    def best_of(f):
        f()  # warm caches (imports, memo for warm_pass)
        best = None
        for _ in range(REPS):
            # GC off during the timed region: a collector pass landing
            # mid-run skews best-of-N on this noisy container.
            gc.disable()
            try:
                t0 = time.perf_counter()
                f()
                dt = time.perf_counter() - t0
            finally:
                gc.enable()
            gc.collect()
            best = dt if best is None else min(best, dt)
        return best

    full_s = best_of(full_pass)
    cold_s = best_of(cold_pass)
    warm_s = best_of(warm_pass)

    stats_hits = sum(ic.stats.hits for incs in warm_incs for ic in incs)
    stats_misses = sum(ic.stats.misses for incs in warm_incs for ic in incs)
    return {
        "dpmr_compiles": n_compiles,
        "full_rebuild_s": round(full_s, 3),
        "incremental_cold_s": round(cold_s, 3),
        "incremental_warm_s": round(warm_s, 3),
        "full_rebuild_ms_per_compile": round(full_s / n_compiles * 1000, 2),
        "incremental_cold_ms_per_compile": round(cold_s / n_compiles * 1000, 2),
        "incremental_warm_ms_per_compile": round(warm_s / n_compiles * 1000, 2),
        "speedup_warm_vs_full": round(full_s / warm_s, 2),
        "speedup_cold_vs_full": round(full_s / cold_s, 2),
        "cache_hits": stats_hits,
        "cache_misses": stats_misses,
        "cache_hit_rate": round(
            stats_hits / (stats_hits + stats_misses), 3
        )
        if stats_hits + stats_misses
        else 0.0,
    }


def check_identity(apps, kinds, variants) -> list:
    """Byte-compare campaign builds against the full-rebuild oracle, and
    campaign records on both paths; returns a list of divergence
    descriptions."""
    failures = []
    for app in apps:
        harness = WorkloadHarness(app, app_factory(app, 1))
        for kind in kinds:
            job = job_for_harness(harness, variants, kind)
            if not job.sites:
                continue
            # module-text identity, per (variant, site)
            for v in variants:
                if not v.dpmr:
                    continue
                for si, s in enumerate(job.sites):
                    _, fast = site_build(job, si, v)
                    full = reference_build(job, si, v)
                    if format_module(full._build.module) != format_module(fast.module):
                        failures.append(f"module text: {app}/{kind}/{v.name}/{s.site_id}")
                base = base_transform(job.pristine, job.pristine_digest, v)
                stats = base.compiler.stats
                if stats.hits + stats.misses == 0 or stats.full_rebuilds:
                    failures.append(f"cache never engaged: {app}/{kind}/{v.name}")
            # record identity through the executor
            full = run_campaign_jobs([job], config=ExecConfig(incremental=False))
            inc = run_campaign_jobs([job], config=ExecConfig(incremental=True))
            sig = lambda r: (
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
            if [sig(r) for r in full] != [sig(r) for r in inc]:
                failures.append(f"records: {app}/{kind}")
    return failures


def smoke() -> None:
    variants = [stdapp_variant()] + _dpmr_variants()[:3]
    failures = check_identity(
        ("mcf", "equake"), (HEAP_ARRAY_RESIZE, IMMEDIATE_FREE), variants
    )
    if failures:
        for f in failures:
            print(f"DIVERGED: {f}", file=sys.stderr)
        sys.exit(1)
    print("smoke OK: campaign builds byte-identical to full rebuilds")


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        smoke()
        return
    variants = [stdapp_variant()] + _dpmr_variants()
    failures = check_identity(
        WORKLOAD_ORDER, (HEAP_ARRAY_RESIZE, IMMEDIATE_FREE), variants
    )
    build = bench_build_paths()
    build["identical_to_full_rebuild"] = not failures
    payload = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    payload["build"] = build
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(build, indent=2))
    if failures:
        for f in failures:
            print(f"DIVERGED: {f}", file=sys.stderr)
        sys.exit("FATAL: incremental build diverged from full rebuild")


if __name__ == "__main__":
    main()
