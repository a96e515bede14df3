"""ASCII rendering of the paper's tables and figures.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the formatting consistent across all figure/table benches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .metrics import CoverageComponents


def coverage_table(
    title: str,
    rows: Mapping[Tuple[str, str], CoverageComponents],
    variant_order: Sequence[str],
    workload_order: Sequence[str],
) -> str:
    """Render a coverage figure: one row per (variant, workload)."""
    lines = [title, "=" * len(title)]
    header = f"{'variant':<18} {'app':<8} {'CO':>6} {'NatDet':>7} {'DpmrDet':>8} {'coverage':>9} {'n':>4}"
    lines.append(header)
    lines.append("-" * len(header))
    for variant in variant_order:
        for workload in workload_order:
            c = rows.get((variant, workload))
            if c is None:
                continue
            lines.append(
                f"{variant:<18} {workload:<8} {c.co:>6.2f} {c.ndet:>7.2f} "
                f"{c.ddet:>8.2f} {c.coverage:>9.2f} {c.total_runs:>4}"
            )
    return "\n".join(lines)


def conditional_coverage_table(
    title: str,
    rows: Mapping[str, CoverageComponents],
    variant_order: Sequence[str],
) -> str:
    """Render a conditional-coverage figure: one row per variant (all apps)."""
    lines = [title, "=" * len(title)]
    header = f"{'variant':<18} {'CO':>6} {'NatDet':>7} {'DpmrDet':>8} {'coverage':>9} {'n':>4}"
    lines.append(header)
    lines.append("-" * len(header))
    for variant in variant_order:
        c = rows.get(variant)
        if c is None:
            continue
        lines.append(
            f"{variant:<18} {c.co:>6.2f} {c.ndet:>7.2f} {c.ddet:>8.2f} "
            f"{c.coverage:>9.2f} {c.total_runs:>4}"
        )
    return "\n".join(lines)


def overhead_table(
    title: str,
    rows: Mapping[Tuple[str, str], float],
    variant_order: Sequence[str],
    workload_order: Sequence[str],
) -> str:
    """Render an overhead figure: variants × workloads, golden = 1.0x."""
    lines = [title, "=" * len(title)]
    header = f"{'variant':<18} " + " ".join(f"{w:>9}" for w in workload_order)
    lines.append(header)
    lines.append("-" * len(header))
    for variant in variant_order:
        cells = []
        for workload in workload_order:
            v = rows.get((variant, workload))
            cells.append(f"{v:>8.2f}x" if v is not None else f"{'--':>9}")
        lines.append(f"{variant:<18} " + " ".join(cells))
    return "\n".join(lines)


def counter_table(
    totals: Mapping[str, int],
    title: str = "machine counters",
) -> str:
    """Render campaign-level machine counter totals, grouped by prefix.

    ``totals`` is the dict produced by
    :func:`repro.eval.metrics.aggregate_counters` (or a manifest's
    ``counter_totals``); an empty dict renders a one-line placeholder so
    reports stay stable when observability is off.
    """
    lines = [title, "=" * len(title)]
    if not totals:
        lines.append("(observability disabled: no counters recorded)")
        return "\n".join(lines)
    width = max(len(k) for k in totals)
    prev_group = None
    for key in sorted(totals):
        group = key.split(".", 1)[0]
        if prev_group is not None and group != prev_group:
            lines.append("")
        prev_group = group
        lines.append(f"{key:<{width}} {totals[key]:>14,}")
    return "\n".join(lines)


def manifest_section(manifest) -> str:
    """Render a :class:`~repro.obs.RunManifest` as a report section.

    Shows the executor decisions (worker count and why, serial fallback,
    incremental builds), build-table traffic, the shape of each job, and
    outcome aggregates — the same data the JSON manifest persists.
    """
    lines = ["run manifest", "============"]
    lines.append(
        f"mode={manifest.mode} records={manifest.n_records} "
        f"items={manifest.n_items} wall={manifest.wall_s:.2f}s"
    )
    lines.append(
        f"workers: requested={manifest.requested_jobs} "
        f"effective={manifest.effective_jobs} ({manifest.worker_reason})"
    )
    if manifest.serial_fallback is not None:
        lines.append(f"serial fallback: {manifest.serial_fallback}")
    lines.append(
        f"builds: incremental={'on' if manifest.incremental else 'off'}"
    )
    engine = getattr(manifest, "engine", "interp")
    if engine == "compiled":
        lines.append(
            f"engine: compiled (codegen hits={manifest.codegen_hits} "
            f"misses={manifest.codegen_misses})"
        )
    else:
        lines.append(f"engine: {engine}")
    obs_bits = []
    if manifest.trace_path is not None:
        obs_bits.append(f"trace={manifest.trace_path}")
    obs_bits.append(f"counters={'on' if manifest.counters_enabled else 'off'}")
    if manifest.timeout_factor is not None:
        obs_bits.append(f"timeout_factor={manifest.timeout_factor}")
    lines.append("observability: " + " ".join(obs_bits))
    lines.append(
        f"build table: golden built={manifest.golden_built} "
        f"served={manifest.golden_served} base built={manifest.base_built} "
        f"served={manifest.base_served} site built={manifest.site_built} "
        f"served={manifest.site_served} evicted={manifest.builds_evicted}"
    )
    for jm in manifest.jobs:
        lines.append(
            f"  job {jm.workload}/{jm.kind}: sites={jm.n_sites} "
            f"variants={jm.n_variants} seeds={jm.n_seeds}"
        )
    if manifest.store_path is not None:
        lines.append(
            f"store: path={manifest.store_path} hits={manifest.store_hits} "
            f"misses={manifest.store_misses} writes={manifest.store_writes} "
            f"corrupt={manifest.store_corrupt}"
        )
    if manifest.retries or manifest.worker_restarts or manifest.exp_timeouts:
        lines.append(
            f"resilience: retries={manifest.retries} "
            f"worker_restarts={manifest.worker_restarts} "
            f"exp_timeouts={manifest.exp_timeouts}"
        )
    for q in manifest.quarantined:
        lines.append(
            f"  quarantined {q.workload}/{q.kind}/{q.site}: "
            f"attempts={q.attempts} ({q.reason})"
        )
    if manifest.status_counts:
        statuses = " ".join(
            f"{k}={manifest.status_counts[k]}" for k in sorted(manifest.status_counts)
        )
        lines.append(f"statuses: {statuses}")
    if manifest.path is not None:
        lines.append(f"persisted: {manifest.path}")
    return "\n".join(lines)


def latency_table(
    title: str,
    rows: Mapping[Tuple[str, str], Optional[float]],
    variant_order: Sequence[str],
    workload_order: Sequence[str],
    unit: str = "kcycles",
) -> str:
    """Render a mean time-to-detection table (Tables 3.3/3.4/4.5/4.6)."""
    lines = [f"{title} ({unit})", "=" * len(title)]
    header = f"{'variant':<18} " + " ".join(f"{w:>10}" for w in workload_order)
    lines.append(header)
    lines.append("-" * len(header))
    for variant in variant_order:
        cells = []
        for workload in workload_order:
            v = rows.get((variant, workload))
            cells.append(f"{v / 1000.0:>10.2f}" if v is not None else f"{'--':>10}")
        lines.append(f"{variant:<18} " + " ".join(cells))
    return "\n".join(lines)
