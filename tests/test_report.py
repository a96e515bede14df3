"""The ASCII report renderers (eval/report.py).

Fabricated inputs, exact expectations on the load-bearing parts: which
rows appear, placeholder behaviour for missing cells, and the new
counter/manifest sections staying stable whether observability was on.
"""

from __future__ import annotations

from repro.eval import (
    CoverageComponents,
    conditional_coverage_table,
    counter_table,
    coverage_table,
    latency_table,
    manifest_section,
    overhead_table,
)
from repro.obs import JobManifest, RunManifest


class TestCoverageTables:
    def test_coverage_table_rows_follow_given_order(self):
        rows = {
            ("stdapp", "mcf"): CoverageComponents(0.5, 0.25, 0.0, 8),
            ("no-diversity", "mcf"): CoverageComponents(0.25, 0.25, 0.5, 8),
        }
        text = coverage_table(
            "Fig X", rows, ["no-diversity", "stdapp"], ["mcf", "art"]
        )
        lines = text.splitlines()
        assert lines[0] == "Fig X"
        body = [l for l in lines if l.startswith(("stdapp", "no-diversity"))]
        # Requested order, missing (variant, app) cells silently skipped.
        assert [l.split()[0] for l in body] == ["no-diversity", "stdapp"]
        assert "0.50" in body[0] and body[0].endswith("8")

    def test_conditional_coverage_table(self):
        rows = {"stdapp": CoverageComponents(0.0, 1.0, 0.0, 4)}
        text = conditional_coverage_table("Cond", rows, ["stdapp", "missing"])
        assert "stdapp" in text
        assert "missing" not in text
        assert "1.00" in text

    def test_overhead_table_placeholder_for_missing_cells(self):
        rows = {("golden", "mcf"): 1.0, ("no-diversity", "mcf"): 2.5}
        text = overhead_table(
            "Overhead", rows, ["golden", "no-diversity"], ["mcf", "art"]
        )
        assert "1.00x" in text and "2.50x" in text
        assert "--" in text  # the art column has no data

    def test_latency_table_scales_to_kcycles(self):
        rows = {("no-diversity", "mcf"): 12_500.0, ("stdapp", "mcf"): None}
        text = latency_table("T2D", rows, ["no-diversity", "stdapp"], ["mcf"])
        assert "(kcycles)" in text.splitlines()[0]
        assert "12.50" in text
        assert "--" in text  # None renders as missing


class TestCounterTable:
    def test_empty_totals_render_stable_placeholder(self):
        text = counter_table({})
        assert "observability disabled" in text

    def test_totals_grouped_and_formatted(self):
        text = counter_table(
            {
                "op.load": 1_234_567,
                "op.store": 10,
                "dpmr.compare": 42,
                "heap.alloc": 7,
            }
        )
        lines = text.splitlines()
        assert "1,234,567" in text
        # Sorted keys, one blank line between key-prefix groups.
        keys = [l.split()[0] for l in lines[2:] if l]
        assert keys == ["dpmr.compare", "heap.alloc", "op.load", "op.store"]
        assert lines.count("") == 2


class TestManifestSection:
    def _manifest(self) -> RunManifest:
        m = RunManifest(
            mode="campaign",
            requested_jobs=4,
            effective_jobs=1,
            worker_reason="serial",
            serial_fallback="machine reports 1 cpu(s)",
            incremental=True,
            trace_path="campaign.jsonl",
            counters_enabled=True,
            timeout_factor=20,
            n_jobs=1,
            n_items=32,
            n_records=32,
            jobs=[
                JobManifest(
                    workload="mcf",
                    kind="heap-array-resize",
                    n_sites=2,
                    n_variants=8,
                    n_seeds=2,
                )
            ],
            status_counts={"normal": 20, "dpmr-detected": 12},
            wall_s=1.5,
        )
        m.path = "campaign.jsonl.manifest.json"
        return m

    def test_every_decision_is_visible(self):
        text = manifest_section(self._manifest())
        assert "mode=campaign records=32 items=32" in text
        assert "requested=4 effective=1 (serial)" in text
        assert "serial fallback: machine reports 1 cpu(s)" in text
        assert "incremental=on" in text
        assert "trace=campaign.jsonl" in text
        assert "counters=on" in text
        assert "timeout_factor=20" in text
        assert "job mcf/heap-array-resize: sites=2 variants=8 seeds=2" in text
        assert "dpmr-detected=12" in text
        assert "persisted: campaign.jsonl.manifest.json" in text

    def test_quiet_manifest_omits_optional_lines(self):
        m = RunManifest(mode="clean", worker_reason="serial requested (jobs=1)")
        text = manifest_section(m)
        assert "serial fallback" not in text
        assert "trace=" not in text
        assert "persisted" not in text
        assert "statuses" not in text
