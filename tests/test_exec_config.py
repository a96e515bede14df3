"""ExecConfig (the single env-parse point), the run() facade, and the
executor telemetry it returns.

Covers the ``DPMR_*`` knob parsing, the removal of the pre-PR-4 per-call
kwarg aliases (``jobs=``/``processes=``/``incremental=`` now raise
``TypeError``), the manifest every invocation produces (worker decision
and why, serial-fallback reason, build counts), and the previously-silent
serial fallback becoming a logged warning.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from unittest import mock

import pytest

from repro.apps import app_factory
from repro.eval import (
    CampaignResult,
    ExecConfig,
    WorkloadHarness,
    diversity_variants,
    job_for_harness,
    run,
    run_campaign_jobs,
    run_campaign_jobs_with_manifest,
    stdapp_variant,
)
from repro.faultinject import HEAP_ARRAY_RESIZE
from repro.eval.parallel import base_transform
from repro.obs import JobManifest, JsonlTracer, RunManifest


@pytest.fixture(scope="module")
def harness():
    return WorkloadHarness("mcf", app_factory("mcf", 1))


@pytest.fixture(scope="module")
def variants():
    return [
        v
        for v in diversity_variants("sds")
        if v.name in ("no-diversity", "rearrange-heap")
    ]


class TestFromEnv:
    def test_empty_environment_gives_defaults(self):
        cfg = ExecConfig.from_env({})
        assert cfg == ExecConfig()
        assert cfg.jobs == 1
        assert cfg.incremental is True
        assert cfg.trace_path is None
        assert cfg.counters is False
        assert cfg.timeout_factor == 20
        assert not cfg.observing

    def test_every_knob_parsed(self):
        cfg = ExecConfig.from_env(
            {
                "DPMR_JOBS": "8",
                "DPMR_INCREMENTAL": "0",
                "DPMR_TRACE": "/tmp/t.jsonl",
                "DPMR_TRACE_EVENTS": "run-start, run-end ,fault",
                "DPMR_COUNTERS": "yes",
                "DPMR_TIMEOUT_FACTOR": "7",
                "DPMR_MANIFEST": "/tmp/m.json",
            }
        )
        assert cfg.jobs == 8
        assert cfg.incremental is False
        assert cfg.trace_path == "/tmp/t.jsonl"
        assert cfg.trace_events == ("run-start", "run-end", "fault")
        assert cfg.counters is True
        assert cfg.timeout_factor == 7
        assert cfg.manifest_path == "/tmp/m.json"
        assert cfg.observing

    def test_jobs_clamped_to_at_least_one(self):
        assert ExecConfig.from_env({"DPMR_JOBS": "0"}).jobs == 1
        assert ExecConfig.from_env({"DPMR_JOBS": "-3"}).jobs == 1

    def test_retired_shards_knob_points_at_jobs(self):
        # Unset, blank or 1 meant single-node, which is what runs now.
        for raw in ("", " ", "1"):
            assert ExecConfig.from_env({"DPMR_SHARDS": raw}) == ExecConfig()
        # Anything else must not silently run serially.
        for raw in ("4", "0", "-2", "many"):
            with pytest.raises(ValueError, match="DPMR_JOBS"):
                ExecConfig.from_env({"DPMR_SHARDS": raw})

    def test_bad_int_rejected(self):
        with pytest.raises(ValueError, match="DPMR_JOBS"):
            ExecConfig.from_env({"DPMR_JOBS": "many"})
        # A factor below 1 would clamp every budget to the harness's cycle
        # floor, below some golden runs: reject it rather than time out.
        for raw in ("soon", "0", "-3"):
            with pytest.raises(ValueError, match="DPMR_TIMEOUT_FACTOR"):
                ExecConfig.from_env({"DPMR_TIMEOUT_FACTOR": raw})

    def test_bad_flag_rejected(self):
        with pytest.raises(ValueError, match="DPMR_COUNTERS"):
            ExecConfig.from_env({"DPMR_COUNTERS": "maybe"})

    def test_blank_values_are_defaults(self):
        cfg = ExecConfig.from_env({"DPMR_TRACE": "  ", "DPMR_JOBS": ""})
        assert cfg.trace_path is None
        assert cfg.jobs == 1


class TestDerived:
    def test_make_tracer_none_without_trace_path(self):
        assert ExecConfig().make_tracer() is None

    def test_make_tracer_builds_jsonl_tracer(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = ExecConfig(trace_path=path, trace_events=("fault",)).make_tracer()
        assert isinstance(tracer, JsonlTracer)
        assert tracer.wants("fault") and not tracer.wants("heap")
        tracer.close()

    def test_make_tracer_validates_event_kinds(self, tmp_path):
        cfg = ExecConfig(
            trace_path=str(tmp_path / "t.jsonl"), trace_events=("bogus",)
        )
        with pytest.raises(ValueError, match="unknown trace event kind"):
            cfg.make_tracer()

    def test_effective_manifest_path_precedence(self):
        assert ExecConfig().effective_manifest_path() is None
        assert (
            ExecConfig(trace_path="/tmp/t.jsonl").effective_manifest_path()
            == "/tmp/t.jsonl.manifest.json"
        )
        assert (
            ExecConfig(
                trace_path="/tmp/t.jsonl", manifest_path="/tmp/m.json"
            ).effective_manifest_path()
            == "/tmp/m.json"
        )

    def test_with_jobs(self):
        cfg = ExecConfig(counters=True)
        assert cfg.with_jobs(4).jobs == 4
        assert cfg.with_jobs(0).jobs == 1
        assert cfg.with_jobs(4).counters is True


class TestRemovedAliases:
    """The PR-4 deprecation soak is over: ExecConfig is the only knob
    surface, and the old per-call kwargs fail loudly instead of warning."""

    def test_run_campaign_jobs_kwargs_removed(self, harness, variants):
        job = job_for_harness(harness, variants[:1], HEAP_ARRAY_RESIZE)
        with pytest.raises(TypeError, match="processes"):
            run_campaign_jobs([job], processes=1)
        with pytest.raises(TypeError, match="incremental"):
            run_campaign_jobs([job], incremental=False)

    def test_harness_run_campaign_kwargs_removed(self, harness, variants):
        with pytest.raises(TypeError, match="jobs"):
            harness.run_campaign(variants[:1], HEAP_ARRAY_RESIZE, jobs=1)
        with pytest.raises(TypeError, match="incremental"):
            harness.run_campaign(
                variants[:1], HEAP_ARRAY_RESIZE, incremental=True
            )

    def test_merge_deprecated_is_gone(self):
        with pytest.raises(ImportError):
            from repro.eval.config import merge_deprecated  # noqa: F401

    def test_config_path_does_not_warn(self, harness, variants):
        import warnings

        job = job_for_harness(harness, variants[:1], HEAP_ARRAY_RESIZE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_campaign_jobs([job], config=ExecConfig())


class TestSerialFallbackTelemetry:
    def test_fallback_is_warned_and_recorded(self, caplog, harness, variants):
        # A campaign far below the min-work threshold: jobs=4 must fall back
        # to serial — and say so, in the log and in the manifest.
        with caplog.at_level(logging.WARNING, logger="repro.eval.parallel"):
            res = run(
                harness,
                variants,
                kind=HEAP_ARRAY_RESIZE,
                max_sites=1,
                config=ExecConfig(jobs=4),
            )
        assert any("runs serially" in r.message for r in caplog.records)
        m = res.manifest
        assert m.requested_jobs == 4
        assert m.effective_jobs == 1
        assert m.serial_fallback is not None

    def test_serial_request_is_not_a_fallback(self, harness, variants):
        res = run(
            harness,
            variants,
            kind=HEAP_ARRAY_RESIZE,
            max_sites=1,
            config=ExecConfig(jobs=1),
        )
        assert res.manifest.serial_fallback is None
        assert "serial" in res.manifest.worker_reason


class TestRunFacade:
    def test_campaign_result_shape(self, harness, variants):
        res = run(harness, variants, kind=HEAP_ARRAY_RESIZE, config=ExecConfig())
        assert isinstance(res, CampaignResult)
        assert len(res) == len(res.records) > 0
        assert list(iter(res)) == res.records
        m = res.manifest
        assert m.mode == "campaign"
        assert m.n_records == len(res)
        assert sum(m.status_counts.values()) == len(res)
        assert m.n_jobs == 1 and m.n_items == len(res)
        assert [jm.workload for jm in m.jobs] == ["mcf"]
        assert m.jobs[0].n_sites == len(m.jobs[0].sites) > 0
        # Incremental path: both variants share one transform, so each
        # site is built once and served to the other variant, and the
        # base transform's function-level cache was used.
        assert m.incremental is True
        assert m.site_built == m.jobs[0].n_sites
        assert m.site_built + m.site_served == len(res)
        base = base_transform(harness.pristine, harness.pristine_digest, variants[0])
        assert base.compiler.stats.hits > 0

    def test_campaign_result_round_trips_through_json(self, harness, variants):
        res = run(
            harness,
            variants,
            kind=HEAP_ARRAY_RESIZE,
            max_sites=1,
            config=ExecConfig(),
        )
        clone = CampaignResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert [r.signature() for r in clone] == [r.signature() for r in res]
        assert clone.manifest.to_dict() == res.manifest.to_dict()

    def test_clean_mode(self, harness, variants):
        res = run(harness, variants, config=ExecConfig(counters=True))
        assert len(res) == len(variants) * len(harness.seeds)
        m = res.manifest
        assert m.mode == "clean"
        assert m.effective_jobs == 1
        assert m.counters_enabled is True
        assert m.counter_totals.get("dpmr.compare", 0) > 0
        assert all(r.site is None for r in res)

    def test_dispatch_errors(self, harness, variants):
        with pytest.raises(TypeError, match="requires variants"):
            run(harness)
        with pytest.raises(TypeError, match="requires variants"):
            run(harness, kind=HEAP_ARRAY_RESIZE)
        job = job_for_harness(harness, variants, HEAP_ARRAY_RESIZE)
        with pytest.raises(TypeError, match="live on the jobs"):
            run([job], variants=variants)

    def test_manifest_persisted_next_to_trace(self, tmp_path, harness, variants):
        trace = str(tmp_path / "campaign.jsonl")
        res = run(
            harness,
            variants,
            kind=HEAP_ARRAY_RESIZE,
            config=ExecConfig(trace_path=trace),
        )
        expected = trace + ".manifest.json"
        assert res.manifest.path == expected
        loaded = RunManifest.read(expected)
        assert loaded.schema == res.manifest.schema
        assert loaded.n_records == len(res)
        assert loaded.trace_path == trace
        assert loaded.counter_totals == res.manifest.counter_totals

    def test_forced_fork_manifest_reports_parallelism(self, harness):
        # 1-core hosts always serialize; pretend the machine is big
        # enough that the pool genuinely engages, and check the manifest
        # tells the truth while the records stay bit-identical.
        all_variants = [stdapp_variant()] + diversity_variants("sds")
        big = WorkloadHarness("mcf", app_factory("mcf", 1), seeds=(0, 1))
        serial = run(
            big, all_variants, kind=HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=1)
        )
        with mock.patch("repro.eval.parallel.usable_cpu_count", return_value=4):
            parallel = run(
                big,
                all_variants,
                kind=HEAP_ARRAY_RESIZE,
                config=ExecConfig(jobs=2),
            )
        assert parallel.manifest.effective_jobs == 2
        assert parallel.manifest.serial_fallback is None
        key = lambda r: (
            r.workload,
            r.variant,
            r.site,
            r.run,
            r.result.status,
            r.result.exit_code,
            r.result.output_text,
            r.result.cycles,
            r.result.instructions,
            tuple(sorted(r.result.fault_activations.items())),
        )
        assert [key(r) for r in serial] == [key(r) for r in parallel]

    def test_explicit_tracer_overrides_config(self, harness, variants):
        from repro.obs import CollectingTracer

        tracer = CollectingTracer()
        res = run(
            harness,
            variants,
            kind=HEAP_ARRAY_RESIZE,
            max_sites=1,
            config=ExecConfig(),
            tracer=tracer,
        )
        # Caller-owned tracer: events collected, no trace file recorded.
        assert res.manifest.trace_path is None
        starts = [e for e in tracer.events if e["ev"] == "run-start"]
        assert len(starts) == len(res)


class TestOlderManifests:
    """Manifests written before schema 7 carried the shard fabric's keys,
    and their jobs carried build-cache keys until schema 8."""

    COMMITTED = (
        Path(__file__).resolve().parents[1]
        / "benchmarks"
        / "results"
        / "manifest_diversity_sds_heap-array-resize.json"
    )

    def test_committed_manifest_loads(self):
        raw = json.loads(self.COMMITTED.read_text(encoding="utf-8"))
        loaded = RunManifest.read(str(self.COMMITTED))
        assert loaded.schema == raw["schema"]
        assert loaded.n_records == raw["n_records"]
        assert loaded.status_counts == raw["status_counts"]

    def test_retired_fabric_keys_are_dropped(self):
        job = JobManifest(
            workload="mcf",
            kind="heap-array-resize",
            n_sites=1,
            n_variants=2,
            n_seeds=1,
            sites=["s0"],
        )
        fresh = RunManifest(mode="campaign", jobs=[job])
        schema6 = fresh.to_dict()
        schema6.update(
            schema=6,
            n_shards=2,
            lease_grants=3,
            lease_reassignments=1,
            lease_expiries=0,
            store_synced=5,
            shards=[{"shard": 0, "leases": 3, "n_records": 5}],
        )
        schema7 = fresh.to_dict()
        schema7["schema"] = 7
        schema7["jobs"][0].update(
            cache_hits=1, cache_misses=1, cache_full_rebuilds=0, builds_cached=2
        )
        for old in (schema6, schema7):
            loaded = RunManifest.from_dict(old)
            assert loaded.schema == old["schema"]
            assert {**loaded.to_dict(), "schema": fresh.schema} == fresh.to_dict()

    def test_other_unknown_keys_still_raise(self):
        d = RunManifest(mode="campaign").to_dict()
        d["from_the_future"] = 1
        with pytest.raises(TypeError, match="from_the_future"):
            RunManifest.from_dict(d)


def test_run_campaign_jobs_with_manifest_matches_wrapper(harness, variants):
    job = job_for_harness(harness, variants, HEAP_ARRAY_RESIZE)
    records, manifest = run_campaign_jobs_with_manifest([job], config=ExecConfig())
    wrapped = run_campaign_jobs([job], config=ExecConfig())
    assert len(records) == len(wrapped) == manifest.n_records
