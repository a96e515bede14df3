"""Determinism of the parallel campaign executor (eval/parallel.py).

A campaign run with ``DPMR_JOBS=4`` must be *byte-identical* to the serial
run: same records in the same order, and therefore identical
coverage/conditional-coverage/latency metrics.  This is the executor's core
guarantee — per-experiment RNG seeding and no shared mutable machine state —
so the whole evaluation can fan out without changing a single number.
"""

import os
from unittest import mock

import pytest

from repro.apps import app_factory
from repro.eval import (
    ExecConfig,
    WorkloadHarness,
    coverage_components,
    default_jobs,
    diversity_variants,
    effective_workers,
    job_for_harness,
    mean_time_to_detection,
    run_campaign_jobs,
    run_campaign_jobs_with_manifest,
    stdapp_variant,
)
from repro.eval.parallel import MIN_ITEMS_PER_WORKER, base_transform
from repro.faultinject import HEAP_ARRAY_RESIZE


def record_signature(r):
    """Every measured field of one experiment, as a comparable value."""
    return (
        r.workload,
        r.variant,
        r.site,
        r.run,
        r.golden_output,
        r.result.status,
        r.result.exit_code,
        r.result.output_text,
        r.result.cycles,
        r.result.instructions,
        tuple(sorted(r.result.fault_activations.items())),
        r.result.detail,
    )


@pytest.fixture(scope="module")
def harness():
    # Two seeds so per-experiment seeding (not just per-site) is exercised.
    return WorkloadHarness("mcf", app_factory("mcf", 1), seeds=(0, 1))


@pytest.fixture(scope="module")
def variants():
    # stdapp + all seven diversity variants; includes rearrange-heap, whose
    # dummy-allocation count comes from the per-machine RNG.
    return [stdapp_variant()] + diversity_variants("sds")


class TestParallelDeterminism:
    def test_parallel_records_byte_identical_to_serial(self, harness, variants):
        serial = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=1)
        )
        parallel = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=4)
        )
        assert len(serial) == len(parallel) > 0
        assert [record_signature(r) for r in serial] == [
            record_signature(r) for r in parallel
        ]

    def test_parallel_metrics_identical_to_serial(self, harness, variants):
        serial = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=1)
        )
        parallel = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=4)
        )
        for name in {v.name for v in variants}:
            s_recs = [r for r in serial if r.variant == name]
            p_recs = [r for r in parallel if r.variant == name]
            assert coverage_components(s_recs) == coverage_components(p_recs)
            assert mean_time_to_detection(s_recs) == mean_time_to_detection(p_recs)

    def test_multi_job_aggregation_matches_concatenated_serial(self, variants):
        """Cross-workload fan-out preserves the per-app serial ordering."""
        apps = ("mcf", "equake")
        harnesses = [WorkloadHarness(a, app_factory(a, 1)) for a in apps]
        few = variants[:3]
        jobs = [job_for_harness(h, few, HEAP_ARRAY_RESIZE) for h in harnesses]
        combined = run_campaign_jobs(jobs, config=ExecConfig(jobs=4))
        expected = []
        for h in harnesses:
            expected.extend(
                h.run_campaign(few, HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=1))
            )
        assert [record_signature(r) for r in combined] == [
            record_signature(r) for r in expected
        ]


class TestJobsEnvVar:
    def test_default_is_serial(self):
        with mock.patch.dict(os.environ):
            os.environ.pop("DPMR_JOBS", None)
            assert default_jobs() == 1

    def test_env_opt_in(self):
        with mock.patch.dict(os.environ, {"DPMR_JOBS": "4"}):
            assert default_jobs() == 4

    def test_garbage_rejected(self):
        with mock.patch.dict(os.environ, {"DPMR_JOBS": "many"}):
            with pytest.raises(ValueError):
                default_jobs()


class TestEffectiveWorkers:
    """The minimum-work-per-worker heuristic (small-campaign fork cost)."""

    def test_small_campaign_falls_back_to_serial(self):
        # Fewer items than one worker's minimum share: fork cost cannot
        # amortize, whatever DPMR_JOBS says.
        assert effective_workers(MIN_ITEMS_PER_WORKER - 1, 4) == 1
        assert effective_workers(0, 8) == 1

    def test_workers_scale_with_available_work(self):
        with mock.patch("repro.eval.parallel.usable_cpu_count", return_value=8):
            assert effective_workers(MIN_ITEMS_PER_WORKER * 2, 4) == 2
            assert effective_workers(MIN_ITEMS_PER_WORKER * 4, 4) == 4
            assert effective_workers(MIN_ITEMS_PER_WORKER * 100, 4) == 4

    def test_workers_capped_by_cpu_count(self):
        with mock.patch("repro.eval.parallel.usable_cpu_count", return_value=2):
            assert effective_workers(MIN_ITEMS_PER_WORKER * 100, 8) == 2

    def test_fork_path_still_byte_identical_when_forced(self, harness, variants):
        # On small/1-core machines the heuristic would serialize; pretend the
        # machine is big enough that the fork pool genuinely engages, and
        # check the executor's core guarantee end to end.
        serial = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=1)
        )
        with mock.patch("repro.eval.parallel.usable_cpu_count", return_value=4):
            job = job_for_harness(harness, variants, HEAP_ARRAY_RESIZE)
            parallel, manifest = run_campaign_jobs_with_manifest(
                [job], config=ExecConfig(jobs=2)
            )
        assert manifest.effective_jobs == 2
        assert [record_signature(r) for r in serial] == [
            record_signature(r) for r in parallel
        ]


class TestIncrementalThroughExecutor:
    def test_incremental_and_full_rebuild_identical_via_executor(
        self, harness, variants
    ):
        job = job_for_harness(harness, variants, HEAP_ARRAY_RESIZE)
        full = run_campaign_jobs([job], config=ExecConfig(incremental=False))
        inc = run_campaign_jobs([job], config=ExecConfig(incremental=True))
        assert [record_signature(r) for r in full] == [
            record_signature(r) for r in inc
        ]

    def test_prebuilt_bases_reused_counted(self, harness, variants):
        # Base transforms fetched ahead of a campaign are served to it by
        # content: the executor's site builds go through the same compilers.
        job = job_for_harness(harness, variants, HEAP_ARRAY_RESIZE)
        bases = [
            base_transform(job.pristine, job.pristine_digest, v) for v in job.variants
        ]
        _, manifest = run_campaign_jobs_with_manifest([job], config=ExecConfig())
        compilers = [b.compiler for b in bases if b is not None]
        assert compilers and all(c.stats.hits > 0 for c in compilers)
        assert all(c.stats.full_rebuilds == 0 for c in compilers)
        assert manifest.base_built == 0
        assert manifest.base_served == len(compilers)

    def test_forked_workers_share_coordinator_cache(self, harness, variants):
        # Workers inherit the coordinator's pristine snapshot and per-variant
        # transform caches via fork; records must stay byte-identical.
        job = job_for_harness(harness, variants, HEAP_ARRAY_RESIZE)
        serial = run_campaign_jobs([job], config=ExecConfig(jobs=1))
        with mock.patch("repro.eval.parallel.usable_cpu_count", return_value=4):
            parallel, manifest = run_campaign_jobs_with_manifest(
                [job], config=ExecConfig(jobs=2)
            )
        assert manifest.effective_jobs == 2
        assert [record_signature(r) for r in serial] == [
            record_signature(r) for r in parallel
        ]


class TestOnRecord:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_store_hits_stream_first_then_runs(self, tmp_path, variants, jobs):
        """Store hits stream first (source "store", in item order), then
        each computed record once as it completes (source "run")."""
        harness = WorkloadHarness("mcf", app_factory("mcf", 1), seeds=(0, 1, 2))
        job = job_for_harness(harness, variants, HEAP_ARRAY_RESIZE)
        config = ExecConfig(jobs=jobs, store_path=str(tmp_path / "store"))
        every = [
            (0, si, vi, ri)
            for si in range(len(job.sites))
            for vi in range(len(job.variants))
            for ri in range(len(job.seeds))
        ]
        warm = every[::3]
        cold = [item for item in every if item not in warm]
        run_campaign_jobs_with_manifest([job], config=config, items=warm)
        seen = []
        # Pretend to have the cores, so jobs=2 engages the pool anywhere.
        with mock.patch("repro.eval.parallel.usable_cpu_count", return_value=2):
            records, manifest = run_campaign_jobs_with_manifest(
                [job],
                config=config,
                on_record=lambda item, record, source: seen.append(
                    (tuple(item), source, record)
                ),
            )
        assert manifest.effective_jobs == jobs
        head, tail = seen[: len(warm)], seen[len(warm) :]
        assert [(item, source) for item, source, _ in head] == [
            (item, "store") for item in warm
        ]
        assert all(source == "run" for _, source, _ in tail)
        ran = [item for item, _, _ in tail]
        assert sorted(ran) == cold
        if jobs == 1:
            assert ran == cold
        streamed = {item: record for item, _, record in seen}
        assert [record_signature(streamed[item]) for item in every] == [
            record_signature(r) for r in records
        ]
