"""Correctness of the incremental recompilation layer (core/incremental.py).

The function-level transform cache must be *invisible*: a campaign built
through ``IncrementalDpmrCompiler`` must produce byte-identical
``ExperimentRecord``s — and therefore identical coverage/latency metrics —
to one that rebuilds and re-transforms every module from scratch, across
both fault kinds, all diversity variants, and the stateful (static RNG)
comparison policies.  These tests pin that guarantee plus the cache
accounting (hit/miss counters) and the cache-key invalidation behaviour.
"""

import pytest

from repro.apps import app_factory
from repro.core import DpmrCompiler, IncrementalDpmrCompiler, static_50, temporal_1_2
from repro.core.policies import AllLoadsPolicy
from repro.eval import (
    ExecConfig,
    Variant,
    WorkloadHarness,
    coverage_components,
    diversity_variants,
    job_for_harness,
    mean_time_to_detection,
    policy_variants,
    stdapp_variant,
)
from repro.eval.parallel import reference_build, site_build
from repro.faultinject import HEAP_ARRAY_RESIZE, IMMEDIATE_FREE
from repro.faultinject.campaign import Campaign
from repro.ir.printer import format_module

from .test_parallel_determinism import record_signature


@pytest.fixture(scope="module")
def harness():
    return WorkloadHarness("mcf", app_factory("mcf", 1), seeds=(0, 1))


class _OpaqueStatefulPolicy(AllLoadsPolicy):
    """A policy with per-site compile state that the incremental compiler
    can only snapshot and restore, never interpret."""

    name = "opaque-stateful"

    def __init__(self):
        self._state = 0

    def compile_state(self):
        return self._state

    def restore_compile_state(self, state) -> None:
        self._state = state


class TestRecordIdentity:
    @pytest.mark.parametrize("kind", [HEAP_ARRAY_RESIZE, IMMEDIATE_FREE])
    def test_all_diversity_variants_byte_identical(self, harness, kind):
        variants = [stdapp_variant()] + diversity_variants("sds")
        full = harness.run_campaign(variants, kind, config=ExecConfig(incremental=False))
        inc = harness.run_campaign(variants, kind, config=ExecConfig(incremental=True))
        assert len(full) == len(inc) > 0
        assert [record_signature(r) for r in full] == [
            record_signature(r) for r in inc
        ]

    def test_stateful_policy_variants_byte_identical(self, harness):
        # static-N draws one RNG number per load site in module order; the
        # incremental path must replay the exact per-function RNG state.
        variants = policy_variants("sds")
        full = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig(incremental=False)
        )
        inc = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig(incremental=True)
        )
        assert [record_signature(r) for r in full] == [
            record_signature(r) for r in inc
        ]

    def test_metrics_identical(self, harness):
        variants = [stdapp_variant()] + diversity_variants("sds")
        full = harness.run_campaign(
            variants, IMMEDIATE_FREE, config=ExecConfig(incremental=False)
        )
        inc = harness.run_campaign(variants, IMMEDIATE_FREE, config=ExecConfig(incremental=True))
        for name in {v.name for v in variants}:
            f = [r for r in full if r.variant == name]
            i = [r for r in inc if r.variant == name]
            assert coverage_components(f) == coverage_components(i)
            assert mean_time_to_detection(f) == mean_time_to_detection(i)

    @pytest.mark.parametrize("design", ["sds", "mds"])
    def test_transformed_module_text_identical(self, design):
        # Diversity, comparison-policy (static-N draws per load site) and
        # opaque compile-state variants: every campaign build of an mcf or
        # equake fault of either kind (site_build) prints exactly as the
        # full-rebuild oracle (reference_build) of the same faulty program.
        # tests/test_delta_transforms.py pins the same on a random program
        # under both fault kinds.
        variants = (
            diversity_variants(design)[:3]
            + policy_variants(design)
            + [Variant(name="opaque", design=design, policy=_OpaqueStatefulPolicy())]
        )
        jobs = [
            job_for_harness(WorkloadHarness(app, app_factory(app, 1)), variants, kind)
            for app in ("mcf", "equake")
            for kind in (HEAP_ARRAY_RESIZE, IMMEDIATE_FREE)
        ]
        for job in jobs:
            assert job.sites
            for variant in variants:
                for si, site in enumerate(job.sites):
                    source, fast = site_build(job, si, variant)
                    assert source is None  # the entry keeps only the build
                    full = reference_build(job, si, variant)
                    assert format_module(full._build.module) == format_module(
                        fast.module
                    ), f"{variant.name}/{site.site_id}: diverges from full rebuild"


class TestCacheAccounting:
    def test_hit_and_miss_counters(self):
        camp = Campaign(app_factory("mcf", 1), HEAP_ARRAY_RESIZE)
        variant = diversity_variants("sds")[0]
        incremental = IncrementalDpmrCompiler(
            variant.transform_compiler(), camp.pristine
        )
        site = camp.sites[0]

        build = incremental.compile(camp.faulty_module(site))
        # mcf defines addArc (unchanged → hit) and main (injected → miss).
        assert build.cache_misses == 1
        assert build.cache_hits >= 1
        assert incremental.stats.hits == build.cache_hits
        assert incremental.stats.misses == 1
        assert 0 < incremental.stats.hit_rate < 1

        # Same fault again: the content-addressed memo turns the one changed
        # function into a hit as well.
        again = incremental.compile(camp.faulty_module(site))
        assert again.cache_misses == 0
        assert again.cache_hits == build.cache_hits + build.cache_misses

    def test_unchanged_module_is_all_hits(self):
        camp = Campaign(app_factory("mcf", 1), HEAP_ARRAY_RESIZE)
        variant = diversity_variants("sds")[0]
        incremental = IncrementalDpmrCompiler(
            variant.transform_compiler(), camp.pristine
        )
        build = incremental.compile(camp.pristine_module())
        assert build.cache_misses == 0
        assert build.cache_hits >= 2
        assert format_module(build.module) == format_module(
            variant.compile(app_factory("mcf", 1)())._build.module
        )

    def test_plain_compile_reports_zero_counters(self):
        build = DpmrCompiler().compile(app_factory("art", 1)())
        assert build.cache_hits == 0 and build.cache_misses == 0


class TestCacheInvalidation:
    def test_content_change_forces_retransform(self):
        # Two different faults in the same function have different content
        # hashes: each must be translated (miss), not served from the memo.
        camp = Campaign(app_factory("bzip2", 1), HEAP_ARRAY_RESIZE)
        assert len(camp.sites) >= 2
        variant = diversity_variants("sds")[0]
        incremental = IncrementalDpmrCompiler(
            variant.transform_compiler(), camp.pristine
        )
        a = incremental.compile(camp.faulty_module(camp.sites[0]))
        b = incremental.compile(camp.faulty_module(camp.sites[1]))
        assert a.cache_misses == 1 and b.cache_misses == 1
        assert format_module(a.module) != format_module(b.module)

    def test_structural_change_rejected_to_full_rebuild(self):
        # A module whose function set does not match the pristine snapshot
        # cannot be spliced; the compiler falls back to a full rebuild.
        pristine = app_factory("art", 1)()
        other = app_factory("bzip2", 1)()
        compiler = DpmrCompiler()
        incremental = IncrementalDpmrCompiler(compiler, pristine)
        build = incremental.compile(other)
        assert incremental.stats.full_rebuilds == 1
        assert format_module(build.module) == format_module(
            compiler.compile(app_factory("bzip2", 1)()).module
        )

    def test_unsupported_configurations_rejected(self):
        pristine = app_factory("art", 1)()
        with pytest.raises(ValueError):
            IncrementalDpmrCompiler(DpmrCompiler(optimize=True), pristine)


_CFG = "644d6f6737e15f2cd15f101cca755c91472fa545ff6a41b25117b7bf8de94451"
_MAIN_STATE = "4304ce7a73eb57e653a75918d84aa2d57dafc833b6bfb4fb7fbb35827ff4299a"

#: Provenance stamps (transform digest, policy pre-state digest, source
#: digest) of equake's SDS static-50% base transform, per output function,
#: as produced before policy snapshots were packed into arrays.  The
#: compiled tier keys generated code on these, so they must not move.
EQUAKE_SDS_STATIC_50_STAMPS = {
    "addEdge": (
        _CFG,
        "518a9972c9e489bf800b8b5a69a86344b2bebf25e4f86b3b959d369c6331739b",
        "3c6b0f703450d9032a59ba2e8b510c1b8adf1127f53d37a284e5160eadeb3976",
    ),
    "mainAug": (
        _CFG,
        _MAIN_STATE,
        "bc85511092d193598cbf001aca3d4f84938b71de5f21ac91dae47c743a93af90",
    ),
    "main": (
        _CFG,
        _MAIN_STATE,
        "bc85511092d193598cbf001aca3d4f84938b71de5f21ac91dae47c743a93af90",
    ),
}

#: The stamp of ``mainAug`` and ``main`` after the first heap-array-resize
#: site of the same program is re-transformed: the same pre-state digest
#: over the faulty source.
EQUAKE_SDS_STATIC_50_SITE0_STAMP = (
    _CFG,
    _MAIN_STATE,
    "9693cdce1671d9d5ecbfdd4cc63be69240dd48bc479a8d7d8e9dc83697fdf902",
)


class TestProvenanceStamps:
    def test_static_policy_stamps_are_pinned(self):
        camp = Campaign(app_factory("equake", 1), HEAP_ARRAY_RESIZE)
        variant = Variant(name="static-50%", design="sds", policy=static_50())
        incremental = IncrementalDpmrCompiler(
            variant.transform_compiler(), camp.pristine
        )
        base = incremental.base_module
        stamps = {
            name: fn._dpmr_stamp
            for name, fn in base.functions.items()
            if hasattr(fn, "_dpmr_stamp")
        }
        assert stamps == EQUAKE_SDS_STATIC_50_STAMPS
        site = camp.sites[0]
        assert site.site_id == "heap-array-resize@main/entry/3"
        build = incremental.compile(camp.faulty_module(site))
        assert build.cache_misses == 1
        for name in ("mainAug", "main"):
            assert build.module.functions[name]._dpmr_stamp == (
                EQUAKE_SDS_STATIC_50_SITE0_STAMP
            )

    def test_policy_snapshot_restores_the_draws(self):
        # A snapshot taken mid-stream, restored into the same policy and
        # into a fresh one, replays the next 1,000 per-site draws exactly;
        # the text stamps digest is the RNG state's own repr.
        policy = static_50()
        for _ in range(37):
            policy._rng.random()
        rng_state = policy._rng.getstate()
        snapshot = policy.compile_state()
        assert policy.compile_state_repr(snapshot) == repr(rng_state)
        expected = [policy._rng.random() for _ in range(1000)]
        for target in (policy, static_50()):
            target.restore_compile_state(snapshot)
            assert [target._rng.random() for _ in range(1000)] == expected


class TestExecutorIntegration:
    def test_campaign_default_path_is_incremental(self, harness, monkeypatch):
        # DPMR_INCREMENTAL=0 opts out; default (unset) opts in — and both
        # produce the same records.
        monkeypatch.delenv("DPMR_INCREMENTAL", raising=False)
        variants = [stdapp_variant()] + diversity_variants("sds")[:2]
        default = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig.from_env()
        )
        monkeypatch.setenv("DPMR_INCREMENTAL", "0")
        optout = harness.run_campaign(
            variants, HEAP_ARRAY_RESIZE, config=ExecConfig.from_env()
        )
        assert [record_signature(r) for r in default] == [
            record_signature(r) for r in optout
        ]

    def test_policy_identity_with_temporal_and_static(self, harness):
        variants = [
            stdapp_variant(),
            policy_variants("sds")[0],
        ]
        variants[1].policy = static_50()
        full = harness.run_campaign(
            variants, IMMEDIATE_FREE, config=ExecConfig(incremental=False)
        )
        inc = harness.run_campaign(variants, IMMEDIATE_FREE, config=ExecConfig(incremental=True))
        assert [record_signature(r) for r in full] == [
            record_signature(r) for r in inc
        ]
        variants[1].policy = temporal_1_2()
        full = harness.run_campaign(
            variants, IMMEDIATE_FREE, config=ExecConfig(incremental=False)
        )
        inc = harness.run_campaign(variants, IMMEDIATE_FREE, config=ExecConfig(incremental=True))
        assert [record_signature(r) for r in full] == [
            record_signature(r) for r in inc
        ]
