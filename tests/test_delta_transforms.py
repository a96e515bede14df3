"""Per-site transforms on a random program: byte identity + memo reuse.

A per-site build re-translates each function the fault changed, whole
(``IncrementalDpmrCompiler._retransform``), and splices it into the shared
base transform.  These tests pin that path on the fuzzer's random program
7 under both fault kinds:

* the transformed-module *text* of every per-site build equals a full
  ``DpmrCompiler.compile`` rebuild, across all seven diversity variants,
  all seven comparison-policy variants and the MDS design;
* a policy with opaque per-site compile state (restored, never
  interpreted) gets the same whole-function path and stays byte-identical;
* compiling the same faulty program again is a memo hit that re-translates
  nothing.

``tests/test_incremental_build.py`` pins the same identity on equake.
"""

from repro.core import IncrementalDpmrCompiler
from repro.eval.variants import Variant, diversity_variants, policy_variants
from repro.faultinject.injector import FAULT_KINDS, enumerate_sites, inject
from repro.ir.printer import format_module

from .test_fuzz_differential import build_random_module
from .test_incremental_build import _OpaqueStatefulPolicy

PRISTINE = build_random_module(7)


def _faulty_builds(pristine, kind, max_sites=2):
    sites = enumerate_sites(pristine, kind)[:max_sites]
    assert sites, f"random program has no {kind} site"
    for site in sites:
        yield inject(pristine.clone(mutable_functions=(site.function,)), site)


def _assert_identical(variant, pristine=PRISTINE):
    inc = IncrementalDpmrCompiler(variant.transform_compiler(), pristine)
    for kind in FAULT_KINDS:
        for faulty in _faulty_builds(pristine, kind):
            site_text = format_module(inc.compile(faulty).module)
            full_text = format_module(variant.compiler().compile(faulty).module)
            assert site_text == full_text, (
                f"{variant.name}/{kind}: per-site build text diverges from "
                "full rebuild"
            )
    stats = inc.stats
    # Every changed function was re-translated whole; the counters of the
    # retired journal-replay path stay 0.
    assert stats.misses > 0 and stats.translated_instructions > 0
    assert stats.full_rebuilds == 0
    assert stats.delta_splices == stats.delta_refusals == 0
    assert stats.replayed_instructions == 0
    return stats


class TestByteIdentity:
    def test_all_diversity_variants(self):
        for variant in diversity_variants("sds"):
            _assert_identical(variant)

    def test_all_policy_variants(self):
        for variant in policy_variants("sds"):
            _assert_identical(variant)

    def test_mds_design(self):
        opaque = Variant(name="opaque", design="mds", policy=_OpaqueStatefulPolicy())
        variants = diversity_variants("mds")[:3] + policy_variants("mds") + [opaque]
        for variant in variants:
            _assert_identical(variant)


class TestFallbacks:
    def test_opaque_stateful_policy_refuses_to_delta(self):
        variant = Variant(name="opaque", design="sds", policy=_OpaqueStatefulPolicy())
        _assert_identical(variant)

    def test_memo_skips_delta_on_repeat_compiles(self):
        variant = diversity_variants("sds")[0]
        inc = IncrementalDpmrCompiler(variant.transform_compiler(), PRISTINE)
        site = enumerate_sites(PRISTINE, "heap-array-resize")[0]
        faulty = inject(PRISTINE.clone(mutable_functions=(site.function,)), site)
        first = format_module(inc.compile(faulty).module)
        misses, translated = inc.stats.misses, inc.stats.translated_instructions
        assert misses > 0 and translated > 0
        again = inc.compile(faulty)
        assert format_module(again.module) == first
        # Memo hit: nothing is re-translated the second time.
        assert again.cache_misses == 0
        assert inc.stats.misses == misses
        assert inc.stats.translated_instructions == translated
