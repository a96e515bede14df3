"""Round-trip and invalidation behaviour of the persistent result store.

The store's contract (eval/store.py): a hit returns a record bit-identical
to the one stored; a corrupt or truncated entry is silently recomputed
(never crashes a campaign); and the content address changes whenever any
result-affecting input changes — the module text, the variant
configuration, or a result-affecting ``ExecConfig`` knob.
"""

import dataclasses
import json
import os

import pytest

from repro.apps import app_factory
from repro.core.diversity import RearrangeHeap
from repro.core.policies import static_50
from repro.eval import (
    ExecConfig,
    ResultStore,
    WorkloadHarness,
    diversity_variants,
    experiment_key,
    module_fingerprint,
    run,
    stdapp_variant,
    variant_fingerprint,
)
from repro.eval.store import (
    exec_fingerprint,
    record_from_dict,
    record_to_dict,
)
from repro.eval.variants import Variant
from repro.faultinject import FAULT_KINDS, HEAP_ARRAY_RESIZE, IMMEDIATE_FREE
from repro.faultinject.campaign import Campaign


@pytest.fixture(scope="module")
def harness():
    return WorkloadHarness("mcf", app_factory("mcf", 1), seeds=(0,))


@pytest.fixture(scope="module")
def variants():
    return [stdapp_variant()] + diversity_variants("sds")[:2]


def campaign_with_store(harness, variants, store_dir, kind=HEAP_ARRAY_RESIZE, **cfg):
    config = ExecConfig(jobs=1, store_path=str(store_dir), **cfg)
    return run(harness, variants, kind=kind, config=config)


class TestRoundTrip:
    def test_hit_returns_identical_record(self, harness, variants, tmp_path):
        # Cold (computed and written) and warm (all served) campaigns both
        # record exactly what a campaign without a store records.
        for kind in FAULT_KINDS:
            bare = run(harness, variants, kind=kind, config=ExecConfig(jobs=1))
            expected = [r.signature() for r in bare.records]
            store_dir = tmp_path / kind
            cold = campaign_with_store(harness, variants, store_dir, kind)
            warm = campaign_with_store(harness, variants, store_dir, kind)
            assert warm.manifest.store_hits == len(cold.records) > 0, kind
            assert warm.manifest.store_misses == 0, kind
            assert [r.signature() for r in cold.records] == expected, kind
            assert [r.signature() for r in warm.records] == expected, kind

    def test_counters_survive_the_round_trip(self, harness, variants, tmp_path):
        config = ExecConfig(jobs=1, store_path=str(tmp_path / "s"), counters=True)
        cold = run(harness, variants, kind=HEAP_ARRAY_RESIZE, config=config)
        warm = run(harness, variants, kind=HEAP_ARRAY_RESIZE, config=config)
        assert [r.result.counters for r in warm.records] == [
            r.result.counters for r in cold.records
        ]

    def test_record_dict_round_trip_is_lossless(self, harness, variants, tmp_path):
        res = campaign_with_store(harness, variants, tmp_path / "s")
        for record in res.records:
            clone = record_from_dict(
                json.loads(json.dumps(record_to_dict(record)))
            )
            assert clone.signature() == record.signature()
            assert clone.result.counters == record.result.counters

    def test_store_is_shared_across_handles(self, harness, variants, tmp_path):
        cold = campaign_with_store(harness, variants, tmp_path / "s")
        store = ResultStore(str(tmp_path / "s"))
        assert len(store) == len(cold.records)
        for key in store.keys():
            assert key in store


class TestCorruption:
    def _entry_paths(self, store_dir):
        paths = []
        for sub in os.listdir(store_dir):
            subdir = os.path.join(store_dir, sub)
            if os.path.isdir(subdir):
                paths.extend(os.path.join(subdir, n) for n in os.listdir(subdir))
        return sorted(paths)

    def test_corrupt_entry_is_recomputed_not_crashed(
        self, harness, variants, tmp_path
    ):
        store_dir = tmp_path / "s"
        cold = campaign_with_store(harness, variants, store_dir)
        victim = self._entry_paths(store_dir)[0]
        with open(victim, "w") as fh:
            fh.write("{ not json at all")
        warm = campaign_with_store(harness, variants, store_dir)
        assert warm.manifest.store_corrupt == 1
        assert warm.manifest.store_misses == 1
        assert warm.manifest.store_hits == len(cold.records) - 1
        assert [r.signature() for r in warm.records] == [
            r.signature() for r in cold.records
        ]

    def test_truncated_entry_is_recomputed(self, harness, variants, tmp_path):
        store_dir = tmp_path / "s"
        cold = campaign_with_store(harness, variants, store_dir)
        victim = self._entry_paths(store_dir)[0]
        with open(victim) as fh:
            text = fh.read()
        with open(victim, "w") as fh:
            fh.write(text[: len(text) // 2])
        warm = campaign_with_store(harness, variants, store_dir)
        assert warm.manifest.store_corrupt == 1
        assert [r.signature() for r in warm.records] == [
            r.signature() for r in cold.records
        ]

    def test_checksum_mismatch_is_treated_as_corrupt(
        self, harness, variants, tmp_path
    ):
        # Valid JSON whose payload was tampered with: the checksum guards
        # against silent bit-rot, not just truncation.
        store_dir = tmp_path / "s"
        cold = campaign_with_store(harness, variants, store_dir)
        victim = self._entry_paths(store_dir)[0]
        with open(victim) as fh:
            entry = json.load(fh)
        entry["record"]["result"]["cycles"] += 1
        with open(victim, "w") as fh:
            json.dump(entry, fh)
        warm = campaign_with_store(harness, variants, store_dir)
        assert warm.manifest.store_corrupt == 1
        assert [r.signature() for r in warm.records] == [
            r.signature() for r in cold.records
        ]
        # the rewritten entry is valid again
        again = campaign_with_store(harness, variants, store_dir)
        assert again.manifest.store_corrupt == 0
        assert again.manifest.store_hits == len(cold.records)


class TestKeyInvalidation:
    def _key(self, module_sha, variant_fp, exec_fp, site="s", seed=0):
        return experiment_key(
            workload="w",
            kind=HEAP_ARRAY_RESIZE,
            percent=50,
            site=site,
            variant_fp=variant_fp,
            seed=seed,
            run=0,
            argv=(),
            timeout=1000,
            exec_fp=exec_fp,
            module_sha=module_sha,
        )

    def test_key_changes_when_module_text_changes(self):
        campaign = Campaign(app_factory("mcf", 1), HEAP_ARRAY_RESIZE)
        pristine_sha = module_fingerprint(campaign.pristine)
        faulty = campaign.faulty_module(campaign.sites[0])
        faulty_sha = module_fingerprint(faulty)
        assert pristine_sha != faulty_sha
        vfp = variant_fingerprint(stdapp_variant())
        efp = exec_fingerprint(ExecConfig())
        assert self._key(pristine_sha, vfp, efp) != self._key(faulty_sha, vfp, efp)

    def test_key_changes_when_exec_config_changes(self):
        base = ExecConfig()
        changed = dataclasses.replace(base, timeout_factor=7)
        assert exec_fingerprint(base) != exec_fingerprint(changed)
        vfp = variant_fingerprint(stdapp_variant())
        assert self._key("m", vfp, exec_fingerprint(base)) != self._key(
            "m", vfp, exec_fingerprint(changed)
        )

    def test_result_transparent_knobs_do_not_change_the_key(self):
        # Worker count, incremental builds, tracing, and resilience knobs
        # are proven bit-transparent: varying them must still hit.
        base = ExecConfig()
        for variation in (
            dataclasses.replace(base, jobs=8),
            dataclasses.replace(base, incremental=False),
            dataclasses.replace(base, counters=True),
            dataclasses.replace(base, retries=9, exp_timeout_s=1.5),
            dataclasses.replace(base, store_path="/elsewhere"),
        ):
            assert exec_fingerprint(variation) == exec_fingerprint(base)

    def test_key_changes_with_variant_configuration(self):
        fps = {
            variant_fingerprint(v)
            for v in [stdapp_variant()] + diversity_variants("sds")
        }
        assert len(fps) == 8  # stdapp + seven distinct diversity variants
        sds = Variant(name="x", design="sds")
        mds = Variant(name="x", design="mds")
        assert variant_fingerprint(sds) != variant_fingerprint(mds)
        # Same display name ("static-50%"), different site selection.
        seed1 = Variant(name="x", design="sds", policy=static_50(seed=1))
        seed2 = Variant(name="x", design="sds", policy=static_50(seed=2))
        assert variant_fingerprint(seed1) != variant_fingerprint(seed2)

    def test_same_named_policies_with_different_seeds_get_their_own_entries(
        self, tmp_path
    ):
        # A static-50% campaign under policy seed 2 after one under seed 1,
        # through one store: seed 2's records must be its own, not seed 1's.
        harness = WorkloadHarness("equake", app_factory("equake", 1))
        config = ExecConfig(jobs=1, store_path=str(tmp_path / "s"))

        def static_50_variant(seed):
            return [
                Variant(
                    name="static-50%",
                    design="sds",
                    diversity=RearrangeHeap(),
                    policy=static_50(seed=seed),
                )
            ]

        for kind in FAULT_KINDS:
            run(harness, static_50_variant(1), kind=kind, config=config)
        for kind in FAULT_KINDS:
            stored = run(harness, static_50_variant(2), kind=kind, config=config)
            fresh = run(
                harness, static_50_variant(2), kind=kind, config=ExecConfig(jobs=1)
            )
            assert stored.manifest.store_hits == 0
            assert len(stored.records) > 0
            assert [r.signature() for r in stored.records] == [
                r.signature() for r in fresh.records
            ]

    def test_key_discriminates_site_seed_and_kind(self):
        vfp = variant_fingerprint(stdapp_variant())
        efp = exec_fingerprint(ExecConfig())
        base = self._key("m", vfp, efp, site="a", seed=0)
        assert base != self._key("m", vfp, efp, site="b", seed=0)
        assert base != self._key("m", vfp, efp, site="a", seed=1)

    def test_cross_kind_campaigns_do_not_collide(self, harness, tmp_path):
        variants = [stdapp_variant()]
        config = ExecConfig(jobs=1, store_path=str(tmp_path / "s"))
        resize = run(harness, variants, kind=HEAP_ARRAY_RESIZE, config=config)
        free = run(harness, variants, kind=IMMEDIATE_FREE, config=config)
        assert resize.manifest.store_hits == 0
        assert free.manifest.store_hits == 0
