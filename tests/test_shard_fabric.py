"""The shard fabric: partition, lease, sync, merge — bit-identically.

The contract under test is the PR's acceptance criterion: a campaign run
across N shard worker nodes (processes simulating machines, each with its
own supervised pool and shard-local store) merges records **bit-identical**
(``ExperimentRecord.signature()``) and identically ordered to the 1-shard
run, with every fabric decision (lease grants, re-leases, syncs, per-shard
provenance) visible in the schema-5 merged manifest.
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path

import pytest

from repro.apps import app_factory
from repro.eval import (
    CampaignRequest,
    ExecConfig,
    WorkloadHarness,
    diversity_variants,
    job_for_harness,
    run,
    run_campaign_jobs_with_manifest,
    stdapp_variant,
)
from repro.faultinject import HEAP_ARRAY_RESIZE, IMMEDIATE_FREE
from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest
from repro.shard import Lease, LeaseTable, lease_size, sharding_fallback
from repro.shard.lease import LEASES_PER_SHARD

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the shard fabric requires the fork start method",
)

KIND = HEAP_ARRAY_RESIZE


def make_harness(name="mcf"):
    return WorkloadHarness(name, app_factory(name, 1), seeds=(0,))


def make_variants(n=3):
    return [stdapp_variant()] + diversity_variants("sds")[: n - 1]


def matrix_jobs():
    """A small resize+free matrix: 2 workloads x 2 kinds x 3 variants."""
    variants = make_variants()
    return [
        job_for_harness(make_harness(name), variants, kind, max_sites=2)
        for kind in (HEAP_ARRAY_RESIZE, IMMEDIATE_FREE)
        for name in ("mcf", "equake")
    ]


@pytest.fixture(scope="module")
def harness():
    return make_harness()


@pytest.fixture(scope="module")
def variants():
    return make_variants()


@pytest.fixture(scope="module")
def serial_baseline(harness, variants):
    """Signatures of the 1-shard run — the merge-identity reference."""
    res = run(harness, variants, kind=KIND, config=ExecConfig(shards=1))
    assert res.records
    return [r.signature() for r in res.records]


class TestLeases:
    def test_lease_size_auto_heuristic(self):
        assert lease_size(40, 4) == -(-40 // (4 * LEASES_PER_SHARD))
        assert lease_size(1, 8) == 1
        assert lease_size(100, 4, lease_items=7) == 7

    def test_partition_covers_items_exactly_in_order(self):
        items = [(0, s, v, 0) for s in range(5) for v in range(3)]
        table = LeaseTable(n_shards=4)
        leases = table.partition(items)
        assert [i for lease in leases for i in lease.items] == items
        assert table.grants == len(leases)
        assert table.regrants == 0
        assert all(isinstance(lease, Lease) for lease in leases)
        # Leases are hashable: they travel as supervised items.
        assert len({hash(lease) for lease in leases}) == len(leases)

    def test_recovery_partitions_count_as_regrants(self):
        table = LeaseTable(n_shards=2)
        table.partition([(0, 0, 0, 0), (0, 0, 1, 0)])
        again = table.partition([(0, 0, 1, 0)])
        assert table.regrants == len(again) > 0


class TestShardedIdentity:
    def test_four_shards_bit_identical_to_one(
        self, harness, variants, serial_baseline
    ):
        res = run(harness, variants, kind=KIND, config=ExecConfig(shards=4))
        assert [r.signature() for r in res.records] == serial_baseline

    def test_merged_manifest_records_the_fabric(self, harness, variants):
        res = run(harness, variants, kind=KIND, config=ExecConfig(shards=3))
        m = res.manifest
        assert m.schema == MANIFEST_SCHEMA == 6
        assert m.n_shards == 3
        assert m.lease_grants > 0
        assert m.lease_reassignments == 0
        assert m.lease_expiries == 0
        assert m.store_synced == len(res.records)
        assert "sharded" in m.worker_reason
        assert not m.quarantined
        # Per-shard provenance partitions the records and leases exactly.
        assert sum(s.n_records for s in m.shards) == len(res.records)
        assert sum(s.leases for s in m.shards) == m.lease_grants
        assert sorted(s.shard for s in m.shards) == [
            s.shard for s in m.shards
        ]
        # The schema-5 shape round-trips through JSON.
        clone = RunManifest.from_dict(m.to_dict())
        assert clone.to_dict() == m.to_dict()

    def test_full_matrix_on_four_shards(self):
        """The acceptance matrix: resize+free across workloads, 1 vs 4."""
        one, m1 = run_campaign_jobs_with_manifest(
            matrix_jobs(), config=ExecConfig(shards=1)
        )
        four, m4 = run_campaign_jobs_with_manifest(
            matrix_jobs(), config=ExecConfig(shards=4)
        )
        assert len(one) == len(four) > 0
        assert [r.signature() for r in one] == [r.signature() for r in four]
        assert m1.n_shards == 0 and m4.n_shards == 4
        assert m4.n_items == m1.n_items
        assert m4.status_counts == m1.status_counts

    def test_sharded_counter_totals_match_single_node(self, harness, variants):
        r1, m1 = run_campaign_jobs_with_manifest(
            [job_for_harness(harness, variants, KIND)],
            config=ExecConfig(shards=1),
        )
        _, m2 = run_campaign_jobs_with_manifest(
            [job_for_harness(harness, variants, KIND)],
            config=ExecConfig(shards=2),
        )
        assert m2.counter_totals == m1.counter_totals
        assert m2.n_records == m1.n_records == len(r1)


class TestShardedStore:
    def test_cold_sharded_run_populates_coordinator_store(
        self, tmp_path, harness, variants, serial_baseline
    ):
        store = str(tmp_path / "store")
        cold = run(
            harness,
            variants,
            kind=KIND,
            config=ExecConfig(shards=3, store_path=store),
        )
        assert [r.signature() for r in cold.records] == serial_baseline
        m = cold.manifest
        assert m.store_writes == len(cold.records)  # synced by the coordinator
        assert m.store_synced == len(cold.records)
        # Shard-local stores live under <store>/shards and never leak into
        # the coordinator store's key iteration.
        assert (Path(store) / "shards").is_dir()
        from repro.eval import ResultStore

        assert len(ResultStore(store)) == len(cold.records)

    def test_warm_resume_serves_everything_without_shards(
        self, tmp_path, harness, variants, serial_baseline
    ):
        store = str(tmp_path / "store")
        config = ExecConfig(shards=3, store_path=store)
        run(harness, variants, kind=KIND, config=config)
        warm = run(harness, variants, kind=KIND, config=config)
        m = warm.manifest
        assert m.store_hits == len(warm.records)
        assert m.lease_grants == 0 and not m.shards
        assert m.worker_reason == "all experiments served from store"
        assert [r.signature() for r in warm.records] == serial_baseline

    def test_on_record_streams_store_hits_and_synced_runs(
        self, tmp_path, harness, variants
    ):
        jobs = [job_for_harness(harness, variants, KIND, max_sites=2)]
        config = ExecConfig(shards=2, store_path=str(tmp_path / "s"))
        seen = []
        run_campaign_jobs_with_manifest(
            jobs,
            config=config,
            on_record=lambda item, rec, source: seen.append((tuple(item), source)),
        )
        assert seen and all(source == "run" for _, source in seen)
        warm = []
        run_campaign_jobs_with_manifest(
            jobs,
            config=config,
            on_record=lambda item, rec, source: warm.append((tuple(item), source)),
        )
        assert [i for i, _ in warm] == sorted(i for i, _ in seen)
        assert all(source == "store" for _, source in warm)


class TestFallbacks:
    def test_observability_forces_single_node(self, harness, variants, caplog):
        import logging

        with caplog.at_level(logging.WARNING, logger="repro.eval.parallel"):
            res = run(
                harness,
                variants,
                kind=KIND,
                config=ExecConfig(shards=4, counters=True),
            )
        assert res.manifest.n_shards == 0
        assert res.manifest.counters_enabled
        assert any("single-node" in r.getMessage() for r in caplog.records)

    def test_sharding_fallback_reasons(self):
        assert sharding_fallback(ExecConfig(shards=4), tracer=None) is None
        assert "observability" in sharding_fallback(
            ExecConfig(shards=4, counters=True), tracer=None
        )
        assert "observability" in sharding_fallback(
            ExecConfig(shards=4), tracer=object()
        )

    def test_exec_fingerprint_ignores_shards(self):
        from repro.eval.store import exec_fingerprint

        assert exec_fingerprint(ExecConfig(shards=1)) == exec_fingerprint(
            ExecConfig(shards=8)
        )

    def test_dpmr_shards_env_knob(self):
        assert ExecConfig.from_env({"DPMR_SHARDS": "4"}).shards == 4
        assert ExecConfig.from_env({"DPMR_SHARDS": "0"}).shards == 1
        assert ExecConfig.from_env({}).shards == 1
        with pytest.raises(ValueError):
            ExecConfig.from_env({"DPMR_SHARDS": "many"})


class TestServiceBackend:
    def test_daemon_on_shard_backend_matches_solo_run(self, tmp_path):
        """CampaignRequest -> shard scheduler -> streamed record frames."""
        from repro.service import ServiceClient, ServiceDaemon

        request = CampaignRequest(
            workloads=("mcf",),
            kinds=(KIND,),
            variants=("stdapp", "no-diversity", "zero-before-free"),
            max_sites=2,
        )
        solo = run(request, config=ExecConfig())
        sock = str(tmp_path / "svc.sock")
        with ServiceDaemon(ExecConfig(shards=2), unix_path=sock) as daemon:
            with ServiceClient(unix_path=sock) as client:
                res = client.submit(request)
            assert daemon.port == -1  # no TCP listener was bound
        assert [r.signature() for r in res.records] == [
            r.signature() for r in solo.records
        ]
