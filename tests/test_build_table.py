"""The content-keyed build table (``repro.eval.builds``).

Every build product — golden run, pristine snapshot, site list, base
transform, finished faulty build — is keyed by exactly what determines it,
so jobs that differ only in seeds, variant list or order, or fault kind,
and variants that differ only in diversity, share what they have in
common, and a repeated request builds nothing.  These tests pin the
counts (deterministic, unlike wall time) and that sharing, eviction and
concurrency never change a record.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.apps import app_factory
from repro.core.diversity import RearrangeHeap, SegregatedReplicas
from repro.core.policies import AllLoadsPolicy, static_50
from repro.eval import (
    CampaignRequest,
    ExecConfig,
    Variant,
    WorkloadHarness,
    diversity_variants,
    effective_workers,
    job_for_harness,
    manifest_section,
    policy_variants,
    resolve_variants,
    run,
    stdapp_variant,
)
from repro.eval import builds
from repro.eval import parallel as P
from repro.eval.builds import build_table, reset_build_table
from repro.faultinject import FAULT_KINDS, HEAP_ARRAY_RESIZE, IMMEDIATE_FREE
from repro.obs.manifest import RunManifest, usable_cpu_count
from repro.service import ServiceClient, ServiceDaemon

REQUEST = CampaignRequest(
    workloads=("mcf", "equake"),
    kinds=(HEAP_ARRAY_RESIZE,),
    variants=("stdapp", "no-diversity", "all-loads", "static-10%"),
    seeds=(3,),
    max_sites=2,
)
#: DPMR variants per workload of REQUEST; each looks its base transform up.
N_DPMR_VARIANTS = 3
#: Distinct transforms (base transforms built) per workload of REQUEST:
#: "no-diversity" and "all-loads" differ only in diversity and share one.
N_DPMR = 2
#: Distinct faulty builds per (workload, site): stdapp's plus one per transform.
N_SITE_BUILDS = 1 + N_DPMR
#: REQUEST's faulty builds: workloads × sites × distinct builds.
N_BUILDS = 2 * 2 * N_SITE_BUILDS


def sigs(result):
    return [r.signature() for r in result.records]


def builds_of(manifest):
    return (
        manifest.golden_built,
        manifest.base_built,
        manifest.site_built,
        manifest.builds_evicted,
    )


def test_repeated_request_builds_nothing():
    cold = run(REQUEST, config=ExecConfig())
    n = len(cold.records)
    assert n == 2 * 2 * 4  # workloads × sites × variants
    assert builds_of(cold.manifest) == (2, 2 * N_DPMR, N_BUILDS, 0)
    for _ in range(2):
        again = run(REQUEST, config=ExecConfig())
        m = again.manifest
        assert builds_of(m) == (0, 0, 0, 0)
        served = (m.golden_served, m.base_served, m.site_served)
        assert served == (2, 2 * N_DPMR_VARIANTS, n)
        assert f"base built=0 served={2 * N_DPMR_VARIANTS}" in manifest_section(m)
        assert sigs(again) == sigs(cold)
        # Nothing was transformed, so the per-job cache stats are zero too.
        assert all(j.cache_hits == j.cache_misses == 0 for j in m.jobs)


@pytest.mark.parametrize(
    "other",
    [
        CampaignRequest(**{**REQUEST.to_dict(), "seeds": [11, 12]}),
        CampaignRequest(
            **{**REQUEST.to_dict(), "variants": list(reversed(REQUEST.variants))}
        ),
        CampaignRequest(**{**REQUEST.to_dict(), "kinds": [IMMEDIATE_FREE]}),
    ],
    ids=["seeds", "variant-order", "kind"],
)
def test_requests_differing_in_seeds_order_or_kind_share_base_transforms(other):
    run(REQUEST, config=ExecConfig())
    shared = run(other, config=ExecConfig())
    m = shared.manifest
    assert (m.golden_built, m.base_built) == (0, 0)
    assert m.base_served == 2 * N_DPMR_VARIANTS
    reset_build_table()
    fresh = run(other, config=ExecConfig())
    assert fresh.manifest.base_built == 2 * N_DPMR
    assert sigs(shared) == sigs(fresh)


def test_daemon_primed_with_seed_sets_builds_each_base_transform_once(tmp_path):
    variants = ("stdapp", "no-diversity", "pad-malloc-8", "static-90%")
    cells = ((HEAP_ARRAY_RESIZE, "sds"), (IMMEDIATE_FREE, "mds"))
    seed_sets = ((1,), (2,), (3,))
    v = len(variants) - 1
    sock = str(tmp_path / "dpmr.sock")
    with ServiceDaemon(ExecConfig(), unix_path=sock) as daemon:
        with ServiceClient(unix_path=sock) as client:
            for seeds in seed_sets:
                for kind, design in cells:
                    client.submit(
                        CampaignRequest(
                            workloads=("mcf",),
                            kinds=(kind,),
                            variants=variants,
                            design=design,
                            seeds=seeds,
                            max_sites=0,
                        )
                    )
            counts = client.status()["builds"]
    c, k = len(cells), len(seed_sets)
    t = 2  # distinct transforms: no-diversity and pad-malloc-8 share one
    assert counts["base_built"] == c * t
    assert counts["base_served"] == k * c * v - c * t
    assert counts["golden_built"] == 1
    assert counts["site_built"] == 0  # max_sites=0: nothing runs
    assert counts["builds_evicted"] == 0


def test_shrunk_budget_evicts_one_entry_at_a_time(monkeypatch):
    cold = run(REQUEST, config=ExecConfig())
    reset_build_table()
    monkeypatch.setattr(builds, "BUILD_TABLE_ENTRIES", 5)
    table = build_table()
    before = table.totals.builds_evicted
    small = run(REQUEST, config=ExecConfig())
    assert len(table) == 5
    evicted = table.totals.builds_evicted - before
    assert evicted > 0
    assert small.manifest.builds_evicted == evicted
    # Every insert past the budget evicted exactly one entry: nothing was
    # cleared wholesale.
    assert sigs(small) == sigs(cold)
    again = run(REQUEST, config=ExecConfig())
    assert again.manifest.site_built > 0  # evicted builds were rebuilt
    assert sigs(again) == sigs(cold)


def test_one_entry_evicted_per_insert_past_the_budget(monkeypatch):
    monkeypatch.setattr(builds, "BUILD_TABLE_ENTRIES", 2)
    table = builds.BuildTable()
    for i in range(5):
        table.get(("golden", f"d{i}", ()), lambda i=i: i)
        assert len(table) == min(i + 1, 2)
    assert table.totals.golden_built == 5
    assert table.totals.builds_evicted == 3
    assert ("golden", "d4", ()) in table and ("golden", "d3", ()) in table
    # A hit refreshes recency: d3 survives the next insert, d4 does not.
    assert table.get(("golden", "d3", ()), lambda: "rebuilt") == 3
    table.get(("golden", "d5", ()), lambda: 5)
    assert ("golden", "d3", ()) in table and ("golden", "d4", ()) not in table


def test_concurrent_misses_build_each_key_once():
    """More threads than cores hammer overlapping keys with a tiny switch
    interval: every key is built exactly once and no count is lost."""
    table = builds.BuildTable()
    n_threads, n_keys, rounds = 8, 5, 40
    built = []
    built_lock = threading.Lock()

    def build(key):
        with built_lock:
            built.append(key)
        time.sleep(0.002)  # long enough for other threads to miss too
        return key

    def worker(t):
        for r in range(rounds):
            key = ("golden", f"d{(t + r) % n_keys}", ())
            assert table.get(key, lambda key=key: build(key)) == key

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert sorted(built) == sorted({("golden", f"d{k}", ()) for k in range(n_keys)})
    assert table.totals.golden_built == n_keys
    assert table.totals.golden_served == n_threads * rounds - n_keys


def test_overlapping_requests_on_two_threads_match_serial():
    other = CampaignRequest(
        **{**REQUEST.to_dict(), "variants": ["all-loads", "stdapp", "pad-malloc-8"]}
    )
    serial = [sigs(run(r, config=ExecConfig())) for r in (REQUEST, other)]
    reset_build_table()
    out = [None, None]
    errors = []
    start = threading.Barrier(2)

    def go(i, request):
        try:
            start.wait()
            out[i] = sigs(run(request, config=ExecConfig()))
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=go, args=(i, r))
        for i, r in enumerate((REQUEST, other))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    assert not errors
    assert out == serial


def test_job_manifest_cache_stats_are_per_campaign():
    harness = WorkloadHarness("mcf", app_factory("mcf", 1))
    variants = resolve_variants(("stdapp", "no-diversity", "all-loads"))
    jobs = [job_for_harness(harness, variants, HEAP_ARRAY_RESIZE, max_sites=2)]
    first = run(jobs, config=ExecConfig()).manifest.jobs[0]
    second = run(jobs, config=ExecConfig()).manifest.jobs[0]
    # 2 sites × 1 transform (no-diversity and all-loads share it)
    assert (first.cache_hits, first.cache_misses) == (2, 2)
    assert (second.cache_hits, second.cache_misses) == (0, 0)
    assert second.builds_cached == first.builds_cached == 2 * 2


def test_variants_appended_mid_campaign_leave_the_manifest_intact():
    """The service appends variants to a canonical job while a batch runs;
    the batch's per-job telemetry covers the variants its view was made
    for."""
    harness = WorkloadHarness("mcf", app_factory("mcf", 1))
    variants = resolve_variants(("stdapp", "no-diversity"))
    job = job_for_harness(harness, variants, HEAP_ARRAY_RESIZE, max_sites=2)
    extra = resolve_variants(("static-10%",))[0]

    def grow(item, record, source):
        if extra not in job.variants:
            job.variants.append(extra)

    records, manifest = P.run_campaign_jobs_with_manifest(
        [job], config=ExecConfig(), on_record=grow
    )
    assert len(records) == 2 * 2
    assert manifest.jobs[0].builds_cached == 2 * 2


def test_store_warm_request_transforms_nothing(tmp_path):
    config = ExecConfig(store_path=str(tmp_path / "store"))
    cold = run(REQUEST, config=config)
    reset_build_table()  # as in a fresh process resuming the campaign
    warm = run(REQUEST, config=config)
    m = warm.manifest
    assert m.store_hits == len(cold.records)
    assert (m.base_built, m.base_served, m.site_built) == (0, 0, 0)
    assert sigs(warm) == sigs(cold)


ORACLE = ExecConfig(compiled=False, incremental=False)


@pytest.mark.parametrize("design", ["sds", "mds"])
def test_diversity_and_policy_variants_share_transforms(design):
    """Diversity never reaches the transform: the seven diversity variants,
    the all-loads policy variant and the stateful segregated-replica
    ablation share one transform, the other six policies get one each."""
    variants = (
        [stdapp_variant()]
        + diversity_variants(design)
        + policy_variants(design)
        + [
            Variant(
                name="ablation-segregated",
                design=design,
                diversity=SegregatedReplicas(),
                policy=AllLoadsPolicy(),
            )
        ]
    )
    harness = WorkloadHarness("mcf", app_factory("mcf", 1))
    jobs = [job_for_harness(harness, variants, kind, max_sites=2) for kind in FAULT_KINDS]
    result = run(jobs, config=ExecConfig())
    m = result.manifest
    n_sites = sum(len(job.sites) for job in jobs)
    assert m.base_built == 7  # per (app, design), whatever the fault kind
    assert m.base_served == len(jobs) * (len(variants) - 1) - 7
    assert m.site_built == n_sites * (1 + 7)  # stdapp + one per transform
    assert m.site_served == n_sites * len(variants) - m.site_built
    assert [j.builds_cached for j in m.jobs] == [len(j.sites) * 8 for j in jobs]
    assert sigs(result) == sigs(run(jobs, config=ORACLE))


def test_same_named_policies_with_different_seeds_get_their_own_builds():
    """Two ``static-50%`` variants that differ only in the policy seed
    transform differently; one must never be served the other's builds."""
    harness = WorkloadHarness("equake", app_factory("equake", 1))

    def campaign(seed):
        variant = Variant(
            name="static-50%",
            diversity=RearrangeHeap(),
            policy=static_50(seed=seed),
        )
        return [job_for_harness(harness, [variant], kind) for kind in FAULT_KINDS]

    first = run(campaign(1), config=ExecConfig())
    second = run(campaign(2), config=ExecConfig())
    assert second.manifest.base_built == 1
    assert second.manifest.site_built == len(second.records)
    reset_build_table()
    fresh = run(campaign(2), config=ExecConfig())
    assert sigs(second) == sigs(fresh) == sigs(run(campaign(2), config=ORACLE))
    assert sigs(second) != sigs(first)  # the seed matters to these records


class TestUsableCores:
    def test_affinity_mask_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpu_count() == 3
        assert RunManifest(mode="campaign").cpu_count == 3
        assert effective_workers(1000, 8) == 3
        assert P._worker_decision(8, 1000)[0] == (3 if P._fork_available() else 1)

    def test_single_core_mask_forces_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if P._fork_available():
            assert P._worker_decision(8, 1000) == (1, "serial", "single usable core")

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpu_count() == 6
