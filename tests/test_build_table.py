"""The content-keyed build table (``repro.eval.builds``).

Every build product — golden run, pristine snapshot, site list, base
transform, finished faulty build — is keyed by exactly what determines it,
so jobs that differ only in seeds, variant list or order, or fault kind
share what they have in common, and a repeated request builds nothing.
These tests pin the counts (deterministic, unlike wall time) and that
sharing, eviction, the inline-runtime flag and concurrency never change a
record.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.apps import app_factory
from repro.eval import (
    CampaignRequest,
    ExecConfig,
    WorkloadHarness,
    effective_workers,
    job_for_harness,
    manifest_section,
    resolve_variants,
    run,
)
from repro.eval import builds
from repro.eval import parallel as P
from repro.eval.builds import build_table, reset_build_table
from repro.faultinject import HEAP_ARRAY_RESIZE, IMMEDIATE_FREE
from repro.obs.manifest import RunManifest, usable_cpu_count
from repro.service import ServiceClient, ServiceDaemon

REQUEST = CampaignRequest(
    workloads=("mcf", "equake"),
    kinds=(HEAP_ARRAY_RESIZE,),
    variants=("stdapp", "no-diversity", "all-loads", "static-10%"),
    seeds=(3,),
    max_sites=2,
)
#: DPMR variants (base transforms) per workload of REQUEST.
N_DPMR = 3


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
    assert builds_of(cold.manifest) == (2, 2 * N_DPMR, n, 0)
    for _ in range(2):
        again = run(REQUEST, config=ExecConfig())
        m = again.manifest
        assert builds_of(m) == (0, 0, 0, 0)
        assert (m.golden_served, m.base_served, m.site_served) == (2, 2 * N_DPMR, n)
        assert f"base built=0 served={2 * N_DPMR}" in manifest_section(m)
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
    assert m.base_served == 2 * N_DPMR
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
    assert counts["base_built"] == c * v
    assert counts["base_served"] == (k - 1) * c * v
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


def test_inline_runtime_flag_keys_separate_entries():
    on = run(REQUEST, config=ExecConfig(inline_rt=True))
    off = run(REQUEST, config=ExecConfig(inline_rt=False))
    assert off.manifest.base_built == 2 * N_DPMR
    assert off.manifest.site_built == len(on.records)
    assert sigs(on) == sigs(off)
    # Both flags' entries coexist: neither run replaced the other's.
    for inline_rt in (True, False):
        again = run(REQUEST, config=ExecConfig(inline_rt=inline_rt))
        assert (again.manifest.base_built, again.manifest.site_built) == (0, 0)
        assert sigs(again) == sigs(on)


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
    assert (first.cache_hits, first.cache_misses) == (4, 4)
    assert (second.cache_hits, second.cache_misses) == (0, 0)
    assert second.builds_cached == first.builds_cached == 2 * 3


def test_store_warm_request_transforms_nothing(tmp_path):
    config = ExecConfig(store_path=str(tmp_path / "store"))
    cold = run(REQUEST, config=config)
    reset_build_table()  # as in a fresh process resuming the campaign
    warm = run(REQUEST, config=config)
    m = warm.manifest
    assert m.store_hits == len(cold.records)
    assert (m.base_built, m.base_served, m.site_built) == (0, 0, 0)
    assert sigs(warm) == sigs(cold)


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
