"""Property tests for the shard manifest merge (a commutative monoid).

:func:`repro.shard.merge.merge_manifests` must make the coordinator's
merged manifest independent of lease completion order and of how the
tuple space was partitioned.  Hypothesis checks the algebra directly:

* **associativity** and **commutativity** of the pairwise fold;
* **identity**: merging a singleton returns it (modulo ``path``, which a
  merged manifest never carries), merging nothing returns the identity;
* **partition invariance**: any permutation, grouped any way, merges to
  the same manifest — the property the coordinator actually relies on;
* **total preservation**: summed counters are exact sums, quarantine
  lists are exact unions, per-shard provenance partitions exactly;
* **round-trip**: merged schema-5 manifests survive to_dict/from_dict.

Floats in the strategies are dyadic rationals (n/4) so float addition is
exact and equality assertions are legitimate.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.obs.manifest import (  # noqa: E402
    JobManifest,
    QuarantineRecord,
    RunManifest,
    ShardManifest,
)
from repro.shard.merge import merge_identity, merge_manifests  # noqa: E402

WORKLOADS = ("art", "bzip2", "equake", "mcf")
KINDS = ("heap-array-resize", "immediate-free")

nat = st.integers(min_value=0, max_value=12)
dyadic = st.integers(min_value=0, max_value=48).map(lambda n: n / 4.0)
label = st.sampled_from(("", "campaign", "clean", "interp", "compiled"))
opt_label = st.sampled_from((None, "", "/a/store", "/b/store"))


@st.composite
def job_manifests(draw):
    """A canonical (sorted, key-unique) jobs list."""
    keys = sorted(
        draw(
            st.lists(
                st.tuples(st.sampled_from(WORKLOADS), st.sampled_from(KINDS)),
                unique=True,
                max_size=3,
            )
        )
    )
    return [
        JobManifest(
            workload=w,
            kind=k,
            n_sites=draw(nat),
            n_variants=draw(nat),
            n_seeds=draw(nat),
            sites=[f"site{i}" for i in range(draw(st.integers(0, 3)))],
            cache_hits=draw(nat),
            cache_misses=draw(nat),
            cache_full_rebuilds=draw(nat),
            builds_cached=draw(nat),
        )
        for w, k in keys
    ]


@st.composite
def quarantine_lists(draw):
    """A canonical (sorted, exact-duplicate-free) quarantine list."""
    keys = sorted(
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from(WORKLOADS),
                    st.sampled_from(KINDS),
                    st.sampled_from(("site0", "site1")),
                    st.integers(min_value=1, max_value=3),
                    st.sampled_from(("worker died", "experiment timeout")),
                ),
                unique=True,
                max_size=3,
            )
        )
    )
    return [
        QuarantineRecord(workload=w, kind=k, site=s, attempts=a, reason=r)
        for w, k, s, a, r in keys
    ]


@st.composite
def shard_lists(draw):
    """A canonical (sorted, id-unique) per-shard provenance list."""
    ids = sorted(draw(st.lists(st.integers(0, 3), unique=True, max_size=3)))
    return [
        ShardManifest(
            shard=sid,
            leases=draw(nat),
            n_records=draw(nat),
            store_writes=draw(nat),
            retries=draw(nat),
            wall_s=draw(dyadic),
        )
        for sid in ids
    ]


_SUMMED = (
    "codegen_hits",
    "codegen_misses",
    "n_items",
    "n_records",
    "store_hits",
    "store_misses",
    "store_writes",
    "store_corrupt",
    "shared_hits",
    "retries",
    "worker_restarts",
    "exp_timeouts",
    "lease_grants",
    "lease_reassignments",
    "lease_expiries",
    "store_synced",
    "golden_built",
    "golden_served",
    "base_built",
    "base_served",
    "site_built",
    "site_served",
    "builds_evicted",
)


@st.composite
def manifests(draw):
    m = RunManifest(mode=draw(label))
    m.requested_jobs = draw(nat)
    m.effective_jobs = draw(nat)
    m.worker_reason = draw(label)
    m.serial_fallback = draw(opt_label)
    m.incremental = draw(st.booleans())
    m.trace_path = draw(opt_label)
    m.counters_enabled = draw(st.booleans())
    m.engine = draw(st.sampled_from(("", "interp", "compiled")))
    m.timeout_factor = draw(st.sampled_from((None, 1, 2, 8)))
    m.n_jobs = draw(nat)
    m.jobs = draw(job_manifests())
    m.store_path = draw(opt_label)
    m.quarantined = draw(quarantine_lists())
    m.shards = draw(shard_lists())
    m.n_shards = draw(nat)
    m.status_counts = draw(
        st.dictionaries(
            st.sampled_from(("detected", "undetected", "benign")), nat, max_size=3
        )
    )
    m.counter_totals = draw(
        st.dictionaries(st.sampled_from(("alloc", "free", "resize")), nat, max_size=3)
    )
    m.wall_s = draw(dyadic)
    m.python = draw(st.sampled_from(("", "3.11.9", "3.12.4")))
    m.cpu_count = draw(nat)
    m.path = draw(st.sampled_from((None, "/tmp/manifest.json")))
    for name in _SUMMED:
        setattr(m, name, draw(nat))
    return m


def canon(m: RunManifest) -> dict:
    """Comparable form: everything except ``path`` (never propagated)."""
    d = m.to_dict()
    d.pop("path")
    return d


@settings(max_examples=60, deadline=None)
@given(manifests(), manifests(), manifests())
def test_merge_is_associative(a, b, c):
    left = merge_manifests([merge_manifests([a, b]), c])
    right = merge_manifests([a, merge_manifests([b, c])])
    assert canon(left) == canon(right)


@settings(max_examples=60, deadline=None)
@given(manifests(), manifests())
def test_merge_is_commutative(a, b):
    assert canon(merge_manifests([a, b])) == canon(merge_manifests([b, a]))


@settings(max_examples=60, deadline=None)
@given(manifests())
def test_singleton_merge_is_identity(m):
    assert canon(merge_manifests([m])) == canon(m)
    assert merge_manifests([m]).path is None


def test_empty_merge_is_the_identity_element():
    assert canon(merge_manifests([])) == canon(merge_identity())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(manifests(), min_size=1, max_size=5).flatmap(
        lambda ms: st.tuples(
            st.just(ms),
            st.permutations(ms),
            st.lists(st.integers(0, len(ms)), max_size=3).map(sorted),
        )
    )
)
def test_any_permutation_and_partition_merges_identically(case):
    ms, perm, cuts = case
    reference = merge_manifests(ms)
    bounds = [0] + [c for c in cuts if 0 < c < len(perm)] + [len(perm)]
    groups = [perm[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    regrouped = merge_manifests(merge_manifests(g) for g in groups)
    assert canon(regrouped) == canon(reference)


@settings(max_examples=60, deadline=None)
@given(st.lists(manifests(), min_size=1, max_size=5))
def test_merge_preserves_totals(ms):
    merged = merge_manifests(ms)
    for name in _SUMMED:
        assert getattr(merged, name) == sum(getattr(m, name) for m in ms)
    assert merged.wall_s == max(m.wall_s for m in ms)
    assert merged.n_shards == max(m.n_shards for m in ms)
    for key in {k for m in ms for k in m.status_counts}:
        assert merged.status_counts[key] == sum(
            m.status_counts.get(key, 0) for m in ms
        )
    for key in {k for m in ms for k in m.counter_totals}:
        assert merged.counter_totals[key] == sum(
            m.counter_totals.get(key, 0) for m in ms
        )
    # Quarantine is an exact union.
    want = {
        (q.workload, q.kind, q.site, q.attempts, q.reason)
        for m in ms
        for q in m.quarantined
    }
    assert {
        (q.workload, q.kind, q.site, q.attempts, q.reason)
        for q in merged.quarantined
    } == want
    # Per-shard provenance partitions exactly (fields summed by shard id).
    for sid in {s.shard for m in ms for s in m.shards}:
        cells = [s for m in ms for s in m.shards if s.shard == sid]
        got = next(s for s in merged.shards if s.shard == sid)
        assert got.leases == sum(c.leases for c in cells)
        assert got.n_records == sum(c.n_records for c in cells)
        assert got.wall_s == sum(c.wall_s for c in cells)


@settings(max_examples=60, deadline=None)
@given(st.lists(manifests(), min_size=1, max_size=4))
def test_merged_manifest_round_trips_through_json(ms):
    merged = merge_manifests(ms)
    clone = RunManifest.from_dict(merged.to_dict())
    assert clone.to_dict() == merged.to_dict()
    assert all(isinstance(s, ShardManifest) for s in clone.shards)
