"""Merging per-shard :class:`RunManifest`s into one merged manifest.

A sharded campaign produces one manifest per completed lease (the shard
worker runs each lease through the ordinary executor, which already
produces a full manifest).  The coordinator folds them into a single
merged manifest with :func:`merge_manifests` and then overlays the
coordinator-level truth (measured wall-clock, lease counters, coordinator
store traffic) on top.

The fold is a commutative monoid so the merge result cannot depend on
lease completion order — the property suite
(``tests/test_manifest_merge.py``) checks associativity, commutativity,
and total preservation over arbitrary permutations and partitions:

* **summed**: item/record counts, store traffic, retries, restarts,
  timeouts, codegen traffic, build-table traffic, lease counters,
  ``status_counts`` and ``counter_totals`` (key-wise), per-job cache
  telemetry;
* **unioned**: ``quarantined`` (deduplicated, sorted), ``jobs`` (keyed by
  ``(workload, kind)``), ``shards`` (keyed by shard id, fields summed);
* **maxed**: ``wall_s`` (leases overlap in time), worker counts,
  ``n_shards``, ``cpu_count``;
* **labels** (``mode``, ``engine``, ``worker_reason``, …): the common
  value when every manifest agrees, else ``"mixed"`` — deterministic and
  order-independent.

The identity element is ``RunManifest(mode="")`` with every counter zero,
so merging a singleton returns a manifest equal to it (modulo ``path``,
which is never propagated: a merged manifest has not been persisted).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.manifest import (
    JobManifest,
    QuarantineRecord,
    RunManifest,
    ShardManifest,
)

#: Fields of :class:`RunManifest` combined by plain summation.
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

#: Fields combined by ``max`` (0 / 0.0 is the identity).
_MAXED = (
    "requested_jobs",
    "effective_jobs",
    "n_jobs",
    "n_shards",
    "wall_s",
    "cpu_count",
)

#: String-ish fields combined by the agree-or-"mixed" label rule
#: (empty/None means "no opinion" and never forces "mixed").
_LABELS = (
    "mode",
    "worker_reason",
    "serial_fallback",
    "trace_path",
    "engine",
    "store_path",
    "python",
)


def _merge_label(a, b):
    if a in ("", None):
        if b in ("", None):
            # Both "no opinion": canonicalize (None vs "") so the merge
            # stays commutative even across the two empty representations.
            return a if a == b else ""
        return b
    if b in ("", None) or a == b:
        return a
    return "mixed"


def _merge_optional_max(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _sum_counts(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _merge_jobs(
    a: List[JobManifest], b: List[JobManifest]
) -> List[JobManifest]:
    """Union keyed by ``(workload, kind)``; shards run the *same* jobs, so
    the shape fields describe one job seen from several leases (max), while
    the cache telemetry is genuine per-lease work (summed)."""
    merged: Dict[Tuple[str, str], JobManifest] = {}
    for jm in list(a) + list(b):
        key = (jm.workload, jm.kind)
        cur = merged.get(key)
        if cur is None:
            merged[key] = JobManifest(**vars(jm))
            continue
        cur.n_sites = max(cur.n_sites, jm.n_sites)
        cur.n_variants = max(cur.n_variants, jm.n_variants)
        cur.n_seeds = max(cur.n_seeds, jm.n_seeds)
        # per-lease site lists can be prefixes of each other; keep the most
        # complete one (total order by (len, content) keeps this a max).
        if (len(jm.sites), jm.sites) > (len(cur.sites), cur.sites):
            cur.sites = list(jm.sites)
        cur.cache_hits += jm.cache_hits
        cur.cache_misses += jm.cache_misses
        cur.cache_full_rebuilds += jm.cache_full_rebuilds
        cur.builds_cached += jm.builds_cached
    return [merged[k] for k in sorted(merged)]


def _merge_quarantined(
    a: List[QuarantineRecord], b: List[QuarantineRecord]
) -> List[QuarantineRecord]:
    """Exact-duplicate-free sorted union (two shards may independently
    condemn the same site with the same verdict)."""
    seen = {}
    for q in list(a) + list(b):
        seen[(q.workload, q.kind, q.site, q.attempts, q.reason)] = q
    return [seen[k] for k in sorted(seen)]


def _merge_shards(
    a: List[ShardManifest], b: List[ShardManifest]
) -> List[ShardManifest]:
    merged: Dict[int, ShardManifest] = {}
    for sm in list(a) + list(b):
        cur = merged.get(sm.shard)
        if cur is None:
            merged[sm.shard] = ShardManifest(**vars(sm))
            continue
        cur.leases += sm.leases
        cur.n_records += sm.n_records
        cur.store_writes += sm.store_writes
        cur.retries += sm.retries
        cur.wall_s += sm.wall_s
    return [merged[k] for k in sorted(merged)]


def _merge2(a: RunManifest, b: RunManifest) -> RunManifest:
    out = RunManifest(mode=_merge_label(a.mode, b.mode))
    for name in _LABELS[1:]:
        setattr(out, name, _merge_label(getattr(a, name), getattr(b, name)))
    for name in _SUMMED:
        setattr(out, name, getattr(a, name) + getattr(b, name))
    for name in _MAXED:
        setattr(out, name, max(getattr(a, name), getattr(b, name)))
    out.incremental = a.incremental and b.incremental
    out.counters_enabled = a.counters_enabled or b.counters_enabled
    out.timeout_factor = _merge_optional_max(a.timeout_factor, b.timeout_factor)
    out.jobs = _merge_jobs(a.jobs, b.jobs)
    out.quarantined = _merge_quarantined(a.quarantined, b.quarantined)
    out.shards = _merge_shards(a.shards, b.shards)
    out.status_counts = _sum_counts(a.status_counts, b.status_counts)
    out.counter_totals = _sum_counts(a.counter_totals, b.counter_totals)
    out.path = None
    return out


def merge_identity() -> RunManifest:
    """The fold's identity element: an empty, opinion-free manifest."""
    m = RunManifest(mode="")
    m.requested_jobs = 0
    m.effective_jobs = 0
    m.worker_reason = ""
    m.incremental = True
    m.engine = ""
    m.timeout_factor = None
    m.python = ""
    m.cpu_count = 0
    m.path = None
    return m


def merge_manifests(manifests: Iterable[RunManifest]) -> RunManifest:
    """Fold any number of manifests into one merged manifest.

    Associative and commutative (see the module docstring for the
    per-field rules), so any partition of the same underlying lease
    manifests — merged in any order, grouped any way — yields the same
    result.  An empty iterable returns :func:`merge_identity`.
    """
    out = merge_identity()
    for m in manifests:
        out = _merge2(out, m)
    return out
