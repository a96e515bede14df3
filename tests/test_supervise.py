"""Site-affine dispatch in the worker supervisor (eval/supervise.py).

A free worker takes the next tuple of the site it last ran, else the
first tuple of a site no other worker holds, else any eligible tuple.
With two workers that bounds the (site, worker) pairs of a failure-free
campaign by ``sites + 1``: each site gets one owner, and a worker steals
only when the other holds the last site with tuples left.
"""

import multiprocessing

import pytest

from repro.eval.supervise import WorkerSupervisor

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the supervisor forks its workers",
)


def _report_worker_id(wid, task_conn, result_conn):
    """A trivial worker: the payload of every item is the worker's id."""
    while True:
        try:
            item = task_conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        result_conn.send((wid, item, True, wid))


def _run(items, workers, site_of):
    supervisor = WorkerSupervisor(
        multiprocessing.get_context("fork"),
        _report_worker_id,
        workers,
        site_of=site_of,
    )
    return supervisor.run(items)


def test_each_site_stays_on_one_worker():
    sites, per_site, workers = 4, 5, 2
    items = [(site, k) for site in range(sites) for k in range(per_site)]
    results = _run(items, workers, site_of=lambda item: item[0])
    assert sorted(results) == items
    pairs = {(item[0], wid) for item, wid in results.items()}
    assert len(pairs) <= sites + workers - 1
    assert set(results.values()) == set(range(workers))


class _CountingItem(tuple):
    """A tuple item that counts equality tests (made in the parent)."""

    eq_calls = 0

    def __eq__(self, other):
        _CountingItem.eq_calls += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__


def test_bookkeeping_does_not_scan_pending_items():
    """Per-result and per-dispatch work stays O(1) in the pending count: a
    failure-free run compares each item a constant number of times, where
    a scan of the pending tuples per result would compare O(n^2) times."""
    items = [_CountingItem((site, k)) for site in range(6) for k in range(20)]
    _CountingItem.eq_calls = 0
    results = _run(items, 2, site_of=lambda item: item[0])
    assert sorted(results) == sorted(items)
    assert _CountingItem.eq_calls <= 4 * len(items)
