#!/usr/bin/env python
"""Campaign-service concurrency benchmark → ``BENCH_interp.json``.

Four clients submit overlapping figure matrices (same workloads, same
fault kind, rotating 3-of-4 variant windows) to one daemon, concurrently.
The daemon deduplicates the overlap — each shared experiment tuple
executes once and fans out to every subscriber — so the aggregate
wall-clock must beat running the same four requests as sequential
in-process ``run(request)`` calls, even on this single-core container
where the pool itself cannot parallelize anything.  The gate is

* every client's records bit-identical (``ExperimentRecord.signature()``)
  and identically ordered vs its own solo ``run(request)``, and
* concurrent wall ≤ ``SERVICE_MAX_RATIO`` × the sequential total.

Results land in the ``service`` section of ``BENCH_interp.json`` (other
sections preserved) and the headline numbers are merged into the
``history`` entry for the current commit.

Usage::

    PYTHONPATH=src python benchmarks/perf_service.py
    PYTHONPATH=src python benchmarks/perf_service.py --smoke

``--smoke`` is the CI gate: daemon + two concurrent clients over a
temporary store; asserts record identity against solo runs and a nonzero
dedupe share, with no timing (CI wall-clock is meaningless).
"""

from __future__ import annotations

import gc
import json
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.eval import CampaignRequest, ExecConfig, ResultStore, run
from repro.eval.builds import reset_build_table
from repro.faultinject import HEAP_ARRAY_RESIZE
from repro.service import ServiceClient, ServiceDaemon

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_interp.json"

#: Aggregate concurrent wall-clock ceiling, as a fraction of the four
#: sequential runs.  With 3-of-4 variant windows the union is a third of
#: the summed request sizes, so ≤0.6 leaves headroom for daemon overhead.
SERVICE_MAX_RATIO = 0.6

CLIENTS = 4
WORKLOADS = ("mcf", "equake")
KIND = HEAP_ARRAY_RESIZE
VARIANT_POOL = ("stdapp", "no-diversity", "zero-before-free", "pad-malloc-8")
MAX_SITES = 2
REPS = 3


@contextmanager
def _gc_disabled():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()


def client_requests(n: int = CLIENTS) -> list:
    """n requests with rotating 3-of-4 variant windows: every pair of
    clients overlaps in two variants, and the union is the whole pool."""
    window = len(VARIANT_POOL) - 1
    return [
        CampaignRequest(
            workloads=WORKLOADS,
            kinds=(KIND,),
            variants=tuple(
                VARIANT_POOL[(i + j) % len(VARIANT_POOL)] for j in range(window)
            ),
            max_sites=MAX_SITES,
        )
        for i in range(n)
    ]


def _sequential(requests) -> tuple:
    """Best-of-N wall of the four requests as plain in-process runs.

    Every rep starts from an empty build table, like the fresh daemon of
    each concurrent rep: both arms build what their requests need.
    """
    best = None
    results = None
    for _ in range(REPS):
        reset_build_table()
        with _gc_disabled():
            t0 = time.perf_counter()
            results = [run(req, config=ExecConfig()) for req in requests]
            dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, results


def _concurrent(requests) -> tuple:
    """Best-of-N wall of the same requests via concurrent clients.

    A fresh daemon and an empty build table per rep: the dedupe and build
    tables are in-memory state, so a second submission to a warm daemon
    would measure nothing but fan-out.
    """
    best = None
    results = None
    stats = None
    for _ in range(REPS):
        reset_build_table()
        rep_results = [None] * len(requests)

        def submit(i, request, port):
            with ServiceClient(port=port, timeout=600.0) as client:
                rep_results[i] = client.submit(request)

        with ServiceDaemon(ExecConfig()) as daemon:
            threads = [
                threading.Thread(target=submit, args=(i, req, daemon.port))
                for i, req in enumerate(requests)
            ]
            with _gc_disabled():
                t0 = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=600)
                dt = time.perf_counter() - t0
            rep_stats = dict(daemon.scheduler.dedupe.stats)
        if any(r is None for r in rep_results):
            sys.exit("FATAL: a service client did not complete")
        if best is None or dt < best:
            best, results, stats = dt, rep_results, rep_stats
    return best, results, stats


def bench_service() -> dict:
    requests = client_requests()
    sequential_s, solo = _sequential(requests)
    concurrent_s, served, stats = _concurrent(requests)

    identical = all(
        [r.signature() for r in served[i].records]
        == [r.signature() for r in solo[i].records]
        for i in range(len(requests))
    )
    union = {r.signature() for res in solo for r in res.records}
    shared = sum(res.manifest.shared_hits for res in served)
    executed = sum(res.manifest.store_misses for res in served)
    ratio = concurrent_s / sequential_s
    return {
        "clients": len(requests),
        "workloads": list(WORKLOADS),
        "kind": KIND,
        "variant_pool": list(VARIANT_POOL),
        "variants_per_client": len(requests[0].variants),
        "records_per_client": [len(res.records) for res in solo],
        "union_records": len(union),
        "sequential_s": round(sequential_s, 3),
        "concurrent_s": round(concurrent_s, 3),
        "ratio": round(ratio, 3),
        "speedup": round(sequential_s / concurrent_s, 2),
        "executed": executed,
        "shared_hits": shared,
        "dedupe": stats,
        "records_identical_to_solo": identical,
    }


def smoke() -> None:
    """CI gate: identity + nonzero dedupe through real sockets, no timing."""
    req_a = CampaignRequest(
        workloads=("mcf",),
        kinds=(KIND,),
        variants=("stdapp", "no-diversity"),
        max_sites=MAX_SITES,
    )
    req_b = CampaignRequest(
        workloads=("mcf",),
        kinds=(KIND,),
        variants=("no-diversity", "zero-before-free"),
        max_sites=MAX_SITES,
    )
    solo = {r: run(r, config=ExecConfig()) for r in (req_a, req_b)}
    union = {
        sig
        for res in solo.values()
        for sig in (r.signature() for r in res.records)
    }

    results = {}
    with tempfile.TemporaryDirectory() as td:
        store_dir = str(Path(td) / "store")
        with ServiceDaemon(ExecConfig(store_path=store_dir)) as daemon:

            def submit(request, port):
                with ServiceClient(port=port) as client:
                    results[request] = client.submit(request)

            threads = [
                threading.Thread(target=submit, args=(r, daemon.port))
                for r in (req_a, req_b)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            stats = dict(daemon.scheduler.dedupe.stats)
        store_len = len(ResultStore(store_dir))

    for request, res in solo.items():
        got = results.get(request)
        if got is None:
            sys.exit("FATAL: a smoke client did not complete")
        if [r.signature() for r in got.records] != [
            r.signature() for r in res.records
        ]:
            sys.exit(
                "FATAL: service records diverged from the in-process run "
                f"for {request.variants}"
            )
    shared = sum(res.manifest.shared_hits for res in results.values())
    print(
        f"smoke: {sum(len(r.records) for r in results.values())} records "
        f"across 2 clients, union {len(union)}, shared {shared}, "
        f"dedupe {stats}"
    )
    if shared == 0 or stats["joins"] + stats["memory_hits"] == 0:
        sys.exit("FATAL: overlapping concurrent requests shared no tuples")
    if stats["scheduled"] != len(union):
        sys.exit(
            f"FATAL: daemon executed {stats['scheduled']} tuples for a "
            f"union of {len(union)}"
        )
    if store_len != len(union):
        sys.exit(
            f"FATAL: store holds {store_len} records, expected {len(union)}"
        )
    print("smoke: OK")


def _git_sha() -> str:
    try:
        import subprocess

        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=str(OUT_PATH.parent),
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        smoke()
        return
    service = bench_service()
    payload = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    payload["service"] = service
    # Merge the headline numbers into this commit's history entry (one
    # entry per sha; perf_interp.py owns the rest of its fields).
    sha = _git_sha()
    headline = {
        "service_sequential_s": service["sequential_s"],
        "service_concurrent_s": service["concurrent_s"],
        "service_ratio": service["ratio"],
    }
    history = payload.setdefault("history", [])
    entry = next((h for h in history if h.get("git_sha") == sha), None)
    if entry is not None:
        entry.update(headline)
    else:
        history.append(
            {"date": time.strftime("%Y-%m-%d"), "git_sha": sha, **headline}
        )
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(service, indent=2))
    if not service["records_identical_to_solo"]:
        sys.exit("FATAL: a service client's records diverged from its solo run")
    if service["ratio"] > SERVICE_MAX_RATIO:
        sys.exit(
            f"FATAL: concurrent clients took {service['ratio']:.2f}x the "
            f"sequential runs (gate ≤{SERVICE_MAX_RATIO}x)"
        )


if __name__ == "__main__":
    main()
