"""One benchmark session: a fresh process running one role of a workload.

``python campaign_bench/session.py '<json params>'`` is started by
``run.py`` with ``PYTHONPATH`` pointing at ``src`` and prints one JSON
object as its last line.  Params: ``workload``, ``role``, ``seed``,
``tiny``, ``spawned`` (the launcher's ``time.monotonic()`` just before the
spawn, so ``setup_s`` starts at process start), ``tmp`` (a directory the
session may write) and ``spans`` (a span directory for traced runs, or
null).

Roles:

``main``
    set up, run every timed pass, then check the outputs;
``setup``
    set up and exit (``setup_s`` is the median of several set-ups);
``cold`` (observed-parallel, service-stream)
    what ``main`` does, over a store of its own, with fewer oracle
    samples; ``rep`` numbers these sessions;
``resume`` (service-stream only)
    restart a daemon over the ``main`` session's store and replay its
    cold and warm sequences; ``rep`` numbers these sessions.

A service-stream session's set-up ends when its daemon is primed, so
its ``main`` and ``resume`` sessions all give ``setup_s`` samples.

Every timed request goes through the public API — ``request_jobs`` plus
``run``, or ``ServiceClient`` against ``python -m repro.service`` — and
is timed from just before the call to just after it returns.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
#: (warm, resume) passes of an in-process session, interleaved request by
#: request in sweeps so that both spread over the run.  observed-parallel
#: has no warm pass (its rate spread by over a quarter between runs); each
#: of its three sessions runs these resume passes after its compute pass.
SWEEPS = {"figure-matrix": (4, 6), "observed-parallel": (0, 6)}


def main() -> None:
    params = json.loads(sys.argv[1])
    if params.get("spans"):
        import spans

        spans.install(params["spans"])
    session = {
        "figure-matrix": figure_matrix,
        "observed-parallel": observed_parallel,
        "service-stream": service_stream,
    }[params["workload"]]
    result = session(params)
    result["role"], result["rep"] = params["role"], params["rep"]
    print(json.dumps(result))


def _since(spawned: float) -> float:
    return time.monotonic() - spawned


def _peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _recording(on: bool) -> None:
    if "spans" in sys.modules:
        sys.modules["spans"].set_recording(on)


def _context(ctx: Optional[str]) -> None:
    if "spans" in sys.modules:
        sys.modules["spans"].set_context(ctx)


def harness_cache(config) -> Callable:
    """``harness_for`` that golden-runs each (workload, scale) once."""
    from repro.apps import app_factory
    from repro.eval import WorkloadHarness

    cache: Dict = {}

    def provide(workload: str, scale: int):
        key = (workload, scale)
        if key not in cache:
            cache[key] = WorkloadHarness(workload, app_factory(workload, scale), config=config)
        return cache[key]

    return provide


# -- in-process passes (figure-matrix, observed-parallel) -----------------


def expected_ids(jobs) -> List[tuple]:
    """Every tuple a request's jobs should yield, as record identities."""
    return [
        (job.workload, v.name, site.site_id, ri)
        for job in jobs
        for site in job.sites
        for v in job.variants
        for ri in range(len(job.seeds))
    ]


def record_id(record) -> tuple:
    return (record.workload, record.variant, record.site, record.run)


class Pass:
    """One timed pass: the same requests, one after another."""

    def __init__(self, name: str):
        self.name = name
        self.requests: List[Dict] = []
        self.records: List[Dict[tuple, object]] = []
        self.expected: List[List[tuple]] = []

    def run(self, request, jobs, config) -> None:
        import repro

        _context(request.request_id)
        start = time.monotonic()
        result = repro.run(jobs, config=config)
        end = time.monotonic()
        self.expected.append(expected_ids(jobs))
        self.records.append({record_id(r): r for r in result.records})
        self.requests.append(
            {"id": request.request_id, "start": start, "end": end, "records": len(result.records)}
        )

    def summary(self) -> Dict:
        return {
            "name": self.name,
            "requests": self.requests,
            "start": self.requests[0]["start"],
            "end": self.requests[-1]["end"],
        }


def compare_passes(reference: Pass, other: Pass) -> Dict:
    """Record-for-record equality of two passes over the same requests.

    Every expected tuple of ``other`` is one attempted operation; it fails
    if its record is missing (quarantined or lost) or its signature
    differs from the reference pass's record.
    """
    attempted = failed = 0
    for ref, got, expected in zip(reference.records, other.records, other.expected):
        for rid in expected:
            attempted += 1
            a, b = ref.get(rid), got.get(rid)
            if a is None or b is None or a.signature() != b.signature():
                failed += 1
    return {"attempted": attempted, "failed": failed}


def missing(p: Pass) -> Dict:
    attempted = sum(len(e) for e in p.expected)
    found = sum(len(r) for r in p.records)
    return {"attempted": attempted, "failed": attempted - found}


def oracle_check(samples, provide, label: str) -> Dict:
    """Recompute sampled tuples on the oracle pair; compare signatures.

    ``samples`` are ``(request, record)`` pairs.  The oracle pair is the
    reference interpreter plus the full-rebuild transform.
    """
    from repro import CampaignRequest, ExecConfig, request_jobs
    from repro.eval import run_campaign_jobs_with_manifest

    oracle = ExecConfig(compiled=False, incremental=False)
    failed = 0
    for request, record in samples:
        single = CampaignRequest(
            workloads=(record.workload,),
            kinds=request.kinds,
            variants=(record.variant,),
            design=request.design,
            percent=request.percent,
            scale=request.scale,
            seeds=request.seeds,
            max_sites=request.max_sites,
        )
        (job,) = request_jobs(single, oracle, harness_for=provide)
        site_ids = [s.site_id for s in job.sites]
        if record.site not in site_ids:
            failed += 1
            continue
        item = (0, site_ids.index(record.site), 0, record.run)
        recomputed, _ = run_campaign_jobs_with_manifest([job], config=oracle, items=[item])
        if len(recomputed) != 1 or recomputed[0].signature() != record.signature():
            failed += 1
    return {"check": f"oracle:{label}", "attempted": len(samples), "failed": failed}


def sample(rng_seed: str, population: Sequence, k: int) -> List:
    import random

    rng = random.Random(rng_seed)
    return rng.sample(list(population), min(k, len(population)))


def _pass_samples(requests, p: Pass) -> List:
    return [
        (request, record)
        for request, records in zip(requests, p.records)
        for record in records.values()
    ]


def _lanes(passes: Sequence[Pass]) -> List[Dict]:
    """The one load-driving thread of an in-process session, timed throughout."""
    ends = [r["end"] for p in passes for r in p.requests]
    return [{"tid": threading.get_ident(), "windows": [[passes[0].requests[0]["start"], max(ends)]]}]


def _sweep_passes(workload: str):
    n_warm, n_resume = SWEEPS[workload]
    warms = [Pass(f"warm{k}") for k in range(1, n_warm + 1)]
    return warms, [Pass(f"resume{k}") for k in range(1, n_resume + 1)]


def figure_matrix(params: Dict) -> Dict:
    import inputs
    import repro

    seed, tiny = params["seed"], params["tiny"]
    requests = inputs.figure_matrix(seed, tiny)
    config = repro.ExecConfig()
    provide = harness_cache(config)
    jobs = [repro.request_jobs(r, config, harness_for=provide) for r in requests]
    out: Dict = {"setup_s": _since(params["spawned"])}
    if params["role"] == "setup":
        return out

    cold = Pass("cold")
    for request, j in zip(requests, jobs):
        cold.run(request, j, config)
    # Each sweep submits every request twice: with fresh jobs (warm), then
    # again with those jobs, whose finished builds are retained, so only
    # the runs execute (resume; this workload has no store).  Interleaving
    # spreads both rates over the whole run.
    warms, resumes = _sweep_passes(params["workload"])
    fresh: Dict[str, list] = {}
    for sweep in range(max(len(warms), len(resumes))):
        for request in requests:
            _context(request.request_id)
            if sweep < len(warms):
                fresh[request.request_id] = repro.request_jobs(request, config, harness_for=provide)
                warms[sweep].run(request, fresh[request.request_id], config)
            if sweep < len(resumes):
                resumes[sweep].run(request, fresh[request.request_id], config)
    _recording(False)
    passes = [cold] + warms + resumes
    out["peak_rss_mb"] = _peak_rss_mb()
    out["passes"] = [p.summary() for p in passes]
    out["pid"], out["lanes"] = os.getpid(), _lanes(passes)
    out["checks"] = [
        {"check": "cold:complete", **missing(cold)},
        *({"check": f"{p.name}==cold", **compare_passes(cold, p)} for p in passes[1:]),
        oracle_check(
            sample(f"fm-oracle/{seed}", _pass_samples(requests, cold), 4 if tiny else 12),
            provide,
            "cold",
        ),
    ]
    return out


def observed_parallel(params: Dict) -> Dict:
    import inputs
    import repro
    from repro.obs import load_runs

    seed, tiny, tmp = params["seed"], params["tiny"], params["tmp"]
    requests = inputs.observed_parallel(seed, tiny)
    store = os.path.join(tmp, "store")
    traces = os.path.join(tmp, "traces")
    os.makedirs(traces, exist_ok=True)
    base = repro.ExecConfig(jobs=2, counters=True, trace_events=inputs.REPLAY_EVENTS)

    def config(name: str, i: int, with_store: bool):
        trace = os.path.join(traces, f"{name}-{i:02d}.jsonl")
        return replace(base, trace_path=trace, store_path=store if with_store else None)

    provide = harness_cache(base)
    jobs = [repro.request_jobs(r, base, harness_for=provide) for r in requests]
    out: Dict = {"setup_s": _since(params["spawned"])}
    if params["role"] == "setup":
        return out

    compute = Pass("compute")
    for i, (request, j) in enumerate(zip(requests, jobs)):
        compute.run(request, j, config("compute", i, True))
    # Sweeps submit every request with fresh jobs: without the store (warm,
    # the first sweeps only, if any), then with it (resume).  Interleaving
    # spreads both over the whole session.
    warms, resumes = _sweep_passes(params["workload"])
    for sweep in range(max(len(warms), len(resumes))):
        for i, request in enumerate(requests):
            for p in (warms[sweep:sweep + 1] + resumes[sweep:sweep + 1]):
                _context(request.request_id)
                fresh = repro.request_jobs(request, base, harness_for=provide)
                p.run(request, fresh, config(p.name, i, p in resumes))
    _recording(False)
    passes = [compute] + warms + resumes
    out["peak_rss_mb"] = _peak_rss_mb(children=True)
    out["passes"] = [p.summary() for p in passes]
    out["pid"], out["lanes"] = os.getpid(), _lanes(passes)
    n_oracle = (3 if tiny else 6) // (1 if params["role"] == "main" else 2)

    # A record served from the store ran in an earlier request (stdapp
    # tuples do not depend on the design), so it is replayed from the
    # first earlier trace that has its run id.
    t2d_failed = events = size = 0
    replayed: List[Dict] = []
    for i, records in enumerate(compute.records):
        replayed.insert(0, load_runs(config("compute", i, True).trace_path))
        for (workload, variant, site, run), record in records.items():
            run_id = f"{workload}/{variant}/{site}/{run}"
            traced = next((r[run_id] for r in replayed if run_id in r), None)
            if traced is None or traced.t2d != record.t2d:
                t2d_failed += 1
    for name in sorted(os.listdir(traces)):
        if name.endswith(".jsonl"):
            path = os.path.join(traces, name)
            size += os.path.getsize(path)
            with open(path, "rb") as fh:
                events += sum(1 for _ in fh)
    out["trace_files"] = {"events": events, "bytes": size}
    out["checks"] = [
        {"check": "compute:complete", **missing(compute)},
        *({"check": f"{p.name}==compute", **compare_passes(compute, p)} for p in passes[1:]),
        {
            "check": "t2d-replay",
            "attempted": sum(len(r) for r in compute.records),
            "failed": t2d_failed,
        },
        oracle_check(
            sample(
                f"op-oracle/{seed}/{params['role']}{params['rep']}",
                _pass_samples(requests, compute),
                n_oracle,
            ),
            provide,
            "compute",
        ),
    ]
    return out


# -- the campaign service (service-stream) --------------------------------


class Daemon:
    """``python -m repro.service`` on a UNIX socket, as a child process.

    Traced runs start it through ``daemon.py``, which installs the span
    wrappers and then calls the same ``main``.  The socket path is
    relative to the checkout root (the daemon's and the session's working
    directory), which keeps it under the UNIX socket path limit however
    deep the checkout is.
    """

    def __init__(self, tmp: str, store: str, name: str, spans: Optional[str]):
        self.socket = os.path.relpath(os.path.join(tmp, f"{name}.sock"))
        argv = ["--unix", self.socket, "--store", store]
        if spans:
            cmd = [sys.executable, os.path.join(HERE, "daemon.py"), spans] + argv
        else:
            cmd = [sys.executable, "-m", "repro.service"] + argv
        self.log_path = os.path.join(tmp, f"{name}.log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log)
        line = self.proc.stdout.readline().decode()
        if "listening" not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _connect(daemon: Daemon, n: int):
    from repro import ServiceClient

    return [ServiceClient(unix_path=daemon.socket) for _ in range(n)]


def _prime(client, stream) -> None:
    for request in stream.prime:
        client.submit(request)


def drive(clients, requests) -> List[Dict]:
    """Closed loop: each client takes the next request when its last is done.

    Returns one entry per request: submit/done times, the ``accepted``
    frame's counters, the records (or the error that replaced them).
    """
    from repro import ServiceError

    results: List[Optional[Dict]] = [None] * len(requests)
    lock = threading.Lock()
    position = iter(range(len(requests)))

    def client_loop(client) -> None:
        while True:
            with lock:
                i = next(position, None)
            if i is None:
                return
            request = requests[i]
            _context(request.request_id)
            entry: Dict = {"id": request.request_id, "thread": threading.get_ident()}
            entry["start"] = time.monotonic()
            try:
                accepted = client.submit_nowait(request)
                entry["accepted_at"] = time.monotonic()
                result = client.collect(accepted)
            except ServiceError as exc:
                entry.update(end=time.monotonic(), error=str(exc), records=[])
            else:
                entry["end"] = time.monotonic()
                entry.update(
                    {k: accepted[k] for k in ("n_items", "executed", "shared_hits", "store_hits")}
                )
                entry["records"] = result.records
            results[i] = entry

    threads = [threading.Thread(target=client_loop, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results  # type: ignore[return-value]


def _digest(record) -> str:
    import hashlib

    return hashlib.sha256(repr(record.signature()).encode()).hexdigest()


def _stream_summary(name: str, results: List[Dict]) -> Dict:
    return {
        "name": name,
        "start": min(r["start"] for r in results),
        "end": max(r["end"] for r in results),
        "requests": [
            {
                k: r.get(k)
                for k in (
                    "id",
                    "thread",
                    "start",
                    "accepted_at",
                    "end",
                    "n_items",
                    "executed",
                    "shared_hits",
                    "store_hits",
                )
            }
            | {"records": len(r["records"]), "error": r.get("error")}
            for r in results
        ],
    }


def _stream_lanes(streams: Sequence[List[Dict]]) -> List[Dict]:
    """Each client thread's window per stream: first submit to its last done."""
    lanes: Dict[int, List[List[float]]] = {}
    for results in streams:
        start = min(r["start"] for r in results)
        for tid in {r["thread"] for r in results}:
            end = max(r["end"] for r in results if r["thread"] == tid)
            lanes.setdefault(tid, []).append([start, end])
    return [{"tid": tid, "windows": w} for tid, w in lanes.items()]


def _stream_check(label: str, results: List[Dict]) -> Dict:
    """A request's tuples all fail on a ServiceError; else missing ones do.

    ``ServiceClient.collect`` drops ``tuple_error`` frames, so a tuple the
    daemon could not compute shows up here as a missing record.
    """
    attempted = failed = 0
    for r in results:
        n = r.get("n_items") or 1
        attempted += n
        failed += n if "error" in r else n - len(r["records"])
    return {"check": f"{label}:complete", "attempted": attempted, "failed": failed}


def service_stream(params: Dict) -> Dict:
    import inputs

    seed, tiny, tmp, role = params["seed"], params["tiny"], params["tmp"], params["role"]
    stream = inputs.service_stream(seed, tiny)
    store = os.path.join(tmp, "store")
    name = f"{role}{params.get('rep', '')}"
    daemon = Daemon(tmp, store, name, params.get("spans"))
    out: Dict = {}
    try:
        clients = _connect(daemon, 2)
        _prime(clients[0], stream)
        out["setup_s"] = _since(params["spawned"])
        if role == "resume":
            resumed = drive(clients, stream.cold + stream.warm)
        else:
            cold = drive(clients, stream.cold)
            warm = drive(clients, stream.warm)
            out["peak_rss_mb"] = daemon.peak_rss_mb()
        for client in clients:
            client.close()
    finally:
        daemon.stop()
    _recording(False)
    out["pid"], out["daemon_pid"] = os.getpid(), daemon.proc.pid
    if role == "resume":
        out["lanes"] = _stream_lanes([resumed])
        out["passes"] = [_stream_summary(name, resumed)]
        out["digests"] = {r["id"]: [_digest(x) for x in r["records"]] for r in resumed}
        out["checks"] = [_stream_check(name, resumed)]
        return out

    from repro import ExecConfig

    provide = harness_cache(ExecConfig())
    by_id = {r.request_id: r for r in stream.cold + stream.warm}
    samples = [(by_id[r["id"]], rec) for r in cold + warm for rec in r["records"]]
    n_oracle = 4 if tiny or role != "main" else 12
    out["lanes"] = _stream_lanes([cold, warm])
    out["passes"] = [_stream_summary("cold", cold), _stream_summary("warm", warm)]
    out["digests"] = {r["id"]: [_digest(x) for x in r["records"]] for r in cold + warm}
    out["checks"] = [
        _stream_check("cold", cold),
        _stream_check("warm", warm),
        oracle_check(sample(f"ss-oracle/{seed}/{name}", samples, n_oracle), provide, "stream"),
    ]
    return out


if __name__ == "__main__":
    main()
