"""Campaign benchmark: three workloads over the public campaign API.

    python3 campaign_bench/run.py --workload figure-matrix --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric of the workload; ``--trace 1`` runs the workload untraced and then
traced (same seed) and prints every per-layer metric.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric by
name with its unit.  ``--seconds`` below 5 selects the tiny sizes the
benchmark's own tests use; any other value runs the standard sizes, a
whole run of which, with set-up and checks, takes 35–70 s per workload
on a 2-core host.

Each session (one role of a workload) is a fresh process with
``PYTHONHASHSEED`` derived from the seed and no ``DPMR_*`` variable set,
so the program runs with the user-default ``ExecConfig`` except for the
knobs a workload names.  See ``NOTES.md`` for the workloads, metrics and
steadiness record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figure-matrix", "observed-parallel", "service-stream")
#: whole-run budget; a run must end within 180 s.
DEADLINE_S = 170.0
#: set-up-only sessions per run; ``setup_s`` is the median over all
#: sessions.  Every service-stream session starts and primes a daemon.
EXTRA_SETUPS = {"figure-matrix": 4, "observed-parallel": 3, "service-stream": 0}
#: daemon restarts of a service-stream run, each replaying its streams.
SERVICE_RESUMES = 1
#: workloads whose run adds a session like the main one, in a fresh
#: process with a store of its own, before and after the main session.
COLD_SESSIONS = ("observed-parallel", "service-stream")

#: the end-to-end metrics ``BENCHMARK.json`` bounds, in the result line.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}
#: printed on their own lines, not bound: on the benchmark's 2-core host
#: their ten-run spread was 0.2–0.25 where the bound allows at most 0.25
#: (see NOTES.md), so a bound on them would measure the host.
UNBOUND = {
    "cold_exps_per_s": "records/s",
    "served_exps_per_s": "records/s",
    "warm_exps_per_s": "records/s",
    "request_p50_s": "s",
    "request_p90_s": "s",
}


class BenchError(RuntimeError):
    pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # A terminated run still kills and reaps its session's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    warm_up()
    runner = Runner(args.workload, args.seed, args.seconds < 5, deadline)
    try:
        if args.trace:
            metrics, units, sessions = runner.traced()
            measured = metrics
        else:
            sessions = runner.sessions(spans=None, setups=EXTRA_SETUPS[args.workload])
            measured = end_to_end(args.workload, sessions)
            metrics = {k: measured[k] for k in END_TO_END}
            units = {**END_TO_END, **UNBOUND}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    attempted, failed, report = tally(sessions)
    for line in report:
        print(line)
    for name, value in measured.items():
        bound = "" if name in metrics else " (not bound)"
        print(f"{args.workload} {name} {value:.6g} {units[name]}{bound}")
    if not args.trace:
        n_requests = len(latencies(args.workload, sessions))
        n_sessions = len(per_session(args.workload, sessions))
        print(f"{args.workload} request_count {n_requests} in {n_sessions} sessions")
        print(f"{args.workload} setup_samples {[round(s['setup_s'], 3) for s in sessions]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def warm_up() -> None:
    """Compile the sources to bytecode (untimed) so no set-up pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
    )


class Runner:
    """Starts one workload's sessions, each a fresh process, one at a time."""

    def __init__(self, workload: str, seed: int, tiny: bool, deadline: float):
        self.workload, self.seed, self.tiny, self.deadline = workload, seed, tiny, deadline
        scratch = os.path.join(ROOT, ".campaign_bench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def env(self) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("DPMR_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONHASHSEED"] = str(zlib.crc32(f"{self.workload}/{self.seed}".encode()))
        return env

    def launch(self, role: str, tmp: str, spans: Optional[str], rep: int = 0) -> Dict:
        params = {
            "workload": self.workload,
            "role": role,
            "rep": rep,
            "seed": self.seed,
            "tiny": self.tiny,
            "tmp": tmp,
            "spans": spans,
        }
        env = self.env()
        params["spawned"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py"), json.dumps(params)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {role} session ran past the deadline")
        finally:
            # The session's daemon and pool workers share its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} {role} session exited {proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def sessions(self, spans: Optional[str], setups: int) -> List[Dict]:
        """The main session first, then the others, in the list returned.

        Set-up-only sessions run half before and half after the main one,
        so the ``setup_s`` samples spread over the run; service-stream's
        resume sessions follow the main session, whose store they read.
        observed-parallel and service-stream run a session like the main
        one in a fresh process (``cold``) before and after it too, so each
        rate and latency they report is a median over sessions spread
        across the whole run.
        """
        tmp = tempfile.mkdtemp(dir=self.tmp)

        def setup() -> Dict:
            return self.launch("setup", tempfile.mkdtemp(dir=self.tmp), spans)

        def cold(rep: int) -> List[Dict]:
            if self.workload not in COLD_SESSIONS:
                return []
            return [self.launch("cold", tempfile.mkdtemp(dir=self.tmp), spans, rep)]

        before = [setup() for _ in range(setups // 2)] + cold(1)
        results = [self.launch("main", tmp, spans)]
        if self.workload == "service-stream":
            for rep in range(1, SERVICE_RESUMES + 1):
                results.append(self.launch("resume", tmp, spans, rep))
        results += cold(2)
        after = [setup() for _ in range(setups - setups // 2)]
        return results + before + after

    def traced(self):
        """An untraced main session, then the traced sessions, same seed."""
        import layers

        untraced = [self.launch("main", tempfile.mkdtemp(dir=self.tmp), None)]
        span_dir = tempfile.mkdtemp(prefix="spans-", dir=self.tmp)
        traced = self.sessions(spans=span_dir, setups=0)
        metrics = layers.derive(span_dir, traced, untraced[0])
        units = {k: unit for k, (unit, _) in layers.METRICS.items()}
        return metrics, units, untraced + traced


def tally(sessions: List[Dict]):
    """Attempted and failed operations over every check of every session.

    A service-stream ``resume`` session replays the streams of the
    ``main`` session before it, and a ``cold`` one runs them again from
    scratch; either's records must equal main's, record for record.
    """
    checks: List[Dict] = []
    last_main: Dict = {}
    for s in sessions:
        checks.extend(s.get("checks", []))
        if s["role"] == "main":
            last_main = s
        elif "digests" in s:
            name = f"{s['role']}{s.get('rep', '')}"
            checks.append(replay_check(name, last_main["digests"], s["digests"]))
    report = [f"check {c['check']}: {c['failed']} failed of {c['attempted']}" for c in checks]
    return sum(c["attempted"] for c in checks), sum(c["failed"] for c in checks), report


def replay_check(name: str, main: Dict[str, List[str]], resumed: Dict[str, List[str]]) -> Dict:
    attempted = failed = 0
    for rid, digests in main.items():
        got = resumed.get(rid, [])
        attempted += len(digests)
        failed += sum(1 for i, d in enumerate(digests) if i >= len(got) or got[i] != d)
    return {"check": f"{name}==main", "attempted": attempted, "failed": failed}


def latencies(workload: str, sessions: List[Dict]) -> List[float]:
    """Per-request latencies behind ``request_p50_s`` and ``request_p90_s``.

    Every submission of the requests a user repeats: figure-matrix's warm
    passes (regenerating a figure cell, 32 submissions), observed-
    parallel's resume passes (getting a stored cell back, 24 a session)
    and service-stream's warm walks (168 a session).  The service's warm
    requests all run through the service path on generated code — the
    cold walk's tail is codegen.  Each session's percentiles are taken
    over its own requests (:func:`per_session`).
    """
    prefix = "resume" if workload == "observed-parallel" else "warm"
    return [
        r["end"] - r["start"]
        for p in _passes(sessions)
        if p["name"].startswith(prefix)
        for r in p["requests"]
    ]


def _rate(workload: str, passes: List[Dict], key: str = "records") -> float:
    """Records per second over passes: all their records, all their time.

    A pass's time is its requests' time, or a service stream's window.
    """

    def seconds(p: Dict) -> float:
        if workload == "service-stream":
            return p["end"] - p["start"]
        return sum(r["end"] - r["start"] for r in p["requests"])

    records = sum(r[key] or 0 for p in passes for r in p["requests"])
    return records / sum(map(seconds, passes))


def _passes(sessions: List[Dict]) -> List[Dict]:
    return [p for s in sessions for p in s.get("passes", [])]


def per_session(workload: str, sessions: List[Dict]) -> List[Dict[str, float]]:
    """Rates and latency percentiles of each session that ran the timed passes.

    figure-matrix has one such session; observed-parallel and
    service-stream have three (``main`` and two ``cold``), whose medians
    are the reported values, so one session that ran in a slow phase of
    the host does not move them.
    """
    first = sessions[0]["passes"][0]["name"]
    # The service's cold rate counts the tuples the daemon ran; its served
    # rate counts every record delivered to the clients.
    ran = "executed" if workload == "service-stream" else "records"
    values = []
    for s in sessions:
        passes = s.get("passes", [])
        colds = [p for p in passes if p["name"] == first]
        if not colds:
            continue
        warms = [p for p in passes if p["name"].startswith("warm")]
        q = statistics.quantiles(latencies(workload, [s]), n=100, method="inclusive")
        value = {
            "cold_exps_per_s": _rate(workload, colds, ran),
            "served_exps_per_s": _rate(workload, warms if workload == "service-stream" else passes),
            "request_p50_s": q[49],
            "request_p90_s": q[89],
        }
        if warms:
            value["warm_exps_per_s"] = _rate(workload, warms, ran)
        values.append(value)
    return values


def end_to_end(workload: str, sessions: List[Dict]) -> Dict[str, float]:
    """Every end-to-end metric of a run: the bound ones and the others."""
    values = per_session(workload, sessions)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "peak_rss_mb": sessions[0]["peak_rss_mb"],
        **{k: statistics.median(v[k] for v in values) for k in values[0]},
    }


if __name__ == "__main__":
    sys.exit(main())
