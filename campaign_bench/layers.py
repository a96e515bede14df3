"""Per-layer metrics of a traced run, derived from its span files.

A span's *self time* is its duration minus the durations of its child
spans (same process, parent id).  Counts come from the span files'
per-process cache counters, the run manifests the executor returned
(span attributes of ``eval.campaign``) and the daemon's ``accepted``
frames.  Pass-scoped metrics (``….cold``, ``….warm``, ``….resume``) take
the spans that started inside that pass's window; every process shares
one monotonic clock, so daemon and pool-worker spans are placed too.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: name → (unit, better) for every per-layer metric, in report order.
METRICS: Dict[str, Tuple[str, str]] = {
    "apps.build_n": ("count", "lower"),
    "apps.build_s": ("s", "lower"),
    "faultinject.inject_n": ("count", "lower"),
    "faultinject.inject_s": ("s", "lower"),
    "ir.clone_n": ("count", "lower"),
    "ir.clone_s": ("s", "lower"),
    "ir.verify_n": ("count", "lower"),
    "ir.verify_s": ("s", "lower"),
    "core.base_transform_n": ("count", "lower"),
    "core.base_transform_s": ("s", "lower"),
    "core.site_transform_n": ("count", "lower"),
    "core.site_transform_s": ("s", "lower"),
    "core.delta_splice_frac": ("fraction", "higher"),
    "core.replay_frac": ("fraction", "higher"),
    "machine.codegen_n": ("count", "lower"),
    "machine.codegen_s": ("s", "lower"),
    "machine.code_compiles": ("count", "lower"),
    "machine.code_compiles.cold": ("count", "lower"),
    "machine.code_compiles.warm": ("count", "lower"),
    "machine.codegen_hit_frac": ("fraction", "higher"),
    "machine.program_hit_frac": ("fraction", "higher"),
    "machine.run_n": ("count", "lower"),
    "machine.run_s": ("s", "lower"),
    "machine.sim_ips": ("instr/s", "higher"),
    "machine.timeouts": ("count", "lower"),
    "machine.golden_s": ("s", "lower"),
    "eval.campaign_n": ("count", "lower"),
    "eval.campaign_s": ("s", "lower"),
    "eval.executor_self_s": ("s", "lower"),
    "eval.effective_jobs": ("count", "higher"),
    "eval.worker_busy_frac": ("fraction", "higher"),
    "eval.worker_restarts": ("count", "lower"),
    "eval.retries": ("count", "lower"),
    "eval.quarantined": ("count", "lower"),
    "store.get_n": ("count", "lower"),
    "store.get_s": ("s", "lower"),
    "store.put_n": ("count", "lower"),
    "store.put_s": ("s", "lower"),
    "store.hit_frac": ("fraction", "higher"),
    "store.hit_frac.resume": ("fraction", "higher"),
    "store.corrupt": ("count", "lower"),
    "obs.trace_events": ("count", "lower"),
    "obs.trace_mb": ("MB", "lower"),
    "service.admit_s": ("s", "lower"),
    "service.collect_s": ("s", "lower"),
    "service.batch_n": ("count", "lower"),
    "service.batch_s": ("s", "lower"),
    "service.batch_items": ("count", "higher"),
    "service.queue_wait_s": ("s", "lower"),
    "service.shared_frac": ("fraction", "higher"),
    "service.min_executed": ("count", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.residual_frac": ("fraction", "lower"),
}


class Span:
    __slots__ = ("pid", "sid", "parent", "name", "tid", "start", "end", "ctx", "attrs", "self_s")

    def __init__(self, pid: int, row: list):
        self.pid = pid
        self.sid, self.parent, self.name, self.tid, self.start, self.end, self.ctx, self.attrs = row
        self.attrs = self.attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def load(span_dir: str) -> Tuple[List[Span], List[Dict]]:
    """All spans of a traced run (self times filled in) and the per-process
    counter blocks."""
    spans: List[Span] = []
    counters: List[Dict] = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        own = [Span(data["pid"], row) for row in data["spans"]]
        child_time: Dict[int, float] = defaultdict(float)
        for s in own:
            if s.parent:
                child_time[s.parent] += s.duration
        for s in own:
            s.self_s = s.duration - child_time.get(s.sid, 0.0)
        spans.extend(own)
        counters.append(data)
    return spans, counters


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _within(spans: Iterable[Span], windows: Iterable[Tuple[float, float]]) -> List[Span]:
    windows = list(windows)
    return [s for s in spans if any(a <= s.start <= b for a, b in windows)]


def _overlap(spans: Iterable[Span], a: float, b: float) -> float:
    return sum(max(0.0, min(s.end, b) - max(s.start, a)) for s in spans)


def derive(span_dir: str, traced: List[Dict], untraced_main: Dict) -> Dict[str, float]:
    """Every per-layer metric of one workload's traced run.

    ``traced`` are the session results of the traced sessions, main first,
    and ``untraced_main`` the untraced main session of the same seed; the
    sessions report their passes (windows and requests), their
    load-driving threads and, for the service, the pids of their daemons.
    """
    spans, counters = load(span_dir)
    named: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def n(name: str) -> int:
        return len(named[name])

    def self_s(*names: str) -> float:
        return sum(s.self_s for name in names for s in named[name])

    passes = [p for result in traced for p in result.get("passes", [])]

    def windows_of(prefix: str):
        """Request windows of the passes whose name starts with ``prefix``."""
        return [
            (r["start"], r["end"])
            for p in passes
            if p["name"].startswith(prefix)
            for r in p["requests"]
        ]

    codegen = defaultdict(int)
    transform = defaultdict(int)
    for block in counters:
        for k, v in block["codegen"].items():
            codegen[k] += v
        for k, v in block["transform"].items():
            transform[k] += v

    def compiles_in(windows) -> int:
        spans_in = _within(named["machine.codegen"], windows)
        return sum(s.attrs.get("misses", 0) for s in spans_in)

    campaigns = named["eval.campaign"]
    session_pids = {r["pid"] for r in traced}
    daemon_pids = {r["daemon_pid"] for r in traced if "daemon_pid" in r}
    workers = [
        s
        for s in spans
        if s.pid not in session_pids | daemon_pids and s.parent == 0
    ]
    parallel = [c for c in campaigns if c.attrs.get("effective_jobs", 1) > 1]
    worker_capacity = sum(c.duration * c.attrs["effective_jobs"] for c in parallel)

    gets = named["store.get"]
    resume_gets = _within(gets, windows_of("resume"))

    runs = named["machine.run"]
    run_s = self_s("machine.run")

    m: Dict[str, float] = {
        "apps.build_n": n("apps.build"),
        "apps.build_s": self_s("apps.build"),
        "faultinject.inject_n": n("faultinject.inject"),
        "faultinject.inject_s": self_s("faultinject.inject"),
        "ir.clone_n": n("ir.clone"),
        "ir.clone_s": self_s("ir.clone"),
        "ir.verify_n": n("ir.verify"),
        "ir.verify_s": self_s("ir.verify"),
        "core.base_transform_n": n("core.base_transform"),
        "core.base_transform_s": self_s("core.base_transform"),
        "core.site_transform_n": n("core.site_transform"),
        "core.site_transform_s": self_s("core.site_transform"),
        "core.delta_splice_frac": _ratio(transform["delta_splices"], transform["misses"]),
        "core.replay_frac": _ratio(
            transform["replayed_instructions"],
            transform["replayed_instructions"] + transform["translated_instructions"],
        ),
        "machine.codegen_n": n("machine.codegen"),
        "machine.codegen_s": self_s("machine.codegen"),
        "machine.code_compiles": codegen["misses"],
        "machine.code_compiles.cold": compiles_in(windows_of(passes[0]["name"])),
        "machine.code_compiles.warm": compiles_in(windows_of("warm")),
        "machine.codegen_hit_frac": _ratio(codegen["hits"], codegen["hits"] + codegen["misses"]),
        "machine.program_hit_frac": _ratio(codegen["program_hits"], n("machine.codegen")),
        "machine.run_n": len(runs),
        "machine.run_s": run_s,
        "machine.sim_ips": _ratio(sum(s.attrs.get("instructions", 0) for s in runs), run_s),
        "machine.timeouts": sum(1 for s in runs if s.attrs.get("status") == "timeout"),
        "machine.golden_s": sum(s.duration for s in named["machine.golden"]),
        "eval.campaign_n": len(campaigns),
        "eval.campaign_s": sum(c.duration for c in campaigns),
        "eval.executor_self_s": self_s("eval.campaign"),
        "eval.effective_jobs": max((c.attrs.get("effective_jobs", 1) for c in campaigns), default=0),
        "eval.worker_busy_frac": _ratio(sum(s.duration for s in workers), worker_capacity),
        "eval.worker_restarts": sum(c.attrs.get("worker_restarts", 0) for c in campaigns),
        "eval.retries": sum(c.attrs.get("retries", 0) for c in campaigns),
        "eval.quarantined": sum(c.attrs.get("quarantined", 0) for c in campaigns),
        "store.get_n": len(gets),
        "store.get_s": self_s("store.get", "store.get_many"),
        "store.put_n": n("store.put"),
        "store.put_s": self_s("store.put"),
        "store.hit_frac": _ratio(sum(s.attrs["hit"] for s in gets if s.attrs), len(gets)),
        "store.hit_frac.resume": _ratio(
            sum(s.attrs["hit"] for s in resume_gets if s.attrs), len(resume_gets)
        ),
        "store.corrupt": sum(c.attrs.get("store_corrupt", 0) for c in campaigns),
    }
    trace_files = [r["trace_files"] for r in traced if "trace_files" in r]
    m["obs.trace_events"] = sum(t["events"] for t in trace_files)
    m["obs.trace_mb"] = sum(t["bytes"] for t in trace_files) / 1e6
    m.update(_service(named, passes, daemon_pids))
    m["trace.overhead_frac"] = _ratio(timed_seconds(traced[0]), timed_seconds(untraced_main)) - 1.0
    m["trace.residual_frac"] = _residual(spans, traced)
    return m


def _service(named: Dict[str, List[Span]], passes: List[Dict], daemon_pids) -> Dict[str, float]:
    streams = [p for p in passes if p["requests"] and "accepted_at" in p["requests"][0]]
    windows = [(p["start"], p["end"]) for p in streams]
    requests = [r for p in streams for r in p["requests"] if r.get("n_items") is not None]
    batches = sorted(
        (b for b in named["eval.campaign"] if b.pid in daemon_pids), key=lambda b: b.start
    )
    waits = []
    for r in requests:
        if not r["executed"]:
            continue
        nxt = next((b.start for b in batches if b.start >= r["accepted_at"]), None)
        if nxt is not None and nxt <= r["end"]:
            waits.append(nxt - r["accepted_at"])
    in_streams = _within(batches, windows)
    fresh = [r for p in streams if not p["name"].startswith("resume") for r in p["requests"]]
    return {
        "service.admit_s": sum(s.self_s for s in _within(named["service.submit"], windows)),
        "service.collect_s": sum(s.self_s for s in _within(named["service.collect"], windows)),
        "service.batch_n": len(in_streams),
        "service.batch_s": sum(b.duration for b in in_streams),
        "service.batch_items": sum(b.attrs.get("n_items", 0) for b in in_streams),
        "service.queue_wait_s": sum(waits),
        "service.shared_frac": _ratio(
            sum(r["shared_hits"] for r in fresh if r.get("n_items")),
            sum(r["n_items"] for r in fresh if r.get("n_items")),
        ),
        "service.min_executed": min(
            (r["executed"] for r in fresh if r.get("executed") is not None), default=0
        ),
    }


def timed_seconds(result: Dict) -> float:
    """The timed part of a session: its requests, or its stream windows."""
    total = 0.0
    for p in result.get("passes", []):
        if p["requests"] and "accepted_at" in p["requests"][0]:
            total += p["end"] - p["start"]
        else:
            total += sum(r["end"] - r["start"] for r in p["requests"])
    return total


def _residual(spans: List[Span], traced: List[Dict]) -> float:
    """Share of the load-driving threads' timed windows no span covers.

    Within one thread the self times of a span tree sum to its root's
    duration, so this is also one minus (sum of self times / wall).
    """
    roots: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent == 0:
            roots[(s.pid, s.tid)].append(s)
    wall = covered = 0.0
    for result in traced:
        for lane in result.get("lanes", []):
            for a, b in lane["windows"]:
                wall += b - a
                covered += _overlap(roots[(result["pid"], lane["tid"])], a, b)
    return 1.0 - _ratio(covered, wall)
