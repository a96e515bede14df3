"""Structured observability: tracing, counters, run manifests.

Zero-cost when disabled — a machine without a tracer and with counters off
runs the identical pre-observability interpreter loop (asserted
structurally by ``benchmarks/perf_interp.py --smoke`` and
``tests/test_obs_trace.py::TestFastPath``).  When enabled:

* :class:`Tracer` backends receive typed events (run boundaries, fault
  activations, DPMR comparisons, replica syncs, heap churn) with cycle
  stamps; :class:`JsonlTracer` persists them one JSON object per line
  (``DPMR_TRACE=path``), and :mod:`repro.obs.replay` recomputes §3.6
  classifications and T2D from the file alone;
* per-run machine counters (instructions by opcode class, comparisons,
  replica loads/stores, heap churn) surface on ``ProcessResult.counters``
  and aggregate into campaign totals;
* :class:`RunManifest` records every executor decision (worker count and
  why, build path and build-table traffic, serial fallback) next to the
  records.

This package is dependency-light by design: it may import :mod:`repro.ir`
but never :mod:`repro.machine` or :mod:`repro.eval`, which both import it.
"""

from .counters import (
    OPCODE_CLASSES,
    merge_counters,
    new_counters,
    total_counters,
)
from .events import EVENT_KINDS
from .manifest import (
    MANIFEST_SCHEMA,
    JobManifest,
    QuarantineRecord,
    RunManifest,
)
from .replay import TracedRun, load_runs, read_events, runs_from_events, t2d_by_run
from .tracer import CollectingTracer, JsonlTracer, NullTracer, Tracer, real_tracer

__all__ = [
    "CollectingTracer",
    "EVENT_KINDS",
    "JobManifest",
    "JsonlTracer",
    "MANIFEST_SCHEMA",
    "NullTracer",
    "QuarantineRecord",
    "OPCODE_CLASSES",
    "RunManifest",
    "TracedRun",
    "Tracer",
    "load_runs",
    "merge_counters",
    "new_counters",
    "read_events",
    "real_tracer",
    "runs_from_events",
    "t2d_by_run",
    "total_counters",
]
