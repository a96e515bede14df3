"""Execution configuration — every ``DPMR_*`` knob parsed in one place.

The campaign executor, harness, and facade all consume an
:class:`ExecConfig`; nothing else in the package reads the environment.
Knobs (all optional):

========================  =====================================================
``DPMR_JOBS``             worker count for the parallel executor (default 1)
``DPMR_INCREMENTAL``      ``0``/``false`` runs the uncached full-rebuild oracle
``DPMR_TRACE``            path of a JSONL trace file (enables tracing)
``DPMR_TRACE_EVENTS``     comma-separated event kinds to keep (default: all)
``DPMR_COUNTERS``         ``1``/``true`` enables machine counters sans trace
``DPMR_TIMEOUT_FACTOR``   timeout multiple of golden running time (default 20;
                          at least 1)
``DPMR_MANIFEST``         path for the run manifest (default: next to trace)
``DPMR_STORE``            directory of the persistent result store (off by
                          default; enables campaign memoization and resume)
``DPMR_RETRIES``          infrastructure retries per experiment before its
                          site is quarantined (default 2)
``DPMR_EXP_TIMEOUT``      per-experiment wall-clock budget in seconds for
                          worker processes (default 0 = unlimited)
``DPMR_COMPILE``          ``0``/``false`` opts out of the compiled execution
                          tier (on by default; bit-identical records; ignored
                          when observability forces the instrumented
                          interpreter)
========================  =====================================================

``DPMR_SHARDS`` is retired with the shard fabric it selected: set to
anything but ``1`` it raises ``ValueError`` pointing at ``DPMR_JOBS``
rather than silently running serially.

``ExecConfig`` is frozen: derive variations with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Tuple

#: timeout multiplier over golden running time (the paper uses ~20x).
DEFAULT_TIMEOUT_FACTOR = 20

JOBS_ENV_VAR = "DPMR_JOBS"
INCREMENTAL_ENV_VAR = "DPMR_INCREMENTAL"
TRACE_ENV_VAR = "DPMR_TRACE"
TRACE_EVENTS_ENV_VAR = "DPMR_TRACE_EVENTS"
COUNTERS_ENV_VAR = "DPMR_COUNTERS"
TIMEOUT_FACTOR_ENV_VAR = "DPMR_TIMEOUT_FACTOR"
MANIFEST_ENV_VAR = "DPMR_MANIFEST"
STORE_ENV_VAR = "DPMR_STORE"
RETRIES_ENV_VAR = "DPMR_RETRIES"
EXP_TIMEOUT_ENV_VAR = "DPMR_EXP_TIMEOUT"
COMPILE_ENV_VAR = "DPMR_COMPILE"
#: retired: rejected unless unset or 1 (see :meth:`ExecConfig.from_env`).
SHARDS_ENV_VAR = "DPMR_SHARDS"

#: infrastructure retries per experiment before its site is quarantined.
DEFAULT_RETRIES = 2

_FALSE_WORDS = ("0", "false", "off", "no")
_TRUE_WORDS = ("1", "true", "on", "yes")


def _parse_int(env: Mapping[str, str], var: str, default: int) -> int:
    raw = env.get(var, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{var} must be an integer, got {raw!r}") from None


def _parse_float(env: Mapping[str, str], var: str, default: float) -> float:
    raw = env.get(var, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{var} must be a number, got {raw!r}") from None


def _parse_flag(env: Mapping[str, str], var: str, default: bool) -> bool:
    raw = env.get(var, "").strip().lower()
    if not raw:
        return default
    if raw in _TRUE_WORDS:
        return True
    if raw in _FALSE_WORDS:
        return False
    raise ValueError(f"{var} must be a boolean flag, got {raw!r}")


@dataclass(frozen=True)
class ExecConfig:
    """How to execute runs and campaigns (parallelism, builds, observability).

    This is the *only* knob surface: pass ``config=`` explicitly or let the
    entry point default to :meth:`from_env`.  The pre-PR-4 per-call keyword
    aliases (``jobs=``, ``processes=``, ``incremental=``) were removed after
    their deprecation soak — see the README migration notes.
    """

    #: requested worker count (the executor may use fewer; see the manifest).
    jobs: int = 1
    #: campaign builds through the build table (``parallel.site_build``);
    #: False runs the uncached full-rebuild oracle
    #: (``parallel.reference_build``) for every tuple.
    incremental: bool = True
    #: JSONL trace file path; ``None`` disables tracing.
    trace_path: Optional[str] = None
    #: restrict tracing to these event kinds (``None`` = every kind).
    trace_events: Optional[Tuple[str, ...]] = None
    #: machine counters without (or in addition to) a trace.
    counters: bool = False
    #: timeout as a multiple of each workload's golden running time.
    timeout_factor: int = DEFAULT_TIMEOUT_FACTOR
    #: where to persist the run manifest (``None``: next to the trace, if any).
    manifest_path: Optional[str] = None
    #: directory of the persistent result store (``None`` disables it).
    store_path: Optional[str] = None
    #: infrastructure retries per experiment before its site is quarantined.
    retries: int = DEFAULT_RETRIES
    #: per-experiment wall-clock budget (seconds) enforced by the worker
    #: supervisor; 0 disables the budget.  A serial campaign runs in-process,
    #: where nothing can preempt an experiment, so the budget only applies
    #: to worker processes (the manifest's ``worker_reason`` says so).
    exp_timeout_s: float = 0.0
    #: base of the exponential retry backoff (not environment-exposed;
    #: tests shrink it, production leaves the default).
    retry_backoff_s: float = 0.05
    #: compiled execution tier (repro.machine.compile), the default campaign
    #: engine.  Bit-
    #: transparent: records are signature-identical to the interpreter, so
    #: this knob is deliberately excluded from store fingerprints.  Set
    #: ``DPMR_COMPILE=0`` to opt out; whenever a run needs tracing or
    #: counters it falls back to the instrumented interpreter regardless.
    compiled: bool = True

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None) -> "ExecConfig":
        """The configuration the environment asks for (see module docstring)."""
        if env is None:
            env = os.environ
        shards = env.get(SHARDS_ENV_VAR, "").strip()
        if shards not in ("", "1"):
            raise ValueError(
                f"{SHARDS_ENV_VAR}={shards!r} is no longer supported: the shard "
                f"fabric was removed; set {JOBS_ENV_VAR}=N for N worker processes"
            )
        trace_path = env.get(TRACE_ENV_VAR, "").strip() or None
        raw_events = env.get(TRACE_EVENTS_ENV_VAR, "").strip()
        trace_events: Optional[Tuple[str, ...]] = None
        if raw_events:
            trace_events = tuple(
                k.strip() for k in raw_events.split(",") if k.strip()
            )
        timeout_factor = _parse_int(
            env, TIMEOUT_FACTOR_ENV_VAR, DEFAULT_TIMEOUT_FACTOR
        )
        if timeout_factor < 1:
            # The harness would clamp the budget to its cycle floor, which
            # can lie below the golden run itself: every run would time out.
            raise ValueError(
                f"{TIMEOUT_FACTOR_ENV_VAR} must be at least 1, got {timeout_factor}"
            )
        return cls(
            jobs=max(1, _parse_int(env, JOBS_ENV_VAR, 1)),
            incremental=_parse_flag(env, INCREMENTAL_ENV_VAR, True),
            trace_path=trace_path,
            trace_events=trace_events,
            counters=_parse_flag(env, COUNTERS_ENV_VAR, False),
            timeout_factor=timeout_factor,
            manifest_path=env.get(MANIFEST_ENV_VAR, "").strip() or None,
            store_path=env.get(STORE_ENV_VAR, "").strip() or None,
            retries=max(0, _parse_int(env, RETRIES_ENV_VAR, DEFAULT_RETRIES)),
            exp_timeout_s=max(0.0, _parse_float(env, EXP_TIMEOUT_ENV_VAR, 0.0)),
            compiled=_parse_flag(env, COMPILE_ENV_VAR, True),
        )

    # -- derived ------------------------------------------------------------

    @property
    def observing(self) -> bool:
        """Whether runs execute with observability (tracer and/or counters)."""
        return self.counters or self.trace_path is not None

    def make_tracer(self):
        """A fresh :class:`~repro.obs.JsonlTracer`, or None without a trace.

        Each executor invocation should create (and close) its own tracer;
        the constructor validates ``trace_events`` against the event schema.
        """
        if self.trace_path is None:
            return None
        from ..obs.tracer import JsonlTracer

        events = list(self.trace_events) if self.trace_events is not None else None
        return JsonlTracer(self.trace_path, events=events)

    def make_store(self):
        """A :class:`~repro.eval.store.ResultStore`, or None without a path.

        Each executor invocation opens its own store handle so hit/miss
        statistics are per-run; entries on disk are shared across handles
        and processes.
        """
        if self.store_path is None:
            return None
        from .store import ResultStore

        return ResultStore(self.store_path)

    def effective_manifest_path(self) -> Optional[str]:
        """Where the manifest should be persisted (``None``: keep in memory)."""
        if self.manifest_path is not None:
            return self.manifest_path
        if self.trace_path is not None:
            return self.trace_path + ".manifest.json"
        return None

    def with_jobs(self, jobs: int) -> "ExecConfig":
        return replace(self, jobs=max(1, jobs))
