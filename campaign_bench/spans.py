"""Spans around calls into each layer's public entry points (traced runs).

:func:`install` replaces each entry point, at the name its caller looks
up, with a wrapper that records one span per call: name, start, end,
parent span, request id and thread.  Spans stay in memory; each process
writes its own ``spans-<pid>.json`` into the span directory when it ends:

* the benchmark's session process and the traced daemon at interpreter
  exit (``atexit``; the daemon exits through SIGINT);
* forked pool workers, which leave through ``os._exit`` and never run
  ``atexit``, from a ``multiprocessing`` finalizer registered after fork.

Next to the spans each process writes the counters that only it can see:
its codegen cache statistics and the transform cache statistics of every
incremental compiler it used, as deltas since it started (or forked).

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from typing import Callable, Dict, List, Optional

_SPANS: List[tuple] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_COMPILERS: List[object] = []
_TRANSFORM_FIELDS = (
    "hits",
    "misses",
    "delta_splices",
    "delta_refusals",
    "replayed_instructions",
    "translated_instructions",
)


class _State:
    out_dir: Optional[str] = None
    recording = False
    codegen_base: Dict[str, int] = {}
    transform_base: Dict[int, Dict[str, int]] = {}


_STATE = _State()


def _stack() -> List[int]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def set_context(ctx: Optional[str]) -> None:
    """Tag this thread's next spans with a request or cell id."""
    _LOCAL.ctx = ctx


def set_recording(on: bool) -> None:
    """Spans are recorded only while on (the output check runs with it off)."""
    _STATE.recording = on


def _wrap(
    name: str,
    fn: Callable,
    note: Optional[Callable] = None,
    before: Optional[Callable] = None,
) -> Callable:
    """``fn`` recording a span per call.

    ``note(result, pre)`` returns the span's attributes, where ``pre`` is
    what ``before()`` returned just before the call.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _STATE.recording:
            return fn(*args, **kwargs)
        stack = _stack()
        sid = next(_IDS)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        attrs = None
        pre = before() if before is not None else None
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                attrs = note(result, pre)
            return result
        finally:
            end = time.monotonic()
            stack.pop()
            _SPANS.append(
                (
                    sid,
                    parent,
                    name,
                    threading.get_ident(),
                    start,
                    end,
                    getattr(_LOCAL, "ctx", None),
                    attrs,
                )
            )

    return wrapper


def _codegen_note(snapshot: Callable[[], Dict[str, int]]) -> Callable:
    """Codegen cache traffic of one ``compiled_program_for`` call."""

    def note(result, before):
        after = snapshot()
        return {k: after[k] - before[k] for k in after if after[k] != before[k]}

    return note


def _manifest_note(result, _):
    _, manifest = result
    return {
        "effective_jobs": manifest.effective_jobs,
        "n_items": manifest.n_items,
        "retries": manifest.retries,
        "worker_restarts": manifest.worker_restarts,
        "quarantined": len(manifest.quarantined),
        "store_corrupt": manifest.store_corrupt,
    }


def _run_note(result, _):
    return {"instructions": result.instructions, "status": result.status.value}


def install(out_dir: str) -> None:
    """Wrap every layer entry point and start recording into ``out_dir``."""
    import repro
    import repro.apps
    import repro.core.incremental as incremental
    import repro.core.pipeline as pipeline
    import repro.eval.api as api
    import repro.eval.experiment as experiment
    import repro.eval.parallel as parallel
    import repro.machine.compile as mcompile
    import repro.service.scheduler as scheduler
    from repro.eval.store import ResultStore
    from repro.eval.variants import CompiledVariant
    from repro.ir.module import Module
    from repro.service.client import ServiceClient

    _STATE.out_dir = out_dir
    for app, build in list(repro.apps.APP_BUILDERS.items()):
        repro.apps.APP_BUILDERS[app] = _wrap("apps.build", build)
    parallel.inject = _wrap("faultinject.inject", parallel.inject)
    Module.clone = _wrap("ir.clone", Module.clone)
    for mod in (incremental, pipeline):
        mod.verify_module = _wrap("ir.verify", mod.verify_module)
    incremental.verify_function = _wrap("ir.verify", incremental.verify_function)

    compiler_cls = incremental.IncrementalDpmrCompiler
    base_init = compiler_cls.__init__

    def registered_init(self, *args, **kwargs):
        base_init(self, *args, **kwargs)
        _COMPILERS.append(self)

    compiler_cls.__init__ = _wrap("core.base_transform", functools.wraps(base_init)(registered_init))
    compiler_cls.compile = _wrap("core.site_transform", compiler_cls.compile)

    mcompile.compiled_program_for = _wrap(
        "machine.codegen",
        mcompile.compiled_program_for,
        _codegen_note(mcompile.codegen_stats),
        mcompile.codegen_stats,
    )
    CompiledVariant.run = _wrap("machine.run", CompiledVariant.run, _run_note)
    experiment.run_process = _wrap("machine.golden", experiment.run_process)

    campaign = _wrap("eval.campaign", parallel.run_campaign_jobs_with_manifest, _manifest_note)
    for mod in (parallel, api, scheduler):
        mod.run_campaign_jobs_with_manifest = campaign
    repro.request_jobs = _wrap("eval.request_jobs", repro.request_jobs)
    repro.run = _wrap("eval.run", repro.run)

    ResultStore.get = _wrap("store.get", ResultStore.get, lambda r, _: {"hit": r is not None})
    ResultStore.get_many = _wrap(
        "store.get_many", ResultStore.get_many, lambda r, _: {"hits": len(r)}
    )
    ResultStore.put = _wrap("store.put", ResultStore.put)
    ServiceClient.submit_nowait = _wrap("service.submit", ServiceClient.submit_nowait)
    ServiceClient.collect = _wrap("service.collect", ServiceClient.collect)

    _STATE.codegen_base = mcompile.codegen_stats()
    multiprocessing.util.register_after_fork(_STATE, _after_fork)
    atexit.register(flush)
    _STATE.recording = True


def _transform_stats() -> Dict[int, Dict[str, int]]:
    return {
        id(c): {f: getattr(c.stats, f) for f in _TRANSFORM_FIELDS} for c in _COMPILERS
    }


def _after_fork(state: _State) -> None:
    """In a forked pool worker: start an empty span list of its own."""
    from repro.machine.compile import codegen_stats

    del _SPANS[:]
    _LOCAL.stack = []
    state.codegen_base = codegen_stats()
    state.transform_base = _transform_stats()
    multiprocessing.util.Finalize(state, flush, exitpriority=100)


def flush() -> None:
    """Write this process's spans and cache counters (idempotent per pid)."""
    if _STATE.out_dir is None:
        return
    from repro.machine.compile import codegen_stats

    now = codegen_stats()
    codegen = {k: now[k] - _STATE.codegen_base.get(k, 0) for k in now}
    transform = {f: 0 for f in _TRANSFORM_FIELDS}
    for cid, stats in _transform_stats().items():
        base = _STATE.transform_base.get(cid, {})
        for f in _TRANSFORM_FIELDS:
            transform[f] += stats[f] - base.get(f, 0)
    path = os.path.join(_STATE.out_dir, f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "pid": os.getpid(),
                "spans": _SPANS,
                "codegen": codegen,
                "transform": transform,
            },
            fh,
        )
