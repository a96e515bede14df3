"""Compiled execution tier: codegen caching and program binding.

:func:`compiled_program_for` turns a :class:`~repro.ir.module.Module` into
a :class:`CompiledProgram` — one specialized Python callable per internal
function (see :mod:`repro.machine.codegen`) sharing a single exec
namespace so direct calls are plain global lookups.

Code is generated and compiled on first use by a program that runs it;
nothing is compiled ahead of a run.  A function's code object resolves
through three layers, cheapest first:

1. the on-``Function`` memo (``_cg_cache``, keyed by a digest of the
   module context): ``Module.clone`` shares untouched functions by
   identity, so campaign clones skip even source generation;
2. the provenance-stamp cache: every function the incremental transform
   emits carries a ``_dpmr_stamp`` (set by ``IncrementalDpmrCompiler``)
   that content-addresses its transformed text, so a function rebuilt
   as new objects — after the build table evicted or dropped its build —
   finds its code without generating source;
3. full generation plus the content-addressed code cache, keyed
   ``(function name, sha256 of the generated source)`` with the same
   discipline as ``IncrementalDpmrCompiler``'s transform memo (which
   imports :func:`content_cache_key` from here).  The generated source
   embeds every context-dependent fold (global/function addresses, the
   callee table), so two variants whose transform produced the same
   function text share one code object.

Hook emission is *parametric* over the runtime spec (see
``codegen.emit_dpmr_call``), so the context digest folds only the spec's
presence: every specialized diversity variant shares one entry per
function in every cache, and the per-spec differences live in the program
namespace bindings (``_rmal`` / ``_rfree``).  The two process-wide maps
are LRUs with constant entry budgets; bound programs are memoized per
module (weakly) and per spec.

Fallback rules (the interpreter is always the reference engine):

* a function the generator rejects (or whose generation raises) gets no
  compiled body; callers reach it through a shim that re-enters
  ``Machine.call``, which interprets it;
* a machine whose memory geometry gives globals different addresses than
  the default layout refuses the compiled program entirely (checked by
  ``Machine.__init__`` against ``global_layout``).
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from ..ir.module import Function, Module
from ..ir.types import FloatType, IntType, VOID_PTR
from .codegen import ProgramContext, generate_function_source, sanitize
from .interpreter import (
    FUNC_ADDR_BASE,
    FUNC_ADDR_STRIDE,
    DpmrDetected,
    ExecutionTrap,
    Machine,
    Timeout,
    compute_global_layout,
    fdiv,
)
from .memory import _SCALAR_STRUCTS, _U64, DEFAULT_GLOBALS_SIZE, GLOBALS_BASE

import struct as _struct

_F32 = _struct.Struct("<f")


def runtime_spec_for(dpmr_runtime) -> Optional[Tuple]:
    """The codegen specialization spec for a machine's runtime, or None.

    None — the generic program, whose hooks go through ``call_intrinsic``
    — whenever there is no runtime or the runtime itself declines
    (stateful diversity policy).  The spec participates in the program
    context digest, so specialized and generic programs never share cache
    entries at any level of the codegen hierarchy.
    """
    if dpmr_runtime is None:
        return None
    spec_of = getattr(dpmr_runtime, "codegen_spec", None)
    if spec_of is None:
        return None
    return spec_of()


def content_cache_key(name: str, content_hash: str) -> Tuple[str, str]:
    """The shared cache key shape: ``(unit name, content digest)``.

    Used both by the codegen code cache below and by
    ``IncrementalDpmrCompiler``'s per-function transform memo, so every
    content-addressed cache in the pipeline keys the same way.
    """
    return (name, content_hash)


#: Codegen cache traffic of the current process.  "hits" counts code
#: objects served without compiling fresh source (the on-Function memo,
#: the stamp cache, or the content-addressed code cache); "misses" counts
#: fresh compiles, including generations that concluded "unsupported".
#: "stamp_hits" counts the hits the provenance-stamp cache served.
CODEGEN_STATS: Dict[str, int] = {"hits": 0, "misses": 0, "stamp_hits": 0}


def codegen_stats() -> Dict[str, int]:
    """A snapshot of :data:`CODEGEN_STATS` (safe to diff across calls)."""
    return dict(CODEGEN_STATS)


def reset_codegen_stats() -> None:
    for key in CODEGEN_STATS:
        CODEGEN_STATS[key] = 0


#: Entry budgets of the two process-wide maps below.  Each is an LRU that
#: evicts one least-recently-used entry per insert past its budget, like
#: the build table (``repro.eval.builds``).  A service-stream daemon
#: holds 82 code objects and 140 stamps, and observed-parallel runs the
#: interpreter, so neither workload evicts; an evicted entry is compiled
#: again on next use, byte-identically, so eviction only ever costs time.
CODE_CACHE_ENTRIES = 512
STAMP_CACHE_ENTRIES = 1024

#: content-addressed code objects: content_cache_key(...) → code object.
_CODE_CACHE: "OrderedDict[Tuple[str, str], object]" = OrderedDict()

#: provenance-stamp cache: (ctx_key, fn name, stamp) → code object (or
#: None for a function the generator rejected).  The incremental compiler
#: stamps every function it emits; a stamp content-addresses the
#: transformed function — (transform config, policy pre-state, source
#: fingerprint) — so a rebuilt function (new objects, same stamp) resolves
#: its code without generating source.  Because transformed text is
#: independent of the diversity policy and generated source is parametric
#: over the spec, one entry serves every diversity variant of a site.
_STAMP_CACHE: "OrderedDict[Tuple, Optional[object]]" = OrderedDict()

_MISS = object()


def _lru_get(cache: OrderedDict, key):
    """``cache[key]`` marked most recently used, or ``_MISS``."""
    value = cache.get(key, _MISS)
    if value is not _MISS:
        cache.move_to_end(key)
    return value


def _lru_put(cache: OrderedDict, key, value, budget: int) -> None:
    cache[key] = value
    if len(cache) > budget:
        cache.popitem(last=False)


def reset_codegen_caches() -> None:
    """Drop both process-wide codegen maps, the stamp cache and the
    content-addressed code cache, so the next program generates and
    compiles its code from cold (test isolation helper)."""
    _STAMP_CACHE.clear()
    _CODE_CACHE.clear()


def _bto(m, c, n, *costs) -> None:
    """Batch-timeout replay.  Generated code holds the activation's cycle
    and instruction counts in locals; it calls this with the counts ``c``
    and ``n`` before a batch whose total cost would cross ``max_cycles``.
    Replay the interpreter's per-instruction bookkeeping over ``costs``,
    write the crossing instruction's counts to the machine and raise
    Timeout.  The caller's exception handler sees a larger instruction
    count than its own and leaves these counts in place."""
    mx = m.max_cycles
    for cost in costs:
        n += 1
        c += cost
        if c > mx:
            m.cycles = c
            m.instructions_executed = n
            raise Timeout(f"exceeded {mx} cycles")
    raise AssertionError("batch flagged as crossing but no step crossed")


def _f32(r):
    """The interpreter's float32 round-trip (``_arith_result``)."""
    return _F32.unpack(_F32.pack(r))[0]


def _base_namespace() -> Dict[str, object]:
    ns: Dict[str, object] = {
        "ExecutionTrap": ExecutionTrap,
        "_bto": _bto,
        "_f32": _f32,
        "_fdiv": fdiv,
        "_PTR": VOID_PTR,
        "_DD": DpmrDetected,
    }
    # The same prebuilt Structs the memory system uses, pre-bound to their
    # unpack_from/pack_into methods ("b" covers int1 and int8; "<Q" is the
    # raw-pointer format).
    for (kind, bits), s in _SCALAR_STRUCTS.items():
        suffix = s.format.lstrip("<")
        ns[f"_up_{suffix}"] = s.unpack_from
        ns[f"_pk_{suffix}"] = s.pack_into
        ty = IntType(bits) if kind == "int" else FloatType(bits)
        ns[f"_T{'i' if kind == 'int' else 'f'}{bits}"] = ty
    ns["_up_Q"] = _U64.unpack_from
    ns["_pk_Q"] = _U64.pack_into
    return ns


BASE_NS = _base_namespace()


def _interp_shim(fn: Function) -> Callable:
    """Callable standing in for a function codegen could not lower: re-enter
    the machine, whose compiled dispatch misses and interprets it."""

    def shim(m, *args):
        return m.call(fn, list(args))

    return shim


def _spec_bindings(rt_spec: Tuple) -> Tuple[Callable, Callable]:
    """The ``(_rmal, _rfree)`` namespace bindings for a runtime spec.

    Generated source calls these as ``_rmal(m, count)`` / ``_rfree(m,
    address)``; the spec decides how much of the diversity dispatch is
    folded away.  The ``("method",)`` arm is the generic form — it routes
    through the machine's diversity object exactly as the
    ``call_intrinsic`` reference path does — so any unrecognized mode is
    still bit-identical, just unfolded."""
    _ver, malloc_mode, free_mode = rt_spec
    if malloc_mode[0] == "plain":
        rmal: Callable = Machine.heap_malloc
    elif malloc_mode[0] == "pad":
        pad = malloc_mode[1]

        def rmal(m, count, _pad=pad):
            return m.heap_malloc(count + _pad)

    else:

        def rmal(m, count):
            return m.dpmr_runtime.diversity.replica_malloc(m, count)

    if free_mode == "plain":
        rfree: Callable = Machine.heap_free
    else:

        def rfree(m, address):
            return m.dpmr_runtime.diversity.replica_free(m, address)

    return rmal, rfree


class CompiledProgram:
    """Everything a Machine needs to run a module on the compiled tier."""

    def __init__(self, module: Module, rt_spec: Optional[Tuple] = None):
        self.global_layout = compute_global_layout(
            module, GLOBALS_BASE, GLOBALS_BASE + DEFAULT_GLOBALS_SIZE
        )
        self.rt_spec = rt_spec
        func_addrs = {
            name: FUNC_ADDR_BASE + i * FUNC_ADDR_STRIDE
            for i, name in enumerate(module.functions)
        }
        fn_info: Dict[str, Tuple[str, int, bool]] = {}
        for i, (name, fn) in enumerate(module.functions.items()):
            fn_info[name] = (
                f"_f{i}_{sanitize(name)[:40]}",
                len(fn.params),
                fn.is_external,
            )
        ctx = ProgramContext(self.global_layout, func_addrs, fn_info, rt_spec)
        ctx_key = _context_digest(ctx)
        ns = dict(BASE_NS)
        if rt_spec is not None:
            ns["_rmal"], ns["_rfree"] = _spec_bindings(rt_spec)
        #: IR function name → compiled callable; misses interpret.
        self.functions: Dict[str, Callable] = {}
        for name, fn in module.functions.items():
            if fn.is_external:
                continue
            pyname = fn_info[name][0]
            code = _code_for(fn, ctx, ctx_key, pyname)
            if code is None:
                ns[pyname] = _interp_shim(fn)
                continue
            exec(code, ns)
            self.functions[name] = ns[pyname]
        #: the exec namespace every compiled function shares.
        self._ns = ns


def _context_digest(ctx: ProgramContext) -> str:
    h = hashlib.sha256()
    for name, info in ctx.fn_info.items():
        h.update(f"{name}\x00{info}\x00".encode())
    for name, addr in ctx.global_layout.items():
        h.update(f"{name}\x01{addr}\x00".encode())
    # Presence marker only: generated source is parametric over the
    # spec's contents, so all specialized variants share code caches.
    h.update(f"rt\x02{ctx.rt_spec is not None}".encode())
    return h.hexdigest()


def _code_from_source(name: str, src: str):
    """Code object for generated source through the content cache."""
    key = content_cache_key(name, hashlib.sha256(src.encode()).hexdigest())
    code = _lru_get(_CODE_CACHE, key)
    if code is _MISS:
        CODEGEN_STATS["misses"] += 1
        code = compile(src, f"<dpmr-codegen:{name}>", "exec")
        _lru_put(_CODE_CACHE, key, code, CODE_CACHE_ENTRIES)
    else:
        CODEGEN_STATS["hits"] += 1
    return code


def _code_for(fn: Function, ctx: ProgramContext, ctx_key: str, pyname: str):
    """Code object for ``fn`` (or None if uncompilable), through the cache
    hierarchy: the on-Function memo, then the provenance-stamp cache, then
    full generation plus the content-addressed code cache."""
    memo = getattr(fn, "_cg_cache", None)
    if memo is not None and memo[0] == ctx_key:
        CODEGEN_STATS["hits"] += 1
        return memo[1]
    stamp = getattr(fn, "_dpmr_stamp", None)
    skey = (ctx_key, fn.name, stamp) if stamp is not None else None
    code = _MISS if skey is None else _lru_get(_STAMP_CACHE, skey)
    if code is not _MISS:
        CODEGEN_STATS["hits"] += 1
        CODEGEN_STATS["stamp_hits"] += 1
    else:
        try:
            src = generate_function_source(fn, ctx, pyname)
        except Exception:
            # CodegenUnsupported, or anything layout/operand-shaped the
            # generator tripped over at fold time: interpret this function.
            CODEGEN_STATS["misses"] += 1
            code = None
        else:
            code = _code_from_source(fn.name, src)
        if skey is not None:
            _lru_put(_STAMP_CACHE, skey, code, STAMP_CACHE_ENTRIES)
    fn._cg_cache = (ctx_key, code)
    return code


#: module → {rt_spec: CompiledProgram}, weak on the module so campaign
#: clones are collectable (CompiledProgram must hold no strong module
#: reference).  The inner dict holds one program per specialization spec:
#: a transformed module is shared by every variant of its transform
#: configuration, so it holds one per diversity spec those variants bind.
_PROGRAMS: "weakref.WeakKeyDictionary[Module, Dict[Optional[Tuple], CompiledProgram]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_program_for(
    module: Module, rt_spec: Optional[Tuple] = None
) -> CompiledProgram:
    per_spec = _PROGRAMS.get(module)
    if per_spec is None:
        per_spec = {}
        _PROGRAMS[module] = per_spec
    program = per_spec.get(rt_spec)
    if program is None:
        program = CompiledProgram(module, rt_spec)
        per_spec[rt_spec] = program
    return program
