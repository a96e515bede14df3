"""Compiled execution tier: codegen caching and program binding.

:func:`compiled_program_for` turns a :class:`~repro.ir.module.Module` into
a :class:`CompiledProgram` — one specialized Python callable per internal
function (see :mod:`repro.machine.codegen`) sharing a single exec
namespace so direct calls are plain global lookups.

Caching is content-addressed with the same key discipline as
``IncrementalDpmrCompiler`` (which imports :func:`content_cache_key` from
here): a code object is cached under ``(function name, sha256 of the
generated source)``.  The generated source embeds every context-dependent
fold (global/function addresses, the callee table), so the key subsumes
the variant fingerprint — two variants whose transform produced the same
function text share one code object, and a warm campaign compiles each
faulty function exactly once.  Hook emission is *parametric* over the
runtime spec (see ``codegen.emit_dpmr_call``), so the context digest
folds only the spec's presence: every specialized diversity variant
shares one entry per function in every code-level cache, and the
per-spec differences live in the program namespace bindings (``_rmal`` /
``_rfree``).  A second, cheaper level memoizes the code object directly
on the ``Function`` (keyed by a digest of the module context):
``Module.clone`` shares untouched functions by identity, so campaign
clones skip even source generation.  Two further levels close the loop
with the incremental *transform*: every function it emits carries a
provenance stamp (``_dpmr_stamp``, set by ``IncrementalDpmrCompiler``)
that content-addresses its generated code without any structural delta
planning, and whole :class:`CompiledProgram` objects are reused when
every member function resolved to the identical code object.

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
from typing import Callable, Dict, Optional, Tuple

from ..ir.module import Function, Module
from ..ir.types import FloatType, IntType, VOID_PTR
from .codegen import (
    CODEGEN_VERSION,
    CodegenUnsupported,
    GeneratedFunction,
    ProgramContext,
    complete_function_delta,
    generate_function,
    plan_function_delta,
    sanitize,
)
from .interpreter import (
    FUNC_ADDR_BASE,
    FUNC_ADDR_STRIDE,
    DpmrDetected,
    ExecutionTrap,
    Machine,
    Timeout,
    compute_global_layout,
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


#: Codegen cache behaviour for the current process.  "hits" counts code
#: objects served without compiling fresh source (on-Function memo, delta
#: cache, stamp cache, or the content-addressed code cache after a delta
#: reassembly); "misses" counts freshly compiled generations (including
#: generations that concluded "unsupported").  The remaining keys break
#: hits down: "delta_hits" were served from the per-site delta cache, and
#: "delta_builds" counts delta *assemblies* (partial regenerations —
#: cheaper than a full generation whichever way the resulting source then
#: resolves).  "stamp_hits" counts hits served purely by a transform
#: provenance stamp (no structural planning at all), and "program_hits"
#: counts whole CompiledProgram reuses (no per-function work whatsoever).
CODEGEN_STATS: Dict[str, int] = {
    "hits": 0,
    "misses": 0,
    "delta_hits": 0,
    "delta_builds": 0,
    "stamp_hits": 0,
    "program_hits": 0,
}


def codegen_stats() -> Dict[str, int]:
    """A snapshot of :data:`CODEGEN_STATS` (safe to diff across calls)."""
    return dict(CODEGEN_STATS)


def reset_codegen_stats() -> None:
    for key in CODEGEN_STATS:
        CODEGEN_STATS[key] = 0


#: content-addressed code objects: content_cache_key(...) → code object.
_CODE_CACHE: Dict[Tuple[str, str], object] = {}

#: (ctx_key, fn name) → the first full generation seen: the delta base.
#: The campaign executor warms this with each transformed-*pristine* module
#: it uses, so every per-site generation deltas against pristine
#: and re-emits only the chains the fault transform touched.
_BASE_INFO: Dict[Tuple[str, str], GeneratedFunction] = {}
_BASE_INFO_MAX = 512

#: per-site delta cache: key digest (see :func:`_delta_key`) → code object.
#: A repeat of the same (pristine, site-delta) pair — diversity variants
#: sharing transformed text, campaign clones, resumed reps — skips even
#: the partial re-emission.
_DELTA_CACHE: Dict[str, object] = {}
_DELTA_CACHE_MAX = 4096

#: provenance-stamp cache: (ctx_key, fn name, stamp) → code object (or
#: None for a function the generator rejected).  The incremental compiler
#: stamps every function it emits; a stamp content-addresses the
#: transformed function — (transform config, policy pre-state, source
#: fingerprint) — so a stamped function's code resolves with two dict
#: probes and no structural delta planning.  Because transformed text is
#: independent of the diversity policy and generated source is parametric
#: over the spec, one entry serves every diversity variant of a site.
_STAMP_CACHE: Dict[Tuple, Optional[object]] = {}
_STAMP_CACHE_MAX = 16384

#: whole-program reuse: (ctx_key, spec repr, per-function code identity)
#: → CompiledProgram.  Code identity pins the exact behaviour of every
#: member function, so a campaign re-running a (site, variant) pair —
#: repeated reps, resumed campaigns — skips namespace assembly and exec
#: entirely.  Entries hold their code objects strongly (via the compiled
#: function objects), keeping the id()-based identity tokens stable.
_PROGRAM_CACHE: Dict[Tuple, "CompiledProgram"] = {}
_PROGRAM_CACHE_MAX = 2048

def reset_codegen_caches(code_cache: bool = False) -> None:
    """Drop delta bases, the delta/stamp caches, and program reuse (test
    isolation helper).

    The content-addressed code cache survives by default: it is keyed
    purely by generated source, so stale entries are impossible.  Pass
    ``code_cache=True`` to drop it too — benchmarks use this to compare
    truly cold configurations fairly."""
    _BASE_INFO.clear()
    _DELTA_CACHE.clear()
    _STAMP_CACHE.clear()
    _PROGRAM_CACHE.clear()
    if code_cache:
        _CODE_CACHE.clear()


def _delta_key(ctx_key: str, name: str, base_sha: str, delta_fp: str) -> str:
    payload = f"{CODEGEN_VERSION}\x00{ctx_key}\x00{name}\x00{base_sha}\x00{delta_fp}"
    return hashlib.sha256(payload.encode()).hexdigest()


def _bto(m, costs) -> None:
    """Batch-timeout replay: the batch accounting proved this batch crosses
    ``max_cycles``, so re-run the interpreter's exact per-instruction
    bookkeeping until the crossing instruction raises.  Always raises."""
    c = m.cycles
    mx = m.max_cycles
    for cost in costs:
        m.instructions_executed += 1
        c += cost
        m.cycles = c
        if c > mx:
            raise Timeout(f"exceeded {mx} cycles")
    raise AssertionError("batch flagged as crossing but no step crossed")


def _f32(r):
    """The interpreter's float32 round-trip (``_arith_result``)."""
    return _F32.unpack(_F32.pack(r))[0]


def _fdiv(a, b):
    """Bit-exact twin of the interpreter's ``_bh_fdiv`` core."""
    if b == 0.0:
        return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
    return a / b


def _base_namespace() -> Dict[str, object]:
    ns: Dict[str, object] = {
        "ExecutionTrap": ExecutionTrap,
        "_bto": _bto,
        "_f32": _f32,
        "_fdiv": _fdiv,
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
        global_layout, fn_info, ctx, ctx_key = _program_parts(module, rt_spec)
        codes = [
            (name, fn, _code_for(fn, ctx, ctx_key, fn_info[name][0]))
            for name, fn in module.functions.items()
            if not fn.is_external
        ]
        self._bind(global_layout, fn_info, rt_spec, codes)

    @classmethod
    def _from_parts(cls, global_layout, fn_info, rt_spec, codes):
        program = cls.__new__(cls)
        program._bind(global_layout, fn_info, rt_spec, codes)
        return program

    def _bind(self, global_layout, fn_info, rt_spec, codes) -> None:
        self.global_layout = global_layout
        self.rt_spec = rt_spec
        ns = dict(BASE_NS)
        if rt_spec is not None:
            ns["_rmal"], ns["_rfree"] = _spec_bindings(rt_spec)
        #: IR function name → compiled callable; misses interpret.
        self.functions: Dict[str, Callable] = {}
        for name, fn, code in codes:
            pyname = fn_info[name][0]
            if code is None:
                ns[pyname] = _interp_shim(fn)
                continue
            exec(code, ns)
            self.functions[name] = ns[pyname]
        # Keep the namespace alive: it pins every code object and interp
        # shim this program was keyed on, so the id()-based tokens in
        # _PROGRAM_CACHE stay unambiguous for the program's lifetime.
        self._ns = ns

    @staticmethod
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


def _program_parts(
    module: Module, rt_spec: Optional[Tuple]
) -> Tuple[Dict[str, int], Dict[str, Tuple[str, int, bool]], ProgramContext, str]:
    """Layout, function table, context, and context digest for a module."""
    global_layout = compute_global_layout(
        module, GLOBALS_BASE, GLOBALS_BASE + DEFAULT_GLOBALS_SIZE
    )
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
    ctx = ProgramContext(global_layout, func_addrs, fn_info, rt_spec)
    return global_layout, fn_info, ctx, CompiledProgram._context_digest(ctx)


_DELTA_MISS = object()  # sentinel: delta path could not produce code


def _code_from_source(name: str, src: str, src_sha: Optional[str] = None):
    """Code object for generated source through the content cache."""
    if src_sha is None:
        src_sha = hashlib.sha256(src.encode()).hexdigest()
    key = content_cache_key(name, src_sha)
    code = _CODE_CACHE.get(key)
    if code is None:
        CODEGEN_STATS["misses"] += 1
        code = compile(src, f"<dpmr-codegen:{name}>", "exec")
        _CODE_CACHE[key] = code
    else:
        CODEGEN_STATS["hits"] += 1
    return code


def _register_base(ctx_key: str, name: str, gen: GeneratedFunction) -> None:
    if len(_BASE_INFO) >= _BASE_INFO_MAX:
        _BASE_INFO.clear()
    _BASE_INFO.setdefault((ctx_key, name), gen)


def _delta_code_for(fn: Function, ctx, ctx_key: str, pyname: str, base):
    """Serve ``fn`` through the delta pipeline, or ``_DELTA_MISS``.

    Order of escalation, cheapest first: structural comparison against the
    base (no string work for unchanged chains) → per-site delta cache →
    partial re-emission of only the changed chains, spliced into the base
    frame."""
    plan = plan_function_delta(fn, ctx, pyname, base)
    if plan is None:
        return _DELTA_MISS
    key_hash = _delta_key(ctx_key, fn.name, base.src_sha, plan.delta_fp)
    code = _DELTA_CACHE.get(key_hash)
    if code is not None:
        CODEGEN_STATS["hits"] += 1
        CODEGEN_STATS["delta_hits"] += 1
        return code
    gen = complete_function_delta(plan, base)
    CODEGEN_STATS["delta_builds"] += 1
    code = _code_from_source(fn.name, gen.source, gen.src_sha)
    if len(_DELTA_CACHE) >= _DELTA_CACHE_MAX:
        _DELTA_CACHE.clear()
    _DELTA_CACHE[key_hash] = code
    return code


def _stamp_store(skey: Tuple, code) -> None:
    if len(_STAMP_CACHE) >= _STAMP_CACHE_MAX:
        _STAMP_CACHE.clear()
    _STAMP_CACHE[skey] = code


def _code_for(fn: Function, ctx: ProgramContext, ctx_key: str, pyname: str):
    """Code object for ``fn`` (or None if uncompilable), through the cache
    hierarchy: the on-Function memo, then the provenance-stamp cache, then
    the delta pipeline against the registered pristine base, then full
    generation plus the content-addressed code cache."""
    memo = getattr(fn, "_cg_cache", None)
    if memo is not None and memo[0] == ctx_key:
        CODEGEN_STATS["hits"] += 1
        return memo[1]
    stamp = getattr(fn, "_dpmr_stamp", None)
    skey = (ctx_key, fn.name, stamp) if stamp is not None else None
    if skey is not None and skey in _STAMP_CACHE:
        code = _STAMP_CACHE[skey]
        CODEGEN_STATS["hits"] += 1
        CODEGEN_STATS["stamp_hits"] += 1
        fn._cg_cache = (ctx_key, code)
        return code
    base = _BASE_INFO.get((ctx_key, fn.name))
    if base is not None:
        try:
            code = _delta_code_for(fn, ctx, ctx_key, pyname, base)
        except Exception:
            # A changed chain the generator rejects fails the full path
            # identically below; anything else falls back conservatively.
            code = _DELTA_MISS
        if code is not _DELTA_MISS:
            fn._cg_cache = (ctx_key, code)
            if skey is not None:
                _stamp_store(skey, code)
            return code
    try:
        gen = generate_function(fn, ctx, pyname)
    except Exception:
        # CodegenUnsupported, or anything layout/operand-shaped the
        # generator tripped over at fold time: interpret this function.
        CODEGEN_STATS["misses"] += 1
        fn._cg_cache = (ctx_key, None)
        if skey is not None:
            _stamp_store(skey, None)
        return None
    _register_base(ctx_key, fn.name, gen)
    code = _code_from_source(fn.name, gen.source, gen.src_sha)
    fn._cg_cache = (ctx_key, code)
    if skey is not None:
        _stamp_store(skey, code)
    return code


#: module → {rt_spec: CompiledProgram}, weak on the module so campaign
#: clones are collectable (CompiledProgram must hold no strong module
#: reference).  The inner dict holds one program per specialization spec:
#: a transformed module is shared by every variant of its transform
#: configuration, so it holds one per diversity spec those variants bind.
_PROGRAMS: "weakref.WeakKeyDictionary[Module, Dict[Optional[Tuple], CompiledProgram]]" = (
    weakref.WeakKeyDictionary()
)


def _program_for(module: Module, rt_spec: Optional[Tuple]) -> CompiledProgram:
    """Build (or reuse) the program for ``module`` through the content-
    keyed program cache: if every member function resolves to the exact
    code object (or interp-shimmed Function) of a cached program under the
    same context and spec, that program is behaviourally identical and is
    returned without namespace assembly.  The id() tokens are unambiguous
    because each cached program strongly pins its code objects and shim
    targets (see ``CompiledProgram._bind``)."""
    global_layout, fn_info, ctx, ctx_key = _program_parts(module, rt_spec)
    codes = []
    tokens = []
    for name, fn in module.functions.items():
        if fn.is_external:
            continue
        code = _code_for(fn, ctx, ctx_key, fn_info[name][0])
        codes.append((name, fn, code))
        tokens.append(id(code) if code is not None else ("shim", id(fn)))
    pkey = (ctx_key, repr(rt_spec), tuple(tokens))
    program = _PROGRAM_CACHE.get(pkey)
    if program is not None:
        CODEGEN_STATS["program_hits"] += 1
        return program
    program = CompiledProgram._from_parts(global_layout, fn_info, rt_spec, codes)
    if len(_PROGRAM_CACHE) >= _PROGRAM_CACHE_MAX:
        _PROGRAM_CACHE.clear()
    _PROGRAM_CACHE[pkey] = program
    return program


def compiled_program_for(
    module: Module, rt_spec: Optional[Tuple] = None
) -> CompiledProgram:
    per_spec = _PROGRAMS.get(module)
    if per_spec is None:
        per_spec = {}
        _PROGRAMS[module] = per_spec
    program = per_spec.get(rt_spec)
    if program is None:
        program = _program_for(module, rt_spec)
        per_spec[rt_spec] = program
    return program
