"""IR interpreter with a deterministic cycle cost model.

The interpreter executes one :class:`~repro.ir.module.Module` against the
simulated memory/heap.  Everything the paper measures maps onto machine
state:

* *overhead* — the ``cycles`` counter (every instruction and allocator
  operation charges simulated cycles);
* *natural detection by crash* — :class:`ExecutionTrap` (memory faults,
  allocator aborts, wild function pointers, division by zero);
* *DPMR detection* — the ``dpmr_detect`` intrinsic raising
  :class:`DpmrDetected`;
* *successful fault injection* (§3.6) — first execution of an instruction
  whose ``fault_site`` is set is recorded with its cycle stamp.
"""

from __future__ import annotations

import operator
import random
import struct
from typing import Callable, Dict, List, Optional, Sequence

from ..ir import instructions as ins
from ..ir.module import Function, GlobalVariable, Module
from ..ir.types import (
    ArrayType,
    FloatType,
    IntType,
    PointerType,
    StructType,
    Type,
    UnionType,
    VoidType,
    alignof,
    field_offset,
    sizeof,
)
from ..ir.values import (
    ConstFloat,
    ConstInt,
    ConstNull,
    FunctionRef,
    GlobalRef,
    Register,
    wrap_int,
)
from .heap import HeapAllocator, HeapError, OutOfMemory
from .memory import Memory, MemoryTrap

FUNC_ADDR_BASE = 0xF000_0000_0000
FUNC_ADDR_STRIDE = 16

DEFAULT_MAX_CYCLES = 200_000_000


class ExecutionTrap(Exception):
    """Abnormal termination equivalent to a signal exit (a crash)."""

    def __init__(self, kind: str, message: str = ""):
        self.kind = kind
        super().__init__(f"{kind}: {message}" if message else kind)


class Timeout(Exception):
    """Cycle budget exhausted (the paper's ~20x-normal-runtime timeout)."""


class DpmrDetected(Exception):
    """A DPMR state comparison failed: a memory error was detected."""

    def __init__(self, code: int = 0, where: str = ""):
        self.code = code
        self.where = where
        super().__init__(f"DPMR detection (code={code}) {where}".rstrip())


class AppError(Exception):
    """Application-level error detection (error output / error exit)."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"application detected error (code={code})")


class ProgramExit(Exception):
    """Explicit ``exit(code)``."""

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"exit({code})")


def compute_global_layout(module: Module, base: int, end: int) -> Dict[str, int]:
    """Address assignment for a module's globals in ``[base, end)``.

    Factored out of the machine so the compiled tier can fold the exact
    addresses the machine will assign (and the machine can cross-check a
    compiled program against its actual memory geometry at bind time).
    """
    layout: Dict[str, int] = {}
    cursor = base
    for g in module.globals.values():
        a = max(alignof(g.value_type), 8)
        cursor = (cursor + a - 1) // a * a
        size = sizeof(g.value_type)
        if cursor + size > end:
            raise ExecutionTrap("globals-overflow", g.name)
        layout[g.name] = cursor
        cursor += size
    return layout


#: Per-instruction cycle costs.
COSTS = {
    ins.Alloca: 2,
    ins.Load: 2,
    ins.Store: 2,
    ins.FieldAddr: 1,
    ins.ElemAddr: 1,
    ins.PtrCast: 1,
    ins.PtrToInt: 1,
    ins.IntToPtr: 1,
    ins.BinOp: 1,
    ins.Cmp: 1,
    ins.NumCast: 1,
    ins.Call: 4,
    ins.FuncAddr: 1,
    ins.Jump: 1,
    ins.Branch: 1,
    ins.Ret: 2,
    ins.Unreachable: 0,
    ins.Malloc: 0,  # charged by the allocator
    ins.Free: 0,  # charged by the allocator
}

_EXPENSIVE_BINOPS = {"mul": 3, "sdiv": 12, "srem": 12, "fmul": 4, "fdiv": 12}

IntrinsicFn = Callable[["Machine", List], object]


class Machine:
    """Executes a module; one Machine per process run."""

    def __init__(
        self,
        module: Module,
        memory: Optional[Memory] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        seed: int = 0,
        dpmr_runtime=None,
        tracer=None,
        counters: bool = False,
        compiled: bool = False,
    ):
        self.module = module
        self.memory = memory if memory is not None else Memory()
        self.heap = HeapAllocator(self.memory)
        self.max_cycles = max_cycles
        self.cycles = 0
        self.instructions_executed = 0
        self.rng = random.Random(seed)
        self.output: List[str] = []
        self.fault_activations: Dict[str, int] = {}
        self.dpmr_runtime = dpmr_runtime
        self.intrinsics: Dict[str, IntrinsicFn] = {}
        self.stack_top = self.memory.stack.base
        # Observability (repro.obs): both default off.  Instrumentation is
        # selected ONCE here — the disabled path binds the original
        # _exec_function and pays nothing per instruction.
        from ..obs.tracer import real_tracer

        self.tracer = real_tracer(tracer)
        self.counters: Optional[Dict[str, int]] = {} if (counters or self.tracer) else None
        self._exec = (
            self._exec_function_instrumented
            if (self.tracer is not None or self.counters is not None)
            else self._exec_function
        )
        # Per-block decoded dispatch tables (id(block) → (steps, terminator)),
        # built lazily on first entry; see _decode_block.
        self._decoded_blocks: Dict[int, tuple] = {}
        self._globals: Dict[str, int] = {}
        self._func_addrs: Dict[str, int] = {}
        self._addr_funcs: Dict[int, str] = {}
        self._assign_function_addresses()
        self._layout_globals()
        from .intrinsics import register_default_intrinsics

        register_default_intrinsics(self)
        if dpmr_runtime is not None:
            dpmr_runtime.attach(self)
        # Compiled tier (repro.machine.compile): opt-in, and only when no
        # observability is requested — tracing/counters keep the
        # instrumented interpreter so observation semantics are untouched.
        # The interpreter above remains the reference engine.
        if compiled and self.tracer is None and self.counters is None:
            from .compile import compiled_program_for, runtime_spec_for

            try:
                program = compiled_program_for(
                    module, runtime_spec_for(dpmr_runtime)
                )
            except Exception:
                program = None  # uncompilable module: interpret everything
            if program is not None and program.global_layout == self._globals:
                self._compiled_fns = program.functions
                self._exec = self._exec_function_compiled

    # -- setup -------------------------------------------------------------

    def _assign_function_addresses(self) -> None:
        for i, name in enumerate(self.module.functions):
            addr = FUNC_ADDR_BASE + i * FUNC_ADDR_STRIDE
            self._func_addrs[name] = addr
            self._addr_funcs[addr] = name

    def _layout_globals(self) -> None:
        self._globals = compute_global_layout(
            self.module, self.memory.globals.base, self.memory.globals.end
        )
        for g in self.module.globals.values():
            self._init_global(g)

    def _init_global(self, g: GlobalVariable) -> None:
        self._write_initializer(self._globals[g.name], g.value_type, g.initializer)

    def _write_initializer(self, addr: int, ty: Type, init) -> None:
        if init is None:
            return  # memory is zero-initialized in the globals segment
        if isinstance(ty, (IntType, FloatType)):
            self.memory.write_scalar(addr, ty, init)
        elif isinstance(ty, PointerType):
            self.memory.write_scalar(addr, ty, self._resolve_pointer_init(init))
        elif isinstance(ty, ArrayType):
            if isinstance(init, (bytes, bytearray)):
                self.memory.write_bytes(addr, bytes(init))
            else:
                esz = sizeof(ty.element)
                for i, item in enumerate(init):
                    self._write_initializer(addr + i * esz, ty.element, item)
        elif isinstance(ty, StructType):
            for i, item in enumerate(init):
                off = field_offset(ty, i)
                self._write_initializer(addr + off, ty.fields[i], item)
        elif isinstance(ty, UnionType):
            self._write_initializer(addr, ty.members[0], init)
        else:
            raise TypeError(f"cannot initialize global of type {ty}")

    def _resolve_pointer_init(self, init) -> int:
        if init == 0 or init is None:
            return 0
        if isinstance(init, GlobalRef):
            return self._globals[init.name]
        if isinstance(init, FunctionRef):
            return self._func_addrs[init.name]
        if isinstance(init, int):
            return init
        raise TypeError(f"bad pointer initializer {init!r}")

    # -- public helpers -----------------------------------------------------

    def global_address(self, name: str) -> int:
        return self._globals[name]

    def function_address(self, name: str) -> int:
        return self._func_addrs[name]

    def register_intrinsic(self, name: str, fn: IntrinsicFn) -> None:
        self.intrinsics[name] = fn

    def charge(self, cycles: int) -> None:
        self.cycles += cycles
        if self.cycles > self.max_cycles:
            raise Timeout(f"exceeded {self.max_cycles} cycles")

    def heap_malloc(self, size: int) -> int:
        try:
            addr = self.heap.malloc(size)
        except OutOfMemory as exc:
            raise ExecutionTrap("out-of-memory", str(exc)) from exc
        except HeapError as exc:
            raise ExecutionTrap("heap-abort", str(exc)) from exc
        self.charge(self.heap.last_cost)
        if self.counters is not None:
            self._observe_heap("malloc", addr, self.heap.last_payload)
        return addr

    def heap_free(self, addr: int) -> None:
        try:
            self.heap.free(addr)
        except HeapError as exc:
            raise ExecutionTrap("heap-abort", str(exc)) from exc
        self.charge(self.heap.last_cost)
        if self.counters is not None:
            self._observe_heap("free", addr, self.heap.last_payload)

    def _observe_heap(self, op: str, addr: int, size: int) -> None:
        """Heap-churn counters + optional trace event (observability on)."""
        from ..obs import counters as oc

        c = self.counters
        if op == "malloc":
            oc.bump(c, oc.HEAP_ALLOC)
            oc.bump(c, oc.HEAP_ALLOC_BYTES, size)
        else:
            oc.bump(c, oc.HEAP_FREE)
            oc.bump(c, oc.HEAP_FREE_BYTES, size)
        tr = self.tracer
        if tr is not None and tr.wants("heap"):
            tr.heap_event(op, addr, size, self.cycles)

    def stack_alloc(self, size: int) -> int:
        a = (self.stack_top + 7) // 8 * 8
        if a + size > self.memory.stack.end:
            raise ExecutionTrap("stack-overflow", f"{size} bytes")
        self.stack_top = a + size
        return a

    # -- execution ----------------------------------------------------------

    def run(self, entry: str = "main", args: Sequence = ()):
        """Run ``entry``; returns its return value (exceptions propagate)."""
        fn = self.module.functions.get(entry)
        if fn is None:
            raise ExecutionTrap("no-entry", entry)
        return self.call(fn, list(args))

    def call(self, fn: Function, args: List):
        if fn.is_external:
            return self.call_intrinsic(fn.name, args)
        if len(args) != len(fn.params):
            raise ExecutionTrap(
                "bad-call", f"{fn.name} expects {len(fn.params)} args, got {len(args)}"
            )
        saved_stack = self.stack_top
        regs: Dict[str, object] = {
            p.name: a for p, a in zip(fn.params, args)
        }
        try:
            return self._exec(fn, regs)
        finally:
            self.stack_top = saved_stack

    def call_intrinsic(self, name: str, args: List):
        fn = self.intrinsics.get(name)
        if fn is None:
            raise ExecutionTrap("unresolved-external", name)
        return fn(self, args)

    def call_by_address(self, addr: int, args: List):
        name = self._addr_funcs.get(addr)
        if name is None:
            raise ExecutionTrap("wild-function-pointer", f"{addr:#x}")
        return self.call(self.module.functions[name], args)

    def _exec_function(self, fn: Function, regs: Dict[str, object]):
        """Fast-path executor: per-opcode handlers from a pre-decoded table.

        Each basic block is decoded once per machine into a list of
        ``(handler, instruction, cost, fault_site)`` steps plus a resolved
        terminator (see :func:`_decode_block`); the execution loop then
        performs one dict hit and straight-line bookkeeping per instruction
        instead of an isinstance chain.
        """
        decoded = self._decoded_blocks
        max_cycles = self.max_cycles
        activations = self.fault_activations
        block = fn.entry
        while True:
            dec = decoded.get(id(block))
            if dec is None:
                dec = decoded[id(block)] = _decode_block(fn, block)
            steps, term = dec
            for handler, inst, cost, fault in steps:
                self.instructions_executed += 1
                c = self.cycles + cost
                self.cycles = c
                if c > max_cycles:
                    raise Timeout(f"exceeded {max_cycles} cycles")
                if fault is not None and fault not in activations:
                    activations[fault] = c
                handler(self, inst, regs)
            if term is None:
                raise ExecutionTrap("fell-off-block", f"{fn.name}/{block.label}")
            tkind, inst, cost, fault, then_block, else_block = term
            self.instructions_executed += 1
            c = self.cycles + cost
            self.cycles = c
            if c > max_cycles:
                raise Timeout(f"exceeded {max_cycles} cycles")
            if fault is not None and fault not in activations:
                activations[fault] = c
            if tkind == _T_BRANCH:
                cond = self._value(inst.cond, regs)
                block = then_block if cond else else_block
                if block is None:
                    raise KeyError(inst.then_target if cond else inst.else_target)
            elif tkind == _T_JUMP:
                block = then_block
                if block is None:
                    raise KeyError(inst.target)
            elif tkind == _T_RET:
                return self._value(inst.value, regs) if inst.value is not None else None
            else:
                raise ExecutionTrap("unreachable", f"in {fn.name}")

    def _exec_function_compiled(self, fn: Function, regs: Dict[str, object]):
        """Compiled-tier dispatch: hand off to the generated specialized
        function, or interpret this one function if codegen declined it
        (its callees still dispatch back through here)."""
        f = self._compiled_fns.get(fn.name)
        if f is None:
            return self._exec_function(fn, regs)
        params = fn.params
        if params:
            return f(self, *[regs[p.name] for p in params])
        return f(self)

    def _exec_function_instrumented(self, fn: Function, regs: Dict[str, object]):
        """Observability twin of :meth:`_exec_function`.

        Selected at construction when a tracer or counters are requested;
        identical control flow, cycle accounting, and trap behaviour — plus
        per-opcode-class counters and trace events.  Kept as a separate loop
        so the disabled path (the method above) stays byte-for-byte the
        pre-observability fast path.
        """
        decoded = self._decoded_blocks
        max_cycles = self.max_cycles
        activations = self.fault_activations
        counters = self.counters
        tracer = self.tracer
        block = fn.entry
        while True:
            dec = decoded.get(id(block))
            if dec is None:
                dec = decoded[id(block)] = _decode_block_instrumented(fn, block, self)
            steps, term, agg = dec
            for handler, inst, cost, fault in steps:
                self.instructions_executed += 1
                c = self.cycles + cost
                self.cycles = c
                if c > max_cycles:
                    raise Timeout(f"exceeded {max_cycles} cycles")
                if fault is not None and fault not in activations:
                    activations[fault] = c
                    if tracer is not None and tracer.wants("fault"):
                        tracer.fault_activation(fault, c)
                handler(self, inst, regs)
            # Opcode-class counts pre-aggregated at decode time: one bump
            # per (block, class) instead of per instruction.  A block cut
            # short by a trap/timeout contributes nothing — counters are
            # diagnostics, deliberately excluded from record signatures.
            for key, n in agg:
                counters[key] = counters.get(key, 0) + n
            if term is None:
                raise ExecutionTrap("fell-off-block", f"{fn.name}/{block.label}")
            tkind, inst, cost, fault, then_block, else_block = term
            self.instructions_executed += 1
            c = self.cycles + cost
            self.cycles = c
            if c > max_cycles:
                raise Timeout(f"exceeded {max_cycles} cycles")
            if fault is not None and fault not in activations:
                activations[fault] = c
                if tracer is not None and tracer.wants("fault"):
                    tracer.fault_activation(fault, c)
            if counters is not None:
                key = _TERMINATOR_KEYS[tkind]
                counters[key] = counters.get(key, 0) + 1
            if tkind == _T_BRANCH:
                cond = self._value(inst.cond, regs)
                block = then_block if cond else else_block
                if block is None:
                    raise KeyError(inst.then_target if cond else inst.else_target)
            elif tkind == _T_JUMP:
                block = then_block
                if block is None:
                    raise KeyError(inst.target)
            elif tkind == _T_RET:
                return self._value(inst.value, regs) if inst.value is not None else None
            else:
                raise ExecutionTrap("unreachable", f"in {fn.name}")

    # -- operand & op evaluation ---------------------------------------------

    def _value(self, v, regs):
        kind = type(v)
        if kind is Register:
            try:
                return regs[v.name]
            except KeyError:
                raise ExecutionTrap("undefined-register", v.name) from None
        if kind is ConstInt:
            return v.value
        if kind is ConstFloat:
            return v.value
        if kind is ConstNull:
            return 0
        if kind is GlobalRef:
            return self._globals[v.name]
        if kind is FunctionRef:
            return self._func_addrs[v.name]
        raise ExecutionTrap("bad-operand", repr(v))

    def _do_call(self, i: ins.Call, regs) -> None:
        args = [self._value(a, regs) for a in i.args]
        if i.is_direct:
            fn = self.module.functions.get(i.callee)
            if fn is None:
                raise ExecutionTrap("unresolved-call", str(i.callee))
            result = self.call(fn, args)
        else:
            addr = self._value(i.callee, regs)
            result = self.call_by_address(addr, args)
        if i.result is not None:
            regs[i.result.name] = result if result is not None else 0


# -- fast-path dispatch -------------------------------------------------------
#
# Each non-terminator opcode gets a module-level handler ``h(machine, inst,
# regs)``; _decode_block resolves handlers, per-instruction cycle costs,
# fault-site ids, and branch targets once per (machine, block), so the inner
# execution loop is a flat iteration over prebound tuples.

_T_BRANCH, _T_JUMP, _T_RET, _T_UNREACHABLE = 0, 1, 2, 3

_F32 = struct.Struct("<f")
_U64_MASK = (1 << 64) - 1


def _arith_result(ty: Type, r):
    if type(ty) is IntType:
        return wrap_int(int(r), ty.bits if ty.bits > 8 else 8)
    if type(ty) is FloatType and ty.bits == 32:
        return _F32.unpack(_F32.pack(r))[0]
    return r


def _make_binop(op_fn):
    def handler(m: "Machine", i: ins.BinOp, regs) -> None:
        r = op_fn(m._value(i.lhs, regs), m._value(i.rhs, regs))
        regs[i.result.name] = _arith_result(i.result.type, r)

    return handler


def _bh_sdiv(m: "Machine", i: ins.BinOp, regs) -> None:
    a = m._value(i.lhs, regs)
    b = m._value(i.rhs, regs)
    if b == 0:
        raise ExecutionTrap("divide-by-zero")
    r = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        r = -r
    regs[i.result.name] = _arith_result(i.result.type, r)


def _bh_srem(m: "Machine", i: ins.BinOp, regs) -> None:
    a = m._value(i.lhs, regs)
    b = m._value(i.rhs, regs)
    if b == 0:
        raise ExecutionTrap("divide-by-zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    regs[i.result.name] = _arith_result(i.result.type, a - q * b)


def fdiv(a, b):
    """Float division with the IEEE results for a zero divisor."""
    if b == 0.0:
        return float("inf") if a > 0 else float("-inf") if a < 0 else float("nan")
    return a / b


#: The operators of the trap-free binary ops and of the comparisons.  The
#: compiled tier folds constant operands through these same functions and
#: :func:`_arith_result`, so a folded literal is what the interpreter
#: computes.
BINOP_FNS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": lambda a, b: a << (b & 63),
    "shr": lambda a, b: a >> (b & 63),
    "fadd": operator.add,
    "fsub": operator.sub,
    "fmul": operator.mul,
    "fdiv": fdiv,
}

CMP_FNS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "slt": operator.lt,
    "sle": operator.le,
    "sgt": operator.gt,
    "sge": operator.ge,
}

_BINOP_HANDLERS = {op: _make_binop(fn) for op, fn in BINOP_FNS.items()}
_BINOP_HANDLERS["sdiv"] = _bh_sdiv
_BINOP_HANDLERS["srem"] = _bh_srem


def _make_cmp(op_fn):
    def handler(m: "Machine", i: ins.Cmp, regs) -> None:
        regs[i.result.name] = int(op_fn(m._value(i.lhs, regs), m._value(i.rhs, regs)))

    return handler


_CMP_HANDLERS = {op: _make_cmp(fn) for op, fn in CMP_FNS.items()}


def _h_load(m: "Machine", i: ins.Load, regs) -> None:
    addr = m._value(i.pointer, regs)
    regs[i.result.name] = m.memory.read_scalar(addr, i.result.type)


def _h_store(m: "Machine", i: ins.Store, regs) -> None:
    addr = m._value(i.pointer, regs)
    m.memory.write_scalar(addr, i.value.type, m._value(i.value, regs))


def _h_field_addr(m: "Machine", i: ins.FieldAddr, regs) -> None:
    base = m._value(i.pointer, regs)
    regs[i.result.name] = base + field_offset(i.pointer.type.pointee, i.index)


def _h_elem_addr(m: "Machine", i: ins.ElemAddr, regs) -> None:
    base = m._value(i.pointer, regs)
    idx = m._value(i.index, regs)
    regs[i.result.name] = base + idx * sizeof(i.pointer.type.pointee.element)


def _h_call(m: "Machine", i: ins.Call, regs) -> None:
    m._do_call(i, regs)


def _h_alloca(m: "Machine", i: ins.Alloca, regs) -> None:
    count = m._value(i.count, regs) if i.count is not None else 1
    regs[i.result.name] = m.stack_alloc(sizeof(i.allocated_type) * count)


def _h_malloc(m: "Machine", i: ins.Malloc, regs) -> None:
    count = m._value(i.count, regs) if i.count is not None else 1
    regs[i.result.name] = m.heap_malloc(sizeof(i.allocated_type) * count)


def _h_free(m: "Machine", i: ins.Free, regs) -> None:
    m.heap_free(m._value(i.pointer, regs))


def _h_ptrcast(m: "Machine", i, regs) -> None:
    regs[i.result.name] = m._value(i.pointer, regs)


def _h_inttoptr(m: "Machine", i: ins.IntToPtr, regs) -> None:
    regs[i.result.name] = m._value(i.value, regs) & _U64_MASK


def _h_numcast(m: "Machine", i: ins.NumCast, regs) -> None:
    v = m._value(i.value, regs)
    ty = i.result.type
    if type(ty) is IntType:
        regs[i.result.name] = wrap_int(int(v), ty.bits if ty.bits > 8 else 8)
    elif type(ty) is FloatType:
        f = float(v)
        regs[i.result.name] = _F32.unpack(_F32.pack(f))[0] if ty.bits == 32 else f
    else:
        raise ExecutionTrap("bad-cast", str(ty))


def _h_funcaddr(m: "Machine", i: ins.FuncAddr, regs) -> None:
    regs[i.result.name] = m._func_addrs[i.function_name]


def _h_bad_instruction(m: "Machine", i, regs) -> None:
    raise ExecutionTrap("bad-instruction", type(i).__name__)


_HANDLERS = {
    ins.Load: _h_load,
    ins.Store: _h_store,
    ins.FieldAddr: _h_field_addr,
    ins.ElemAddr: _h_elem_addr,
    ins.Call: _h_call,
    ins.Alloca: _h_alloca,
    ins.Malloc: _h_malloc,
    ins.Free: _h_free,
    ins.PtrCast: _h_ptrcast,
    ins.PtrToInt: _h_ptrcast,  # both copy .pointer through unchanged
    ins.IntToPtr: _h_inttoptr,
    ins.NumCast: _h_numcast,
    ins.FuncAddr: _h_funcaddr,
}


def _decode_block(fn: Function, block):
    """Decode ``block`` into (steps, terminator).

    ``steps`` is a list of ``(handler, inst, cost, fault_site)`` for every
    instruction up to (not including) the first terminator; ``terminator``
    is ``(tag, inst, cost, fault_site, then_block, else_block)`` with branch
    targets pre-resolved to block objects (``None`` for unknown labels, which
    trap at execution time exactly like the unresolved lookup used to), or
    ``None`` if the block falls off its end.
    """
    steps: list = []
    for inst in block.instructions:
        k = type(inst)
        if k is ins.Branch:
            return steps, (
                _T_BRANCH,
                inst,
                COSTS.get(k, 1),
                inst.fault_site,
                fn.find_block(inst.then_target),
                fn.find_block(inst.else_target),
            )
        if k is ins.Jump:
            return steps, (
                _T_JUMP,
                inst,
                COSTS.get(k, 1),
                inst.fault_site,
                fn.find_block(inst.target),
                None,
            )
        if k is ins.Ret:
            return steps, (_T_RET, inst, COSTS.get(k, 1), inst.fault_site, None, None)
        if k is ins.Unreachable:
            return steps, (
                _T_UNREACHABLE,
                inst,
                COSTS.get(k, 0),
                inst.fault_site,
                None,
                None,
            )
        if k is ins.BinOp:
            handler = _BINOP_HANDLERS[inst.op]
            cost = _EXPENSIVE_BINOPS.get(inst.op, 1)
        elif k is ins.Cmp:
            handler = _CMP_HANDLERS[inst.op]
            cost = COSTS.get(k, 1)
        else:
            handler = _HANDLERS.get(k, _h_bad_instruction)
            cost = COSTS.get(k, 1)
        steps.append((handler, inst, cost, inst.fault_site))
    return steps, None


# -- instrumented dispatch ----------------------------------------------------
#
# The instrumented executor reuses _decode_block and wraps each step handler
# in a counting closure resolved once at decode time (opcode class, DPMR role
# per repro.obs.counters), so the per-instruction overhead when observability
# IS enabled stays one or two dict increments — and the disabled path above is
# untouched.

_TERMINATOR_KEYS = {
    _T_BRANCH: "op.branch",
    _T_JUMP: "op.jump",
    _T_RET: "op.ret",
    _T_UNREACHABLE: "op.unreachable",
}


def _make_compare_step(handler, key: str, result_name: str):
    from ..obs.counters import COMPARE, COMPARE_FAILED

    def step(m: "Machine", inst, regs) -> None:
        c = m.counters
        c[key] = c.get(key, 0) + 1
        c[COMPARE] = c.get(COMPARE, 0) + 1
        handler(m, inst, regs)
        failed = bool(regs[result_name])
        if failed:
            c[COMPARE_FAILED] = c.get(COMPARE_FAILED, 0) + 1
        tr = m.tracer
        if tr is not None and tr.wants("compare"):
            tr.dpmr_compare(m.cycles, failed)

    return step


def _decode_block_instrumented(fn: Function, block, machine: "Machine"):
    """Like :func:`_decode_block` but returns ``(steps, term, agg)``.

    Opcode-class (and replica-role) counts are pre-aggregated here into
    ``agg`` — a tuple of ``(counter key, count)`` pairs the execution loop
    applies once per block entry — so ordinary instructions keep their raw
    handlers instead of per-instruction counting closures.  Only DPMR
    detection compares still wrap: they observe their result value and may
    emit a trace event, which cannot be aggregated.

    DPMR-role classification (replica loads/stores, detection compares) only
    applies when the machine runs with a DPMR runtime — the transform's
    register-naming conventions are meaningless for plain applications.
    """
    from ..obs import counters as oc

    steps, term = _decode_block(fn, block)
    dpmr = machine.dpmr_runtime is not None
    agg: Dict[str, int] = {}
    wrapped: list = []
    for handler, inst, cost, fault in steps:
        key = oc.OPCODE_CLASSES.get(type(inst), "op.other")
        if dpmr and oc.is_dpmr_compare(inst):
            wrapped.append(
                (_make_compare_step(handler, key, inst.result.name), inst, cost, fault)
            )
            continue
        agg[key] = agg.get(key, 0) + 1
        if dpmr:
            if oc.is_replica_load(inst):
                agg[oc.REPLICA_LOAD] = agg.get(oc.REPLICA_LOAD, 0) + 1
            elif oc.is_replica_store(inst):
                agg[oc.REPLICA_STORE] = agg.get(oc.REPLICA_STORE, 0) + 1
        wrapped.append((handler, inst, cost, fault))
    return wrapped, term, tuple(agg.items())
