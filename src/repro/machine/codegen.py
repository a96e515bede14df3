"""IR → specialized Python source for the compiled execution tier.

The interpreter (:mod:`repro.machine.interpreter`) pays a decoded-dispatch
tax on every instruction: a tuple unpack, bookkeeping, a handler call, and
one `regs` dict access per operand.  This module removes that tax by
emitting one specialized Python function per IR function, whole, through
:func:`generate_function_source` (``repro.machine.compile`` calls it the
first time a program that runs the function is bound):

* registers become Python locals;
* struct layouts (`field_offset`/`sizeof`), global addresses, and function
  addresses are folded into literals at generation time, and so is every
  pure instruction whose operands are all known then, computed with the
  interpreter's own operators and wrap;
* scalar loads/stores inline a segment-bounds fast path over pre-bound
  ``struct.Struct`` methods, falling back to ``Memory.read_scalar`` /
  ``write_scalar`` for the trap cases so every fault is bit-identical;
* the simulated-cycle cost model is compiled in: consecutive side-effect-
  free instructions form a *batch*, charged with one bound check and one
  constant add at the batch boundary, and a batch that would cross
  ``max_cycles`` replays the exact per-instruction accounting
  (:func:`repro.machine.compile._bto`) so Timeout state matches the
  interpreter to the cycle.

Cycle accounting lives in the activation.  A generated function reads
``m.cycles`` and ``m.instructions_executed`` once, on entry, into the
locals ``_c`` and ``_n``.  A batch of total cost N over K instructions is
``if _c > _clN: _bto(m, _c, _n, *costs)`` then ``_c += N; _n += K``,
where ``_clN`` is ``max_cycles - N`` bound once per call (the check is
``_c + N > max_cycles`` without allocating the sum).  A batch that charges
no cycles skips the check: every escape below leaves the machine's cycles
at or below ``max_cycles``, or raises.  The locals reach the machine only
where code outside the function can read them:

* before every escape, with a reload after it: a direct internal call,
  ``_ci`` (``call_intrinsic``), ``_cba`` (``call_by_address``), ``_rmal``,
  ``_rfree``, ``_hmalloc`` (``heap_malloc``) and ``_hfree``
  (``heap_free``);
* before ``return``;
* in the function's one ``except BaseException`` handler, which writes
  back only when ``_n`` exceeds ``m.instructions_executed``: instruction
  counts only grow, so the counts a callee's handler or ``_bto`` wrote
  for a deeper raise are left in place.

Call lowering splits into an inline fast path and a re-entrant slow path:

* direct internal calls are plain global lookups in the shared exec
  namespace, one Python frame per call;
* generic intrinsic and indirect calls re-enter the machine through
  ``call_intrinsic`` / ``call_by_address`` and pay one argument-container
  allocation per call — a tuple display (folded into the code object's
  constants) when every argument is a literal, a fresh list otherwise;
* the DPMR hooks (``dpmr_detect`` / ``dpmr_replica_malloc`` /
  ``dpmr_replica_free``) specialize against the machine's runtime when
  :func:`repro.machine.compile.runtime_spec_for` proves it safe (stateless
  diversity policy, no tracer/counters — the compiled tier already
  guarantees the latter).  ``dpmr_detect`` lowers to a direct ``raise``;
  the replica alloc/free hooks lower to the *parametric* fast-path
  globals ``_rmal`` / ``_rfree``, which the binding
  :class:`~repro.machine.compile.CompiledProgram` resolves from the
  spec at bind time (plain ``Machine.heap_malloc``, a pad-folding
  closure, or the diversity method).  Emitted source is therefore
  identical for every specialized runtime — all diversity variants share
  one entry in every codegen cache layer, and only the *program* (the
  exec namespace) is per-spec.  Tracing, counters, stateful policies,
  and any call shape the transform does not emit keep the exact
  ``call_intrinsic`` re-entry as the fallback.

Bit-identity ground rules (the interpreter stays the reference engine):

* an instruction with a ``fault_site`` always terminates its batch, so the
  recorded activation cycle equals the interpreter's per-instruction stamp;
* anything the generator cannot prove it lowers exactly raises
  :class:`CodegenUnsupported`; the machine then interprets that one
  function (callers still run compiled — calls route through a shim);
* heap behaviour is never reimplemented — every allocation path, inlined
  or not, ends in ``Machine.heap_malloc`` / ``heap_free`` (or the
  configured diversity policy), which own the cycle charges and the trap
  mapping.

Known, accepted divergences (pathological programs only — all are outside
what :func:`repro.ir.verify.verify_module` admits): an execution path that
uses a register whose defining block never ran raises
``UnboundLocalError`` instead of the undefined-register trap, and deep
recursion hits the host recursion limit at a different depth because a
compiled call chain uses fewer Python frames than an interpreted one.
A negative ``max_cycles`` is the one budget the zero-cost batch rule does
not cover: the interpreter times out on a leading zero-cost instruction,
compiled code at the first charge after it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..ir import instructions as ins
from ..ir.types import FloatType, IntType, PointerType, field_offset, sizeof
from ..ir.values import (
    ConstFloat,
    ConstInt,
    ConstNull,
    FunctionRef,
    GlobalRef,
    Register,
)
from .interpreter import BINOP_FNS, CMP_FNS, COSTS, _EXPENSIVE_BINOPS, _arith_result


class CodegenUnsupported(Exception):
    """This function cannot be lowered; interpret it instead."""


@dataclass(frozen=True)
class ProgramContext:
    """Module-wide facts a generated function folds into its source.

    ``fn_info`` maps every module function name to ``(python name,
    parameter count, is_external)``; ``global_layout`` / ``func_addrs``
    are the address assignments the machine will make for the default
    memory geometry (the machine cross-checks at bind time).
    """

    global_layout: Dict[str, int]
    func_addrs: Dict[str, int]
    fn_info: Dict[str, Tuple[str, int, bool]]
    #: runtime-specialization spec (see ``DpmrRuntime.codegen_spec`` /
    #: ``repro.machine.compile.runtime_spec_for``) or None for the generic
    #: program.  Generation only depends on whether a spec is *present*
    #: (hook emission is parametric over the spec's contents), so the
    #: context digest folds the presence marker — specialized and generic
    #: code never share cache entries, while all specialized variants do.
    rt_spec: Optional[Tuple] = None


_U64 = (1 << 64) - 1
_U64_LIT = str(_U64)

#: Write the activation's counts back to the machine / read them again.
_SYNC = "m.cycles = _c; m.instructions_executed = _n"
_RELOAD = "_c = m.cycles; _n = m.instructions_executed"

#: ``const_value`` of an operand generation cannot fold (a register).
_NO_CONST = object()

_PURE_BINOPS = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "and": "&",
    "or": "|",
    "xor": "^",
    "fadd": "+",
    "fsub": "-",
    "fmul": "*",
}

#: BinOps with a pure inline lowering: the interpreter's trap-free ones
#: (sdiv/srem's zero-divisor trap makes them checkpoints).
_PURE_BINOP_OPS = frozenset(BINOP_FNS)

_CMP_SYMS = {
    "eq": "==",
    "ne": "!=",
    "slt": "<",
    "sle": "<=",
    "sgt": ">",
    "sge": ">=",
}

#: scalar type → (unpack name, pack name, byte size) in the shared exec
#: namespace (see repro.machine.compile.BASE_NS); int widths share the
#: interpreter's formats ("b" covers both int1 and int8).
_INT_ACCESS = {1: ("_up_b", "_pk_b", 1), 8: ("_up_b", "_pk_b", 1),
               16: ("_up_h", "_pk_h", 2), 32: ("_up_i", "_pk_i", 4),
               64: ("_up_q", "_pk_q", 8)}
_FLOAT_ACCESS = {32: ("_up_f", "_pk_f", 4), 64: ("_up_d", "_pk_d", 8)}


def _scalar_access(ty) -> Tuple[str, str, int, str]:
    """(unpack, pack, size, slow-path type name) for a loadable scalar."""
    if isinstance(ty, PointerType):
        return "_up_Q", "_pk_Q", 8, "_PTR"
    k = type(ty)
    if k is IntType:
        acc = _INT_ACCESS.get(ty.bits)
        if acc is not None:
            return acc[0], acc[1], acc[2], f"_Ti{ty.bits}"
    elif k is FloatType:
        acc = _FLOAT_ACCESS.get(ty.bits)
        if acc is not None:
            return acc[0], acc[1], acc[2], f"_Tf{ty.bits}"
    raise CodegenUnsupported(f"not a loadable scalar type: {ty}")


def _wrap_expr(expr: str, bits: int) -> str:
    """Python source equivalent of ``wrap_int(expr, max(bits, 8))``."""
    b = bits if bits > 8 else 8
    mask = (1 << b) - 1
    half = 1 << (b - 1)
    return f"(({expr} & {mask} ^ {half}) - {half})"


def _int_lit(v: int) -> str:
    return f"({v})" if v < 0 else str(v)


def _lit(value) -> Optional[str]:
    """Source literal of a folded int or float (None for any other type)."""
    k = type(value)
    if k is int:
        return _int_lit(value)
    if k is float:
        return _float_lit(value)
    return None


def _float_lit(x: float) -> str:
    if x != x:
        return 'float("nan")'
    if x == float("inf"):
        return 'float("inf")'
    if x == float("-inf"):
        return '(float("-inf"))'
    r = repr(float(x))
    return f"({r})" if r.startswith("-") else r


def _cost_of(inst) -> int:
    k = type(inst)
    if k is ins.BinOp:
        return _EXPENSIVE_BINOPS.get(inst.op, 1)
    if k is ins.Unreachable:
        return COSTS.get(k, 0)
    return COSTS.get(k, 1)


_SANITIZE = re.compile(r"[^0-9A-Za-z_]")


def sanitize(name: str) -> str:
    return _SANITIZE.sub("_", name)


class _FnEmitter:
    """Lowers one IR function to Python source."""

    def __init__(self, fn, ctx: ProgramContext, pyname: str):
        self.fn = fn
        self.ctx = ctx
        self.pyname = pyname
        self.body: List[str] = []
        self.indent = 0
        self.regmap: Dict[str, str] = {}
        self.taken: Set[str] = set()
        self.prelude: Set[str] = set()

    # -- small helpers ------------------------------------------------------

    def line(self, text: str) -> None:
        self.body.append("    " * self.indent + text)

    def reg(self, name: str) -> str:
        py = self.regmap.get(name)
        if py is None:
            py = base = "r_" + sanitize(name)
            n = 2
            while py in self.taken:
                py = f"{base}_{n}"
                n += 1
            self.taken.add(py)
            self.regmap[name] = py
        return py

    def need(self, *items: str) -> None:
        """Request prelude bindings."""
        self.prelude.update(items)

    def const_value(self, v):
        """The value of an operand known at generation time (every operand
        but a register), or ``_NO_CONST``."""
        k = type(v)
        if k is Register:
            return _NO_CONST
        if k is ConstInt or k is ConstFloat:
            return v.value
        if k is ConstNull:
            return 0
        if k is GlobalRef:
            addr = self.ctx.global_layout.get(v.name)
            if addr is None:
                raise CodegenUnsupported(f"unknown global {v.name}")
            return addr
        if k is FunctionRef:
            addr = self.ctx.func_addrs.get(v.name)
            if addr is None:
                raise CodegenUnsupported(f"unknown function ref {v.name}")
            return addr
        raise CodegenUnsupported(f"operand {v!r}")

    def operand(self, v) -> str:
        if type(v) is Register:
            return self.reg(v.name)
        lit = _lit(self.const_value(v))
        if lit is None:
            raise CodegenUnsupported(f"operand {v!r}")
        return lit

    def arith(self, ty, raw: str) -> str:
        """The interpreter's ``_arith_result`` as a source transform."""
        if type(ty) is IntType:
            return _wrap_expr(f"int({raw})", ty.bits)
        if type(ty) is FloatType and ty.bits == 32:
            return f"_f32({raw})"
        return f"({raw})"

    def escape(self, call: str, result: Optional[str] = None) -> None:
        """Emit a call into code outside this function.  The activation's
        counts go back to the machine before it (the callee reads and
        charges them) and are read again after it; a ``result`` register
        gets the call's value with None mapped to 0, as the interpreter's
        call path does."""
        self.line(_SYNC)
        self.line(call if result is None else f"_r = {call}")
        self.line(_RELOAD)
        if result is not None:
            self.line(f"{result} = 0 if _r is None else _r")

    # -- classification -----------------------------------------------------

    def is_pure(self, inst) -> bool:
        """True when the instruction can sit mid-batch: no side effects,
        no traps of its own, and no fault site to stamp."""
        return inst.fault_site is None and self.is_faultable_pure(inst)

    def is_faultable_pure(self, i) -> bool:
        """A pure shape, whether or not a fault site makes it a checkpoint."""
        k = type(i)
        if k is ins.BinOp:
            return i.op in _PURE_BINOP_OPS
        if k is ins.Cmp:
            return i.op in _CMP_SYMS
        if k in (ins.FieldAddr, ins.ElemAddr, ins.PtrCast, ins.PtrToInt,
                 ins.IntToPtr):
            return True
        if k is ins.NumCast:
            return type(i.result.type) in (IntType, FloatType)
        if k is ins.FuncAddr:
            return i.function_name in self.ctx.func_addrs
        return False

    # -- batch accounting ----------------------------------------------------

    def flush(self, pure: List, final=None) -> None:
        """Charge one batch: ``pure`` instructions plus the optional
        ``final`` checkpoint/terminator, to the activation's ``_c``/``_n``.
        A batch that would cross ``max_cycles`` replays through ``_bto``;
        a batch that charges no cycles cannot cross, because every escape
        leaves the machine's cycles at or below the budget."""
        insts = pure + ([final] if final is not None else [])
        if not insts:
            return
        costs = tuple(_cost_of(i) for i in insts)
        total = sum(costs)
        if total:
            # _cl<N> is max_cycles - N, bound once per call: comparing
            # against it allocates no temporary int the way _c + N would.
            self.need(f"_cl{total}")
            self.line(f"if _c > _cl{total}: _bto(m, _c, _n, {', '.join(map(str, costs))})")
            self.line(f"_c += {total}; _n += {len(insts)}")
        else:
            self.line(f"_n += {len(insts)}")
        for i in pure:
            self.emit_pure(i)
        if final is not None and final.fault_site is not None:
            self.need("_act")
            site = final.fault_site
            self.line(f"if {site!r} not in _act: _act[{site!r}] = _c")

    # -- instruction bodies --------------------------------------------------

    def emit_pure(self, i) -> None:
        if type(i) is not ins.Jump:  # a spliced fault-free jump: cost only
            self.line(f"{self.reg(i.result.name)} = {self.pure_value(i)}")

    def pure_value(self, i) -> str:
        """Source of a pure instruction's value: a literal when every
        operand is known at generation time, else an expression."""
        values = [self.const_value(v) for v in i.operands()]
        if _NO_CONST not in values:
            lit = self.fold(i, values)
            if lit is not None:
                return lit
        k = type(i)
        if k is ins.BinOp:
            a, b = self.operand(i.lhs), self.operand(i.rhs)
            op = i.op
            if op == "shl":
                raw = f"{a} << ({b} & 63)"
            elif op == "shr":
                raw = f"{a} >> ({b} & 63)"
            elif op == "fdiv":
                raw = f"_fdiv({a}, {b})"
            else:
                raw = f"{a} {_PURE_BINOPS[op]} {b}"
            return self.arith(i.result.type, raw)
        if k is ins.Cmp:
            a, b = self.operand(i.lhs), self.operand(i.rhs)
            return f"1 if {a} {_CMP_SYMS[i.op]} {b} else 0"
        if k is ins.FieldAddr:
            base = self.operand(i.pointer)
            off = field_offset(i.pointer.type.pointee, i.index)
            return base if off == 0 else f"{base} + {off}"
        if k is ins.ElemAddr:
            base = self.operand(i.pointer)
            esz = sizeof(i.pointer.type.pointee.element)
            if type(i.index) is ConstInt:
                off = i.index.value * esz
                return base if off == 0 else f"{base} + {_int_lit(off)}"
            idx = self.operand(i.index)
            return f"{base} + {idx}" if esz == 1 else f"{base} + {idx} * {esz}"
        if k in (ins.PtrCast, ins.PtrToInt):
            return self.operand(i.pointer)
        if k is ins.IntToPtr:
            return f"{self.operand(i.value)} & {_U64_LIT}"
        if k is ins.NumCast:
            v = self.operand(i.value)
            ty = i.result.type
            if type(ty) is IntType:
                return _wrap_expr(f"int({v})", ty.bits)
            return f"_f32(float({v}))" if ty.bits == 32 else f"float({v})"
        if k is ins.FuncAddr:
            return str(self.ctx.func_addrs[i.function_name])
        raise CodegenUnsupported(f"no pure body for {k.__name__}")  # pragma: no cover

    def fold(self, i, values: List) -> Optional[str]:
        """The literal the interpreter computes for a pure instruction over
        constant operands, or None when that computation raises (the
        emitted expression then raises the same way at run time)."""
        k = type(i)
        try:
            if k is ins.BinOp:
                r = _arith_result(i.result.type, BINOP_FNS[i.op](*values))
            elif k is ins.Cmp:
                r = int(CMP_FNS[i.op](*values))
            elif k is ins.FieldAddr:
                r = values[0] + field_offset(i.pointer.type.pointee, i.index)
            elif k is ins.ElemAddr:
                r = values[0] + values[1] * sizeof(i.pointer.type.pointee.element)
            elif k is ins.IntToPtr:
                r = values[0] & _U64
            elif k is ins.NumCast:
                ty = i.result.type
                v = values[0] if type(ty) is IntType else float(values[0])
                r = _arith_result(ty, v)
            else:  # PtrCast, PtrToInt, FuncAddr: already a literal
                return None
        except Exception:
            return None
        return _lit(r)

    def emit_checkpoint(self, i) -> bool:
        """Emit one checkpoint's body; True when it ends in an
        unconditional raise, so nothing after it in the chain can run."""
        k = type(i)
        if k is ins.Load:
            self.emit_load(i)
        elif k is ins.Store:
            self.emit_store(i)
        elif k is ins.Call:
            return self.emit_call(i)
        elif k is ins.Alloca:
            self.need("_salloc")
            self.line(f"{self.reg(i.result.name)} = _salloc({self.alloc_size(i)})")
        elif k is ins.Malloc:
            self.need("_hmalloc")
            self.line(_SYNC)
            self.line(f"{self.reg(i.result.name)} = _hmalloc({self.alloc_size(i)})")
            self.line(_RELOAD)
        elif k is ins.Free:
            self.need("_hfree")
            self.escape(f"_hfree({self.operand(i.pointer)})")
        elif k is ins.BinOp and i.op in ("sdiv", "srem"):
            return self.emit_division(i)
        elif self.is_faultable_pure(i):
            self.emit_pure(i)
        elif k is ins.NumCast:
            # Result type is neither int nor float.
            self.line(f"raise ExecutionTrap('bad-cast', {str(i.result.type)!r})")
            return True
        elif k is ins.FuncAddr:
            # Unknown function name: the interpreter's dict lookup raises
            # a bare KeyError (not an ExecutionTrap); reproduce that.
            self.line(f"raise KeyError({i.function_name!r})")
            return True
        elif k is ins.BinOp or k is ins.Cmp:
            # Unknown op: the interpreter raises KeyError at block-decode
            # time; falling back to interpretation reproduces it exactly.
            raise CodegenUnsupported(f"unknown {k.__name__} op {i.op}")
        else:
            # Unknown instruction type: the interpreter traps when the
            # instruction executes; emit the identical trap.
            self.line(f"raise ExecutionTrap('bad-instruction', {k.__name__!r})")
            return True
        return False

    def alloc_size(self, i) -> str:
        size = sizeof(i.allocated_type)
        if i.count is None:
            return str(size)
        if type(i.count) is ConstInt:
            return _int_lit(size * i.count.value)
        return f"{size} * {self.operand(i.count)}"

    def emit_load(self, i) -> None:
        up, _pk, sz, tname = _scalar_access(i.result.type)
        self.need("_rs", f"_l{sz}")
        res = self.reg(i.result.name)
        p = self.operand(i.pointer)
        self.line(f"if _hb <= {p} <= _hl{sz}: {res} = {up}(_hd, {p} - _hb)[0]")
        self.line(f"elif _sb <= {p} <= _sl{sz}: {res} = {up}(_sd, {p} - _sb)[0]")
        self.line(f"else: {res} = _rs({p}, {tname})")

    def emit_store(self, i) -> None:
        """A store packs its value once, as ``Memory.write_scalar`` does:
        an int wraps before the segment lookup (folded for a constant) and
        the slow path takes the wrapped value unchanged.  A pointer is
        masked after the segment lookup there, so a register's mask stays
        in the fast branches."""
        _up, pk, sz, tname = _scalar_access(i.value.type)
        self.need("_ws", f"_l{sz}")
        ty = i.value.type
        val = packed = slow = self.operand(i.value)
        pointer = isinstance(ty, PointerType)
        if pointer or type(ty) is IntType:
            const = self.const_value(i.value)
            if type(const) is int:
                packed = slow = _int_lit(
                    const & _U64 if pointer else _arith_result(ty, const)
                )
            elif pointer:
                packed = f"{val} & {_U64_LIT}"
            else:
                self.line(f"_v = {_wrap_expr(f'int({val})', ty.bits)}")
                packed = slow = "_v"
        p = self.operand(i.pointer)
        self.line(f"if _hb <= {p} <= _hl{sz}: {pk}(_hd, {p} - _hb, {packed})")
        self.line(f"elif _sb <= {p} <= _sl{sz}: {pk}(_sd, {p} - _sb, {packed})")
        self.line(f"else: _ws({p}, {tname}, {slow})")

    def emit_division(self, i) -> bool:
        a, b = self.operand(i.lhs), self.operand(i.rhs)
        divisor = self.const_value(i.rhs)
        if divisor is _NO_CONST:
            self.line(f"if {b} == 0: raise ExecutionTrap('divide-by-zero')")
        elif divisor == 0:
            self.line("raise ExecutionTrap('divide-by-zero')")
            return True
        self.line(f"_q = abs({a}) // abs({b})")
        self.line(f"if ({a} < 0) != ({b} < 0): _q = -_q")
        raw = "_q" if i.op == "sdiv" else f"{a} - _q * {b}"
        self.line(f"{self.reg(i.result.name)} = {self.arith(i.result.type, raw)}")
        return False

    def emit_call(self, i) -> bool:
        args = [self.operand(a) for a in i.args]
        if i.is_direct:
            info = self.ctx.fn_info.get(i.callee)
            if info is None:
                self.line(f"raise ExecutionTrap('unresolved-call', {str(i.callee)!r})")
                return True
            pyname, nparams, is_external = info
            if is_external:
                if self.ctx.rt_spec is not None:
                    done = self.emit_dpmr_call(i, args)
                    if done is not None:
                        return done
                self.need("_ci")
                call = f"_ci({i.callee!r}, {self.arg_container(i, args)})"
            elif nparams != len(args):
                msg = f"{i.callee} expects {nparams} args, got {len(args)}"
                self.line(f"raise ExecutionTrap('bad-call', {msg!r})")
                return True
            else:
                call = f"{pyname}({', '.join(['m'] + args)})"
        else:
            self.need("_cba")
            call = f"_cba({self.operand(i.callee)}, {self.arg_container(i, args)})"
        result = None if i.result is None else self.reg(i.result.name)
        self.escape(call, result)
        return False

    def arg_container(self, i, args: List[str]) -> str:
        """Argument container for a ``call_intrinsic``/``call_by_address``
        re-entry.  A fully-literal argument vector becomes a tuple display
        that CPython folds into the code object's constants, so the call
        site allocates nothing per execution; any register operand forces a
        fresh list.  Sound because every receiver (intrinsics, wrappers,
        ``Machine.call``) only reads the container."""
        if any(type(a) is Register for a in i.args):
            return f"[{', '.join(args)}]"
        if len(args) == 1:
            return f"({args[0]},)"
        return f"({', '.join(args)})"

    def emit_dpmr_call(self, i, args: List[str]) -> Optional[bool]:
        """Inline one DPMR hook against the program's runtime spec.

        Covers exactly the call shapes the DPMR transform emits (hook
        arity, result use matching the declared signature) and returns
        whether the emitted code ends in a raise; anything else returns
        None and takes the ``call_intrinsic`` slow path, whose behaviour
        is the reference.  ``dpmr_detect`` raises directly; the replica
        alloc/free hooks call the ``_rmal`` / ``_rfree`` namespace
        globals, which the binding program derives from the spec — the
        emitted *source* is the same for every spec, so specialized code
        shares cache entries across diversity variants.  Cycle parity
        holds because the Call's own cost was charged by the batch flush
        and the fast-path bindings reach the same ``heap_malloc`` /
        ``heap_free`` / diversity methods the intrinsic would, so every
        remaining charge happens in the same place with the same
        arguments.
        """
        name = i.callee
        if name == "dpmr_detect":
            if i.result is not None:
                return None
            if not i.args:
                code = "0"
            elif type(i.args[0]) is ConstInt:
                code = _int_lit(int(i.args[0].value))
            else:
                code = f"int({args[0]})"
            self.line(f"raise _DD({code})")
            return True
        if len(i.args) != 1:
            return None
        a0 = i.args[0]
        arg = _int_lit(int(a0.value)) if type(a0) is ConstInt else f"int({args[0]})"
        if name == "dpmr_replica_malloc":
            # The interpreter's generic call path converts a None result
            # to 0; keep that for every binding.
            result = None if i.result is None else self.reg(i.result.name)
            self.escape(f"_rmal(m, {arg})", result)
            return False
        if name == "dpmr_replica_free":
            if i.result is not None:
                return None
            self.escape(f"_rfree(m, {arg})")
            return False
        return None

    # -- control flow --------------------------------------------------------

    def decode(self, block) -> Tuple[List, Optional[object]]:
        """Mirror of ``_decode_block``: first terminator ends the block."""
        steps: List = []
        for inst in block.instructions:
            k = type(inst)
            if k in (ins.Branch, ins.Jump, ins.Ret, ins.Unreachable):
                return steps, inst
            steps.append(inst)
        return steps, None

    def goto(self, label: str) -> str:
        """The statement that continues at a leader (or the interpreter's
        KeyError for an unknown label)."""
        idx = self.leader_idx.get(label)
        if idx is None:
            return f"raise KeyError({label!r})"
        return f"_b = {idx}; continue"

    def emit_chain(self, block) -> None:
        """Emit a leader block plus every single-predecessor block its
        fault-free jumps splice in (batches run across the splice).
        Emission stops at the first unconditional raise."""
        fn = self.fn
        batch: List = []
        emitted: Set[str] = set()
        while True:
            if block.label in emitted:  # pragma: no cover - splice guard
                raise CodegenUnsupported("splice cycle")
            emitted.add(block.label)
            steps, term = self.decode(block)
            for inst in steps:
                if self.is_pure(inst):
                    batch.append(inst)
                    continue
                self.flush(batch, final=inst)
                batch = []
                if self.emit_checkpoint(inst):
                    return
            if term is None:
                self.flush(batch)
                detail = f"{fn.name}/{block.label}"
                self.line(f"raise ExecutionTrap('fell-off-block', {detail!r})")
                return
            k = type(term)
            if k is ins.Jump:
                if term.target in self.splice:
                    if term.fault_site is None:
                        batch.append(term)
                    else:
                        self.flush(batch, final=term)
                        batch = []
                    block = fn.find_block(term.target)
                    continue
                self.flush(batch, final=term)
                self.line(self.goto(term.target))
                return
            self.flush(batch, final=term)
            if k is ins.Branch:
                cond = self.operand(term.cond)
                then_idx = self.leader_idx.get(term.then_target)
                else_idx = self.leader_idx.get(term.else_target)
                if then_idx is not None and else_idx is not None:
                    self.line(f"_b = {then_idx} if {cond} else {else_idx}; continue")
                else:
                    self.line(f"if {cond}: {self.goto(term.then_target)}")
                    self.line(f"else: {self.goto(term.else_target)}")
            elif k is ins.Ret:
                self.line(_SYNC)
                value = "None" if term.value is None else self.operand(term.value)
                self.line(f"return {value}")
            else:  # Unreachable
                self.line(f"raise ExecutionTrap('unreachable', {'in ' + fn.name!r})")
            return

    def chain_blocks(self, leader) -> List:
        """The blocks ``emit_chain`` will emit for this leader, in order."""
        fn = self.fn
        out: List = []
        seen: Set[str] = set()
        block = leader
        while True:
            if block.label in seen:
                raise CodegenUnsupported("splice cycle")
            seen.add(block.label)
            out.append(block)
            _steps, term = self.decode(block)
            if type(term) is ins.Jump and term.target in self.splice:
                block = fn.find_block(term.target)
                continue
            return out

    def emit_dispatch(self, lo: int, hi: int) -> None:
        """Binary if-tree over leader indices: log2 depth, so deep CFGs
        never approach CPython's nesting limit the way inlining would.
        Right subtrees continue as ``elif``, so only left turns indent."""
        keyword = "if"
        while hi - lo > 1:
            mid = (lo + hi) // 2
            test = f"_b == {lo}" if lo + 1 == mid else f"_b < {mid}"
            self.line(f"{keyword} {test}:")
            self.indent += 1
            self.emit_dispatch(lo, mid)
            self.indent -= 1
            keyword, lo = "elif", mid
        if keyword == "if":
            self.emit_chain(self.leaders[lo])
            return
        self.line("else:")
        self.indent += 1
        self.emit_chain(self.leaders[lo])
        self.indent -= 1

    # -- assembly ------------------------------------------------------------

    def _analyze(self) -> None:
        """Leader selection: entry and every branch target dispatch through
        the loop; a block whose only predecessor is a single jump splices
        into that jump's chain.  Reachable splice cycles are impossible
        (a cycle's entry edge gives some member two predecessors)."""
        fn = self.fn
        blocks = fn.reachable_blocks()
        if not blocks:
            raise CodegenUnsupported("no blocks")
        pred: Dict[str, int] = {b.label: 0 for b in blocks}
        pred[blocks[0].label] += 1  # implicit entry edge
        branch_targets: Set[str] = set()
        has_alloca = False
        for b in blocks:
            steps, term = self.decode(b)
            if any(type(s) is ins.Alloca for s in steps):
                has_alloca = True
            k = type(term)
            if k is ins.Branch:
                for t in (term.then_target, term.else_target):
                    if t in pred:
                        pred[t] += 1
                        branch_targets.add(t)
            elif k is ins.Jump:
                if term.target in pred:
                    pred[term.target] += 1
        self.blocks = blocks
        self.splice = {
            lbl for lbl, n in pred.items()
            if n == 1 and lbl not in branch_targets and lbl != blocks[0].label
        }
        self.leaders = [b for b in blocks if b.label not in self.splice]
        self.leader_idx = {b.label: i for i, b in enumerate(self.leaders)}
        self.has_alloca = has_alloca
        self.needs_loop = len(self.leaders) > 1 or pred[blocks[0].label] > 1

    def _prescan(self) -> Tuple[str, ...]:
        """Assign every register's Python local up front, in chain order.

        Emission visits an instruction's result before or after its
        operands depending on the instruction, so naming on first use would
        resolve sanitized-name collisions (``a.b`` vs ``a_b``) differently
        from this fixed order.  The order is part of the generated text, and
        so of every code-cache key."""
        params = tuple(self.reg(p.name) for p in self.fn.params)
        if len(set(params)) != len(params):
            raise CodegenUnsupported("duplicate parameter names")
        for leader in self.leaders:
            for block in self.chain_blocks(leader):
                for inst in block.instructions:
                    for v in inst.operands():
                        if type(v) is Register:
                            self.reg(v.name)
                    r = inst.result
                    if r is not None:
                        self.reg(r.name)
        return params

    def _emit_body(self) -> None:
        """The body runs inside one handler that writes the activation's
        counts back when an exception leaves it.  Instruction counts only
        grow, so counts a callee or ``_bto`` wrote are never overwritten."""
        self.indent = 1
        if self.has_alloca:
            self.line("_ss = m.stack_top")
        self.line("try:")
        self.indent = 2
        if self.needs_loop:
            self.line("_b = 0")
            self.line("while True:")
            self.indent += 1
            self.emit_dispatch(0, len(self.leaders))
        else:
            self.emit_chain(self.blocks[0])
        self.indent = 1
        self.line("except BaseException:")
        self.line("    if _n > m.instructions_executed:")
        self.line(f"        {_SYNC}")
        self.line("    raise")
        if self.has_alloca:
            self.line("finally:")
            self.line("    m.stack_top = _ss")

    def generate(self) -> str:
        self._analyze()
        params = self._prescan()
        self._emit_body()
        header = f"def {self.pyname}(m{''.join(', ' + p for p in params)}):"
        lines = [header]
        lines.extend("    " + p for p in _prelude_lines(self.prelude))
        lines.extend(self.body)
        return "\n".join(lines) + "\n"


def _prelude_lines(u: Set[str]) -> List[str]:
    out = [_RELOAD]
    totals = sorted(int(name[3:]) for name in u if name.startswith("_cl"))
    if totals:
        out.append("; ".join(["_mx = m.max_cycles"] + [f"_cl{t} = _mx - {t}" for t in totals]))
    sizes = [sz for sz in (1, 2, 4, 8) if f"_l{sz}" in u]
    if sizes or u & {"_rs", "_ws"}:
        out.append("_mem = m.memory")
    if sizes:
        out.append("_h = _mem.heap; _hb = _h.base; _hd = _h.data")
        out.append("_s = _mem.stack; _sb = _s.base; _sd = _s.data")
        out.extend(f"_hl{sz} = _h.end - {sz}; _sl{sz} = _s.end - {sz}" for sz in sizes)
    if "_rs" in u:
        out.append("_rs = _mem.read_scalar")
    if "_ws" in u:
        out.append("_ws = _mem.write_scalar")
    if "_act" in u:
        out.append("_act = m.fault_activations")
    if "_ci" in u:
        out.append("_ci = m.call_intrinsic")
    if "_cba" in u:
        out.append("_cba = m.call_by_address")
    if "_salloc" in u:
        out.append("_salloc = m.stack_alloc")
    if "_hmalloc" in u:
        out.append("_hmalloc = m.heap_malloc")
    if "_hfree" in u:
        out.append("_hfree = m.heap_free")
    return out


def generate_function_source(fn, ctx: ProgramContext, pyname: str) -> str:
    """Python source for one IR function, or raise :class:`CodegenUnsupported`."""
    return _FnEmitter(fn, ctx, pyname).generate()
