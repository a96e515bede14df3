"""IR → specialized Python source for the compiled execution tier.

The interpreter (:mod:`repro.machine.interpreter`) pays a decoded-dispatch
tax on every instruction: a tuple unpack, bookkeeping, a handler call, and
one `regs` dict access per operand.  This module removes that tax by
emitting one specialized Python function per IR function, whole, through
:func:`generate_function_source` (``repro.machine.compile`` calls it the
first time a program that runs the function is bound):

* registers become Python locals;
* struct layouts (`field_offset`/`sizeof`), global addresses, and function
  addresses are folded into literals at generation time;
* scalar loads/stores inline a segment-bounds fast path over pre-bound
  ``struct.Struct`` methods, falling back to ``Memory.read_scalar`` /
  ``write_scalar`` for the trap cases so every fault is bit-identical;
* the simulated-cycle cost model is compiled in: consecutive side-effect-
  free instructions form a *batch* charged with one constant add at the
  batch boundary, and a batch that would cross ``max_cycles`` replays the
  exact per-instruction accounting (:func:`repro.machine.compile._bto`)
  so Timeout state matches the interpreter to the cycle.

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
from .interpreter import COSTS, _EXPENSIVE_BINOPS


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


_U64_LIT = "18446744073709551615"

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

#: BinOps with a pure inline lowering (everything except sdiv/srem, whose
#: zero-divisor trap makes them checkpoints).
_PURE_BINOP_OPS = frozenset(_PURE_BINOPS) | {"shl", "shr", "fdiv"}

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

    def operand(self, v) -> str:
        k = type(v)
        if k is Register:
            return self.reg(v.name)
        if k is ConstInt:
            return _int_lit(v.value)
        if k is ConstFloat:
            return _float_lit(v.value)
        if k is ConstNull:
            return "0"
        if k is GlobalRef:
            addr = self.ctx.global_layout.get(v.name)
            if addr is None:
                raise CodegenUnsupported(f"unknown global {v.name}")
            return str(addr)
        if k is FunctionRef:
            addr = self.ctx.func_addrs.get(v.name)
            if addr is None:
                raise CodegenUnsupported(f"unknown function ref {v.name}")
            return str(addr)
        raise CodegenUnsupported(f"operand {v!r}")

    def arith(self, ty, raw: str) -> str:
        """The interpreter's ``_arith_result`` as a source transform."""
        if type(ty) is IntType:
            return _wrap_expr(f"int({raw})", ty.bits)
        if type(ty) is FloatType and ty.bits == 32:
            return f"_f32({raw})"
        return f"({raw})"

    # -- classification -----------------------------------------------------

    def is_pure(self, inst) -> bool:
        """True when the instruction can sit mid-batch: no side effects,
        no traps of its own, and no fault site to stamp."""
        if inst.fault_site is not None:
            return False
        k = type(inst)
        if k is ins.BinOp:
            return inst.op in _PURE_BINOP_OPS
        if k is ins.Cmp:
            return inst.op in _CMP_SYMS
        if k in (ins.FieldAddr, ins.ElemAddr, ins.PtrCast, ins.PtrToInt,
                 ins.IntToPtr):
            return True
        if k is ins.NumCast:
            return type(inst.result.type) in (IntType, FloatType)
        if k is ins.FuncAddr:
            return inst.function_name in self.ctx.func_addrs
        return False

    # -- batch accounting ----------------------------------------------------

    def flush(self, pure: List, final=None) -> None:
        """Charge one batch: ``pure`` instructions plus the optional
        ``final`` checkpoint/terminator, bit-identical to per-instruction
        bookkeeping (crossing batches replay through ``_bto``)."""
        insts = pure + ([final] if final is not None else [])
        if not insts:
            return
        costs = tuple(_cost_of(i) for i in insts)
        self.need("_mx")
        self.line(f"_c = m.cycles + {sum(costs)}")
        self.line("if _c > _mx:")
        self.line(f"    _bto(m, {costs!r})")
        self.line("m.cycles = _c")
        self.line(f"m.instructions_executed += {len(insts)}")
        for i in pure:
            self.emit_pure(i)
        if final is not None and final.fault_site is not None:
            self.need("_act")
            site = final.fault_site
            self.line(f"if {site!r} not in _act:")
            self.line(f"    _act[{site!r}] = _c")

    # -- instruction bodies --------------------------------------------------

    def emit_pure(self, i) -> None:
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
            self.line(f"{self.reg(i.result.name)} = {self.arith(i.result.type, raw)}")
        elif k is ins.Cmp:
            a, b = self.operand(i.lhs), self.operand(i.rhs)
            sym = _CMP_SYMS[i.op]
            self.line(f"{self.reg(i.result.name)} = 1 if {a} {sym} {b} else 0")
        elif k is ins.FieldAddr:
            base = self.operand(i.pointer)
            off = field_offset(i.pointer.type.pointee, i.index)
            expr = base if off == 0 else f"{base} + {off}"
            self.line(f"{self.reg(i.result.name)} = {expr}")
        elif k is ins.ElemAddr:
            base = self.operand(i.pointer)
            esz = sizeof(i.pointer.type.pointee.element)
            if type(i.index) is ConstInt:
                off = i.index.value * esz
                expr = base if off == 0 else f"{base} + {_int_lit(off)}"
            else:
                idx = self.operand(i.index)
                expr = f"{base} + {idx}" if esz == 1 else f"{base} + {idx} * {esz}"
            self.line(f"{self.reg(i.result.name)} = {expr}")
        elif k in (ins.PtrCast, ins.PtrToInt):
            self.line(f"{self.reg(i.result.name)} = {self.operand(i.pointer)}")
        elif k is ins.IntToPtr:
            self.line(f"{self.reg(i.result.name)} = {self.operand(i.value)} & {_U64_LIT}")
        elif k is ins.NumCast:
            v = self.operand(i.value)
            ty = i.result.type
            if type(ty) is IntType:
                expr = _wrap_expr(f"int({v})", ty.bits)
            elif ty.bits == 32:
                expr = f"_f32(float({v}))"
            else:
                expr = f"float({v})"
            self.line(f"{self.reg(i.result.name)} = {expr}")
        elif k is ins.FuncAddr:
            addr = self.ctx.func_addrs[i.function_name]
            self.line(f"{self.reg(i.result.name)} = {addr}")
        elif k is ins.Jump:
            pass  # spliced fault-free jump: cost only, no body
        else:  # pragma: no cover - is_pure and emit_pure agree by inspection
            raise CodegenUnsupported(f"no pure body for {k.__name__}")

    def emit_checkpoint(self, i) -> None:
        k = type(i)
        if k is ins.Load:
            self.emit_load(i)
        elif k is ins.Store:
            self.emit_store(i)
        elif k is ins.Call:
            self.emit_call(i)
        elif k is ins.Alloca:
            self.need("_salloc")
            self.line(f"{self.reg(i.result.name)} = _salloc({self.alloc_size(i)})")
        elif k is ins.Malloc:
            self.need("_hmalloc")
            self.line(f"{self.reg(i.result.name)} = _hmalloc({self.alloc_size(i)})")
        elif k is ins.Free:
            self.need("_hfree")
            self.line(f"_hfree({self.operand(i.pointer)})")
        elif k is ins.BinOp and i.op in ("sdiv", "srem"):
            self.emit_division(i)
        elif k is ins.NumCast:
            # is_pure rejected it: result type is neither int nor float.
            self.line(f"raise ExecutionTrap('bad-cast', {str(i.result.type)!r})")
        elif k is ins.FuncAddr:
            # Unknown function name: the interpreter's dict lookup raises
            # a bare KeyError (not an ExecutionTrap); reproduce that.
            self.line(f"raise KeyError({i.function_name!r})")
        elif self.is_faultable_pure(i):
            self.emit_pure(i)
        elif k is ins.BinOp or k is ins.Cmp:
            # Unknown op: the interpreter raises KeyError at block-decode
            # time; falling back to interpretation reproduces it exactly.
            raise CodegenUnsupported(f"unknown {k.__name__} op {i.op}")
        else:
            # Unknown instruction type: the interpreter traps when the
            # instruction executes; emit the identical trap.
            self.line(f"raise ExecutionTrap('bad-instruction', {k.__name__!r})")

    def is_faultable_pure(self, i) -> bool:
        """Pure shape that only became a checkpoint via its fault site."""
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

    def alloc_size(self, i) -> str:
        size = sizeof(i.allocated_type)
        if i.count is None:
            return str(size)
        if type(i.count) is ConstInt:
            return _int_lit(size * i.count.value)
        return f"{size} * {self.operand(i.count)}"

    def emit_load(self, i) -> None:
        up, _pk, sz, tname = _scalar_access(i.result.type)
        self.need("_seg", "_rs")
        res = self.reg(i.result.name)
        self.line(f"_a = {self.operand(i.pointer)}")
        self.line(f"if _hb <= _a and _a + {sz} <= _he:")
        self.line(f"    {res} = {up}(_hd, _a - _hb)[0]")
        self.line(f"elif _sb <= _a and _a + {sz} <= _se:")
        self.line(f"    {res} = {up}(_sd, _a - _sb)[0]")
        self.line("else:")
        self.line(f"    {res} = _rs(_a, {tname})")

    def emit_store(self, i) -> None:
        _up, pk, sz, tname = _scalar_access(i.value.type)
        self.need("_seg", "_ws")
        val = self.operand(i.value)
        ty = i.value.type
        if isinstance(ty, PointerType):
            packed = f"{val} & {_U64_LIT}"
        elif type(ty) is IntType:
            packed = _wrap_expr(f"int({val})", ty.bits)
        else:
            packed = val
        self.line(f"_a = {self.operand(i.pointer)}")
        self.line(f"if _hb <= _a and _a + {sz} <= _he:")
        self.line(f"    {pk}(_hd, _a - _hb, {packed})")
        self.line(f"elif _sb <= _a and _a + {sz} <= _se:")
        self.line(f"    {pk}(_sd, _a - _sb, {packed})")
        self.line("else:")
        self.line(f"    _ws(_a, {tname}, {val})")

    def emit_division(self, i) -> None:
        a, b = self.operand(i.lhs), self.operand(i.rhs)
        self.line(f"_da = {a}")
        self.line(f"_db = {b}")
        self.line("if _db == 0:")
        self.line("    raise ExecutionTrap('divide-by-zero')")
        self.line("_q = abs(_da) // abs(_db)")
        self.line("if (_da < 0) != (_db < 0):")
        self.line("    _q = -_q")
        raw = "_q" if i.op == "sdiv" else "_da - _q * _db"
        self.line(f"{self.reg(i.result.name)} = {self.arith(i.result.type, raw)}")

    def emit_call(self, i) -> None:
        args = [self.operand(a) for a in i.args]
        if i.is_direct:
            info = self.ctx.fn_info.get(i.callee)
            if info is None:
                self.line(f"raise ExecutionTrap('unresolved-call', {str(i.callee)!r})")
                return
            pyname, nparams, is_external = info
            if is_external:
                if self.ctx.rt_spec is not None and self.emit_dpmr_call(i, args):
                    return
                self.need("_ci")
                call = f"_ci({i.callee!r}, {self.arg_container(i, args)})"
            elif nparams != len(args):
                msg = f"{i.callee} expects {nparams} args, got {len(args)}"
                self.line(f"raise ExecutionTrap('bad-call', {msg!r})")
                return
            else:
                arglist = ", ".join(args)
                call = f"{pyname}(m, {arglist})" if args else f"{pyname}(m)"
        else:
            self.need("_cba")
            call = f"_cba({self.operand(i.callee)}, {self.arg_container(i, args)})"
        if i.result is not None:
            self.line(f"_r = {call}")
            self.line(f"{self.reg(i.result.name)} = 0 if _r is None else _r")
        else:
            self.line(call)

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

    def emit_dpmr_call(self, i, args: List[str]) -> bool:
        """Inline one DPMR hook against the program's runtime spec.

        Covers exactly the call shapes the DPMR transform emits (hook
        arity, result use matching the declared signature); anything else
        returns False and takes the ``call_intrinsic`` slow path, whose
        behaviour is the reference.  ``dpmr_detect`` raises directly; the
        replica alloc/free hooks call the ``_rmal`` / ``_rfree`` namespace
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
                return False
            if not i.args:
                code = "0"
            elif type(i.args[0]) is ConstInt:
                code = _int_lit(int(i.args[0].value))
            else:
                code = f"int({args[0]})"
            self.line(f"raise _DD({code})")
            return True
        if len(i.args) != 1:
            return False
        a0 = i.args[0]
        arg = _int_lit(int(a0.value)) if type(a0) is ConstInt else f"int({args[0]})"
        if name == "dpmr_replica_malloc":
            if i.result is None:
                self.line(f"_rmal(m, {arg})")
            else:
                # The interpreter's generic call path converts a None
                # result to 0; keep that for every binding.
                self.line(f"_r = _rmal(m, {arg})")
                self.line(f"{self.reg(i.result.name)} = 0 if _r is None else _r")
            return True
        if name == "dpmr_replica_free":
            if i.result is not None:
                return False
            self.line(f"_rfree(m, {arg})")
            return True
        return False

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

    def emit_arm(self, label: str) -> None:
        if label in self.leader_idx:
            self.line(f"    _b = {self.leader_idx[label]}")
            self.line("    continue")
        else:
            self.line(f"    raise KeyError({label!r})")

    def emit_chain(self, block) -> None:
        """Emit a leader block plus every single-predecessor block its
        fault-free jumps splice in (batches run across the splice)."""
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
                else:
                    self.flush(batch, final=inst)
                    batch = []
                    self.emit_checkpoint(inst)
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
                if term.target in self.leader_idx:
                    self.line(f"_b = {self.leader_idx[term.target]}")
                    self.line("continue")
                else:
                    self.line(f"raise KeyError({term.target!r})")
                return
            self.flush(batch, final=term)
            if k is ins.Branch:
                self.line(f"if {self.operand(term.cond)}:")
                self.emit_arm(term.then_target)
                self.line("else:")
                self.emit_arm(term.else_target)
            elif k is ins.Ret:
                if term.value is None:
                    self.line("return None")
                else:
                    self.line(f"return {self.operand(term.value)}")
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
        never approach CPython's nesting limit the way inlining would."""
        if hi - lo == 1:
            self.emit_chain(self.leaders[lo])
            return
        mid = (lo + hi) // 2
        if lo + 1 == mid:
            self.line(f"if _b == {lo}:")
        else:
            self.line(f"if _b < {mid}:")
        self.indent += 1
        self.emit_dispatch(lo, mid)
        self.indent -= 1
        self.line("else:")
        self.indent += 1
        self.emit_dispatch(mid, hi)
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
        self.indent = 1
        if self.has_alloca:
            self.line("_ss = m.stack_top")
            self.line("try:")
            self.indent += 1
        if self.needs_loop:
            self.line("_b = 0")
            self.line("while True:")
            self.indent += 1
            self.emit_dispatch(0, len(self.leaders))
            self.indent -= 1
        else:
            self.emit_chain(self.blocks[0])
        if self.has_alloca:
            self.indent -= 1
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
    out = []
    if u & {"_seg", "_rs", "_ws"}:
        out.append("_mem = m.memory")
    if "_seg" in u:
        out.append("_h = _mem.heap; _hb = _h.base; _he = _h.end; _hd = _h.data")
        out.append("_s = _mem.stack; _sb = _s.base; _se = _s.end; _sd = _s.data")
    if "_rs" in u:
        out.append("_rs = _mem.read_scalar")
    if "_ws" in u:
        out.append("_ws = _mem.write_scalar")
    if "_mx" in u:
        out.append("_mx = m.max_cycles")
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
