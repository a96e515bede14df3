"""Instruction set of the DPMR intermediate representation.

Programs interact with memory only through loads and stores; each load/store
moves exactly one scalar value (paper, Ch. 2 assumptions).  Address
computation is explicit (:class:`FieldAddr`, :class:`ElemAddr`), which is
what lets the DPMR transformation mirror addressing arithmetic onto replica
and shadow memory.

Every instruction carries:

* ``result`` — the :class:`~repro.ir.values.Register` it defines (or None),
* ``fault_site`` — an optional fault-injection site id (set by the
  compiler-based injector of §3.4 *before* the DPMR transformation runs),
* ``origin`` — a free-form provenance note used by the printer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .types import (
    ArrayType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
)
from .values import Register, Value

BINARY_OPS = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "shr")
FLOAT_OPS = ("fadd", "fsub", "fmul", "fdiv")
CMP_OPS = ("eq", "ne", "slt", "sle", "sgt", "sge")


class Instruction:
    """Base class for all instructions (every subclass declares
    ``__slots__``; see :class:`~repro.ir.values.Value`)."""

    __slots__ = ("result", "fault_site", "origin")

    def __init__(self) -> None:
        self.result: Optional[Register] = None
        self.fault_site: Optional[str] = None
        self.origin: Optional[str] = None

    def operands(self) -> List[Value]:
        """All value operands (for generic traversal/verification)."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import format_instruction

        return format_instruction(self)


class Alloca(Instruction):
    """Stack allocation: ``result <- alloca(ty [, count])``."""

    __slots__ = ("allocated_type", "count")

    def __init__(self, result: Register, allocated_type: Type, count: Optional[Value] = None):
        super().__init__()
        self.result = result
        self.allocated_type = allocated_type
        self.count = count

    def operands(self) -> List[Value]:
        return [self.count] if self.count is not None else []


class Malloc(Instruction):
    """Heap allocation: ``result <- malloc(ty [, count])``.

    ``count`` (an operand) requests an array of ``count`` elements of
    ``allocated_type``; heap array allocations are the targets of the
    *heap array resize* fault injection (§3.4).
    """

    __slots__ = ("allocated_type", "count")

    def __init__(self, result: Register, allocated_type: Type, count: Optional[Value] = None):
        super().__init__()
        self.result = result
        self.allocated_type = allocated_type
        self.count = count

    def operands(self) -> List[Value]:
        return [self.count] if self.count is not None else []


class Free(Instruction):
    """Heap deallocation: ``free(ptr)``."""

    __slots__ = ("pointer",)

    def __init__(self, pointer: Value):
        super().__init__()
        self.pointer = pointer

    def operands(self) -> List[Value]:
        return [self.pointer]


class Load(Instruction):
    """Memory read of one scalar: ``result <- *ptr``."""

    __slots__ = ("pointer",)

    def __init__(self, result: Register, pointer: Value):
        super().__init__()
        self.result = result
        self.pointer = pointer

    def operands(self) -> List[Value]:
        return [self.pointer]


class Store(Instruction):
    """Memory write of one scalar: ``*ptr <- value``."""

    __slots__ = ("pointer", "value")

    def __init__(self, pointer: Value, value: Value):
        super().__init__()
        self.pointer = pointer
        self.value = value

    def operands(self) -> List[Value]:
        return [self.pointer, self.value]


class FieldAddr(Instruction):
    """Address of a structure field: ``result <- &(ptr->field)``."""

    __slots__ = ("pointer", "index")

    def __init__(self, result: Register, pointer: Value, index: int):
        super().__init__()
        self.result = result
        self.pointer = pointer
        self.index = index

    def operands(self) -> List[Value]:
        return [self.pointer]


class ElemAddr(Instruction):
    """Address of an array element: ``result <- &ptr[index]``.

    ``pointer`` has type ``τ[]*`` (pointer to array); the result has type
    ``τ*``.
    """

    __slots__ = ("pointer", "index")

    def __init__(self, result: Register, pointer: Value, index: Value):
        super().__init__()
        self.result = result
        self.pointer = pointer
        self.index = index

    def operands(self) -> List[Value]:
        return [self.pointer, self.index]


class PtrCast(Instruction):
    """Pointer-to-pointer cast: ``result <- (ty*)ptr``."""

    __slots__ = ("pointer",)

    def __init__(self, result: Register, pointer: Value):
        super().__init__()
        self.result = result
        self.pointer = pointer

    def operands(self) -> List[Value]:
        return [self.pointer]


class PtrToInt(Instruction):
    """Pointer-to-int cast (recognized only under DSA scope expansion)."""

    __slots__ = ("pointer",)

    def __init__(self, result: Register, pointer: Value):
        super().__init__()
        self.result = result
        self.pointer = pointer

    def operands(self) -> List[Value]:
        return [self.pointer]


class IntToPtr(Instruction):
    """Int-to-pointer cast (forbidden by SDS/MDS; handled via DSA, Ch. 5)."""

    __slots__ = ("value",)

    def __init__(self, result: Register, value: Value):
        super().__init__()
        self.result = result
        self.value = value

    def operands(self) -> List[Value]:
        return [self.value]


class BinOp(Instruction):
    """Integer or float arithmetic: ``result <- lhs op rhs``."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, result: Register, op: str, lhs: Value, rhs: Value):
        if op not in BINARY_OPS and op not in FLOAT_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        super().__init__()
        self.result = result
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]


class Cmp(Instruction):
    """Comparison producing an ``int8`` 0/1: ``result <- lhs op rhs``."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, result: Register, op: str, lhs: Value, rhs: Value):
        if op not in CMP_OPS:
            raise ValueError(f"unknown comparison op {op!r}")
        super().__init__()
        self.result = result
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def operands(self) -> List[Value]:
        return [self.lhs, self.rhs]


class NumCast(Instruction):
    """Numeric conversion between scalar non-pointer types."""

    __slots__ = ("value",)

    def __init__(self, result: Register, value: Value):
        super().__init__()
        self.result = result
        self.value = value

    def operands(self) -> List[Value]:
        return [self.value]


class Call(Instruction):
    """Function call, direct (by name) or indirect (function pointer).

    ``callee`` is a ``str`` naming a module function for direct calls, or a
    :class:`Value` of function-pointer type for indirect calls.
    """

    __slots__ = ("callee", "args")

    def __init__(
        self,
        result: Optional[Register],
        callee: Union[str, Value],
        args: Sequence[Value],
    ):
        super().__init__()
        self.result = result
        self.callee = callee
        self.args = list(args)

    @property
    def is_direct(self) -> bool:
        return isinstance(self.callee, str)

    def operands(self) -> List[Value]:
        ops = list(self.args)
        if isinstance(self.callee, Value):
            ops.append(self.callee)
        return ops


class FuncAddr(Instruction):
    """Take the address of a function: ``result <- &fun``."""

    __slots__ = ("function_name",)

    def __init__(self, result: Register, function_name: str):
        super().__init__()
        self.result = result
        self.function_name = function_name


# --- Terminators ------------------------------------------------------------


class Terminator(Instruction):
    """Base class for block terminators."""

    __slots__ = ()

    def successors(self) -> List[str]:
        return []


class Jump(Terminator):
    """Unconditional branch to a block label."""

    __slots__ = ("target",)

    def __init__(self, target: str):
        super().__init__()
        self.target = target

    def successors(self) -> List[str]:
        return [self.target]


class Branch(Terminator):
    """Conditional branch: nonzero ``cond`` goes to ``then_target``."""

    __slots__ = ("cond", "then_target", "else_target")

    def __init__(self, cond: Value, then_target: str, else_target: str):
        super().__init__()
        self.cond = cond
        self.then_target = then_target
        self.else_target = else_target

    def operands(self) -> List[Value]:
        return [self.cond]

    def successors(self) -> List[str]:
        return [self.then_target, self.else_target]


class Ret(Terminator):
    """Function return with an optional scalar value."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[Value] = None):
        super().__init__()
        self.value = value

    def operands(self) -> List[Value]:
        return [self.value] if self.value is not None else []


class Unreachable(Terminator):
    """Trap terminator; executing it is a crash (natural detection)."""

    __slots__ = ()


def result_type_of_field_addr(pointer_type: Type, index: int) -> PointerType:
    """Result type of ``&(p->f_index)`` given ``type(p)``."""
    if not isinstance(pointer_type, PointerType):
        raise TypeError(f"field address requires a pointer, got {pointer_type}")
    pointee = pointer_type.pointee
    if not isinstance(pointee, StructType):
        raise TypeError(f"field address requires struct pointee, got {pointee}")
    return PointerType(pointee.fields[index])


def result_type_of_elem_addr(pointer_type: Type) -> PointerType:
    """Result type of ``&p[i]`` given ``type(p) = τ[]*``."""
    if not isinstance(pointer_type, PointerType):
        raise TypeError(f"element address requires a pointer, got {pointer_type}")
    pointee = pointer_type.pointee
    if not isinstance(pointee, ArrayType):
        raise TypeError(f"element address requires array pointee, got {pointee}")
    return PointerType(pointee.element)


def is_pointer_value(v: Value) -> bool:
    """Whether operand ``v`` is typed as a pointer."""
    return isinstance(v.type, PointerType)


def callee_function_type(callee_type: Type) -> FunctionType:
    """Extract the :class:`FunctionType` from a function-pointer type."""
    if isinstance(callee_type, PointerType) and isinstance(
        callee_type.pointee, FunctionType
    ):
        return callee_type.pointee
    raise TypeError(f"not a function pointer type: {callee_type}")


def int_type_of(v: Value) -> IntType:
    if not isinstance(v.type, IntType):
        raise TypeError(f"expected integer operand, got {v.type}")
    return v.type
