"""Values: virtual registers and constants.

The paper assumes an architecture in which virtual registers and memory are
distinct; registers hold only scalars (integers, floating point values, and
pointers).  :class:`Register` models a virtual register; the ``Const*``
classes model immediate scalar operands.
"""

from __future__ import annotations

import sys
from typing import Optional, Union

from .types import (
    FloatType,
    IntType,
    PointerType,
    Type,
)


class Value:
    """Base class for anything usable as an instruction operand.

    Values and instructions are the bulk of every module a build holds, so
    each IR class declares ``__slots__``: no instance carries a dict.
    """

    __slots__ = ("type",)
    type: Type

    def __init__(self, type: Type):
        self.type = type


class Register(Value):
    """A virtual register holding one scalar value.

    The name is interned: every transform of a program declares the same
    register names, and they share one string each.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, type: Type):
        if not type.is_scalar():
            raise TypeError(f"registers hold scalars only, got {type}")
        super().__init__(type)
        self.name = sys.intern(name)

    def __str__(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"Register({self.name}: {self.type})"


class ConstInt(Value):
    """An integer immediate."""

    __slots__ = ("value",)

    def __init__(self, type: IntType, value: int):
        if not isinstance(type, IntType):
            raise TypeError(f"ConstInt requires an IntType, got {type}")
        super().__init__(type)
        self.value = _wrap_int(value, type.bits)

    def __str__(self) -> str:
        return f"{self.value}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstInt)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("ci", self.type, self.value))


class ConstFloat(Value):
    """A floating point immediate."""

    __slots__ = ("value",)

    def __init__(self, type: FloatType, value: float):
        if not isinstance(type, FloatType):
            raise TypeError(f"ConstFloat requires a FloatType, got {type}")
        super().__init__(type)
        self.value = float(value)

    def __str__(self) -> str:
        return f"{self.value}"


class ConstNull(Value):
    """The null pointer constant of a given pointer type."""

    __slots__ = ()

    def __init__(self, type: PointerType):
        if not isinstance(type, PointerType):
            raise TypeError(f"ConstNull requires a PointerType, got {type}")
        super().__init__(type)

    def __str__(self) -> str:
        return "null"


class GlobalRef(Value):
    """A reference to a module global variable.

    Per the paper's assumptions all global variables are pointers to memory,
    so a :class:`GlobalRef` always has pointer type (pointer to the global's
    declared value type).
    """

    __slots__ = ("name",)

    def __init__(self, name: str, type: PointerType):
        super().__init__(type)
        self.name = name

    def __str__(self) -> str:
        return f"@{self.name}"


class FunctionRef(Value):
    """A direct reference to a function (for calls and address-of)."""

    __slots__ = ("name",)

    def __init__(self, name: str, type: PointerType):
        super().__init__(type)
        self.name = name

    def __str__(self) -> str:
        return f"@{self.name}"


Operand = Union[Register, ConstInt, ConstFloat, ConstNull, GlobalRef, FunctionRef]


def _wrap_int(value: int, bits: int) -> int:
    """Wrap ``value`` to the two's-complement range of ``bits``."""
    mask = (1 << bits) - 1
    value &= mask
    if bits > 1 and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def wrap_int(value: int, bits: int) -> int:
    """Public two's-complement wrapping helper (used by the interpreter)."""
    return _wrap_int(value, bits)


def const_like(value: int, type: Optional[Type] = None) -> ConstInt:
    """Convenience: an int constant, defaulting to ``int64``."""
    from .types import INT64

    ty = type if isinstance(type, IntType) else INT64
    return ConstInt(ty, value)
