"""Module-level IR containers: basic blocks, functions, globals, modules."""

from __future__ import annotations

import functools
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .instructions import Instruction, Terminator
from .types import FunctionType, PointerType, Type
from .values import FunctionRef, GlobalRef, Register


@functools.lru_cache(maxsize=None)
def _slot_names(cls: type) -> Tuple[str, ...]:
    """Every slot of an IR class, base classes first."""
    return tuple(
        name for k in reversed(cls.__mro__) for name in vars(k).get("__slots__", ())
    )


def _clone_instruction(inst: Instruction) -> Instruction:
    """Structural copy of one instruction, slot by slot.

    Operand values (registers, constants, refs) are immutable once built and
    are shared; every list slot (e.g. ``Call.args``) gets a fresh list so
    in-place rewrites — the fault injector replacing a malloc count,
    stamping ``fault_site`` — never reach the original.
    """
    cls = type(inst)
    c = cls.__new__(cls)
    for name in _slot_names(cls):
        value = getattr(inst, name)
        setattr(c, name, list(value) if isinstance(value, list) else value)
    return c


class BasicBlock:
    """A labeled straight-line instruction sequence ending in a terminator.

    Slotted like the instructions it holds; the label is interned, as
    register names are (:class:`~repro.ir.values.Register`).
    """

    __slots__ = ("label", "instructions")

    def __init__(self, label: str):
        self.label = sys.intern(label)
        self.instructions: List[Instruction] = []

    @property
    def terminator(self) -> Optional[Terminator]:
        if self.instructions and isinstance(self.instructions[-1], Terminator):
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"block {self.label} is already terminated")
        self.instructions.append(inst)
        return inst

    def clone(self) -> "BasicBlock":
        """Structural copy: same label, per-instruction copies (see
        :func:`_clone_instruction` for the sharing contract)."""
        b = BasicBlock(self.label)
        b.instructions = [_clone_instruction(i) for i in self.instructions]
        return b

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover
        return f"BasicBlock({self.label}, {len(self.instructions)} insts)"


class Function:
    """A function definition or external declaration.

    External functions (``is_external=True``) have no blocks; they are
    resolved at run time against the machine's intrinsic registry
    (the paper's *external code*, §2.8).
    """

    def __init__(
        self,
        name: str,
        type: FunctionType,
        param_names: Optional[Sequence[str]] = None,
        is_external: bool = False,
    ):
        self.name = name
        self.type = type
        self.is_external = is_external
        self.blocks: List[BasicBlock] = []
        self._block_index: Dict[str, BasicBlock] = {}
        names = list(param_names) if param_names is not None else [
            f"arg{i}" for i in range(len(type.params))
        ]
        if len(names) != len(type.params):
            raise ValueError("parameter name count does not match type")
        self.params: List[Register] = [
            Register(n, t) for n, t in zip(names, type.params)
        ]
        self._next_reg = 0
        self._next_label = 0

    # -- construction helpers -------------------------------------------

    def new_register(self, type: Type, hint: str = "r") -> Register:
        name = f"{hint}{self._next_reg}"
        self._next_reg += 1
        return Register(name, type)

    def add_block(self, label: Optional[str] = None) -> BasicBlock:
        if label is None:
            label = f"bb{self._next_label}"
            self._next_label += 1
        if label in self._block_index:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self.blocks.append(block)
        self._block_index[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        return self._block_index[label]

    def find_block(self, label: str) -> Optional[BasicBlock]:
        """Like :meth:`block`, but returns ``None`` for an unknown label."""
        return self._block_index.get(label)

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def ref(self) -> FunctionRef:
        """A function-pointer value referring to this function."""
        return FunctionRef(self.name, PointerType(self.type))

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def reachable_blocks(self) -> List[BasicBlock]:
        """Blocks reachable from the entry, in ``blocks`` order.

        Codegen-facing metadata mirroring the machine's decode rules
        exactly: a block ends at its *first* terminator (dead instructions
        after it contribute nothing), and a branch/jump label that does not
        resolve simply has no successor edge (executing it traps; it never
        makes anything reachable).
        """
        from .instructions import Branch, Jump, Ret, Unreachable

        def successors(block: BasicBlock) -> List[str]:
            for inst in block.instructions:
                k = type(inst)
                if k is Branch:
                    return [inst.then_target, inst.else_target]
                if k is Jump:
                    return [inst.target]
                if k is Ret or k is Unreachable:
                    return []
            return []

        if not self.blocks:
            return []
        seen = {self.blocks[0].label}
        work = [self.blocks[0]]
        while work:
            for label in successors(work.pop()):
                target = self._block_index.get(label)
                if target is not None and target.label not in seen:
                    seen.add(target.label)
                    work.append(target)
        return [b for b in self.blocks if b.label in seen]

    def clone(self) -> "Function":
        """Structural copy sharing types, params, and operand values.

        The copy has its own block list, block objects, and instruction
        objects, so mutating it (fault injection, block edits) leaves the
        original untouched; register-name counters carry over so code built
        on top of the clone allocates the same fresh names the original
        would.  Cost is one shallow instruction copy per instruction —
        orders of magnitude cheaper than re-running a program factory.
        """
        fn = Function.__new__(Function)
        fn.name = self.name
        fn.type = self.type
        fn.is_external = self.is_external
        fn.params = list(self.params)
        fn._next_reg = self._next_reg
        fn._next_label = self._next_label
        fn.blocks = [b.clone() for b in self.blocks]
        fn._block_index = {b.label: b for b in fn.blocks}
        return fn

    def __repr__(self) -> str:  # pragma: no cover
        kind = "external " if self.is_external else ""
        return f"<{kind}Function {self.name}: {self.type}>"


#: Global initializers are nested Python data:
#: ints/floats for scalars, ``None`` for null pointers, ``bytes`` for byte
#: arrays, lists for arrays/structs, and GlobalRef/FunctionRef for pointers.
Initializer = Union[int, float, None, bytes, list, GlobalRef, FunctionRef]


class GlobalVariable:
    """A module global.

    Per the paper's assumptions, a global named ``g`` of declared value type
    ``T`` is a *pointer to memory*: references to ``g`` in code have type
    ``T*`` and the memory is allocated (and initialized) at program start.
    """

    def __init__(self, name: str, value_type: Type, initializer: Initializer = None):
        self.name = name
        self.value_type = value_type
        self.initializer = initializer

    def ref(self) -> GlobalRef:
        return GlobalRef(self.name, PointerType(self.value_type))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GlobalVariable {self.name}: {self.value_type}>"


class Module:
    """A whole program: functions plus global variables."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def add_global(self, g: GlobalVariable) -> GlobalVariable:
        if g.name in self.globals:
            raise ValueError(f"duplicate global {g.name!r}")
        self.globals[g.name] = g
        return g

    def function(self, name: str) -> Function:
        return self.functions[name]

    def defined_functions(self) -> Iterator[Function]:
        for fn in self.functions.values():
            if not fn.is_external:
                yield fn

    def external_functions(self) -> Iterator[Function]:
        for fn in self.functions.values():
            if fn.is_external:
                yield fn

    def clone(self, mutable_functions: Optional[Iterable[str]] = None) -> "Module":
        """Structural snapshot of the whole program.

        With ``mutable_functions=None`` every function body is copied — a
        fully isolated clone that may be mutated freely.  Passing an iterable
        of function names copies *only those* bodies and shares the remaining
        :class:`Function` objects with the original (copy-on-write): the
        campaign fast path, where exactly one function per fault site is ever
        mutated, clones a whole module in O(changed function).  Shared
        functions must be treated as frozen by the caller; the interpreter
        and the DPMR transformation only read IR, so sharing is safe there.

        Globals get fresh :class:`GlobalVariable` wrappers but share their
        (never-mutated) initializer structure; function/global dict ordering
        is preserved, which keeps machine address assignment — and therefore
        execution — identical between a clone and its original.
        """
        m = Module(self.name)
        if mutable_functions is None:
            m.functions = {name: fn.clone() for name, fn in self.functions.items()}
        else:
            mutable = set(mutable_functions)
            m.functions = {
                name: (fn.clone() if name in mutable else fn)
                for name, fn in self.functions.items()
            }
        m.globals = {
            name: GlobalVariable(g.name, g.value_type, g.initializer)
            for name, g in self.globals.items()
        }
        return m

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
