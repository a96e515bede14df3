"""State comparison policies (§2.7).

A *load check* replicates a load and compares the result with the
application load.  Policies trade dependability for performance by limiting
how often load checks run:

* :class:`AllLoadsPolicy` — every load is replicated and compared (the
  default of Table 2.6).
* :class:`TemporalLoadCheckingPolicy` — a global counter walks the bits of a
  64-bit mask (Table 2.9); the check runs only when the current bit is one.
  The counter/branch bookkeeping executes at *every* load, which is why the
  paper finds temporal checking costs more than all-loads (§3.8).
* :class:`StaticLoadCheckingPolicy` — each load site receives a check with a
  given probability *at compile time*; unchecked sites are never checked.

Policies are consulted by the transformation through two hooks:
``setup_module`` (once per build; may add support globals) and
``emit_load_check`` (per load site; emits IR through the translator).
"""

from __future__ import annotations

import random
from array import array
from typing import TYPE_CHECKING, Optional

from ..ir import instructions as ins
from ..ir.module import GlobalVariable
from ..ir.types import INT32
from ..ir.values import ConstInt, Register, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .transform import FunctionTranslator


MASK_COUNTER_GLOBAL = "dpmr.maskCounter"

#: The 64-bit masks evaluated in the paper (§2.7).
TEMPORAL_MASK_1_8 = 0x8080808080808080
TEMPORAL_MASK_1_2 = 0xAAAAAAAAAAAAAAAA
TEMPORAL_MASK_7_8 = 0xFEFEFEFEFEFEFEFE


class ComparisonPolicy:
    """Base class: decides, per load, whether/how to emit the check."""

    name = "abstract"

    def setup_module(self, out_module) -> None:
        """Add any support globals to the transformed module."""

    def emit_load_check(
        self, tx: "FunctionTranslator", loaded: Register, replica_ptr: Value
    ) -> None:
        raise NotImplementedError

    # -- incremental recompilation hooks --------------------------------
    #
    # A policy that consumes compile-time state per load site (only the
    # static policy today) exposes it here so the incremental build cache
    # can snapshot the state at each function boundary and replay exactly
    # the per-site decisions a full-module rebuild would make.

    def compile_state(self):
        """Opaque snapshot of per-site compile-time state (None if stateless)."""
        return None

    def restore_compile_state(self, state) -> None:
        """Restore a snapshot taken by :meth:`compile_state`."""

    def compile_state_repr(self, state) -> str:
        """The text of a snapshot that provenance stamps digest."""
        return repr(state)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<policy {self.name}>"


class AllLoadsPolicy(ComparisonPolicy):
    """Replicate and compare every application load."""

    name = "all-loads"

    def emit_load_check(self, tx, loaded, replica_ptr) -> None:
        tx.emit_compare_and_detect(loaded, replica_ptr)


class StaticLoadCheckingPolicy(ComparisonPolicy):
    """Include the check at each load site with probability ``fraction``.

    The site selection is made once at compile time with a seeded RNG (the
    paper generates a random number per load site, §2.7).
    """

    def __init__(self, fraction: float, seed: int = 12345):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.seed = seed
        self._rng = random.Random(seed)
        self.name = f"static-{int(round(fraction * 100))}%"

    def reset(self) -> None:
        """Re-seed site selection (used to make rebuilds deterministic)."""
        self._rng = random.Random(self.seed)

    def compile_state(self):
        # A base transform keeps one snapshot per function: the Mersenne
        # Twister's 625 words go into one machine array instead of a tuple
        # of int objects, about a tenth of the bytes.
        version, words, gauss = self._rng.getstate()
        return version, array("I", words), gauss

    def restore_compile_state(self, state) -> None:
        self._rng.setstate(_rng_state(state))

    def compile_state_repr(self, state) -> str:
        # The RNG state's own repr, so packing leaves every stamp as it was.
        return repr(_rng_state(state))

    def emit_load_check(self, tx, loaded, replica_ptr) -> None:
        if self._rng.random() < self.fraction:
            tx.emit_compare_and_detect(loaded, replica_ptr)


def _rng_state(snapshot) -> tuple:
    """The ``random.Random.getstate()`` tuple a packed snapshot stands for."""
    version, words, gauss = snapshot
    return version, tuple(words), gauss


class TemporalLoadCheckingPolicy(ComparisonPolicy):
    """Check a temporal fraction of loads using a 64-bit mask (Table 2.9).

    Emits, at every load site::

        c    = load @dpmr.maskCounter
        bit  = (mask >> c) & 1
        if (bit) { assert(x == *p_r) }
        store (c + 1) % 64 -> @dpmr.maskCounter
    """

    def __init__(self, mask: int, label: Optional[str] = None):
        self.mask = mask & (1 << 64) - 1
        ones = bin(self.mask).count("1")
        self.name = label or f"temporal-{ones}/64"

    def setup_module(self, out_module) -> None:
        if MASK_COUNTER_GLOBAL not in out_module.globals:
            out_module.add_global(
                GlobalVariable(MASK_COUNTER_GLOBAL, INT32, 0)
            )

    def emit_load_check(self, tx, loaded, replica_ptr) -> None:
        b = tx.builder
        counter_ref = tx.out_module.globals[MASK_COUNTER_GLOBAL].ref()
        c = b.load(counter_ref, hint="dpmr.tc")
        c64 = b.num_cast(c, _INT64, hint="dpmr.tc")
        shifted = b.binop("shr", ConstInt(_INT64, self.mask), c64, hint="dpmr.tc")
        bit = b.binop("and", shifted, ConstInt(_INT64, 1), hint="dpmr.tc")
        cond = b.cmp("ne", bit, ConstInt(_INT64, 0), hint="dpmr.tc")
        with tx.aux_if(cond):
            tx.emit_compare_and_detect(loaded, replica_ptr)
        bumped = b.add(c, ConstInt(INT32, 1))
        wrapped = b.srem(bumped, ConstInt(INT32, 64))
        b.store(counter_ref, wrapped)


def temporal_1_8() -> TemporalLoadCheckingPolicy:
    """Temporal load-checking 1/8 (mask 0x8080808080808080)."""
    return TemporalLoadCheckingPolicy(TEMPORAL_MASK_1_8, "temporal-1/8")


def temporal_1_2() -> TemporalLoadCheckingPolicy:
    """Temporal load-checking 1/2 (mask 0xAAAA...)."""
    return TemporalLoadCheckingPolicy(TEMPORAL_MASK_1_2, "temporal-1/2")


def temporal_7_8() -> TemporalLoadCheckingPolicy:
    """Temporal load-checking 7/8 (mask 0xFEFE...)."""
    return TemporalLoadCheckingPolicy(TEMPORAL_MASK_7_8, "temporal-7/8")


def static_10(seed: int = 12345) -> StaticLoadCheckingPolicy:
    return StaticLoadCheckingPolicy(0.10, seed)


def static_50(seed: int = 12345) -> StaticLoadCheckingPolicy:
    return StaticLoadCheckingPolicy(0.50, seed)


def static_90(seed: int = 12345) -> StaticLoadCheckingPolicy:
    return StaticLoadCheckingPolicy(0.90, seed)


from ..ir.types import INT64 as _INT64  # noqa: E402
