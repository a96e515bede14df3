"""One process-wide table of build products, keyed by content.

A fault-injection campaign builds the same things over and over: every
job of a workload runs the same golden run and enumerates sites on the
same pristine snapshot, every seed set and every fault kind transforms
the same pristine module with the same DPMR configuration, every
diversity variant transforms it identically, and every repeated request
rebuilds the same faulty modules.  None of those products depends on the
seeds, the variant list, the variant order, the variant's name or
diversity, or the job object that asks for it — only on content.  This
table holds each one under a key made of exactly what determines it:

=============  =======================================================
entry          key (after the kind tag)
=============  =======================================================
``pristine``   pristine digest (:func:`module_fingerprint`); the value
               is a :class:`Pristine`: the one canonical :class:`Module`
               of that content, so ``Module.clone`` and the on-Function
               code memo share functions by identity across jobs,
               verified and its functions fingerprinted once, for the
               first base transform
``golden``     (pristine digest, argv)
``sites``      (pristine digest, fault kind, percent)
``base``       (pristine digest, transform digest): a
               :class:`BaseTransform`
``site``       (pristine digest, fault kind, percent, site id, transform
               digest): a finished faulty build — the faulty module and
               its DPMR build, or ``None`` for a variant without DPMR
               (whose transform digest is ``None``)
=============  =======================================================

The transform digest
(:func:`~repro.core.incremental.transform_digest`, via
:meth:`~repro.eval.variants.Variant.transform_key`) is the design plus
the comparison policy's configuration — class and plain-data attributes
such as fraction, seed and mask, not its RNG state — which is all the
SDS/MDS transform reads.  The diversity transformation only shapes the
replica heap at run time, so it is not part of any key: a tuple binds
its variant's name and diversity to the shared product
(:meth:`~repro.eval.variants.Variant.bind`).  The result store keys
records on ``variant_fingerprint`` instead, which names the variant and
its diversity as well as the transform digest; that is a record's
identity, not a build's.

**Bound.**  One LRU over all kinds with a constant entry budget
(:data:`BUILD_TABLE_ENTRIES`); inserting past it evicts the least
recently used entry, one at a time.  An evicted product is rebuilt on
its next use, byte-identically, so eviction only ever costs time.

**Safety.**  One lock guards every table mutation; a per-key gate makes
concurrent lookups of the same missing key build it once.  Site builds
through a shared base transform hold that entry's :attr:`BaseTransform.lock`,
because the transform's policy object and memo are not thread-safe.
Forked workers inherit the table copy-on-write (their own additions stay
in the child); the child re-creates every lock, since a lock held by a
parent thread at fork time would otherwise never be released there.

**Counts.**  Golden runs, base transforms and site builds are counted,
each as built or served, together with evictions.  :func:`build_scope`
collects the counts caused by the current thread, which is how a run
manifest reports its own campaign's table traffic and the campaign
service its daemon's totals.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from ..ir.module import Module
from ..ir.printer import format_module, function_fingerprint
from ..ir.verifier import verify_module

#: Entry budget of the table, over all kinds together.  The benchmark
#: workloads hold about 140 entries (the service stream: 56 base
#: transforms and 64 faulty builds), so neither evicts.  On the shipped
#: apps at scale 1, a base transform takes about 0.2 MB (at most 0.35 MB)
#: and a faulty build about 0.3 MB (at most 0.7 MB) with its compiled
#: code, so a full table stays under about 400 MB.
BUILD_TABLE_ENTRIES = 512


def module_fingerprint(module: Module) -> str:
    """sha256 of the module's canonical printed form.

    Covers every function body (including injected faults), globals and
    their initializers — any edit to the program text changes the key.
    """
    return hashlib.sha256(format_module(module).encode("utf-8")).hexdigest()


@dataclass
class BuildCounts:
    """Build-table traffic: products built vs. served, plus evictions."""

    golden_built: int = 0
    golden_served: int = 0
    base_built: int = 0
    base_served: int = 0
    site_built: int = 0
    site_served: int = 0
    builds_evicted: int = 0

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)

    def add_to(self, target) -> None:
        """Add these counts onto ``target``'s same-named fields (e.g. a
        :class:`~repro.obs.manifest.RunManifest`)."""
        for f in fields(self):
            setattr(target, f.name, getattr(target, f.name) + getattr(self, f.name))


class Pristine:
    """A table entry for one pristine content: its canonical module and,
    from the first base transform of the content on, proof that it
    verifies plus the fingerprint of each defined function, which every
    incremental compiler of that content reads instead of recomputing.
    Runs without DPMR never pay for either."""

    __slots__ = ("module", "_function_fps")

    def __init__(self, module: Module) -> None:
        self.module = module
        self._function_fps: Optional[Dict[str, str]] = None

    @property
    def function_fps(self) -> Dict[str, str]:
        """Defined function name → ``function_fingerprint``, once the
        module has verified.  Two threads may both compute it the first
        time; the results are equal."""
        fps = self._function_fps
        if fps is None:
            verify_module(self.module)
            fps = self._function_fps = {
                fn.name: function_fingerprint(fn)
                for fn in self.module.defined_functions()
            }
        return fps


class BaseTransform:
    """A table entry for one base transform, with its site-build lock."""

    __slots__ = ("compiler", "lock")

    def __init__(self, compiler) -> None:
        self.compiler = compiler
        self.lock = threading.Lock()


#: Counted entry kinds → (built field, served field) of :class:`BuildCounts`.
_COUNTED = {
    "golden": ("golden_built", "golden_served"),
    "base": ("base_built", "base_served"),
    "site": ("site_built", "site_served"),
}
_MISS = object()
_LOCAL = threading.local()


def _scopes() -> List[BuildCounts]:
    scopes = getattr(_LOCAL, "scopes", None)
    if scopes is None:
        scopes = _LOCAL.scopes = []
    return scopes


@contextmanager
def build_scope(counts: Optional[BuildCounts] = None) -> Iterator[BuildCounts]:
    """Collect the table traffic this thread causes inside the block.

    Scopes nest: every open scope of the thread receives each count.
    Pass ``counts`` to keep accumulating into an existing object.
    """
    counts = counts if counts is not None else BuildCounts()
    scopes = _scopes()
    scopes.append(counts)
    try:
        yield counts
    finally:
        scopes.pop()


class BuildTable:
    """Content-keyed LRU of build products (see the module docstring)."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._gates: Dict[Tuple, threading.Lock] = {}
        self._lock = threading.Lock()
        #: every count since the process started.
        self.totals = BuildCounts()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def get(self, key: Tuple[Hashable, ...], build: Callable[[], object]):
        """The entry under ``key`` (``key[0]`` is its kind); on a miss,
        ``build()`` makes it, once, however many threads ask."""
        with self._lock:
            value = self._served(key)
            if value is not _MISS:
                return value
            gate = self._gates.setdefault(key, threading.Lock())
        with gate:
            with self._lock:
                value = self._served(key)  # built while we waited
                if value is not _MISS:
                    return value
            try:
                value = build()
                with self._lock:
                    self._insert(key, value)
            finally:
                with self._lock:
                    if self._gates.get(key) is gate:
                        del self._gates[key]
        return value

    def peek(self, key: Tuple[Hashable, ...]):
        """The entry under ``key``, or None; counts nothing and leaves its
        recency as it is."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        """Drop every entry (test and benchmark isolation only)."""
        with self._lock:
            self._entries.clear()

    # -- internals (called with self._lock held) --------------------------

    def _count(self, name: str) -> None:
        setattr(self.totals, name, getattr(self.totals, name) + 1)
        for scope in _scopes():
            setattr(scope, name, getattr(scope, name) + 1)

    def _served(self, key: Tuple):
        value = self._entries.get(key, _MISS)
        if value is not _MISS:
            self._entries.move_to_end(key)
            counted = _COUNTED.get(key[0])
            if counted is not None:
                self._count(counted[1])
        return value

    def _insert(self, key: Tuple, value) -> None:
        self._entries[key] = value
        counted = _COUNTED.get(key[0])
        if counted is not None:
            self._count(counted[0])
        while len(self._entries) > BUILD_TABLE_ENTRIES:
            self._entries.popitem(last=False)
            self._count("builds_evicted")

    def _after_fork_in_child(self) -> None:
        self._lock = threading.Lock()
        self._gates = {}
        for value in self._entries.values():
            if isinstance(value, BaseTransform):
                value.lock = threading.Lock()


_TABLE = BuildTable()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_TABLE._after_fork_in_child)


def build_table() -> BuildTable:
    """The process-wide build table."""
    return _TABLE


def reset_build_table() -> None:
    """Drop every build-table entry, so the next builds run cold.

    For benchmark arms and tests that measure cold builds; tests that
    also measure cold compiles pair it with
    :func:`repro.machine.compile.reset_codegen_caches`.  Counts keep
    running (read them as deltas).
    """
    _TABLE.clear()


def pristine_entry(module: Module, digest: str) -> Pristine:
    """The table's :class:`Pristine` entry for content ``digest``, admitting
    ``module`` (whose digest it must be) if the table holds none.

    The first module admitted for a digest becomes the canonical one; it
    must be treated as frozen from then on (campaign clones share its
    functions).
    """
    return _TABLE.get(("pristine", digest), lambda: Pristine(module))


def canonical_pristine(module: Module) -> Tuple[Module, str]:
    """The canonical snapshot of ``module``'s content and its digest."""
    digest = module_fingerprint(module)
    return pristine_entry(module, digest).module, digest
