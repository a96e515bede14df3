"""Flat byte-addressable simulated memory with segments and protection.

Everything DPMR cares about — overflow corruption, dangling reads picking up
allocator metadata, wild pointers trapping on unmapped pages — falls out of
modelling memory as *real bytes*.  Pointers are integer addresses into a
single address space containing a protected null page, a globals segment, a
stack segment, and a heap segment, with unmapped guard gaps between them.
"""

from __future__ import annotations

import mmap
import os
import random
import struct
from typing import Dict, List, Optional, Tuple

from ..ir.types import (
    FloatType,
    IntType,
    PointerType,
    Type,
)
from ..ir.values import wrap_int

NULL_PAGE_SIZE = 0x1000
GLOBALS_BASE = 0x0001_0000
STACK_BASE = 0x0020_0000
HEAP_BASE = 0x0100_0000

DEFAULT_GLOBALS_SIZE = 1 << 18  # 256 KiB
DEFAULT_STACK_SIZE = 1 << 19  # 512 KiB
DEFAULT_HEAP_SIZE = 1 << 22  # 4 MiB

_SCALAR_FORMATS = {
    ("int", 1): "b",
    ("int", 8): "b",
    ("int", 16): "<h",
    ("int", 32): "<i",
    ("int", 64): "<q",
    ("float", 32): "<f",
    ("float", 64): "<d",
}

#: Prebuilt ``struct.Struct`` per (kind, width): scalar loads/stores run on
#: every interpreted memory access, so the format string must be parsed once
#: at import, not per access.
_SCALAR_STRUCTS = {key: struct.Struct(fmt) for key, fmt in _SCALAR_FORMATS.items()}

#: The same prebuilt Structs keyed directly by the (singleton) scalar type
#: instance, giving a one-dict-lookup fast path in read/write_scalar.
_STRUCTS_BY_TYPE: Dict[Type, struct.Struct] = {}
for (_kind, _bits), _s in _SCALAR_STRUCTS.items():
    _ty = IntType(_bits) if _kind == "int" else FloatType(_bits)
    _STRUCTS_BY_TYPE[_ty] = _s
del _kind, _bits, _s, _ty

_U64 = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1


class MemoryTrap(Exception):
    """A hardware-style memory fault (natural detection by crash, §3.6)."""

    def __init__(self, kind: str, address: int, message: str = ""):
        self.kind = kind
        self.address = address
        super().__init__(f"{kind} at {address:#x} {message}".rstrip())


class Segment:
    """One contiguous mapped region of the address space."""

    def __init__(self, name: str, base: int, size: int, fill_seed: Optional[int] = None):
        self.name = name
        self.base = base
        self.size = size
        # Plain attribute (not a property): segment_for runs on every memory
        # access and the bound is fixed for the segment's lifetime.
        self.end = base + size
        if fill_seed is not None and _COW_GARBAGE:
            # Deterministic "garbage" (uninitialized reads see junk that
            # differs between addresses, which is what lets DPMR's replica
            # comparison catch them), mapped copy-on-write from a memfd
            # holding the template.  Byte-for-byte identical to a
            # bytearray copy, but a multi-megabyte segment costs one mmap
            # call instead of a full memcpy, and only pages the run
            # actually writes are ever copied — the dominant fixed cost of
            # a campaign experiment before this was resetting 4 MiB of
            # heap garbage per run.
            try:
                self.data = mmap.mmap(
                    _garbage_fd(fill_seed ^ base, size),
                    size,
                    flags=mmap.MAP_PRIVATE,
                )
                return
            except OSError:
                pass  # fall through to the plain buffer path
        if fill_seed is None:
            template = _zero_bytes(size)
        else:
            template = _garbage_bytes(fill_seed ^ base, size)
        pool = _BUFFER_POOL.get(size)
        if pool:
            # Reused buffers are overwritten wholesale from the template, so
            # their contents are byte-identical to a fresh allocation; the
            # win is skipping the multi-megabyte alloc + page-fault churn
            # every Machine of a campaign would otherwise pay.
            self.data = pool.pop()
            self.data[:] = template
        else:
            self.data = bytearray(template)

    def contains(self, address: int, length: int = 1) -> bool:
        return self.base <= address and address + length <= self.end

    def release(self) -> None:
        """Return this segment's buffer to the process-wide pool.

        Only call when the owning Machine is provably done (run_process does
        this after the result is materialized).  The segment keeps an empty
        buffer afterwards, so accidental post-release access raises instead
        of silently aliasing the next run's memory.
        """
        buf = self.data
        self.data = bytearray(0)
        if isinstance(buf, mmap.mmap):
            try:
                buf.close()  # unmap now instead of at GC time
            except BufferError:  # pragma: no cover — a live exported view
                pass
        elif len(buf) == self.size:
            pool = _BUFFER_POOL.setdefault(self.size, [])
            if len(pool) < _BUFFER_POOL_MAX:
                pool.append(buf)


#: Memoized garbage fills for the pooled-bytearray path.  The fill is a pure
#: function of (seed, size), and every Machine of a campaign rebuilds
#: identical multi-megabyte segments, so generating the bytes once and
#: copying them beats re-running the PRNG by orders of magnitude.  Keyed by
#: the already-XORed seed; bounded in practice by the handful of (seed,
#: segment-size) configurations a process uses.  The copy-on-write path
#: never fills this: its template lives in a memfd.
_GARBAGE_CACHE: Dict[Tuple[int, int], bytes] = {}

#: Memoized all-zero fills (globals segments), same rationale.
_ZERO_CACHE: Dict[int, bytes] = {}

#: Retired segment buffers by size, reused by the next Segment of that size.
#: Bounded per size class; a process only ever uses a handful of sizes.
_BUFFER_POOL: Dict[int, List[bytearray]] = {}
_BUFFER_POOL_MAX = 8


def _garbage_template(seed: int, size: int) -> bytes:
    return random.Random(seed).randbytes(size)


def _garbage_bytes(seed: int, size: int) -> bytes:
    key = (seed, size)
    data = _GARBAGE_CACHE.get(key)
    if data is None:
        data = _GARBAGE_CACHE[key] = _garbage_template(seed, size)
    return data


def _zero_bytes(size: int) -> bytes:
    data = _ZERO_CACHE.get(size)
    if data is None:
        data = _ZERO_CACHE[size] = bytes(size)
    return data


#: Copy-on-write garbage segments need memfd_create (Linux); elsewhere the
#: pooled-bytearray path below provides the same bytes, just with a memcpy.
_COW_GARBAGE = hasattr(os, "memfd_create")

#: memfd holding each garbage template, keyed like _GARBAGE_CACHE.  The fds
#: live for the whole process (a handful of configurations) and are
#: inherited by forked campaign workers along with their mappings.
_GARBAGE_FDS: Dict[Tuple[int, int], int] = {}


def _garbage_fd(seed: int, size: int) -> int:
    """The memfd holding the (seed, size) template.  The template's bytes
    are written into it and dropped: copy-on-write segments map the memfd
    and never read them again."""
    key = (seed, size)
    fd = _GARBAGE_FDS.get(key)
    if fd is None:
        fd = os.memfd_create(f"dpmr-garbage-{seed & 0xFFFFFFFF:08x}")
        view = memoryview(_garbage_template(seed, size))
        while view:
            view = view[os.write(fd, view):]
        _GARBAGE_FDS[key] = fd
    return fd


class Memory:
    """The process address space."""

    def __init__(
        self,
        globals_size: int = DEFAULT_GLOBALS_SIZE,
        stack_size: int = DEFAULT_STACK_SIZE,
        heap_size: int = DEFAULT_HEAP_SIZE,
        garbage_seed: Optional[int] = 0xD19E5,
    ):
        self.globals = Segment("globals", GLOBALS_BASE, globals_size)
        self.stack = Segment("stack", STACK_BASE, stack_size, fill_seed=garbage_seed)
        self.heap = Segment("heap", HEAP_BASE, heap_size, fill_seed=garbage_seed)
        self._segments: List[Segment] = [self.globals, self.stack, self.heap]

    def release(self) -> None:
        """Return every segment buffer to the reuse pool.

        Only for owners that know no further access can happen;
        :func:`repro.machine.process.run_process` calls this once the
        result is fully materialized.
        """
        for seg in self._segments:
            seg.release()

    # -- raw byte access --------------------------------------------------

    def segment_for(self, address: int, length: int = 1) -> Segment:
        # Heap first: it absorbs the overwhelming majority of accesses in the
        # paper's workloads.  Segments are disjoint (guard gaps between them)
        # and none overlaps the null page, so probe order cannot change which
        # segment — if any — matches.
        hi = address + length
        for seg in (self.heap, self.stack, self.globals):
            if seg.base <= address and hi <= seg.end:
                return seg
        if 0 <= address < NULL_PAGE_SIZE:
            raise MemoryTrap("null-dereference", address)
        raise MemoryTrap("segmentation-fault", address, "(unmapped)")

    def read_bytes(self, address: int, length: int) -> bytes:
        if length == 0:
            return b""
        seg = self.segment_for(address, length)
        off = address - seg.base
        return bytes(seg.data[off : off + length])

    def write_bytes(self, address: int, data: bytes) -> None:
        if not data:
            return
        seg = self.segment_for(address, len(data))
        off = address - seg.base
        seg.data[off : off + len(data)] = data

    def fill(self, address: int, value: int, length: int) -> None:
        if length < 0:
            raise MemoryTrap("bad-fill", address, f"negative length {length}")
        if length == 0:
            return
        # Validate the range *before* materializing the fill bytes, so a
        # corrupted (huge) size becomes a memory fault, not host exhaustion.
        seg = self.segment_for(address, length)
        off = address - seg.base
        seg.data[off : off + length] = bytes([value & 0xFF]) * length

    # -- typed scalar access ----------------------------------------------

    def read_scalar(self, address: int, ty: Type):
        # Pointer check first: PointerType hashes recursively, so it must
        # never reach the dict lookup on the hot path.  unpack_from reads
        # straight out of the segment bytearray without a bytes copy.
        if isinstance(ty, PointerType):
            seg = self.segment_for(address, 8)
            return _U64.unpack_from(seg.data, address - seg.base)[0]
        s = _STRUCTS_BY_TYPE.get(ty)
        if s is None:
            raise TypeError(f"not a loadable scalar type: {ty}")
        seg = self.segment_for(address, s.size)
        return s.unpack_from(seg.data, address - seg.base)[0]

    def write_scalar(self, address: int, ty: Type, value) -> None:
        if isinstance(ty, PointerType):
            seg = self.segment_for(address, 8)
            _U64.pack_into(seg.data, address - seg.base, value & _U64_MASK)
            return
        s = _STRUCTS_BY_TYPE.get(ty)
        if s is None:
            raise TypeError(f"not a loadable scalar type: {ty}")
        if type(ty) is IntType:
            value = wrap_int(int(value), max(ty.bits, 8))
        seg = self.segment_for(address, s.size)
        s.pack_into(seg.data, address - seg.base, value)

    @staticmethod
    def _format_for(ty: Type) -> str:
        return Memory._struct_for(ty).format

    @staticmethod
    def _struct_for(ty: Type) -> struct.Struct:
        """The prebuilt Struct for a scalar (non-pointer) type."""
        s = _STRUCTS_BY_TYPE.get(ty)
        if s is None:
            raise TypeError(f"not a loadable scalar type: {ty}")
        return s

    # -- C-string helpers ---------------------------------------------------

    def read_cstring(self, address: int, max_len: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string (trapping on unmapped memory)."""
        out = bytearray()
        addr = address
        while len(out) < max_len:
            b = self.read_bytes(addr, 1)[0]
            if b == 0:
                return bytes(out)
            out.append(b)
            addr += 1
        raise MemoryTrap("runaway-string", address)

    def write_cstring(self, address: int, data: bytes) -> None:
        self.write_bytes(address, data + b"\x00")
