"""Simulated memory tests: typed access, traps, garbage initialization."""

import errno
import os
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.ir import FLOAT32, FLOAT64, INT16, INT32, INT64, INT8, VOID, PointerType
from repro.machine import Memory, MemoryTrap
from repro.machine import memory as M
from repro.machine.memory import Segment


@pytest.fixture
def mem():
    return Memory()


class TestScalarAccess:
    def test_int_roundtrip(self, mem):
        addr = mem.heap.base
        mem.write_scalar(addr, INT32, -12345)
        assert mem.read_scalar(addr, INT32) == -12345

    def test_int8_wraps(self, mem):
        addr = mem.heap.base
        mem.write_scalar(addr, INT8, 200)
        assert mem.read_scalar(addr, INT8) == 200 - 256

    def test_float_roundtrip(self, mem):
        addr = mem.heap.base
        mem.write_scalar(addr, FLOAT64, 3.25)
        assert mem.read_scalar(addr, FLOAT64) == 3.25

    def test_float32_quantizes(self, mem):
        addr = mem.heap.base
        mem.write_scalar(addr, FLOAT32, 1.1)
        v = mem.read_scalar(addr, FLOAT32)
        assert v != 1.1 and abs(v - 1.1) < 1e-6

    def test_pointer_roundtrip(self, mem):
        addr = mem.heap.base
        p = PointerType(VOID)
        mem.write_scalar(addr, p, 0xDEADBEEF)
        assert mem.read_scalar(addr, p) == 0xDEADBEEF

    def test_little_endian_layout(self, mem):
        addr = mem.heap.base
        mem.write_scalar(addr, INT32, 1)
        assert mem.read_bytes(addr, 4) == b"\x01\x00\x00\x00"


class TestTraps:
    def test_null_dereference(self, mem):
        with pytest.raises(MemoryTrap, match="null"):
            mem.read_bytes(0, 1)
        with pytest.raises(MemoryTrap, match="null"):
            mem.read_bytes(64, 8)

    def test_unmapped_address(self, mem):
        with pytest.raises(MemoryTrap, match="segmentation"):
            mem.read_bytes(0x5000, 1)

    def test_straddling_segment_end(self, mem):
        with pytest.raises(MemoryTrap):
            mem.read_bytes(mem.heap.end - 4, 8)

    def test_write_to_unmapped(self, mem):
        with pytest.raises(MemoryTrap):
            mem.write_bytes(0xF0000000, b"x")


class TestCStrings:
    def test_roundtrip(self, mem):
        addr = mem.stack.base
        mem.write_cstring(addr, b"hello")
        assert mem.read_cstring(addr) == b"hello"

    def test_empty(self, mem):
        addr = mem.stack.base
        mem.write_cstring(addr, b"")
        assert mem.read_cstring(addr) == b""


class TestGarbageInitialization:
    def test_heap_starts_with_junk(self):
        """Fresh heap memory holds address-dependent garbage so that
        uninitialized reads differ between an object and its replica."""
        mem = Memory()
        a = mem.read_bytes(mem.heap.base, 64)
        b = mem.read_bytes(mem.heap.base + 64, 64)
        assert a != b
        assert a != b"\x00" * 64

    def test_garbage_is_deterministic(self):
        m1, m2 = Memory(), Memory()
        assert m1.read_bytes(m1.heap.base, 256) == m2.read_bytes(m2.heap.base, 256)

    def test_globals_zero_initialized(self):
        mem = Memory()
        assert mem.read_bytes(mem.globals.base, 64) == b"\x00" * 64


@pytest.mark.skipif(not M._COW_GARBAGE, reason="memfd_create unavailable")
class TestGarbageTemplateMemfd:
    """Copy-on-write garbage templates are streamed into their memfds a
    chunk at a time, and a template that cannot be written leaves no fd."""

    @pytest.fixture
    def fresh_fds(self, monkeypatch):
        fds = {}
        monkeypatch.setattr(M, "_GARBAGE_FDS", fds)
        yield fds
        for fd in fds.values():
            os.close(fd)

    @pytest.mark.parametrize(
        "base, size",
        [
            (M.HEAP_BASE, M.DEFAULT_HEAP_SIZE),
            (M.STACK_BASE, M.DEFAULT_STACK_SIZE),
            # a multiple of neither the chunk nor the generator's 4-byte word
            (M.HEAP_BASE, M._TEMPLATE_CHUNK + 4099),
        ],
    )
    def test_memfd_holds_exactly_randbytes(self, fresh_fds, base, size):
        seed = 0xD19E5 ^ base
        fd = M._garbage_fd(seed, size)
        assert os.fstat(fd).st_size == size
        assert os.pread(fd, size, 0) == random.Random(seed).randbytes(size)

    def test_template_is_never_held_whole(self, fresh_fds):
        tracemalloc.start()
        try:
            M._garbage_fd(0xD19E5 ^ M.HEAP_BASE, M.DEFAULT_HEAP_SIZE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Generating the 4 MiB template in one call peaks at about 8 MiB.
        assert peak < 1 << 20

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd"
    )
    def test_failed_template_write_leaks_no_fd(self, fresh_fds, monkeypatch):
        def failing_write(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        size, seed = 7 * 4096, 0xD19E5
        before = len(os.listdir("/proc/self/fd"))
        with monkeypatch.context() as mp:
            mp.setattr(os, "write", failing_write)
            segments = [
                Segment("heap", M.HEAP_BASE, size, fill_seed=seed)
                for _ in range(20)
            ]
        assert len(os.listdir("/proc/self/fd")) == before
        assert not fresh_fds
        # Every segment fell back to the pooled-bytearray template.
        template = random.Random(seed ^ M.HEAP_BASE).randbytes(size)
        assert all(bytes(seg.data) == template for seg in segments)


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_int32_roundtrip_property(v):
    mem = Memory()
    mem.write_scalar(mem.heap.base, INT32, v)
    assert mem.read_scalar(mem.heap.base, INT32) == v


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1), st.integers(0, 100))
def test_int64_roundtrip_any_offset(v, off):
    mem = Memory()
    mem.write_scalar(mem.heap.base + off, INT64, v)
    assert mem.read_scalar(mem.heap.base + off, INT64) == v


@given(st.binary(min_size=0, max_size=64))
def test_bytes_roundtrip(data):
    mem = Memory()
    mem.write_bytes(mem.stack.base, data)
    assert mem.read_bytes(mem.stack.base, len(data)) == data
