"""Shared fixtures: small programs reused across the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

# Process runs build a whole simulated machine; wall-clock per example is
# dominated by setup, so the default 200ms deadline is meaningless here.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.eval.builds import reset_build_table
from repro.ir import (
    INT32,
    INT64,
    VOID,
    ModuleBuilder,
    PointerType,
    StructType,
    verify_module,
)


def make_linked_list_types():
    """The paper's running example: ``struct LinkedList { int32; LL* }``."""
    ll = StructType.opaque("LinkedList")
    ll.set_fields([INT32, PointerType(ll)])
    return ll


def build_linked_list_module(n_nodes: int = 5):
    """createNode/getSum/main from Figs. 2.9/2.10."""
    ll = make_linked_list_types()
    llp = PointerType(ll)
    mb = ModuleBuilder("linkedlist")
    mb.declare_external("print_i64", VOID, [INT64])

    cn, b = mb.define("createNode", llp, [INT32, llp], ["data", "last"])
    n = b.malloc(ll, hint="n")
    b.store(b.field_addr(n, 0), cn.params[0])
    b.store(b.field_addr(n, 1), b.null(ll))
    has_last = b.ne(cn.params[1], b.null(ll))
    with b.if_then(has_last):
        b.store(b.field_addr(cn.params[1], 1), n)
    b.ret(n)

    gs, b = mb.define("getSum", INT32, [llp], ["n"])
    cur = b.alloca(llp)
    b.store(cur, gs.params[0])
    total = b.alloca(INT32)
    b.store(total, b.i32(0))
    with b.while_loop(lambda bb: bb.ne(bb.load(cur), bb.null(ll))):
        c = b.load(cur)
        v = b.load(b.field_addr(c, 0))
        b.store(total, b.add(b.load(total), v))
        b.store(cur, b.load(b.field_addr(c, 1)))
    b.ret(b.load(total))

    mfn, b = mb.define("main", INT32)
    head = b.alloca(llp)
    b.store(head, b.null(ll))
    tail = b.alloca(llp)
    b.store(tail, b.null(ll))
    with b.for_range(b.i64(n_nodes)) as i:
        node = b.call("createNode", [b.num_cast(i, INT32), b.load(tail)])
        b.store(tail, node)
        empty = b.eq(b.load(head), b.null(ll))
        with b.if_then(empty):
            b.store(head, node)
    s = b.call("getSum", [b.load(head)])
    b.call("print_i64", [b.num_cast(s, INT64)])
    b.ret(b.i32(0))
    verify_module(mb.module)
    return mb.module


def build_sum_module(n: int = 10):
    """A minimal array-sum program (one heap array, one output)."""
    mb = ModuleBuilder("sum")
    mb.declare_external("print_i64", VOID, [INT64])
    fn, b = mb.define("main", INT32)
    arr = b.malloc(INT64, b.i64(n))
    with b.for_range(b.i64(n)) as i:
        b.store(b.elem_addr(arr, i), b.mul(i, i))
    total = b.alloca(INT64)
    b.store(total, b.i64(0))
    with b.for_range(b.i64(n)) as i:
        b.store(total, b.add(b.load(total), b.load(b.elem_addr(arr, i))))
    b.call("print_i64", [b.load(total)])
    b.free(arr)
    b.ret(b.i32(0))
    verify_module(mb.module)
    return mb.module


def build_overflow_module(n_alloc: int, n_write: int):
    """Writes ``n_write`` elements into an ``n_alloc``-element heap array,
    then sums a victim array allocated right after it."""
    mb = ModuleBuilder("overflow")
    mb.declare_external("print_i64", VOID, [INT64])
    fn, b = mb.define("main", INT32)
    a = b.malloc(INT64, b.i64(n_alloc))
    victim = b.malloc(INT64, b.i64(n_alloc))
    with b.for_range(b.i64(n_alloc)) as i:
        b.store(b.elem_addr(victim, i), b.i64(7))
    with b.for_range(b.i64(n_write)) as i:
        b.store(b.elem_addr(a, i), b.i64(1))
    total = b.alloca(INT64)
    b.store(total, b.i64(0))
    with b.for_range(b.i64(n_alloc)) as i:
        b.store(total, b.add(b.load(total), b.load(b.elem_addr(victim, i))))
    b.call("print_i64", [b.load(total)])
    b.ret(b.i32(0))
    verify_module(mb.module)
    return mb.module


@pytest.fixture(autouse=True)
def cold_build_table():
    """Each test builds from an empty build table, as a fresh process would:
    tests that assert on cold-build behaviour (transform cache traffic,
    codegen written to a store) must not be served builds that an earlier
    test happened to make.  Sharing *within* a test is what
    ``test_build_table.py`` exercises."""
    reset_build_table()


@pytest.fixture
def linked_list_module():
    return build_linked_list_module()


@pytest.fixture
def sum_module():
    return build_sum_module()
