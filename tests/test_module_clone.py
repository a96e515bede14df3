"""Structural module cloning (ir/module.py) — the campaign snapshot primitive.

``Module.clone()`` lets a campaign build one pristine module per workload and
derive every faulty build from it, instead of re-running the program factory
per site.  That is only sound if a clone is (a) structurally identical to its
original and (b) fully isolated under mutation: injecting a fault into one
clone must leave the pristine module and every sibling clone untouched —
including in copy-on-write mode, where unchanged functions are *shared*.
"""

import pytest

from repro.apps import WORKLOAD_ORDER, app_factory
from repro.faultinject import HEAP_ARRAY_RESIZE, IMMEDIATE_FREE
from repro.faultinject.campaign import Campaign
from repro.faultinject.injector import enumerate_sites, inject
from repro.ir import instructions as ins
from repro.ir.module import BasicBlock, _clone_instruction
from repro.ir.printer import (
    format_function,
    format_instruction,
    format_module,
    function_fingerprint,
)
from repro.ir.types import FLOAT64, INT8, INT64, FunctionType, StructType, array, ptr
from repro.ir.values import (
    ConstFloat,
    ConstInt,
    ConstNull,
    FunctionRef,
    GlobalRef,
    Register,
    Value,
)


@pytest.fixture(scope="module", params=list(WORKLOAD_ORDER))
def module(request):
    return app_factory(request.param, 1)()


class TestStructuralEquality:
    def test_clone_prints_identically(self, module):
        assert format_module(module.clone()) == format_module(module)

    def test_clone_shares_no_ir_objects(self, module):
        clone = module.clone()
        for name, fn in module.functions.items():
            cfn = clone.functions[name]
            assert cfn is not fn
            for b, cb in zip(fn.blocks, cfn.blocks):
                assert cb is not b
                assert cb.instructions is not b.instructions
                for i, ci in zip(b.instructions, cb.instructions):
                    assert ci is not i
        for name, g in module.globals.items():
            assert clone.globals[name] is not g

    def test_clone_preserves_function_and_global_order(self, module):
        clone = module.clone()
        assert list(clone.functions) == list(module.functions)
        assert list(clone.globals) == list(module.globals)

    def test_cow_clone_shares_unchanged_functions(self, module):
        clone = module.clone(mutable_functions=())
        for name, fn in module.functions.items():
            assert clone.functions[name] is fn

    def test_cow_clone_deep_copies_only_requested(self, module):
        some = next(n for n, f in module.functions.items() if not f.is_external)
        clone = module.clone(mutable_functions=(some,))
        assert clone.functions[some] is not module.functions[some]
        for name, fn in module.functions.items():
            if name != some:
                assert clone.functions[name] is fn

    def test_fresh_registers_and_labels_continue_from_original(self):
        # Cloned functions must keep allocating registers/labels from where
        # the original left off, or later passes could collide names.
        from repro.ir.types import IntType

        mine = app_factory("art", 1)()
        for name, fn in mine.functions.items():
            if fn.is_external:
                continue
            cfn = mine.clone().functions[name]
            assert cfn.new_register(IntType(32)).name == fn.new_register(IntType(32)).name
            break


class TestMutationIsolation:
    @pytest.mark.parametrize("kind", [HEAP_ARRAY_RESIZE, IMMEDIATE_FREE])
    def test_injecting_into_clone_leaves_pristine_untouched(self, module, kind):
        sites = enumerate_sites(module, kind)
        if not sites:
            pytest.skip("no sites of this kind")
        before = format_module(module)
        inject(module.clone(mutable_functions=(sites[0].function,)), sites[0], 50)
        assert format_module(module) == before

    @pytest.mark.parametrize("kind", [HEAP_ARRAY_RESIZE, IMMEDIATE_FREE])
    def test_sibling_clones_are_isolated(self, module, kind):
        sites = enumerate_sites(module, kind)
        if len(sites) < 2:
            pytest.skip("needs two sites")
        a = inject(module.clone(mutable_functions=(sites[0].function,)), sites[0], 50)
        fingerprint_a = function_fingerprint(a.functions[sites[0].function])
        b = inject(module.clone(mutable_functions=(sites[1].function,)), sites[1], 50)
        # Injecting b's fault must not have touched a (or the pristine).
        assert function_fingerprint(a.functions[sites[0].function]) == fingerprint_a
        assert format_function(a.functions[sites[0].function]) != format_function(
            b.functions[sites[1].function]
        )

    def test_mutating_clone_globals_is_isolated(self, module):
        if not module.globals:
            pytest.skip("no globals")
        clone = module.clone(mutable_functions=())
        name = next(iter(clone.globals))
        clone.globals[name].initializer = b"clobbered"
        assert module.globals[name].initializer != b"clobbered"


class TestCampaignSnapshot:
    def test_faulty_module_isolation_via_campaign(self):
        camp = Campaign(app_factory("mcf", 1), HEAP_ARRAY_RESIZE)
        before = format_module(camp.pristine)
        built = [camp.faulty_module(s) for s in camp.sites]
        assert format_module(camp.pristine) == before
        texts = {format_module(m) for m in built}
        assert len(texts) == len(built)  # every site yields a distinct module

    def test_campaign_runs_factory_once(self):
        calls = []
        base = app_factory("mcf", 1)

        def counting_factory():
            calls.append(1)
            return base()

        camp = Campaign(counting_factory, HEAP_ARRAY_RESIZE)
        assert camp.sites  # site enumeration reuses the pristine snapshot
        camp.faulty_module(camp.sites[0])
        camp.pristine_module()
        assert len(calls) == 1


def _one_of_each_ir_class():
    """One value of every concrete Value subclass and one instruction of
    every concrete Instruction subclass, fault site and origin set."""
    i64p = ptr(INT64)
    fn_ptr = ptr(FunctionType(INT64, [INT64]))
    r, c = Register("r", INT64), Register("c", INT8)
    p, q = Register("p", i64p), Register("q", i64p)
    s = Register("s", ptr(StructType([INT64, INT64])))
    a = Register("a", ptr(array(INT64)))
    f = Register("f", fn_ptr)
    values = [
        r,
        ConstInt(INT64, 3),
        ConstFloat(FLOAT64, 1.5),
        ConstNull(i64p),
        GlobalRef("g", i64p),
        FunctionRef("h", fn_ptr),
    ]
    insts = [
        ins.Alloca(p, INT64, ConstInt(INT64, 2)),
        ins.Malloc(p, INT64, r),
        ins.Free(p),
        ins.Load(r, p),
        ins.Store(p, r),
        ins.FieldAddr(q, s, 1),
        ins.ElemAddr(q, a, r),
        ins.PtrCast(q, p),
        ins.PtrToInt(r, p),
        ins.IntToPtr(p, r),
        ins.BinOp(r, "add", r, ConstInt(INT64, 1)),
        ins.Cmp(c, "slt", r, r),
        ins.NumCast(r, c),
        ins.Call(r, "h", [r]),
        ins.Call(r, f, [r]),
        ins.FuncAddr(f, "h"),
        ins.Jump("bb1"),
        ins.Branch(c, "bb1", "bb2"),
        ins.Ret(r),
        ins.Unreachable(),
    ]
    for i in insts:
        i.fault_site, i.origin = "site-0", "injected"
    return values, insts


def _slots(cls):
    return [n for k in cls.__mro__ for n in vars(k).get("__slots__", ())]


def _ir_subclasses(base):
    found, work = set(), [base]
    while work:
        for k in work.pop().__subclasses__():
            if k.__module__.startswith("repro.") and k not in found:
                found.add(k)
                work.append(k)
    return found


class TestSlottedIR:
    """Every IR value, instruction and block is slotted, and the slot-wise
    instruction clone copies all of it."""

    def test_every_ir_class_declares_slots(self):
        classes = {ins.Instruction, Value, BasicBlock}
        classes |= _ir_subclasses(ins.Instruction) | _ir_subclasses(Value)
        assert [k.__name__ for k in classes if "__slots__" not in vars(k)] == []

    def test_no_instance_has_a_dict(self):
        values, insts = _one_of_each_ir_class()
        built = {type(x) for x in values + insts}
        concrete = {
            k
            for k in _ir_subclasses(ins.Instruction) | _ir_subclasses(Value)
            if k.__subclasses__() == []
        }
        assert concrete <= built, "add an instance of each new IR class"
        for x in values + insts + [BasicBlock("entry")]:
            assert not hasattr(x, "__dict__"), type(x).__name__

    def test_clone_copies_every_slot(self):
        _, insts = _one_of_each_ir_class()
        for inst in insts:
            clone = _clone_instruction(inst)
            assert type(clone) is type(inst) and clone is not inst
            assert format_instruction(clone) == format_instruction(inst)
            assert {"result", "fault_site", "origin"} <= set(_slots(type(inst)))
            for name in _slots(type(inst)):
                old, new = getattr(inst, name), getattr(clone, name)
                if isinstance(old, list):
                    assert new == old and new is not old, name
                else:
                    assert new is old, name

    def test_clone_mutation_leaves_original_intact(self):
        _, insts = _one_of_each_ir_class()
        for call in (i for i in insts if isinstance(i, ins.Call)):
            before = format_instruction(call)
            clone = _clone_instruction(call)
            clone.args.append(ConstInt(INT64, 7))
            clone.args[0] = ConstInt(INT64, 8)
            clone.fault_site = "site-1"
            assert format_instruction(call) == before
            assert len(call.args) == 1

    def test_names_and_labels_are_interned(self):
        # Built from distinct string objects, equal names share one string.
        a, b = "".join(["r", "17"]), "".join(["r", "1", "7"])
        assert a is not b
        assert Register(a, INT64).name is Register(b, INT64).name
        assert BasicBlock(a).label is BasicBlock(b).label
