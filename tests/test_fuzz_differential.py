"""Differential fuzzing: golden vs SDS vs MDS on random fault-free programs.

A seeded generator emits small random IR programs (heap arrays, loops,
arithmetic, conditionals, frees and reallocation) and each one runs three
ways: plain interpretation (golden), single-data-section DPMR, and
multi-data-section DPMR with heap rearrangement.  With no fault injected,
DPMR must be invisible: zero false detections, a normal exit, and output
byte-identical to golden — for every program, across ≥200 seeds per
design.  Programs are tiny (arrays ≤12 elements, loops ≤8 iterations) so
the whole sweep stays within a test-suite budget.

The compiled execution tier (``repro.machine.compile``) joins as a third
engine: every program additionally runs interpreted *and* compiled, and
the full record signature (status, exit code, output, cycles,
instructions, fault activations, detail) must match exactly.  The
runtime-inlining pass adds a fourth engine configuration: every *faulty*
program (both fault kinds) also runs compiled with DPMR hooks specialized
into the generated source, under the same full-signature equality.
"""

import random

import pytest

from repro.core.diversity import (
    PadMalloc,
    RearrangeHeap,
    SegregatedReplicas,
    ZeroBeforeFree,
)
from repro.core.runtime import diversity_codegen_spec
from repro.eval.variants import Variant
from repro.faultinject.injector import FAULT_KINDS, enumerate_sites, inject
from repro.ir import (
    INT32,
    INT64,
    VOID,
    ModuleBuilder,
    verify_module,
)
from repro.machine.process import ExitStatus, run_process

N_SEEDS = 200
MAX_ELEMS = 12
MAX_ITERS = 8


def build_random_module(seed):
    """One deterministic random program per seed.

    Generated programs are fault-free by construction: every index stays
    in bounds, no pointer is used after free, and every loop is bounded.
    """
    rng = random.Random(seed)
    mb = ModuleBuilder(f"fuzz{seed}")
    mb.declare_external("print_i64", VOID, [INT64])
    _, b = mb.define("main", INT32)

    total = b.alloca(INT64)
    b.store(total, b.i64(rng.randrange(100)))

    def bump_total(value):
        b.store(total, b.add(b.load(total), value))

    arrays = []  # (pointer, n_elems), live heap arrays

    def new_array():
        n = rng.randint(1, MAX_ELEMS)
        arr = b.malloc(INT64, b.i64(n))
        scale, bias = rng.randrange(1, 5), rng.randrange(50)
        with b.for_range(b.i64(n)) as i:
            b.store(b.elem_addr(arr, i), b.add(b.mul(i, b.i64(scale)), b.i64(bias)))
        arrays.append((arr, n))

    for _ in range(rng.randint(1, 3)):
        new_array()

    for _ in range(rng.randint(2, 7)):
        kind = rng.choice(["sum", "rmw", "cond", "while", "point", "churn"])
        arr, n = rng.choice(arrays)
        if kind == "sum":
            with b.for_range(b.i64(n)) as i:
                bump_total(b.load(b.elem_addr(arr, i)))
        elif kind == "rmw":
            c = b.i64(rng.randrange(1, 7))
            with b.for_range(b.i64(n)) as i:
                slot = b.elem_addr(arr, i)
                b.store(slot, b.add(b.mul(b.load(slot), c), i))
        elif kind == "cond":
            k = rng.randrange(n)
            probe = b.load(b.elem_addr(arr, b.i64(k)))
            cond = b.slt(probe, b.i64(rng.randrange(200)))
            with b.if_else(cond) as arms:
                with arms.then():
                    bump_total(probe)
                with arms.otherwise():
                    bump_total(b.sub(b.i64(0), probe))
        elif kind == "while":
            bound = rng.randint(1, MAX_ITERS)
            counter = b.alloca(INT64)
            b.store(counter, b.i64(0))
            with b.while_loop(lambda bb: bb.slt(bb.load(counter), bb.i64(bound))):
                idx = b.srem(b.load(counter), b.i64(n))
                bump_total(b.load(b.elem_addr(arr, idx)))
                b.store(counter, b.add(b.load(counter), b.i64(1)))
        elif kind == "point":
            k = rng.randrange(n)
            bump_total(b.mul(b.load(b.elem_addr(arr, b.i64(k))), b.i64(2)))
        elif kind == "churn" and len(arrays) > 1:
            # Free one array and allocate a replacement: exercises the
            # free list / heap layout divergence between replicas.
            victim = rng.randrange(len(arrays))
            ptr, _ = arrays.pop(victim)
            b.free(ptr)
            new_array()

    for ptr, _ in arrays:
        if rng.random() < 0.5:
            b.free(ptr)

    b.call("print_i64", [b.load(total)])
    b.ret(b.i32(0))
    verify_module(mb.module)
    return mb.module


def sds_variant():
    return Variant(name="sds", design="sds")


def mds_variant():
    return Variant(name="mds", design="mds", diversity=RearrangeHeap())


@pytest.mark.parametrize(
    "make_variant", [sds_variant, mds_variant], ids=["sds", "mds"]
)
def test_no_false_detections_across_random_programs(make_variant):
    variant = make_variant()
    mismatches = []
    for seed in range(N_SEEDS):
        module = build_random_module(seed)
        golden = run_process(module)
        assert golden.status is ExitStatus.NORMAL, (seed, golden.detail)
        assert golden.exit_code == 0
        result = variant.compile(module).run(max_cycles=golden.cycles * 50)
        if result.status is not ExitStatus.NORMAL:
            mismatches.append((seed, "status", result.status, result.detail))
        elif result.exit_code != 0:
            mismatches.append((seed, "exit", result.exit_code))
        elif result.output_text != golden.output_text:
            mismatches.append(
                (seed, "output", result.output_text, golden.output_text)
            )
    assert not mismatches, (
        f"{len(mismatches)}/{N_SEEDS} false divergences under "
        f"{variant.name}: {mismatches[:5]}"
    )


def _run_signature(result):
    """Everything a record's signature would carry for one run."""
    return (
        result.status,
        result.exit_code,
        result.output_text,
        result.cycles,
        result.instructions,
        tuple(sorted(result.fault_activations.items())),
        result.detail,
    )


def test_compiled_tier_bit_identical_across_random_programs():
    """The compiled engine is a third differential engine: for every random
    program, interpreted and compiled execution must agree bit-for-bit —
    golden, SDS, and MDS alike (cycles, instructions, and activations
    included, not just output)."""
    divergences = []
    for seed in range(N_SEEDS):
        module = build_random_module(seed)
        golden_i = run_process(module)
        golden_c = run_process(module, compiled=True)
        if _run_signature(golden_i) != _run_signature(golden_c):
            divergences.append((seed, "golden", golden_i, golden_c))
            continue
        budget = golden_i.cycles * 50
        for make_variant in (sds_variant, mds_variant):
            variant = make_variant()
            build = variant.compile(module)
            interp = build.run(max_cycles=budget)
            comp = build.run(max_cycles=budget, compiled=True)
            if _run_signature(interp) != _run_signature(comp):
                divergences.append((seed, variant.name, interp, comp))
    assert not divergences, (
        f"{len(divergences)}/{N_SEEDS} interpreter/compiled divergences: "
        f"{divergences[:3]}"
    )


N_FAULTY_SEEDS = 100


def test_faulty_programs_bit_identical_across_engines():
    """Differential fuzzing with faults in: for both fault kinds and every
    random program, the interpreter and the compiled tier must agree on
    the full run signature — detections, crashes, activations, cycle
    counts and all.  The variant set covers every inline specialization
    shape: plain malloc/free, padded malloc, method free
    (zero-before-free) and method malloc (rearrange-heap, MDS); and the
    stateful segregated-replicas diversity, which has no specialization,
    covers the generic ``call_intrinsic`` hooks."""
    assert diversity_codegen_spec(SegregatedReplicas()) is None
    variants = [
        sds_variant,
        mds_variant,
        lambda: Variant(name="sds-pad", design="sds", diversity=PadMalloc(32)),
        lambda: Variant(name="sds-zbf", design="sds", diversity=ZeroBeforeFree()),
        lambda: Variant(
            name="sds-segregated", design="sds", diversity=SegregatedReplicas()
        ),
    ]
    budget = 250_000
    divergences = []
    checked = 0
    for seed in range(N_FAULTY_SEEDS):
        pristine = build_random_module(seed)
        for kind in FAULT_KINDS:
            for site in enumerate_sites(pristine, kind)[:1]:
                faulty = inject(
                    pristine.clone(mutable_functions=(site.function,)), site
                )
                for make_variant in variants:
                    variant = make_variant()
                    build = variant.compile(faulty)
                    interp = build.run(max_cycles=budget)
                    compiled = build.run(max_cycles=budget, compiled=True)
                    checked += 1
                    if _run_signature(interp) != _run_signature(compiled):
                        divergences.append(
                            (seed, kind, variant.name, interp, compiled)
                        )
    assert checked >= N_FAULTY_SEEDS
    assert not divergences, (
        f"{len(divergences)}/{checked} engine divergences on faulty "
        f"programs: {divergences[:3]}"
    )


def test_generator_is_deterministic_and_diverse():
    # Same seed, same program text; different seeds mostly differ —
    # otherwise the 200-seed sweep silently re-tests one program.
    from repro.ir.printer import format_module

    texts = [format_module(build_random_module(s)) for s in range(40)]
    assert texts[0] == format_module(build_random_module(0))
    assert len(set(texts)) > 30
