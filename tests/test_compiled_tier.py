"""The compiled execution tier (repro.machine.compile / codegen).

The tier's contract is *bit-transparency*: a compiled run produces a
record signature-identical to the reference interpreter — same status,
exit code, output, cycle count, instruction count, fault activations, and
detail — across every variant configuration and both fault kinds, for
normal exits, crashes, detections, and timeouts alike.  These tests pin
that contract plus the tier's selection rules (observability always wins),
its fallbacks (uncompilable functions, non-default memory geometry), the
content-addressed code cache, and the eval-layer surface (``DPMR_COMPILE``,
manifest engine/codegen fields, store-fingerprint transparency).
"""

import pytest

from repro.apps import WORKLOAD_ORDER, app_factory
from repro.eval.api import run
from repro.eval.config import ExecConfig
from repro.eval.experiment import WorkloadHarness
from repro.eval.store import exec_fingerprint
from repro.eval.variants import Variant, diversity_variants, policy_variants
from repro.ir import INT32, INT64, VOID, ModuleBuilder
from repro.machine.compile import (
    CODEGEN_STATS,
    codegen_stats,
    compiled_program_for,
    content_cache_key,
)
from repro.machine.interpreter import Machine
from repro.machine.memory import Memory
from repro.machine.process import ExitStatus, run_process
from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest
from repro.obs.tracer import CollectingTracer


def _signature(result):
    return (
        result.status,
        result.exit_code,
        result.output_text,
        result.cycles,
        result.instructions,
        tuple(sorted(result.fault_activations.items())),
        result.detail,
    )


def _tiny_module():
    mb = ModuleBuilder("tiny")
    mb.declare_external("print_i64", VOID, [INT64])
    _, b = mb.define("main", INT32)
    acc = b.alloca(INT64)
    b.store(acc, b.i64(0))
    with b.for_range(b.i64(10)) as i:
        b.store(acc, b.add(b.load(acc), b.mul(i, i)))
    b.call("print_i64", [b.load(acc)])
    b.ret(b.i32(0))
    return mb.module


# -- engine selection ----------------------------------------------------


def test_compiled_machine_binds_compiled_exec():
    module = _tiny_module()
    plain = Machine(module)
    assert plain._exec.__func__ is Machine._exec_function
    m = Machine(module, compiled=True)
    assert m._exec.__func__ is Machine._exec_function_compiled


def test_observability_forces_instrumented_interpreter():
    # Tracing or counters must win over the compiled tier: observation
    # semantics (per-step events, opcode counters) only exist there.
    module = _tiny_module()
    m = Machine(module, compiled=True, counters=True)
    assert m._exec.__func__ is Machine._exec_function_instrumented
    m = Machine(module, compiled=True, tracer=CollectingTracer())
    assert m._exec.__func__ is Machine._exec_function_instrumented


def test_non_default_memory_geometry_falls_back_to_interpreter():
    # The compiled program folds global addresses for the *default* layout;
    # a machine whose globals live elsewhere must refuse the whole program.
    from repro.machine.memory import DEFAULT_GLOBALS_SIZE, GLOBALS_BASE, Segment

    mb = ModuleBuilder("geo")
    mb.add_global("counter", INT64, 7)
    _, b = mb.define("main", INT32)
    g = mb.module.globals["counter"].ref()
    b.store(g, b.i64(9))
    b.ret(b.i32(0))
    module = mb.module
    assert Machine(module, compiled=True)._exec.__func__ is (
        Machine._exec_function_compiled
    )
    shifted = Memory()
    shifted.globals = Segment("globals", GLOBALS_BASE + 0x100, DEFAULT_GLOBALS_SIZE)
    m = Machine(module, memory=shifted, compiled=True)
    assert m._exec.__func__ is Machine._exec_function


def test_shim_fallback_for_uncompilable_function():
    # A function the generator rejects (duplicate parameter names defeat
    # the register→local mapping) gets no compiled body; it runs through
    # the interpreter while its callers stay compiled, bit-identically.
    mb = ModuleBuilder("mixed")
    mb.declare_external("print_i64", VOID, [INT64])
    helper, fb = mb.define(
        "helper", INT64, [INT64, INT64], param_names=["x", "x"]
    )
    fb.ret(fb.add(helper.params[1], fb.i64(5)))
    _, b = mb.define("main", INT32)
    b.call("print_i64", [b.call("helper", [b.i64(37), b.i64(37)])])
    b.ret(b.i32(0))
    module = mb.module
    program = compiled_program_for(module)
    assert "helper" not in program.functions
    assert "main" in program.functions
    interp = run_process(module)
    comp = run_process(module, compiled=True)
    assert _signature(interp) == _signature(comp)
    assert "42" in interp.output_text


# -- bit-identity across the evaluation matrix ---------------------------


@pytest.mark.parametrize("kind", ["heap-array-resize", "immediate-free"])
def test_campaign_signatures_identical_both_kinds_all_variants(kind):
    harness = WorkloadHarness("mcf", app_factory("mcf", 1))
    variants = diversity_variants("sds") + policy_variants("sds")
    base = run(
        harness,
        variants,
        kind=kind,
        config=ExecConfig(compiled=False),
        max_sites=2,
    )
    comp = run(
        harness, variants, kind=kind, config=ExecConfig(compiled=True), max_sites=2
    )
    assert len(base.records) == len(comp.records) > 0
    assert [r.signature() for r in base.records] == [
        r.signature() for r in comp.records
    ]
    assert base.manifest.engine == "interp"
    assert comp.manifest.engine == "compiled"


def test_timeout_identity_sweep():
    # Batched cycle accounting must time out at exactly the same cycle
    # stamp (and detail string) as the per-instruction interpreter, at
    # any budget — including ones that land mid-batch.
    module = app_factory("mcf", 1)()
    full = run_process(module)
    assert full.status is ExitStatus.NORMAL
    for frac in (0.1, 0.33, 0.5, 0.9, 0.999):
        budget = max(1, int(full.cycles * frac))
        interp = run_process(module, max_cycles=budget)
        comp = run_process(module, max_cycles=budget, compiled=True)
        assert _signature(interp) == _signature(comp), budget
        assert interp.status is ExitStatus.TIMEOUT


def _sweep_variants():
    """SDS and MDS under a diversity whose program binds ``_rmal``/
    ``_rfree``, a stateful one whose program keeps the generic
    ``call_intrinsic`` hooks, and a static comparison policy."""
    from repro.core.diversity import PadMalloc, SegregatedReplicas
    from repro.core.policies import static_10

    return [
        variant
        for design in ("sds", "mds")
        for variant in (
            Variant(name=f"{design}-pad", design=design, diversity=PadMalloc(8)),
            Variant(
                name=f"{design}-segregated",
                design=design,
                diversity=SegregatedReplicas(),
            ),
            Variant(name=f"{design}-static", design=design, policy=static_10()),
        )
    ]


@pytest.fixture
def crossings(monkeypatch):
    """The crossing step (0 for a batch's first instruction) of every
    batch that ``_bto`` replays in programs bound while the fixture is
    active."""
    from repro.machine import compile as C

    seen = []
    replay = C._bto

    def recording_bto(m, c, n, *costs):
        try:
            replay(m, c, n, *costs)
        finally:
            seen.append(m.instructions_executed - n - 1)

    monkeypatch.setitem(C.BASE_NS, "_bto", recording_bto)
    return seen


@pytest.mark.parametrize("app", WORKLOAD_ORDER)
def test_timeout_identity_sweep_dpmr_builds(app, crossings):
    """Counts held in activation locals reach the machine at every call
    out of a generated function, at returns and in its exception handler.
    Budgets that land mid-batch time out inside ``_bto``; budgets one
    cycle short of, at and past the end of a heap charge time out (or
    not) inside ``Machine.charge``, behind a write-back.  Both must give
    the interpreter's full signature."""
    heap_timeouts = 0
    for variant in _sweep_variants():
        build = variant.compile(app_factory(app, 1)())
        tracer = CollectingTracer(events=["heap"])
        full = build.run(tracer=tracer)
        assert full.status is ExitStatus.NORMAL
        charges = [e["cyc"] for e in tracer.events if e["ev"] == "heap"]
        ends = {charges[0], charges[len(charges) // 2], charges[-1]}
        budgets = {int(full.cycles * frac) for frac in (0.27, 0.5, 0.73)}
        budgets |= {end + d for end in ends for d in (-1, 0, 1)}
        for budget in sorted(budgets):
            interp = build.run(max_cycles=budget)
            comp = build.run(max_cycles=budget, compiled=True)
            assert _signature(comp) == _signature(interp), (variant.name, budget)
            assert interp.status is ExitStatus.TIMEOUT
            if budget + 1 in ends:
                assert interp.cycles == budget + 1
                heap_timeouts += 1
    assert heap_timeouts == len(_sweep_variants()) * 3
    assert any(step > 0 for step in crossings)  # some budget landed mid-batch


#: One fault-injected build per fault kind and the diversities it runs
#: under: no-diversity (plain ``_rmal``/``_rfree``), rearrange-heap (the
#: diversity method), pad-256 (a pad closure) and segregated replicas (the
#: generic hooks).  Between them, the runs leave their generated code
#: through a slow-path MemoryTrap, a heap abort and ``raise _DD``.
FAULTY_BUILDS = (
    ("mcf", "heap-array-resize", "heap-array-resize@main/entry/3"),
    ("art", "immediate-free", "immediate-free@main/entry/3"),
)


def test_fault_exits_leave_through_the_handler():
    from repro.core.diversity import (
        NoDiversity,
        PadMalloc,
        RearrangeHeap,
        SegregatedReplicas,
    )
    from repro.faultinject.injector import enumerate_sites, inject

    outcomes = set()
    for app, kind, site_id in FAULTY_BUILDS:
        (site,) = [
            s for s in enumerate_sites(app_factory(app, 1)(), kind)
            if s.site_id == site_id
        ]
        build = Variant(name="sds", design="sds").compile(
            inject(app_factory(app, 1)(), site)
        )
        for diversity in (
            NoDiversity(),
            RearrangeHeap(),
            PadMalloc(256),
            SegregatedReplicas(),
        ):
            runnable = Variant(
                name=diversity.name, design="sds", diversity=diversity
            ).bind(build.module, build._build)
            full = runnable.run()
            assert full.fault_activations, (site_id, diversity.name)
            for budget in (None, full.cycles // 2, full.cycles - 1):
                kwargs = {} if budget is None else {"max_cycles": budget}
                interp = runnable.run(**kwargs)
                comp = runnable.run(compiled=True, **kwargs)
                assert _signature(comp) == _signature(interp), (
                    site_id,
                    diversity.name,
                    budget,
                )
            outcomes.add(
                "detected"
                if full.status is ExitStatus.DPMR_DETECTED
                else full.detail.split()[0].rstrip(":")
            )
    assert {"detected", "heap-abort", "segmentation-fault"} <= outcomes


# -- generated code size -------------------------------------------------

#: (generated lines, source bytes, reachable IR instructions) over every
#: function of the four apps at scale 1, as generated for the generic
#: program: the pristine apps and their SDS all-loads builds.  Source
#: text is what a cold program pays ``compile()`` time and memory for;
#: these counts move only when emission changes.  With a five-line
#: cycle epilogue per batch they were (6430, 357146, 832) and
#: (17139, 1054325, 2285).
GENERATED_CODE_SIZE = {
    "pristine": (3115, 183896, 832),
    "sds": (8360, 524319, 2285),
}


def test_generated_code_size_is_pinned(monkeypatch):
    from repro.core.pipeline import DpmrCompiler
    from repro.core.policies import AllLoadsPolicy
    from repro.machine import compile as C

    sources = []
    generate = C.generate_function_source

    def recording_generate(fn, ctx, pyname):
        src = generate(fn, ctx, pyname)
        sources.append(src)
        return src

    monkeypatch.setattr(C, "generate_function_source", recording_generate)
    sizes = {}
    for label in GENERATED_CODE_SIZE:
        sources.clear()
        n_inst = 0
        for app in WORKLOAD_ORDER:
            module = app_factory(app, 1)()
            if label == "sds":
                compiler = DpmrCompiler(design="sds", policy=AllLoadsPolicy())
                module = compiler.compile(module).module
            compiled_program_for(module, None)
            n_inst += sum(
                len(block.instructions)
                for fn in module.functions.values()
                if not fn.is_external
                for block in fn.reachable_blocks()
            )
        assert not any("m.cycles +" in src for src in sources)
        sizes[label] = (
            sum(src.count("\n") for src in sources),
            sum(len(src.encode()) for src in sources),
            n_inst,
        )
    assert sizes == GENERATED_CODE_SIZE
    for lines, _, n_inst in sizes.values():
        assert lines <= 5.5 * n_inst
    assert sizes["pristine"][1] <= 268_000
    assert sizes["sds"][1] <= 0.75 * 1_054_325


# -- content-addressed code cache ----------------------------------------


def test_content_cache_key_shape_is_shared_with_incremental_compiler():
    assert content_cache_key("f", "abc123") == ("f", "abc123")


def test_codegen_cache_hits_grow_on_recompilation():
    # The marker constant makes this program's generated source unique to
    # this test, so the first compile is a guaranteed cache miss even when
    # other tests warmed the process-wide content cache.
    def make():
        mb = ModuleBuilder("cache-probe")
        mb.declare_external("print_i64", VOID, [INT64])
        _, b = mb.define("main", INT32)
        b.call("print_i64", [b.i64(987654321)])
        b.ret(b.i32(0))
        return mb.module

    before = codegen_stats()
    run_process(make(), compiled=True)
    mid = codegen_stats()
    assert mid["misses"] > before["misses"]
    # A structurally identical module (fresh objects, same text) must hit
    # the content-addressed cache: no new misses for its functions.
    run_process(make(), compiled=True)
    after = codegen_stats()
    assert after["hits"] > mid["hits"]
    assert after["misses"] == mid["misses"]
    assert set(CODEGEN_STATS) == {"hits", "misses", "stamp_hits"}


#: Fresh code compiles of the campaign below from cold codegen caches.
#: The codegen work of a campaign is a pure function of the transformed
#: text, so this count moves only when generated code or its sharing does.
RESIZE_CAMPAIGN_COMPILES = 10


def test_runtime_specialization_binding_and_code_sharing(monkeypatch):
    """What makes the compiled tier's DPMR hooks cheap, pinned by counts.

    A stateless diversity binds a program specialized to its runtime spec
    (``_rmal``/``_rfree`` in the namespace); a stateful diversity and a run
    without DPMR bind the generic program, whose hooks go through
    ``call_intrinsic``.  Diversity never reaches the transform and
    generated source is parametric over the spec, so the seven diversity
    variants of a site run the same code objects.
    """
    from repro.core.diversity import SegregatedReplicas
    from repro.eval.variants import CompiledVariant, stdapp_variant
    from repro.faultinject import HEAP_ARRAY_RESIZE
    from repro.machine import compile as C

    bound = []  # (variant name, module, program) per compiled run
    running = []
    program_for = C.compiled_program_for
    variant_run = CompiledVariant.run

    def recording_program_for(module, rt_spec=None):
        program = program_for(module, rt_spec)
        if running:
            bound.append((running[-1], module, program))
        return program

    def named_run(self, *args, **kwargs):
        running.append(self.name)
        try:
            return variant_run(self, *args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(C, "compiled_program_for", recording_program_for)
    monkeypatch.setattr(CompiledVariant, "run", named_run)
    diversity = diversity_variants("sds")
    segregated = Variant(
        name="segregated", design="sds", diversity=SegregatedReplicas()
    )
    C.reset_codegen_caches()
    before = codegen_stats()
    result = run(
        WorkloadHarness("mcf", app_factory("mcf", 1)),
        [stdapp_variant()] + diversity + [segregated],
        kind=HEAP_ARRAY_RESIZE,
        config=ExecConfig(jobs=1),
        max_sites=2,
    )
    compiles = codegen_stats()["misses"] - before["misses"]
    assert result.manifest.engine == "compiled"
    assert len(bound) == len(result.records) == 2 * 9

    stateless = {v.name for v in diversity}
    generic = {"stdapp", "segregated"}
    assert {name for name, _, _ in bound} == stateless | generic
    for name, _, program in bound:
        if name in stateless:
            assert program.rt_spec is not None, name
            assert "_rmal" in program._ns and "_rfree" in program._ns, name
        else:
            assert program.rt_spec is None, name
            assert "_rmal" not in program._ns, name

    per_site = {}
    for name, module, program in bound:
        if name in stateless:
            per_site.setdefault(id(module), []).append(program)
    assert len(per_site) == 2
    for programs in per_site.values():
        assert len(programs) == len(stateless)
        first = programs[0].functions
        assert first
        for program in programs[1:]:
            assert program.functions.keys() == first.keys()
            for fname, fn in program.functions.items():
                assert fn.__code__ is first[fname].__code__, fname

    assert compiles == RESIZE_CAMPAIGN_COMPILES


#: Fresh code compiles of a cold art campaign under one SDS variant over
#: all four resize sites: each site's faulty ``mainAug`` plus the ``main``
#: stub, whose text every faulty build shares.
ART_CAMPAIGN_COMPILES = 5


def test_cold_campaign_compiles_only_what_it_runs():
    """A campaign runs faulty builds, never the base transform they are
    built from, so the base's functions are never generated or compiled.

    art has one defined function, so every site's faulty build replaces
    the base's only transformed function: nothing of the base is shared
    with what runs.
    """
    from repro.eval.parallel import base_transform
    from repro.faultinject import HEAP_ARRAY_RESIZE
    from repro.faultinject.injector import enumerate_sites
    from repro.machine import compile as C

    harness = WorkloadHarness("art", app_factory("art", 1), seeds=(0,))
    variants = [Variant(name="sds", design="sds")]
    n_sites = len(enumerate_sites(harness.pristine, HEAP_ARRAY_RESIZE))
    C.reset_codegen_caches()
    before = codegen_stats()
    result = run(
        harness, variants, kind=HEAP_ARRAY_RESIZE, config=ExecConfig(jobs=1)
    )
    compiles = codegen_stats()["misses"] - before["misses"]
    assert result.manifest.engine == "compiled"
    assert len(result.records) == n_sites == 4
    assert (result.manifest.base_built, result.manifest.site_built) == (1, n_sites)

    entry = base_transform(harness.pristine, harness.pristine_digest, variants[0])
    base = entry.compiler.base_module
    assert not hasattr(base.functions["mainAug"], "_cg_cache")
    assert compiles == ART_CAMPAIGN_COMPILES


def test_codegen_caches_evict_lru_one_entry_at_a_time(monkeypatch):
    """Both process-wide codegen maps keep a constant entry budget: an
    insert past it evicts exactly the least recently used entry, and a
    campaign that keeps evicting (and so regenerates code) still records
    what the interpreter records."""
    from repro.eval.builds import reset_build_table
    from repro.eval.variants import stdapp_variant
    from repro.faultinject import HEAP_ARRAY_RESIZE
    from repro.machine import compile as C

    budget = 3
    monkeypatch.setattr(C, "CODE_CACHE_ENTRIES", budget)
    monkeypatch.setattr(C, "STAMP_CACHE_ENTRIES", budget)
    put = C._lru_put
    evicted = {"code": 0, "stamp": 0}

    def checked_put(cache, key, value, limit):
        name = "code" if cache is C._CODE_CACHE else "stamp"
        assert limit == budget
        before = list(cache)
        assert key not in before  # only misses insert
        put(cache, key, value, limit)
        assert len(cache) <= budget
        assert list(cache) == (before + [key])[-budget:]
        if len(before) == budget:
            evicted[name] += 1

    monkeypatch.setattr(C, "_lru_put", checked_put)
    C.reset_codegen_caches()
    harness = WorkloadHarness("mcf", app_factory("mcf", 1), seeds=(0,))
    variants = (
        [stdapp_variant()]
        + diversity_variants("sds")[:2]
        + policy_variants("sds")[:1]
    )

    def campaign(**cfg):
        return run(
            harness,
            variants,
            kind=HEAP_ARRAY_RESIZE,
            config=ExecConfig(jobs=1, **cfg),
            max_sites=2,
        )

    reference = [r.signature() for r in campaign(compiled=False).records]
    assert [r.signature() for r in campaign().records] == reference
    # Rebuilt functions look their code up by stamp, some of it evicted.
    reset_build_table()
    assert [r.signature() for r in campaign().records] == reference
    assert evicted["code"] > 0 and evicted["stamp"] > 0
    assert len(C._CODE_CACHE) <= budget and len(C._STAMP_CACHE) <= budget


# -- eval-layer surface --------------------------------------------------


def test_dpmr_compile_env_parsing():
    # Compiled is the default engine; DPMR_COMPILE=0 is the opt-out.
    assert ExecConfig.from_env({}).compiled is True
    assert ExecConfig.from_env({"DPMR_COMPILE": "1"}).compiled is True
    assert ExecConfig.from_env({"DPMR_COMPILE": "false"}).compiled is False
    assert ExecConfig.from_env({"DPMR_COMPILE": "0"}).compiled is False
    with pytest.raises(ValueError):
        ExecConfig.from_env({"DPMR_COMPILE": "maybe"})


def test_exec_fingerprint_is_compiled_transparent():
    # The compiled tier is bit-transparent, so flipping it must not
    # invalidate the persistent result store.
    assert exec_fingerprint(ExecConfig(compiled=False)) == exec_fingerprint(
        ExecConfig(compiled=True)
    )


def test_manifest_records_engine_and_codegen_traffic():
    assert MANIFEST_SCHEMA == 8
    harness = WorkloadHarness("mcf", app_factory("mcf", 1))
    variants = [Variant(name="sds", design="sds")]
    res = run(
        harness,
        variants,
        kind="heap-array-resize",
        config=ExecConfig(compiled=True),
        max_sites=2,
    )
    m = res.manifest
    assert m.engine == "compiled"
    assert m.codegen_hits + m.codegen_misses > 0
    # Round-trips through the JSON shape.
    again = RunManifest.from_dict(m.to_dict())
    assert again.engine == "compiled"
    assert again.codegen_hits == m.codegen_hits
    assert again.codegen_misses == m.codegen_misses
    # Observability downgrades the engine and zeroes codegen traffic.
    res_obs = run(
        harness,
        variants,
        kind="heap-array-resize",
        config=ExecConfig(compiled=True, counters=True),
        max_sites=1,
    )
    assert res_obs.manifest.engine == "interp"
    assert res_obs.manifest.codegen_hits == res_obs.manifest.codegen_misses == 0


def test_manifest_report_renders_engine_line():
    from repro.eval.report import manifest_section

    harness = WorkloadHarness("mcf", app_factory("mcf", 1))
    variants = [Variant(name="sds", design="sds")]
    res = run(
        harness,
        variants,
        kind="heap-array-resize",
        config=ExecConfig(compiled=True),
        max_sites=1,
    )
    text = manifest_section(res.manifest)
    assert "engine: compiled (codegen hits=" in text
    res_i = run(
        harness,
        variants,
        kind="heap-array-resize",
        config=ExecConfig(compiled=False),
        max_sites=1,
    )
    assert "engine: interp" in manifest_section(res_i.manifest)


def test_observability_with_compiled_knob_is_record_identical():
    # DPMR_COMPILE plus counters: instrumented interpreter runs, records
    # (minus counters) still match a bare compiled campaign.
    harness = WorkloadHarness("mcf", app_factory("mcf", 1))
    variants = [Variant(name="sds", design="sds")]
    bare = run(
        harness,
        variants,
        kind="immediate-free",
        config=ExecConfig(compiled=True),
        max_sites=2,
    )
    obs = run(
        harness,
        variants,
        kind="immediate-free",
        config=ExecConfig(compiled=True, counters=True),
        max_sites=2,
    )
    assert [r.signature() for r in bare.records] == [
        r.signature() for r in obs.records
    ]
    assert all(r.result.counters is not None for r in obs.records)
    assert all(r.result.counters is None for r in bare.records)
