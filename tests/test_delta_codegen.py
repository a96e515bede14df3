"""Delta codegen, the persistent code cache, and the campaign hot path.

PR 7 made the compiled tier the default campaign engine.  The machinery
that makes that profitable has three layers, each pinned here:

* **delta codegen** (machine/codegen.py) — per-site code regenerates only
  the leader chains the fault transform touched; untouched chains' chunk
  objects (including their ``lines`` tuples) must be reused *by identity*,
  and the spliced source must equal a from-scratch generation byte for
  byte;
* **persistent code cache** (machine/compile.py) — generated source
  round-trips through the ``DPMR_STORE`` layout (``<store>/codegen/``)
  with a sha256 integrity header; corruption is detected, deleted, and
  regenerated, never executed;
* **campaign hot path** — compiled-by-default interplay with the result
  store (``compiled`` is excluded from the exec fingerprint, so a cold
  interpreter run resumes warm under the compiled default bit-identically),
  the single-core serial fallback, and the per-run segment buffer reuse
  that eliminated the dominant fixed cost of an experiment.
"""

import os

import pytest

from repro.apps import app_factory
from repro.eval.api import run
from repro.eval.builds import reset_build_table
from repro.eval.config import ExecConfig
from repro.eval.experiment import WorkloadHarness
from repro.eval.variants import Variant, diversity_variants
from repro.faultinject.injector import (
    HEAP_ARRAY_RESIZE,
    IMMEDIATE_FREE,
    enumerate_sites,
    inject,
)
from repro.machine import compile as C
from repro.machine import memory as M
from repro.machine.codegen import (
    ProgramContext,
    complete_function_delta,
    generate_function,
    plan_function_delta,
    sanitize,
)
from repro.machine.interpreter import (
    FUNC_ADDR_BASE,
    FUNC_ADDR_STRIDE,
    compute_global_layout,
)
from repro.machine.memory import DEFAULT_GLOBALS_SIZE, GLOBALS_BASE, Segment


def _ctx_for(module) -> ProgramContext:
    """The exact context CompiledProgram builds (same folds, same names)."""
    layout = compute_global_layout(
        module, GLOBALS_BASE, GLOBALS_BASE + DEFAULT_GLOBALS_SIZE
    )
    func_addrs = {
        name: FUNC_ADDR_BASE + i * FUNC_ADDR_STRIDE
        for i, name in enumerate(module.functions)
    }
    fn_info = {
        name: (f"_f{i}_{sanitize(name)[:40]}", len(fn.params), fn.is_external)
        for i, (name, fn) in enumerate(module.functions.items())
    }
    return ProgramContext(layout, func_addrs, fn_info)


# -- delta codegen: identity reuse of untouched chains -------------------


@pytest.mark.parametrize("kind", [HEAP_ARRAY_RESIZE, IMMEDIATE_FREE])
def test_delta_reuses_untouched_chains_by_identity(kind):
    """A fault-injected function's regeneration must reuse every untouched
    chain's chunk — and its ``lines`` tuple — *by object identity* (not
    equality: identity proves no string work happened), re-emitting only
    the chains the injector touched, while assembling source byte-equal
    to a from-scratch generation of the faulty function."""
    pristine = app_factory("mcf", 1)()
    ctx = _ctx_for(pristine)
    exercised = 0
    for site in enumerate_sites(pristine, kind):
        pyname = ctx.fn_info[site.function][0]
        try:
            base = generate_function(
                pristine.functions[site.function], ctx, pyname
            )
        except Exception:
            continue  # uncompilable function: the shim path covers it
        faulty = inject(
            pristine.clone(mutable_functions=(site.function,)), site
        )
        fn = faulty.functions[site.function]
        plan = plan_function_delta(fn, ctx, pyname, base)
        assert plan is not None, site.site_id
        assert plan.changed, site.site_id  # the injected chain did change
        gen = complete_function_delta(plan, base)
        assert set(gen.reused_leaders) == set(plan.reused)
        for label in gen.reused_leaders:
            assert gen.chunks[label] is base.chunks[label]
            assert gen.chunks[label].lines is base.chunks[label].lines
        changed_labels = set(base.leader_labels) - set(gen.reused_leaders)
        assert changed_labels
        for label in changed_labels:
            assert gen.chunks[label] is not base.chunks.get(label)
        # The spliced source is indistinguishable from a full generation.
        full = generate_function(fn, ctx, pyname)
        assert gen.source == full.source
        assert gen.src_sha == full.src_sha
        if gen.reused_leaders:
            exercised += 1
    # At least one site must have actually exercised chain reuse, or the
    # delta tier is vacuous for this workload.
    assert exercised > 0


def test_delta_plan_refuses_reshaped_function():
    # A function whose chain structure diverged (different leaders) must
    # fall back to full generation, not produce a bogus splice.
    module = app_factory("mcf", 1)()
    ctx = _ctx_for(module)
    names = [
        n for n, fn in module.functions.items() if not fn.is_external
    ]
    a, b = names[0], names[1]
    ga = generate_function(module.functions[a], ctx, ctx.fn_info[a][0])
    assert (
        plan_function_delta(module.functions[b], ctx, ctx.fn_info[a][0], ga)
        is None
    )


# -- persistent code cache -----------------------------------------------


def test_persistent_cache_roundtrip_and_corruption(tmp_path):
    prev = C.set_persistent_code_cache(str(tmp_path))
    try:
        key = "ab" * 32
        src = "def f():\n    return 41 + 1\n"
        C._persist_write(key, src)
        path = C._persist_path(key)
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline().startswith("# sha256:")
        assert C._persist_read(key) == src
        # Tampering breaks the integrity header: the entry is deleted and
        # reported as a miss, never returned.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("# tampered\n")
        assert C._persist_read(key) is None
        assert not os.path.exists(path)
        # A deleted entry is simply a miss (regeneration handles it).
        assert C._persist_read(key) is None
    finally:
        C.set_persistent_code_cache(prev)


def test_persistent_cache_disabled_by_default():
    # Outside a store-backed campaign no directory is configured, so
    # nothing is ever written to disk behind the caller's back.
    prev = C.set_persistent_code_cache(None)
    try:
        assert C.persistent_code_cache_dir() is None
    finally:
        C.set_persistent_code_cache(prev)


def test_campaign_store_populates_and_serves_code_cache(tmp_path):
    """A store-backed compiled campaign persists generated source under
    ``<store>/codegen/``; with the in-process caches dropped (a "new
    process"), recomputing the same campaign serves per-site code from
    disk (``persistent_hits``) and stays signature-identical."""
    store = tmp_path / "s"

    def campaign():
        harness = WorkloadHarness("mcf", app_factory("mcf", 1))
        return run(
            harness,
            diversity_variants("sds")[:2],
            kind=HEAP_ARRAY_RESIZE,
            config=ExecConfig(jobs=1, store_path=str(store)),
            max_sites=2,
        )

    # Other tests run identical campaigns; a warm in-process delta cache
    # would satisfy every per-site compile without ever touching disk.
    C.reset_codegen_caches()
    cold = campaign()
    assert len(cold.records) > 0
    codegen_dir = store / "codegen"
    entries = sorted(codegen_dir.rglob("*.py"))
    assert entries, "compiled campaign wrote no persistent code entries"
    for path in entries:
        text = path.read_text(encoding="utf-8")
        assert text.startswith("# sha256:")
    # The executor restores the previous persist dir on exit.
    assert C.persistent_code_cache_dir() is None
    # Simulate a fresh process: drop delta bases, delta cache, the
    # content-addressed code cache and the build table, and invalidate
    # stored *results* so the runs actually re-execute (the result store
    # would otherwise satisfy everything without compiling at all).
    C.reset_codegen_caches()
    C._CODE_CACHE.clear()
    reset_build_table()
    for sub in store.iterdir():
        if sub.is_dir() and sub.name != "codegen":
            for entry in sub.iterdir():
                entry.unlink()
    before = C.codegen_stats()
    warm = campaign()
    after = C.codegen_stats()
    assert after["persistent_hits"] > before["persistent_hits"]
    assert [r.signature() for r in warm.records] == [
        r.signature() for r in cold.records
    ]


def test_store_resume_cold_interp_warm_compiled_default(tmp_path):
    """``compiled`` is excluded from the store exec fingerprint, so a store
    written by an interpreter campaign must satisfy a compiled-default
    resume entirely from cache — and the records stay bit-identical."""
    store = tmp_path / "s"
    variants = [Variant(name="sds", design="sds")]

    def campaign(**cfg):
        harness = WorkloadHarness("mcf", app_factory("mcf", 1))
        return run(
            harness,
            variants,
            kind=IMMEDIATE_FREE,
            config=ExecConfig(jobs=1, store_path=str(store), **cfg),
            max_sites=3,
        )

    cold = campaign(compiled=False)
    assert cold.manifest.engine == "interp"
    assert cold.manifest.store_misses == len(cold.records) > 0
    warm = campaign()  # compiled-by-default resume
    assert warm.manifest.store_hits == len(cold.records)
    assert warm.manifest.store_misses == 0
    assert [r.signature() for r in warm.records] == [
        r.signature() for r in cold.records
    ]


# -- campaign hot path: memory reuse -------------------------------------


def test_garbage_segment_bytes_match_template_on_both_paths(monkeypatch):
    size = 3 * 4096  # distinctive size: avoids the pool other tests use
    seed = 0xD19E5
    template = M._garbage_bytes(seed ^ M.HEAP_BASE, size)
    cow = Segment("heap", M.HEAP_BASE, size, fill_seed=seed)
    assert bytes(cow.data) == template
    monkeypatch.setattr(M, "_COW_GARBAGE", False)
    plain = Segment("heap", M.HEAP_BASE, size, fill_seed=seed)
    assert bytes(plain.data) == template
    # Both are writable without disturbing the shared template.
    cow.data[0:4] = b"ABCD"
    plain.data[0:4] = b"ABCD"
    assert template[:4] == M._garbage_bytes(seed ^ M.HEAP_BASE, size)[:4]
    cow.release()
    plain.release()


def test_released_segment_buffer_is_pooled_and_inaccessible(monkeypatch):
    monkeypatch.setattr(M, "_COW_GARBAGE", False)
    size = 5 * 4096
    seg = Segment("stack", M.STACK_BASE, size, fill_seed=1234)
    buf = seg.data
    seg.release()
    with pytest.raises(IndexError):
        seg.data[0]  # post-release access must fail loudly, not alias
    reused = Segment("stack", M.STACK_BASE, size, fill_seed=1234)
    assert reused.data is buf  # same buffer object back from the pool
    assert bytes(reused.data) == M._garbage_bytes(1234 ^ M.STACK_BASE, size)
    reused.release()


def test_cow_release_unmaps_before_gc():
    size = 2 * 4096
    if not M._COW_GARBAGE:  # pragma: no cover - non-Linux fallback
        pytest.skip("memfd_create unavailable")
    seg = Segment("heap", M.HEAP_BASE, size, fill_seed=99)
    mapping = seg.data
    seg.release()
    assert mapping.closed
    with pytest.raises(IndexError):
        seg.data[0]


# -- campaign hot path: worker decision ----------------------------------


def test_single_core_machine_forces_serial_with_reason(monkeypatch):
    from repro.eval import parallel as P

    monkeypatch.setattr(P, "usable_cpu_count", lambda: 1)
    effective, reason, fallback = P._worker_decision(8, 1000)
    assert effective == 1
    assert reason == "serial"
    assert fallback == "single usable core"


def test_multi_core_machine_still_parallelizes(monkeypatch):
    from repro.eval import parallel as P

    monkeypatch.setattr(P, "usable_cpu_count", lambda: 8)
    if not P._fork_available():  # pragma: no cover - non-fork platforms
        pytest.skip("fork unavailable")
    effective, reason, fallback = P._worker_decision(4, 1000)
    assert effective == 4
    assert fallback is None
