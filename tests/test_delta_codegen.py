"""The compiled-by-default campaign hot path.

The compiled tier is the default campaign engine.  What makes that safe
and cheap is pinned here: compiled-by-default interplay with the result
store (``compiled`` is excluded from the exec fingerprint, so a cold
interpreter run resumes warm under the compiled default bit-identically),
the per-run segment buffer reuse that eliminated the dominant fixed cost
of an experiment, and the single-core serial fallback.
"""

import pytest

from repro.apps import app_factory
from repro.eval.api import run
from repro.eval.config import ExecConfig
from repro.eval.experiment import WorkloadHarness
from repro.eval.variants import Variant
from repro.faultinject.injector import IMMEDIATE_FREE
from repro.machine import memory as M
from repro.machine.memory import Segment


# -- campaign hot path: store resume across engines ----------------------


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
    seed = 0xD19E5
    # Distinctive sizes avoid the pool other tests use; the second spans
    # several memfd template chunks and ends in a partial one.
    for size in (3 * 4096, 2 * M._TEMPLATE_CHUNK + 3 * 4096):
        template = M._garbage_bytes(seed ^ M.HEAP_BASE, size)
        cow = Segment("heap", M.HEAP_BASE, size, fill_seed=seed)
        assert bytes(cow.data) == template
        with monkeypatch.context() as mp:
            mp.setattr(M, "_COW_GARBAGE", False)
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
