"""``BENCH_interp.json`` is shared: ``perf_interp.py`` rewrites its own
sections, while ``perf_build.py``, ``perf_store.py`` and ``perf_service.py``
maintain theirs and retired benchmarks left frozen ones behind.  A full
``perf_interp.py`` run must delete none of those."""

import json
from pathlib import Path

from benchmarks.perf_interp import carry_over_sections

BENCH = Path(__file__).resolve().parents[1] / "BENCH_interp.json"


def test_full_run_keeps_every_section_it_does_not_write():
    committed = json.loads(BENCH.read_text(encoding="utf-8"))
    for section in ("build", "store", "service", "shard", "inline_rt"):
        assert section in committed
    written = {"interp": {"instructions_per_s": 1}, "history": []}
    merged = carry_over_sections(committed, dict(written))
    assert set(merged) == set(committed)
    for section, value in merged.items():
        assert value == written.get(section, committed[section]), section
