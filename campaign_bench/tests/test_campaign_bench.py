"""Tests of the campaign benchmark itself (not of the program it measures).

Run from the repository root:

    PYTHONPATH=src python -m pytest campaign_bench/tests -q

The tiny-size runs take about two and a half minutes in all.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import layers  # noqa: E402
import session  # noqa: E402
from run import END_TO_END  # noqa: E402

from repro import CampaignRequest, ExecConfig, request_jobs, run  # noqa: E402

WORKLOADS = ("figure-matrix", "observed-parallel", "service-stream")
#: share of the load-driving threads' timed windows that spans may leave
#: uncovered: only the benchmark's own loop bookkeeping runs outside them.
RESIDUAL = 0.05


def _bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def one_record():
    request = CampaignRequest(
        workloads=("mcf",), kinds=("heap-array-resize",), variants=("no-diversity",), max_sites=1
    )
    config = ExecConfig()
    jobs = request_jobs(request, config)
    (record,) = run(jobs, config=config).records
    return request, jobs, record


def _flipped(record):
    result = dataclasses.replace(record.result, exit_code=record.result.exit_code + 1)
    return dataclasses.replace(record, result=result)


def _pass(jobs, record):
    p = session.Pass("test")
    p.expected.append(session.expected_ids(jobs))
    p.records.append({session.record_id(record): record})
    return p


def test_flipped_field_is_a_failed_operation(one_record):
    request, jobs, record = one_record
    same = session.compare_passes(_pass(jobs, record), _pass(jobs, record))
    assert same == {"attempted": 1, "failed": 0}
    flipped = session.compare_passes(_pass(jobs, record), _pass(jobs, _flipped(record)))
    assert flipped == {"attempted": 1, "failed": 1}
    provide = session.harness_cache(ExecConfig())
    assert session.oracle_check([(request, record)], provide, "t")["failed"] == 0
    assert session.oracle_check([(request, _flipped(record))], provide, "t")["failed"] == 1


def test_missing_record_is_a_failed_operation(one_record):
    _, jobs, record = one_record
    p = _pass(jobs, record)
    p.records[0].clear()
    assert session.missing(p) == {"attempted": 1, "failed": 1}


def _dicts(requests):
    return [r.to_dict() for r in requests]


@pytest.mark.parametrize(
    "generate",
    [
        inputs.figure_matrix,
        inputs.observed_parallel,
        lambda seed: inputs.service_stream(seed).cold + inputs.service_stream(seed).warm,
    ],
)
def test_seed_determines_requests(generate):
    assert _dicts(generate(5)) == _dicts(generate(5))
    assert _dicts(generate(5)) != _dicts(generate(6))


def test_pass_sizes_do_not_depend_on_seed():
    def size(requests):
        return sorted((r.workloads, r.kinds, len(r.variants), r.scale, r.max_sites) for r in requests)

    for generate in (inputs.figure_matrix, inputs.observed_parallel):
        assert size(generate(1)) == size(generate(2))
    one, two = inputs.service_stream(1), inputs.service_stream(2)
    for part in ("prime", "cold", "warm"):
        assert size(getattr(one, part)) == size(getattr(two, part))
    # the latency stream: p90 has at least ten requests beyond it
    assert len(one.warm) >= 100


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_output_check(workload):
    out = _bench(workload, trace=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


ACCEPTANCE = {
    "figure-matrix": lambda m: m["machine.code_compiles.cold"] > 0
    and m["machine.code_compiles.warm"] == 0,
    "observed-parallel": lambda m: m["machine.codegen_n"] == 0
    and m["eval.effective_jobs"] == 2
    and m["store.hit_frac.resume"] == 1,
    "service-stream": lambda m: m["service.shared_frac"] > 0 and m["service.min_executed"] >= 1,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_sum_to_wall(workload):
    out = _bench(workload, trace=1)
    assert out["correct"] and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == set(layers.METRICS)
    assert 0 <= metrics["trace.residual_frac"] < RESIDUAL
    assert ACCEPTANCE[workload](metrics), metrics


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "campaign_bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "campaign_bench/run.py", "--workload", "figure-matrix",
         "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
