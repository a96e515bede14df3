"""Chaos tests for the fault-tolerant campaign executor.

Each test injects one failure mode through the test-only hook
``repro.eval.parallel._CHAOS_HOOK`` (inherited by forked workers) and
asserts the two halves of the resilience contract:

* surviving records are bit-identical (``ExperimentRecord.signature``)
  to a clean serial run, and
* every recovery decision — worker restart, retry, experiment timeout,
  quarantine, store hit — is visible in the run manifest.

File latches (``O_CREAT | O_EXCL``) make a chaos action fire exactly
once across worker respawns and retries.
"""

import logging
import multiprocessing
import os
import signal
import threading
import time
from unittest import mock

import pytest

from repro.apps import app_factory
from repro.eval import (
    ExecConfig,
    WorkloadHarness,
    diversity_variants,
    job_for_harness,
    run,
    stdapp_variant,
)
from repro.eval import parallel as par
from repro.faultinject import HEAP_ARRAY_RESIZE, IMMEDIATE_FREE

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="supervised workers require the fork start method",
)

# mcf / heap-array-resize: 2 sites x 3 variants x 1 seed = 6 experiments.
KIND = HEAP_ARRAY_RESIZE
N_SITES = 2
N_VARIANTS = 3


def make_harness():
    return WorkloadHarness("mcf", app_factory("mcf", 1), seeds=(0,))


def make_variants():
    return [stdapp_variant()] + diversity_variants("sds")[: N_VARIANTS - 1]


@pytest.fixture(scope="module")
def harness():
    return make_harness()


@pytest.fixture(scope="module")
def variants():
    return make_variants()


@pytest.fixture(scope="module")
def serial_baseline(harness, variants):
    """Signatures of a clean serial run — the bit-identity reference."""
    res = run(harness, variants, kind=KIND, config=ExecConfig(jobs=1))
    assert len(res.records) == N_SITES * N_VARIANTS
    return [r.signature() for r in res.records]


def run_with_chaos(harness, variants, hook, config, kind=KIND):
    """Run a campaign with the chaos hook installed, forcing the
    supervised parallel path even though the campaign is tiny."""
    with mock.patch.object(par, "_CHAOS_HOOK", hook), mock.patch.object(
        par, "MIN_ITEMS_PER_WORKER", 1
    ), mock.patch.object(par, "usable_cpu_count", return_value=4):
        return run(harness, variants, kind=kind, config=config)


def latch_once(latch_path):
    """True exactly once across every process sharing ``latch_path``."""
    try:
        os.close(os.open(str(latch_path), os.O_CREAT | os.O_EXCL))
        return True
    except FileExistsError:
        return False


class TestWorkerCrash:
    def test_sigkilled_worker_is_restarted_and_item_retried(
        self, harness, variants, serial_baseline, tmp_path
    ):
        latch = tmp_path / "killed"

        def chaos(item):
            if item == (0, 1, 1, 0) and latch_once(latch):
                os.kill(os.getpid(), signal.SIGKILL)

        res = run_with_chaos(
            harness,
            variants,
            chaos,
            ExecConfig(jobs=2, retries=2, retry_backoff_s=0.01),
        )
        m = res.manifest
        assert m.effective_jobs == 2
        assert m.worker_restarts >= 1
        assert m.retries >= 1
        assert not m.quarantined
        assert [r.signature() for r in res.records] == serial_baseline

    def test_wedged_experiment_hits_timeout_and_is_retried(
        self, harness, variants, serial_baseline, tmp_path
    ):
        latch = tmp_path / "wedged"

        def chaos(item):
            if item == (0, 0, 2, 0) and latch_once(latch):
                time.sleep(60.0)  # supervisor kills us long before this

        res = run_with_chaos(
            harness,
            variants,
            chaos,
            ExecConfig(
                jobs=2, retries=2, exp_timeout_s=0.4, retry_backoff_s=0.01
            ),
        )
        m = res.manifest
        assert m.exp_timeouts >= 1
        assert m.worker_restarts >= 1
        assert not m.quarantined
        assert "not enforced" not in m.worker_reason
        assert [r.signature() for r in res.records] == serial_baseline


class TestQuarantine:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
    def test_poisoned_site_is_quarantined_not_fatal(
        self, harness, variants, serial_baseline, jobs
    ):
        def chaos(item):
            if item[:2] == (0, 0):
                raise RuntimeError("poisoned site")

        res = run_with_chaos(
            harness,
            variants,
            chaos,
            ExecConfig(jobs=jobs, retries=1, retry_backoff_s=0.01),
        )
        m = res.manifest
        assert len(m.quarantined) == 1
        q = m.quarantined[0]
        assert q.workload == "mcf"
        assert q.kind == KIND
        assert q.attempts == 2  # first try + one retry
        assert "poisoned site" in q.reason
        assert m.retries >= 1
        # Survivors are the serial records minus the quarantined site,
        # bit-identical and in the same order.
        survivors = [
            sig for sig in serial_baseline if sig[2] != q.site
        ]
        assert len(survivors) == (N_SITES - 1) * N_VARIANTS
        assert [r.signature() for r in res.records] == survivors

    def test_retries_exhausted_counts_every_attempt(self, harness, variants):
        def chaos(item):
            if item[:2] == (0, 1):
                raise RuntimeError("flaky infrastructure")

        res = run_with_chaos(
            harness,
            variants,
            chaos,
            ExecConfig(jobs=1, retries=3, retry_backoff_s=0.0),
        )
        m = res.manifest
        assert len(m.quarantined) == 1
        assert m.quarantined[0].attempts == 4
        assert m.retries == 3


class TestInProcess:
    """A serial campaign is the supervisor's loop with one in-process worker."""

    def test_cancel_during_retry_backoff_returns_promptly(self, harness, variants):
        cancel = threading.Event()
        first = (0, 0, 0, 0)
        fired = []

        def chaos(item):
            if item == first and not fired:
                fired.append(item)
                cancel.set()
                raise RuntimeError("transient infrastructure failure")

        job = job_for_harness(harness, variants, KIND)
        config = ExecConfig(jobs=1, retries=2, retry_backoff_s=8.0)
        started = time.monotonic()
        with mock.patch.object(par, "_CHAOS_HOOK", chaos):
            records, m = par.run_campaign_jobs_with_manifest(
                [job], config=config, cancel=cancel
            )
        # Well inside the 8 s backoff: the loop polls cancel while it waits.
        assert time.monotonic() - started < 4.0
        assert m.effective_jobs == 1
        assert m.retries == 1
        assert not m.quarantined
        site = job.sites[first[1]].site_id
        variant = job.variants[first[2]].name
        assert not any(r.site == site and r.variant == variant for r in records)

    def test_unenforced_budget_is_visible(
        self, harness, variants, serial_baseline, caplog
    ):
        config = ExecConfig(jobs=1, exp_timeout_s=30.0)
        with caplog.at_level(logging.WARNING, logger="repro.eval.parallel"):
            res = run(harness, variants, kind=KIND, config=config)
        m = res.manifest
        assert m.effective_jobs == 1
        assert m.worker_reason == (
            "serial requested (jobs=1); 30s experiment budget not enforced "
            "in-process"
        )
        warnings = [r for r in caplog.records if "not enforced" in r.message]
        assert len(warnings) == 1
        assert [r.signature() for r in res.records] == serial_baseline


def _interrupted_campaign_child(store_dir, kind):
    """Child-process body: a serial campaign writing into the store.

    It blocks at its third experiment, after the first two records are
    stored, so the parent's SIGKILL always lands mid-campaign however fast
    the experiments run; atomic store writes guarantee every entry it
    managed to publish is complete.
    """
    started = []

    def block_at_third(item):
        started.append(item)
        if len(started) == 3:
            signal.pause()

    par._CHAOS_HOOK = block_at_third
    config = ExecConfig(jobs=1, store_path=store_dir)
    run(make_harness(), make_variants(), kind=kind, config=config)


def _store_entry_count(store_dir):
    # Count only published entries: a SIGKILL mid-put can orphan a
    # ".tmp-*.json" scratch file, which the store itself never serves.
    n = 0
    for sub in os.listdir(store_dir) if os.path.isdir(store_dir) else ():
        subdir = os.path.join(store_dir, sub)
        if os.path.isdir(subdir):
            n += sum(
                1
                for name in os.listdir(subdir)
                if name.endswith(".json") and not name.startswith(".tmp-")
            )
    return n


class TestInterruptedResume:
    @pytest.mark.parametrize("kind", [HEAP_ARRAY_RESIZE, IMMEDIATE_FREE])
    def test_sigkilled_campaign_resumes_bit_identical(self, tmp_path, kind):
        """The PR's acceptance criterion: a campaign interrupted by SIGKILL,
        resumed via the store, matches an uninterrupted serial run exactly,
        with the resume visible as store hits in the manifest."""
        store_dir = str(tmp_path / "store")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_interrupted_campaign_child, args=(store_dir, kind)
        )
        child.start()
        # Wait for partial progress, then kill mid-campaign.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if _store_entry_count(store_dir) >= 2 or not child.is_alive():
                break
            time.sleep(0.01)
        # The child blocks before its third experiment, so it is still
        # running here unless it died.
        assert child.is_alive()
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=10.0)
        assert not child.is_alive()
        partial = _store_entry_count(store_dir)
        assert partial == 2

        # Resume: same campaign, same store, this process.
        harness = make_harness()
        variants = make_variants()
        resumed = run(
            harness,
            variants,
            kind=kind,
            config=ExecConfig(jobs=1, store_path=store_dir),
        )
        clean = run(harness, variants, kind=kind, config=ExecConfig(jobs=1))
        assert [r.signature() for r in resumed.records] == [
            r.signature() for r in clean.records
        ]
        m = resumed.manifest
        assert m.store_hits == partial
        assert m.store_hits + m.store_misses == len(clean.records)
        assert m.store_misses > 0  # the kill really interrupted work
        # A third run is served entirely from the store.
        again = run(
            harness,
            variants,
            kind=kind,
            config=ExecConfig(jobs=1, store_path=store_dir),
        )
        assert again.manifest.store_hits == len(clean.records)
        assert again.manifest.store_misses == 0
        assert [r.signature() for r in again.records] == [
            r.signature() for r in clean.records
        ]

    def test_parallel_resume_matches_serial(self, tmp_path):
        """Cold parallel run with chaos, warm serial resume: identical."""
        store_dir = str(tmp_path / "store")
        latch = tmp_path / "killed"

        def chaos(item):
            if item == (0, 0, 1, 0) and latch_once(latch):
                os.kill(os.getpid(), signal.SIGKILL)

        harness = make_harness()
        variants = make_variants()
        cold = run_with_chaos(
            harness,
            variants,
            chaos,
            ExecConfig(
                jobs=2, retries=2, retry_backoff_s=0.01, store_path=store_dir
            ),
        )
        assert cold.manifest.worker_restarts >= 1
        warm = run(
            harness,
            variants,
            kind=KIND,
            config=ExecConfig(jobs=1, store_path=store_dir),
        )
        assert warm.manifest.store_hits == len(cold.records)
        assert warm.manifest.store_misses == 0
        assert [r.signature() for r in warm.records] == [
            r.signature() for r in cold.records
        ]
