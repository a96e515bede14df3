"""Experiment execution and per-run classification (§3.6, Table 3.2).

An experiment is one run of an application variant, identified by the tuple
``(W, C, D, I, RN)`` — workload, comparison policy, diversity
transformation, injected fault, run number.  :class:`ExperimentRecord`
captures the measured random variables: running time ``T``, successful
fault injection ``SF``, correct output ``CO``, natural detection ``Ndet``,
DPMR detection ``Ddet``, and time-to-detection ``T2D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..faultinject.campaign import ProgramFactory
from ..machine.process import ExitStatus, ProcessResult, run_process
from .builds import build_table, canonical_pristine
from .config import DEFAULT_TIMEOUT_FACTOR, ExecConfig
from .variants import CompiledVariant, Variant

#: timeout multiplier over golden running time (the paper uses ~20x).
#: Kept as a module alias; the configurable knob is
#: ``ExecConfig.timeout_factor`` / ``DPMR_TIMEOUT_FACTOR``.
TIMEOUT_FACTOR = DEFAULT_TIMEOUT_FACTOR


@dataclass
class ExperimentRecord:
    """One experiment's measurements and derived classifications."""

    workload: str
    variant: str
    site: Optional[str]  # fault-site id, None for non-FI experiments
    run: int
    result: ProcessResult
    golden_output: str

    def signature(self) -> tuple:
        """Every measured field, as one comparable value.

        Two records are *bit-identical* for the executor's determinism and
        resume guarantees iff their signatures are equal.  Machine counters
        are deliberately excluded — observability must never change what an
        experiment measures, and store hits replay records that may have
        been computed under a different observability configuration.
        """
        return (
            self.workload,
            self.variant,
            self.site,
            self.run,
            self.golden_output,
            self.result.status,
            self.result.exit_code,
            self.result.output_text,
            self.result.cycles,
            self.result.instructions,
            tuple(sorted(self.result.fault_activations.items())),
            self.result.detail,
        )

    @property
    def sf(self) -> bool:
        """Successful fault injection: the injected code executed (§3.6)."""
        if self.site is None:
            return False
        return self.site in self.result.fault_activations

    @property
    def co(self) -> bool:
        """Correct output — the literal interpretation: the run produced
        exactly what the golden run would have (a detected error is *not*
        correct output)."""
        return (
            self.result.status is ExitStatus.NORMAL
            and self.result.exit_code == 0
            and self.result.output_text == self.golden_output
        )

    @property
    def ddet(self) -> bool:
        """Error detected by DPMR."""
        return self.result.status is ExitStatus.DPMR_DETECTED

    @property
    def ndet(self) -> bool:
        """Natural detection: crash, application-detected error, or an
        error-identifying exit code."""
        s = self.result.status
        if s in (ExitStatus.CRASH, ExitStatus.APP_ERROR):
            return True
        return s is ExitStatus.NORMAL and self.result.exit_code != 0

    @property
    def covered(self) -> bool:
        """Coverage per Eq. 3.2: correct output or some detection."""
        return self.co or self.ndet or self.ddet

    @property
    def detection_time(self) -> Optional[int]:
        if self.ddet or self.ndet:
            return self.result.cycles
        return None

    @property
    def t2d(self) -> Optional[int]:
        """Time to fault detection (Eq. 3.4): detection minus activation."""
        if self.co or not self.sf:
            return None
        d = self.detection_time
        a = self.result.fault_activations.get(self.site)
        if d is None or a is None:
            return None
        return max(d - a, 0)


@dataclass
class WorkloadHarness:
    """Runs variants of one workload, non-FI and under fault campaigns."""

    name: str
    factory: ProgramFactory
    argv: Sequence[str] = ()
    seeds: Sequence[int] = (0,)
    #: execution configuration; None defaults to the environment's.
    config: Optional[ExecConfig] = None

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = ExecConfig.from_env()
        #: the canonical pristine snapshot (frozen) and its content digest.
        self.pristine, self.pristine_digest = canonical_pristine(self.factory())
        golden = build_table().get(
            ("golden", self.pristine_digest, tuple(self.argv)),
            lambda: run_process(self.pristine, argv=self.argv),
        )
        if golden.status is not ExitStatus.NORMAL or golden.exit_code != 0:
            raise RuntimeError(
                f"golden run of {self.name} failed: {golden.status} "
                f"{golden.detail} exit={golden.exit_code}"
            )
        self.golden = golden
        self.timeout = max(golden.cycles * self.config.timeout_factor, 100_000)

    # -- non-fault-injection runs (overhead) ------------------------------

    def run_clean(
        self,
        variant: Variant,
        seed: int = 0,
        tracer=None,
        counters: bool = False,
        compiled: bool = False,
    ) -> ExperimentRecord:
        build = variant.compile(self.factory())
        trace_meta = None
        if tracer is not None:
            trace_meta = {
                "run_id": f"{self.name}/{variant.name}/clean/{seed}",
                "workload": self.name,
                "variant": variant.name,
                "site": None,
                "run": seed,
                "golden_output": self.golden.output_text,
            }
        result = build.run(
            argv=self.argv,
            max_cycles=self.timeout * 3,
            seed=seed,
            tracer=tracer,
            counters=counters,
            trace_meta=trace_meta,
            compiled=compiled,
        )
        return ExperimentRecord(
            workload=self.name,
            variant=variant.name,
            site=None,
            run=seed,
            result=result,
            golden_output=self.golden.output_text,
        )

    def overhead(self, variant: Variant, seed: int = 0) -> float:
        """Eq. 3.1: variant running time over golden running time."""
        rec = self.run_clean(variant, seed)
        if rec.result.status is not ExitStatus.NORMAL:
            raise RuntimeError(
                f"clean run of {self.name}/{variant.name} failed: "
                f"{rec.result.status} {rec.result.detail}"
            )
        return rec.result.cycles / self.golden.cycles

    # -- fault-injection runs -----------------------------------------------

    def run_campaign(
        self,
        variants: Iterable[Variant],
        kind: str,
        percent: int = 50,
        max_sites: Optional[int] = None,
        config: Optional[ExecConfig] = None,
    ) -> List[ExperimentRecord]:
        """Run every (site, variant, seed) experiment for one fault kind.

        Execution is governed by ``config`` (worker count, incremental
        builds, tracing/counters; defaults to the harness's configuration);
        serial and parallel execution produce identical records in identical
        order, as do incremental and full-rebuild builds.  Use
        :func:`repro.eval.run` to also get the run manifest.
        """
        from .parallel import job_for_harness, run_campaign_jobs_with_manifest

        cfg = config if config is not None else self.config
        job = job_for_harness(
            self, variants, kind, percent=percent, max_sites=max_sites
        )
        records, _ = run_campaign_jobs_with_manifest([job], config=cfg)
        return records
