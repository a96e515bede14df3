"""The DPMR tool chain (Fig. 3.4) as a library facade.

``source (IR module) → DPMR transform → verified module → native execution``
becomes::

    compiler = DpmrCompiler(design="sds", policy=AllLoadsPolicy(),
                            diversity=RearrangeHeap())
    build = compiler.compile(module)
    result = build.run(argv=["prog"])

A :class:`DpmrBuild` pairs the transformed module with the run-time half of
the configuration (design + diversity), mirroring how the paper links
transformed bitcode against DPMR's external code support libraries.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..ir.module import Module
from ..ir.verifier import verify_module
from ..machine.interpreter import DEFAULT_MAX_CYCLES
from ..machine.process import ProcessResult, run_process
from .aug_types import ReplicationDesign
from .diversity import DiversityPolicy, NoDiversity
from .mds import MdsTransform
from .plan import ReplicationPlan
from .policies import AllLoadsPolicy, ComparisonPolicy
from .runtime import DpmrRuntime
from .sds import SdsTransform


def _coerce_design(design: Union[str, ReplicationDesign]) -> ReplicationDesign:
    if isinstance(design, ReplicationDesign):
        return design
    return ReplicationDesign(design.lower())


@dataclass
class DpmrBuild:
    """A transformed module plus its run-time configuration.

    ``cache_hits``/``cache_misses`` report the function-level transform
    cache's behaviour for this build: hits are functions spliced from the
    cached pristine transform (or the content-addressed memo), misses are
    functions that had to be re-translated.  Both stay 0 for builds produced
    by a plain (non-incremental) :meth:`DpmrCompiler.compile`.
    """

    module: Module
    design: ReplicationDesign
    policy: ComparisonPolicy
    diversity: DiversityPolicy
    cache_hits: int = 0
    cache_misses: int = 0

    def runtime(self) -> DpmrRuntime:
        # Stateful policies (e.g. the segregated-replica arena ablation)
        # get a fresh copy per run: they would otherwise leak allocator
        # state from one run into the next, making results depend on
        # execution order — which both corrupts repeated runs and breaks
        # the parallel executor's serial-identity guarantee.  Stateless
        # policies (the whole Table 2.8 suite) are shared as-is; the
        # deepcopy was a measurable per-experiment fixed cost at campaign
        # scale.
        diversity = self.diversity
        if diversity.stateful:
            diversity = copy.deepcopy(diversity)
        return DpmrRuntime(self.design, diversity)

    def run(
        self,
        argv: Sequence[str] = (),
        max_cycles: int = DEFAULT_MAX_CYCLES,
        seed: int = 0,
        tracer=None,
        counters: bool = False,
        trace_meta=None,
        compiled: bool = False,
    ) -> ProcessResult:
        return run_process(
            self.module,
            argv=argv,
            max_cycles=max_cycles,
            seed=seed,
            dpmr_runtime=self.runtime(),
            tracer=tracer,
            counters=counters,
            trace_meta=trace_meta,
            compiled=compiled,
        )

    @property
    def variant_name(self) -> str:
        return f"{self.design.value}/{self.diversity.name}/{self.policy.name}"


class DpmrCompiler:
    """Applies the DPMR transformation with a fixed configuration."""

    def __init__(
        self,
        design: Union[str, ReplicationDesign] = ReplicationDesign.SDS,
        policy: Optional[ComparisonPolicy] = None,
        diversity: Optional[DiversityPolicy] = None,
        plan: Optional[ReplicationPlan] = None,
        verify: bool = True,
        optimize: bool = False,
    ):
        self.design = _coerce_design(design)
        self.policy = policy if policy is not None else AllLoadsPolicy()
        self.diversity = diversity if diversity is not None else NoDiversity()
        self.plan = plan
        self.verify = verify
        self.optimize = optimize

    def compile(self, module: Module) -> DpmrBuild:
        """Transform ``module``; returns a runnable :class:`DpmrBuild`."""
        plan_module = getattr(self.plan, "module", None)
        if plan_module is not None and plan_module is not module:
            raise ValueError(
                "the replication plan was built for a different module "
                "instance; build the plan on the exact module being compiled"
            )
        if self.verify:
            verify_module(module)
        cls = SdsTransform if self.design is ReplicationDesign.SDS else MdsTransform
        transform = cls(module, policy=self.policy, plan=self.plan)
        out = transform.run()
        if self.optimize:
            # The post-DPMR optimize stage of Fig. 3.5.
            from ..ir.optimizer import optimize_module

            optimize_module(out)
        if self.verify:
            verify_module(out)
        return DpmrBuild(out, self.design, self.policy, self.diversity)
