"""Variant builds (§3.5, Fig. 3.5).

The paper compiles each application into four classes of variants:

* **golden** — the unmodified application;
* **fi-stdapp** — fault-injection-instrumented, no DPMR;
* **nofi-dpmr** — DPMR-transformed, no fault injection (overhead runs);
* **fi-dpmr** — fault-injected then DPMR-transformed (coverage runs).

Here a :class:`Variant` captures the *configuration* (DPMR or not; design,
diversity transformation, state comparison policy) and compiles any module
into a runnable build; the fi/nofi axis is determined by whether the module
handed to :meth:`Variant.compile` was fault-injected.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

from ..core.aug_types import ReplicationDesign
from ..core.diversity import (
    DiversityPolicy,
    NoDiversity,
    PadMalloc,
    RearrangeHeap,
    ZeroBeforeFree,
)
from ..core.incremental import transform_digest
from ..core.pipeline import DpmrBuild, DpmrCompiler
from ..core.policies import (
    AllLoadsPolicy,
    ComparisonPolicy,
    static_10,
    static_50,
    static_90,
    temporal_1_2,
    temporal_1_8,
    temporal_7_8,
)
from ..ir.module import Module
from ..machine.interpreter import DEFAULT_MAX_CYCLES
from ..machine.process import ProcessResult, run_process


class CompiledVariant:
    """A runnable build of one (module, variant) pair."""

    def __init__(self, name: str, module: Module, build: Optional[DpmrBuild]):
        self.name = name
        self.module = module
        self._build = build

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
        if self._build is not None:
            return self._build.run(
                argv=argv,
                max_cycles=max_cycles,
                seed=seed,
                tracer=tracer,
                counters=counters,
                trace_meta=trace_meta,
                compiled=compiled,
            )
        return run_process(
            self.module,
            argv=argv,
            max_cycles=max_cycles,
            seed=seed,
            tracer=tracer,
            counters=counters,
            trace_meta=trace_meta,
            compiled=compiled,
        )


@dataclass
class Variant:
    """One point in the evaluation's configuration space."""

    name: str
    dpmr: bool = True
    design: Union[str, ReplicationDesign] = ReplicationDesign.SDS
    diversity: Optional[DiversityPolicy] = None
    policy: Optional[ComparisonPolicy] = None

    def compiler(self) -> Optional[DpmrCompiler]:
        """This variant's DPMR compiler configuration (None without DPMR)."""
        if not self.dpmr:
            return None
        return DpmrCompiler(
            design=self.design,
            policy=self._policy(),
            diversity=self.effective_diversity(),
        )

    def transform_compiler(self) -> Optional[DpmrCompiler]:
        """The compile-time half of :meth:`compiler`: design and comparison
        policy only.  The diversity transformation shapes the replica heap
        at run time and never reaches the transform, so variants that
        differ only in diversity share every transform product."""
        if not self.dpmr:
            return None
        return DpmrCompiler(design=self.design, policy=self._policy())

    def transform_key(self) -> Optional[str]:
        """Digest of what the transform reads of this variant
        (:func:`~repro.core.incremental.transform_digest`; None without
        DPMR)."""
        compiler = self.transform_compiler()
        if compiler is None:
            return None
        return transform_digest(compiler.design, compiler.policy)

    def _policy(self) -> ComparisonPolicy:
        return self.policy if self.policy is not None else AllLoadsPolicy()

    def effective_diversity(self) -> DiversityPolicy:
        """The diversity transformation runs of this variant use."""
        return self.diversity if self.diversity is not None else NoDiversity()

    def compile(self, module: Module) -> CompiledVariant:
        compiler = self.compiler()
        if compiler is None:
            return CompiledVariant(self.name, module, None)
        return CompiledVariant(self.name, module, compiler.compile(module))

    def bind(self, module: Module, build: Optional[DpmrBuild]) -> CompiledVariant:
        """This variant's runnable build of a diversity-free transform
        product: ``module`` and its DPMR build (None without DPMR), with
        the variant's name and diversity bound to it."""
        if build is not None:
            build = replace(build, diversity=self.effective_diversity())
        return CompiledVariant(self.name, module, build)


def stdapp_variant() -> Variant:
    """The standard application without DPMR."""
    return Variant(name="stdapp", dpmr=False)


def diversity_variants(design: Union[str, ReplicationDesign] = "sds") -> List[Variant]:
    """The seven DPMR diversity variants of §3.7, all under all-loads."""
    suite = [
        NoDiversity(),
        ZeroBeforeFree(),
        RearrangeHeap(),
        PadMalloc(8),
        PadMalloc(32),
        PadMalloc(256),
        PadMalloc(1024),
    ]
    return [
        Variant(name=d.name, design=design, diversity=d, policy=AllLoadsPolicy())
        for d in suite
    ]


def policy_variants(design: Union[str, ReplicationDesign] = "sds") -> List[Variant]:
    """The seven comparison-policy variants of §3.8 (rearrange-heap diversity).

    The paper evaluates policies under rearrange-heap because it was the
    best-performing diversity transformation.
    """
    policies = [
        AllLoadsPolicy(),
        temporal_1_8(),
        temporal_1_2(),
        temporal_7_8(),
        static_10(),
        static_50(),
        static_90(),
    ]
    return [
        Variant(name=p.name, design=design, diversity=RearrangeHeap(), policy=p)
        for p in policies
    ]


def variant_registry(
    design: Union[str, ReplicationDesign] = "sds"
) -> Dict[str, Variant]:
    """Every addressable variant of the evaluation, by canonical name.

    The registry is the by-name resolution surface of the public API: a
    :class:`~repro.eval.api.CampaignRequest` (and therefore the campaign
    service protocol) names variants as strings, and this mapping is the
    single place those strings become configurations.  It covers the
    standard application plus the paper's diversity suite (§3.7) and
    comparison-policy suite (§3.8); names are unique across both suites,
    and each call returns fresh :class:`Variant` objects so stateful
    diversity policies are never shared between campaigns.
    """
    registry: Dict[str, Variant] = {"stdapp": stdapp_variant()}
    for variant in diversity_variants(design) + policy_variants(design):
        registry[variant.name] = variant
    return registry


def resolve_variants(
    names: Sequence[str], design: Union[str, ReplicationDesign] = "sds"
) -> List[Variant]:
    """Resolve variant ``names`` through :func:`variant_registry`, in order.

    Raises :class:`ValueError` (naming the offender and every known name)
    for anything the registry does not define — a request must never fail
    later, mid-campaign, over a typo.
    """
    registry = variant_registry(design)
    missing = [n for n in names if n not in registry]
    if missing:
        raise ValueError(
            f"unknown variant name(s) {missing!r}; known: {sorted(registry)}"
        )
    return [registry[n] for n in names]
