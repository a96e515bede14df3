"""The unified run/campaign entry point and the typed campaign API.

One function — :func:`run` — fronts the execution shapes of the
evaluation (clean overhead runs, one harness campaign, a multi-job
campaign, and a declarative :class:`CampaignRequest`) and always returns
the same thing: a :class:`CampaignResult` holding the experiment records
*and* the run manifest, so every invocation is observable and auditable
the same way::

    from repro.eval import ExecConfig, WorkloadHarness, run

    res = run(harness, variants, kind="heap-array-resize",
              config=ExecConfig(jobs=8, trace_path="campaign.jsonl"))
    res.records      # bit-identical to the serial per-call API
    res.manifest     # worker decisions, cache stats, counter totals

:class:`CampaignRequest` is the *public request shape*: a plain, fully
serializable description of a figure matrix (workloads × fault kinds ×
variants × percent × seeds).  ``run(request)`` executes it in-process;
the campaign service (:mod:`repro.service`) accepts the exact same type
over the wire and produces bit-identical records — both paths expand a
request through :func:`request_jobs`, so the in-process and over-the-wire
APIs cannot drift.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs.manifest import RunManifest
from ..obs.tracer import real_tracer
from .builds import build_scope
from .config import ExecConfig
from .experiment import ExperimentRecord, WorkloadHarness
from .parallel import (
    CampaignJob,
    finish_manifest,
    job_for_harness,
    manifest_for,
    run_campaign_jobs_with_manifest,
)
from .variants import Variant, resolve_variants


@dataclass(frozen=True)
class CampaignRequest:
    """A declarative campaign: one figure matrix as plain, wire-safe data.

    Every field is a scalar or tuple of scalars, so a request round-trips
    losslessly through JSON (:meth:`to_dict` / :meth:`from_dict`) — the
    service protocol serializes exactly this type.  Expansion into
    experiment tuples is deterministic: workloads × kinds in the order
    given, then every fault site × variant × seed of each campaign job.
    """

    #: workload names from :data:`repro.apps.APP_BUILDERS` (e.g. ``"mcf"``).
    workloads: Tuple[str, ...]
    #: fault kinds from :data:`repro.faultinject.FAULT_KINDS`.
    kinds: Tuple[str, ...]
    #: variant names resolved through :func:`repro.eval.variants.variant_registry`.
    variants: Tuple[str, ...]
    #: replication design for DPMR variants (``"sds"`` or ``"mds"``).
    design: str = "sds"
    #: fault-injection percent (position of the site sweep, §3.4).
    percent: int = 50
    #: workload build scale (the app factories' size knob).
    scale: int = 1
    #: machine seeds; one run per seed per (site, variant).
    seeds: Tuple[int, ...] = (0,)
    #: truncate each job's enumerated fault sites (None: all sites).
    max_sites: Optional[int] = None
    #: client-chosen correlation id; the service generates one if None.
    request_id: Optional[str] = None

    def __post_init__(self):
        # Tolerate lists from JSON/keyword construction; store tuples so the
        # dataclass stays hashable and safely shareable.
        for name in ("workloads", "kinds", "variants", "seeds"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    def validate(self) -> "CampaignRequest":
        """Raise :class:`ValueError` on anything expansion would choke on."""
        from ..apps import APP_BUILDERS
        from ..faultinject import FAULT_KINDS

        if not self.workloads:
            raise ValueError("request has no workloads")
        unknown = [w for w in self.workloads if w not in APP_BUILDERS]
        if unknown:
            raise ValueError(
                f"unknown workload(s) {unknown!r}; known: {sorted(APP_BUILDERS)}"
            )
        if not self.kinds:
            raise ValueError("request has no fault kinds")
        bad = [k for k in self.kinds if k not in FAULT_KINDS]
        if bad:
            raise ValueError(
                f"unknown fault kind(s) {bad!r}; known: {sorted(FAULT_KINDS)}"
            )
        if not self.variants:
            raise ValueError("request has no variants")
        resolve_variants(self.variants, self.design)  # raises on unknown names
        if not 0 <= int(self.percent) <= 100:
            raise ValueError(f"percent must be 0..100, got {self.percent}")
        if int(self.scale) < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if not self.seeds:
            raise ValueError("request has no seeds")
        if self.max_sites is not None and int(self.max_sites) < 0:
            raise ValueError(f"max_sites must be >= 0, got {self.max_sites}")
        return self

    # -- serialization (the wire shape of the service protocol) ----------

    def to_dict(self) -> Dict:
        d = asdict(self)
        for name in ("workloads", "kinds", "variants", "seeds"):
            d[name] = list(d[name])
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "CampaignRequest":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown CampaignRequest field(s): {sorted(extra)}")
        missing = {"workloads", "kinds", "variants"} - set(d)
        if missing:
            raise ValueError(f"CampaignRequest missing field(s): {sorted(missing)}")
        return cls(**d)


@dataclass
class CampaignResult:
    """Uniform result of :func:`run`: records plus their run manifest."""

    records: List[ExperimentRecord]
    manifest: RunManifest

    def __iter__(self) -> Iterator[ExperimentRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    # -- serialization (the wire shape of the service protocol) ----------

    def to_dict(self) -> Dict:
        from .store import record_to_dict

        return {
            "records": [record_to_dict(r) for r in self.records],
            "manifest": self.manifest.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "CampaignResult":
        from .store import record_from_dict

        return cls(
            records=[record_from_dict(r) for r in d["records"]],
            manifest=RunManifest.from_dict(d["manifest"]),
        )


#: ``harness_for(workload, scale)`` — how :func:`request_jobs` obtains each
#: workload's harness.  The service passes its cache; in-process callers
#: default to building (and golden-running) a fresh harness.
HarnessProvider = Callable[[str, int], WorkloadHarness]


def default_harness_provider(
    config: Optional[ExecConfig] = None,
) -> HarnessProvider:
    """Fresh :class:`WorkloadHarness` per call, built from the app factory
    (its golden run comes from the build table after the first)."""

    def provide(workload: str, scale: int) -> WorkloadHarness:
        from ..apps import app_factory

        return WorkloadHarness(workload, app_factory(workload, scale), config=config)

    return provide


def request_jobs(
    request: CampaignRequest,
    config: Optional[ExecConfig] = None,
    harness_for: Optional[HarnessProvider] = None,
) -> List[CampaignJob]:
    """Expand a request into executor jobs — the one expansion everyone uses.

    Both the in-process ``run(request)`` path and the campaign service
    expand through here, which is what pins their record order (and
    content) to each other: workloads × kinds in request order, each job
    enumerating site × variant × seed exactly like the serial loop.
    Expansion is lazy: it takes golden runs and site lists from the build
    table and transforms nothing — the executor fetches base transforms
    only for jobs with tuples left to run.
    """
    request.validate()
    cfg = config if config is not None else ExecConfig.from_env()
    provide = harness_for if harness_for is not None else default_harness_provider(cfg)
    variants = resolve_variants(request.variants, request.design)
    jobs: List[CampaignJob] = []
    for workload in request.workloads:
        harness = provide(workload, request.scale)
        for kind in request.kinds:
            jobs.append(
                job_for_harness(
                    harness,
                    variants,
                    kind,
                    percent=request.percent,
                    max_sites=request.max_sites,
                    seeds=request.seeds,
                )
            )
    return jobs


def run(
    target: Union[WorkloadHarness, CampaignRequest, Sequence[CampaignJob]],
    variants: Optional[Iterable[Variant]] = None,
    kind: Optional[str] = None,
    *,
    config: Optional[ExecConfig] = None,
    percent: int = 50,
    max_sites: Optional[int] = None,
    tracer=None,
) -> CampaignResult:
    """Run clean experiments or a fault campaign; always records + manifest.

    Dispatch is by arguments:

    * ``run(harness, variants)`` — clean (non-fault-injection) runs of each
      variant, one per harness seed (the overhead experiments);
    * ``run(harness, variants, kind=...)`` — one fault campaign over the
      harness (every site × variant × seed of that fault kind);
    * ``run(request)`` — a declarative :class:`CampaignRequest`, expanded
      by :func:`request_jobs` (the same expansion the campaign service
      uses, so records are bit-identical to submitting the request to a
      daemon);
    * ``run(jobs)`` — a prepared multi-job campaign
      (:class:`~repro.eval.parallel.CampaignJob` list).

    ``config`` defaults to the harness's configuration (itself defaulting
    to the environment); ``tracer`` overrides the config's trace file, e.g.
    with a :class:`~repro.obs.CollectingTracer`.
    """
    if isinstance(target, CampaignRequest):
        if kind is not None or variants is not None:
            raise TypeError(
                "run(request) takes no variants/kind — they live on the request"
            )
        with build_scope() as expansion:
            jobs = request_jobs(target, config=config)
        records, manifest = run_campaign_jobs_with_manifest(
            jobs, config=config, tracer=tracer
        )
        # The request's golden runs happen at expansion: count them too.
        expansion.add_to(manifest)
        if manifest.path is not None:
            manifest.write(manifest.path)
        return CampaignResult(records, manifest)
    if isinstance(target, WorkloadHarness):
        if kind is not None:
            if variants is None:
                raise TypeError("run(harness, ..., kind=...) requires variants")
            cfg = config if config is not None else target.config
            job = job_for_harness(
                target, variants, kind, percent=percent, max_sites=max_sites
            )
            records, manifest = run_campaign_jobs_with_manifest(
                [job], config=cfg, tracer=tracer
            )
            return CampaignResult(records, manifest)
        if variants is None:
            raise TypeError("run(harness) requires variants (or kind= for a campaign)")
        return _run_clean(target, list(variants), config=config, tracer=tracer)
    if kind is not None or variants is not None:
        raise TypeError("run(jobs) takes no variants/kind — they live on the jobs")
    records, manifest = run_campaign_jobs_with_manifest(
        list(target), config=config, tracer=tracer
    )
    return CampaignResult(records, manifest)


def _run_clean(
    harness: WorkloadHarness,
    variants: List[Variant],
    config: Optional[ExecConfig],
    tracer=None,
) -> CampaignResult:
    """Clean runs of every (variant, seed), with the same manifest shape."""
    from ..machine.compile import codegen_stats

    cfg = config if config is not None else harness.config
    own_tracer = tracer is None
    if own_tracer:
        tracer = cfg.make_tracer()
    tracer = real_tracer(tracer)
    counters = cfg.counters or tracer is not None
    manifest = manifest_for(
        "clean",
        cfg,
        counters,
        effective_jobs=1,
        worker_reason="clean runs execute serially",
        incremental=False,
        trace_path=cfg.trace_path if (own_tracer and tracer is not None) else None,
        n_jobs=1,
        n_items=len(variants) * len(harness.seeds),
    )
    cg_before = codegen_stats()
    started = time.monotonic()
    records: List[ExperimentRecord] = []
    try:
        for variant in variants:
            for seed in harness.seeds:
                records.append(
                    harness.run_clean(
                        variant,
                        seed=seed,
                        tracer=tracer,
                        counters=counters,
                        compiled=cfg.compiled,
                    )
                )
    finally:
        if own_tracer and tracer is not None:
            tracer.close()
    finish_manifest(manifest, cfg, records, time.monotonic() - started, cg_before)
    return CampaignResult(records, manifest)
