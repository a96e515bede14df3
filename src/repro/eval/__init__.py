"""Experimental framework: variants, experiments, metrics, reports (§3.3–3.6).

The primary entry point is :func:`run` — a single facade over clean
(overhead) runs, single-harness fault campaigns, and prepared multi-job
campaigns — which always returns a :class:`CampaignResult` (records plus
run manifest).  Execution knobs live on :class:`ExecConfig`
(``DPMR_JOBS``, ``DPMR_INCREMENTAL``, ``DPMR_TRACE``, …), parsed from the
environment in exactly one place (:mod:`repro.eval.config`).
"""

from .api import (
    CampaignRequest,
    CampaignResult,
    default_harness_provider,
    request_jobs,
    run,
)
from .config import DEFAULT_TIMEOUT_FACTOR, ExecConfig
from .experiment import ExperimentRecord, TIMEOUT_FACTOR, WorkloadHarness
from .parallel import (
    CampaignJob,
    default_jobs,
    effective_workers,
    job_for_harness,
    run_campaign_jobs,
    run_campaign_jobs_with_manifest,
)
from .metrics import (
    CoverageComponents,
    aggregate_counters,
    by_variant,
    by_workload,
    conditional_coverage_components,
    coverage,
    coverage_components,
    mean_time_to_detection,
    std_not_all_det_sites,
    successful,
)
from .report import (
    conditional_coverage_table,
    counter_table,
    coverage_table,
    latency_table,
    manifest_section,
    overhead_table,
)
from .store import (
    ResultStore,
    StoreStats,
    experiment_key,
    module_fingerprint,
    variant_fingerprint,
)
from .supervise import SupervisionStats, WorkerSupervisor
from .variants import (
    CompiledVariant,
    Variant,
    diversity_variants,
    policy_variants,
    resolve_variants,
    stdapp_variant,
    variant_registry,
)

__all__ = [
    "CampaignJob",
    "CampaignRequest",
    "CampaignResult",
    "CompiledVariant",
    "CoverageComponents",
    "DEFAULT_TIMEOUT_FACTOR",
    "ExecConfig",
    "ExperimentRecord",
    "ResultStore",
    "StoreStats",
    "SupervisionStats",
    "TIMEOUT_FACTOR",
    "Variant",
    "WorkerSupervisor",
    "WorkloadHarness",
    "aggregate_counters",
    "by_variant",
    "by_workload",
    "conditional_coverage_components",
    "conditional_coverage_table",
    "counter_table",
    "coverage",
    "coverage_components",
    "coverage_table",
    "default_harness_provider",
    "default_jobs",
    "diversity_variants",
    "effective_workers",
    "experiment_key",
    "job_for_harness",
    "latency_table",
    "module_fingerprint",
    "manifest_section",
    "mean_time_to_detection",
    "overhead_table",
    "policy_variants",
    "request_jobs",
    "resolve_variants",
    "run",
    "run_campaign_jobs",
    "run_campaign_jobs_with_manifest",
    "std_not_all_det_sites",
    "stdapp_variant",
    "successful",
    "variant_fingerprint",
    "variant_registry",
]
