"""Machine-readable run manifests for campaigns and clean runs.

A :class:`RunManifest` is the campaign executor's flight recorder: every
decision that used to be silent (worker count chosen and *why*, serial
fallback reason, build path, the shape of each job) plus campaign-level
aggregates (record counts by exit status, machine counter totals).  It is
returned alongside the records by the :func:`repro.eval.run` facade and —
when a manifest or trace path is configured — persisted as JSON next to
the records so a benchmark run is auditable after the fact.

The manifest is deliberately plain data (dicts/lists/scalars only below
the dataclass surface) so ``to_dict()`` round-trips through JSON.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

#: Manifest schema version; bump on incompatible shape changes.
MANIFEST_SCHEMA = 8

#: Keys of the shard fabric (schemas 5–6), removed in schema 7, and the
#: per-job build-cache keys, removed from :class:`JobManifest` in schema 8.
#: Older manifests still load: :meth:`RunManifest.from_dict` drops exactly
#: these.
_RETIRED_KEYS = (
    "n_shards",
    "lease_grants",
    "lease_reassignments",
    "lease_expiries",
    "store_synced",
    "shards",
)
_RETIRED_JOB_KEYS = (
    "cache_hits",
    "cache_misses",
    "cache_full_rebuilds",
    "builds_cached",
)


def usable_cpu_count() -> int:
    """Cores this process may run on: its affinity mask where the platform
    has one (containers and ``taskset`` narrow it), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass
class QuarantineRecord:
    """One fault site excluded from a campaign after exhausting retries.

    Quarantine is the executor's graceful-degradation escape hatch: a site
    whose experiments keep failing at the *infrastructure* level (worker
    death, per-experiment timeout, build machinery exceptions) is dropped
    from the result set instead of killing the whole campaign, and the
    decision is recorded here so no degradation is ever silent.
    """

    workload: str
    kind: str
    site: str
    attempts: int
    reason: str


@dataclass
class JobManifest:
    """Per-(workload, fault-kind) telemetry of one campaign job."""

    workload: str
    kind: str
    n_sites: int
    n_variants: int
    n_seeds: int
    sites: List[str] = field(default_factory=list)


@dataclass
class RunManifest:
    """Everything one executor invocation decided and observed."""

    mode: str  # "campaign" | "clean" | "service"
    schema: int = MANIFEST_SCHEMA
    # -- executor decisions -------------------------------------------------
    requested_jobs: int = 1
    effective_jobs: int = 1
    worker_reason: str = ""
    serial_fallback: Optional[str] = None  # set when parallelism was refused
    incremental: bool = True
    # -- configuration snapshot --------------------------------------------
    trace_path: Optional[str] = None
    counters_enabled: bool = False
    #: execution engine chosen for bare runs: "interp" (reference
    #: interpreter) or "compiled" (repro.machine.compile); observability
    #: always forces the instrumented interpreter regardless.
    engine: str = "interp"
    #: IR→Python codegen cache behaviour (coordinator process view; both
    #: stay 0 under the interpreter engine).
    codegen_hits: int = 0
    codegen_misses: int = 0
    timeout_factor: Optional[int] = None
    # -- workload shape -----------------------------------------------------
    n_jobs: int = 0
    n_items: int = 0
    n_records: int = 0
    jobs: List[JobManifest] = field(default_factory=list)
    # -- resilience ---------------------------------------------------------
    #: persistent result store in use (None: store disabled).
    store_path: Optional[str] = None
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    #: experiment tuples this request shared with concurrent requests — they
    #: executed once (or were in flight / already finished in-memory) and the
    #: record was fanned out.  Only the campaign service (mode="service")
    #: sets this; batch runs leave it 0.
    shared_hits: int = 0
    #: corrupt/truncated store entries discarded and recomputed.
    store_corrupt: int = 0
    #: experiment attempts repeated after an infrastructure failure.
    retries: int = 0
    #: supervised workers respawned after dying or being killed.
    worker_restarts: int = 0
    #: experiments killed for exceeding the per-experiment wall budget.
    exp_timeouts: int = 0
    #: sites excluded after exhausting retries (never silent).
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    # -- build table (schema 6; repro.eval.builds) --------------------------
    #: golden runs, base transforms and finished faulty builds this
    #: campaign built vs. took from the process-wide build table, and table
    #: entries its inserts evicted.  Coordinator-process view: builds made
    #: inside forked workers stay there.
    golden_built: int = 0
    golden_served: int = 0
    base_built: int = 0
    base_served: int = 0
    site_built: int = 0
    site_served: int = 0
    builds_evicted: int = 0
    # -- outcome aggregates -------------------------------------------------
    status_counts: Dict[str, int] = field(default_factory=dict)
    counter_totals: Dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    # -- provenance ---------------------------------------------------------
    python: str = field(default_factory=platform.python_version)
    #: usable cores (:func:`usable_cpu_count`).
    cpu_count: int = field(default_factory=usable_cpu_count)
    #: where this manifest was persisted, if anywhere.
    path: Optional[str] = None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict:
        d = asdict(self)
        d["status_counts"] = {k: self.status_counts[k] for k in sorted(self.status_counts)}
        d["counter_totals"] = {k: self.counter_totals[k] for k in sorted(self.counter_totals)}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def write(self, path: str) -> str:
        """Persist as JSON; records and returns the path."""
        path = os.fspath(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        self.path = path
        return path

    @classmethod
    def from_dict(cls, d: Dict) -> "RunManifest":
        jobs = [
            JobManifest(**{k: v for k, v in j.items() if k not in _RETIRED_JOB_KEYS})
            for j in d.get("jobs", ())
        ]
        quarantined = [QuarantineRecord(**q) for q in d.get("quarantined", ())]
        fields = {
            k: v
            for k, v in d.items()
            if k not in ("jobs", "quarantined") and k not in _RETIRED_KEYS
        }
        return cls(jobs=jobs, quarantined=quarantined, **fields)

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
