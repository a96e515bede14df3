"""repro — a reproduction of Diverse Partial Memory Replication (DPMR).

DPMR (Lefever, DSN 2010 / UIUC dissertation 2011) is an automatic compiler
transformation that replicates a subset of a program's data memory inside the
same process, diversifies the replica, and detects memory-safety errors by
comparing application loads against replica loads.

Public API layers
-----------------
``repro.ir``
    The typed intermediate representation the transformation operates on.
``repro.machine``
    Byte-accurate simulated machine (memory, heap allocator, interpreter).
``repro.core``
    The DPMR transformation itself: shadow/augmented types, the SDS and MDS
    designs, diversity transformations, and state comparison policies.
``repro.dsa``
    Data Structure Analysis and replication-scope expansion (Ch. 5).
``repro.faultinject``
    Compiler-based software fault injection (§3.4).
``repro.eval``
    Variant builds, experiment runner, and the paper's metrics (§3.5–3.6).
``repro.apps``
    Analog benchmark workloads (art, bzip2, equake, mcf).
``repro.obs``
    Structured observability: tracing, counters, run manifests.
``repro.service``
    Campaign service: async daemon + client over the result store.
"""

__version__ = "1.0.0"

# The stable top-level API.  Everything in __all__ is importable from
# ``repro`` directly and covered by tests/test_public_api.py; deeper
# modules remain importable but carry no stability promise.
from .core.pipeline import DpmrBuild, DpmrCompiler  # noqa: E402
from .eval.api import CampaignRequest, CampaignResult, request_jobs, run  # noqa: E402
from .eval.config import ExecConfig  # noqa: E402
from .eval.experiment import ExperimentRecord, WorkloadHarness  # noqa: E402
from .eval.store import ResultStore  # noqa: E402
from .eval.variants import (  # noqa: E402
    Variant,
    diversity_variants,
    policy_variants,
    resolve_variants,
    stdapp_variant,
    variant_registry,
)
from .machine.process import ExitStatus, ProcessResult, run_process  # noqa: E402

#: Resolved from ``repro.service`` on first access (PEP 562), so a process
#: that never serves does not import the daemon's asyncio stack.
_SERVICE_NAMES = frozenset({"ServiceClient", "ServiceDaemon", "ServiceError"})


def __getattr__(name):
    if name in _SERVICE_NAMES:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CampaignRequest",
    "CampaignResult",
    "DpmrBuild",
    "DpmrCompiler",
    "ExecConfig",
    "ExitStatus",
    "ExperimentRecord",
    "ProcessResult",
    "ResultStore",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "Variant",
    "WorkloadHarness",
    "diversity_variants",
    "policy_variants",
    "request_jobs",
    "resolve_variants",
    "run",
    "run_process",
    "stdapp_variant",
    "variant_registry",
]
