"""Cross-request deduplication keyed by the store's content address.

The daemon's dedupe key for an experiment tuple *is* the persistent
store's :func:`~repro.eval.store.experiment_key` — a pure function of the
tuple's inputs, so it works identically with or without a store
configured, and a tuple deduplicated in memory today is the same entry a
store-warm resume would hit tomorrow.  Three tables, all mutated only on
the daemon's event loop:

* ``completed`` — records finished during this daemon's lifetime (runs
  and store hits promoted at admission); later requests are served
  instantly from here.
* ``inflight`` — tuples currently scheduled or executing, each with the
  list of ``(request, index, source)`` subscribers waiting on it.  A
  request overlapping an in-flight tuple *joins* it instead of scheduling
  a duplicate; every subscriber receives the record when it lands.
* ``pending`` — in-flight tuples not yet handed to a batch; the
  scheduler's runner drains this in snapshots.

The table knows nothing about asyncio, sockets, or executors — it is a
plain data structure the scheduler drives, unit-testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..eval.experiment import ExperimentRecord
from ..eval.parallel import CampaignJob
from ..eval.store import experiment_key


def tuple_key(
    job: CampaignJob,
    si: int,
    variant_fp: str,
    ri: int,
    exec_fp: str,
    module_sha: str,
) -> Tuple[str, Dict]:
    """Content address of one ``(job, site, variant, run)`` tuple.

    Field-for-field identical to the executor's store indexing
    (:func:`repro.eval.parallel._store_index`), so a record the daemon
    executes is found under the same key by any later batch run.
    """
    fields = {
        "workload": job.workload,
        "kind": job.kind,
        "percent": job.percent,
        "site": job.sites[si].site_id,
        "variant_fp": variant_fp,
        "seed": job.seeds[ri],
        "run": ri,
        "argv": list(job.argv),
        "timeout": job.timeout,
        "exec_fp": exec_fp,
        "module_sha": module_sha,
    }
    return experiment_key(**fields), fields


@dataclass
class TupleRef:
    """One experiment tuple, addressed within a canonical job."""

    entry: object  # the scheduler's canonical CampaignJob (kept opaque here)
    si: int
    vi: int
    ri: int
    key: str

    @property
    def job(self) -> CampaignJob:
        return self.entry  # type: ignore[return-value]

    @property
    def site_id(self) -> str:
        return self.job.sites[self.si].site_id


#: One waiter on an in-flight tuple: (request state, index in that
#: request's expansion order, the source its record message will report).
Subscriber = Tuple[object, int, str]


@dataclass
class InflightTuple:
    ref: TupleRef
    subscribers: List[Subscriber] = field(default_factory=list)


class DedupeTable:
    """Completed / in-flight / pending tuples, keyed by content address."""

    def __init__(self) -> None:
        self.completed: Dict[str, ExperimentRecord] = {}
        self.inflight: Dict[str, InflightTuple] = {}
        self.pending: List[str] = []
        self.stats: Dict[str, int] = {
            "scheduled": 0,
            "joins": 0,
            "memory_hits": 0,
            "store_hits": 0,
            "failed": 0,
        }

    def lookup(self, key: str) -> Optional[ExperimentRecord]:
        """The in-memory record for ``key``, counting a hit when found."""
        record = self.completed.get(key)
        if record is not None:
            self.stats["memory_hits"] += 1
        return record

    def serve_store_hit(self, key: str, record: ExperimentRecord) -> bool:
        """Promote a persistent-store hit into the in-memory table.

        Returns True when this call inserted the record (the caller then
        emits the tuple's one ``tuple_done`` event); False when another
        request already promoted or computed it.
        """
        if key in self.completed:
            return False
        self.completed[key] = record
        self.stats["store_hits"] += 1
        return True

    def admit(self, ref: TupleRef, state: object, index: int) -> str:
        """Admit one tuple a request needs: ``"inflight"`` or ``"new"``.

        ``"inflight"`` — an equal tuple is already scheduled; the request
        subscribed to it and will be served when it lands.  ``"new"`` —
        the tuple was added to ``pending``, owned by this request.
        (In-memory completions are the caller's first check, via
        :meth:`lookup`.)
        """
        entry = self.inflight.get(ref.key)
        if entry is not None:
            entry.subscribers.append((state, index, "shared"))
            self.stats["joins"] += 1
            return "inflight"
        self.inflight[ref.key] = InflightTuple(ref, [(state, index, "run")])
        self.pending.append(ref.key)
        self.stats["scheduled"] += 1
        return "new"

    def take_pending(self) -> List[str]:
        """Drain the pending queue (one batch snapshot)."""
        keys, self.pending = self.pending, []
        return keys

    def complete(self, key: str, record: ExperimentRecord) -> Optional[InflightTuple]:
        """Move an in-flight tuple to completed; returns its subscribers.

        None when the tuple is unknown or already completed (idempotent
        against duplicate callbacks).
        """
        entry = self.inflight.pop(key, None)
        if entry is None:
            return None
        self.completed[key] = record
        return entry

    def fail(self, key: str) -> Optional[InflightTuple]:
        """Drop an in-flight tuple that produced no record (quarantine).

        The key is *not* added to ``completed``, so a later request may
        retry the tuple from scratch.
        """
        entry = self.inflight.pop(key, None)
        if entry is not None:
            self.stats["failed"] += 1
        return entry
