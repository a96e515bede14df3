"""Persistent, content-addressed experiment result store.

The evaluation is thousands of independent experiment tuples; all of them
are pure functions of their inputs — the pristine module text, the fault
site, the variant configuration, the seed, and the execution budget.  The
store memoizes finished :class:`~repro.eval.experiment.ExperimentRecord`
values on disk under a key derived from exactly those inputs, so

* re-running any figure's campaign skips already-computed tuples, and
* a campaign interrupted mid-flight (crashed coordinator, killed machine)
  resumes exactly where it died: surviving entries are served as hits and
  only the missing tail is recomputed.

Key derivation (:func:`experiment_key`) hashes a canonical JSON encoding
of ``(workload, fault kind, injection percent, site id, variant
fingerprint, seed, run index, argv, cycle budget, exec-config fingerprint,
module sha256)``.  Any change to the program text, the variant's design /
diversity / comparison policy, or a result-affecting execution knob
changes the key, so stale entries can never be served; knobs that are
*proven* not to affect records (worker count, incremental builds,
tracing) are deliberately excluded so a campaign resumed under a
different parallelism still hits.

Entries are single JSON files named by their key, written atomically
(temp file + ``os.replace``) so a SIGKILL mid-write never leaves a
half-entry under the final name.  Reads verify a payload checksum; a
corrupt or truncated entry is *deleted and treated as a miss* — the
experiment is recomputed, never crashed on.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence

from ..machine.process import ExitStatus, ProcessResult
from .builds import module_fingerprint  # noqa: F401 — part of the key API
from .config import ExecConfig
from .experiment import ExperimentRecord
from .variants import Variant

#: Store entry schema; bump on incompatible shape changes (old-schema
#: entries are treated as misses and recomputed).
STORE_SCHEMA = 1


# -- fingerprints ----------------------------------------------------------


def variant_fingerprint(variant: Variant) -> str:
    """Canonical descriptor of one variant's configuration.

    Uses the *effective* diversity/policy (mirroring
    :meth:`Variant.compiler` defaults) so ``diversity=None`` and an
    explicit ``NoDiversity()`` fingerprint identically.
    """
    if not variant.dpmr:
        return f"{variant.name}|stdapp"
    diversity = variant.diversity.name if variant.diversity is not None else "no-diversity"
    policy = variant.policy.name if variant.policy is not None else "all-loads"
    design = getattr(variant.design, "value", variant.design)
    return f"{variant.name}|dpmr|{design}|{diversity}|{policy}"


def exec_fingerprint(config: ExecConfig) -> str:
    """Hash of the result-affecting :class:`ExecConfig` fields.

    Only ``timeout_factor`` can change what a record *contains*; worker
    count, incremental builds, tracing, the compiled execution tier
    (``DPMR_COMPILE``), the shard fabric (``DPMR_SHARDS``), and the
    resilience knobs are all proven bit-transparent and excluded so their
    variation never misses.
    """
    payload = json.dumps(
        {"timeout_factor": config.timeout_factor}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def experiment_key(
    workload: str,
    kind: str,
    percent: int,
    site: str,
    variant_fp: str,
    seed: int,
    run: int,
    argv: Sequence[str],
    timeout: int,
    exec_fp: str,
    module_sha: str,
) -> str:
    """Content address of one experiment tuple (sha256 hex)."""
    payload = json.dumps(
        {
            "schema": STORE_SCHEMA,
            "workload": workload,
            "kind": kind,
            "percent": percent,
            "site": site,
            "variant": variant_fp,
            "seed": seed,
            "run": run,
            "argv": list(argv),
            "timeout": timeout,
            "exec": exec_fp,
            "module": module_sha,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- record (de)serialization ---------------------------------------------


def result_to_dict(result: ProcessResult) -> Dict:
    return {
        "status": result.status.value,
        "exit_code": result.exit_code,
        "output": list(result.output),
        "cycles": result.cycles,
        "instructions": result.instructions,
        "fault_activations": dict(result.fault_activations),
        "detail": result.detail,
        "counters": dict(result.counters) if result.counters is not None else None,
    }


def result_from_dict(d: Dict) -> ProcessResult:
    return ProcessResult(
        status=ExitStatus(d["status"]),
        exit_code=d["exit_code"],
        output=list(d["output"]),
        cycles=d["cycles"],
        instructions=d["instructions"],
        fault_activations={k: int(v) for k, v in d["fault_activations"].items()},
        detail=d["detail"],
        counters=dict(d["counters"]) if d.get("counters") is not None else None,
    )


def record_to_dict(record: ExperimentRecord) -> Dict:
    return {
        "workload": record.workload,
        "variant": record.variant,
        "site": record.site,
        "run": record.run,
        "golden_output": record.golden_output,
        "result": result_to_dict(record.result),
    }


def record_from_dict(d: Dict) -> ExperimentRecord:
    return ExperimentRecord(
        workload=d["workload"],
        variant=d["variant"],
        site=d["site"],
        run=d["run"],
        result=result_from_dict(d["result"]),
        golden_output=d["golden_output"],
    )


# -- the store -------------------------------------------------------------


@dataclass
class StoreStats:
    """One store handle's traffic (reset per executor invocation)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0


class ResultStore:
    """Directory of content-addressed experiment records.

    Layout: ``<root>/<key[:2]>/<key>.json`` — two-level fan-out keeps any
    single directory small at campaign scale.  Concurrent writers are safe:
    entries are immutable once written (same key ⇒ byte-identical record,
    by the executor's determinism guarantee) and writes are atomic renames.
    """

    def __init__(self, root: str):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.stats = StoreStats()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- lookup ---------------------------------------------------------

    def get(self, key: str) -> Optional[ExperimentRecord]:
        """The stored record for ``key``, or None (miss).

        A corrupt entry — unparseable JSON, wrong schema, or a payload
        that no longer matches its checksum — is deleted, counted in
        ``stats.corrupt``, and reported as a miss so the caller recomputes.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            record = self._validate(entry)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self._discard_corrupt(path)
            return None
        if record is None:
            self._discard_corrupt(path)
            return None
        self.stats.hits += 1
        return record

    def get_many(self, keys: Sequence[str]) -> Dict[str, ExperimentRecord]:
        """Batched lookup: ``{key: record}`` for every hit, misses absent.

        The campaign service admits whole requests at once; each key goes
        through :meth:`get` so corruption handling and per-handle hit/miss
        statistics behave exactly like single lookups.
        """
        found: Dict[str, ExperimentRecord] = {}
        for key in keys:
            record = self.get(key)
            if record is not None:
                found[key] = record
        return found

    def _validate(self, entry: Dict) -> Optional[ExperimentRecord]:
        if entry.get("schema") != STORE_SCHEMA:
            return None
        payload = entry["record"]
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        if digest != entry.get("sha256"):
            return None
        return record_from_dict(payload)

    def _discard_corrupt(self, path: str) -> None:
        self.stats.corrupt += 1
        self.stats.misses += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- insertion ------------------------------------------------------

    def put(
        self, key: str, record: ExperimentRecord, key_fields: Optional[Dict] = None
    ) -> str:
        """Persist ``record`` under ``key``; returns the entry path.

        The write is atomic (temp file in the destination directory, then
        ``os.replace``): a reader either sees the complete entry or no
        entry, and a crash mid-write leaves at worst an orphaned temp file.
        ``key_fields`` is stored verbatim for human debugging only; lookup
        never consults it.
        """
        path = self._path(key)
        payload = record_to_dict(record)
        entry = {
            "schema": STORE_SCHEMA,
            "key": key,
            "key_fields": key_fields or {},
            "sha256": hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode("utf-8")
            ).hexdigest(),
            "record": payload,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, indent=1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    # -- maintenance ----------------------------------------------------

    def keys(self) -> Iterator[str]:
        """Every key currently on disk (order unspecified)."""
        for sub in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    yield name[: -len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))
