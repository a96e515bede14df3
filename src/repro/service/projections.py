"""Append-only event log and derived projections for status queries.

The daemon never answers a status query by replaying experiment records.
Instead every state change appends one plain-data event to an
:class:`EventLog` (the source of truth), and a :class:`Projections`
instance folds each event into small derived tables as it is appended:

* ``totals`` — daemon-wide admission traffic: tuples admitted, persistent
  store hits, cross-request shared hits, tuples actually executed (the
  live store hit rate falls out of these);
* ``requests`` — per-request progress (admitted / done / errors / state)
  without touching any record;
* ``figures`` — live coverage and detection-latency aggregates per
  ``workload/fault-kind/variant`` cell, updated once per *unique* tuple
  (fan-out to subscribers does not double-count).

The projections are a pure fold: ``Projections.replay(log.events)``
rebuilds byte-identical state from the log alone, which is both the
correctness contract (tested) and the upgrade path — a future projection
is backfilled by replaying the same events.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class EventLog:
    """Append-only sequence of plain-dict events (the source of truth)."""

    def __init__(self) -> None:
        self.events: List[Dict] = []

    def append(self, kind: str, **fields) -> Dict:
        event = {"seq": len(self.events), "kind": kind, **fields}
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)


class Projections:
    """Derived state, folded incrementally from :class:`EventLog` events."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {
            "requests": 0,
            "completed_requests": 0,
            "tuples_admitted": 0,
            "store_hits": 0,
            "shared_hits": 0,
            "executed": 0,
            "errors": 0,
            "batches": 0,
            "batch_wall_s": 0.0,
        }
        self.requests: Dict[str, Dict] = {}
        self.figures: Dict[str, Dict] = {}

    # -- the fold -------------------------------------------------------

    def apply(self, event: Dict) -> None:
        kind = event["kind"]
        if kind == "request_admitted":
            t = self.totals
            t["requests"] += 1
            t["tuples_admitted"] += event["n_items"]
            t["store_hits"] += event["store_hits"]
            t["shared_hits"] += event["shared_hits"]
            t["executed"] += event["executed"]
            self.requests[event["request_id"]] = {
                "state": "running",
                "n_items": event["n_items"],
                "n_jobs": event["n_jobs"],
                "store_hits": event["store_hits"],
                "shared_hits": event["shared_hits"],
                "executed": event["executed"],
                "done": 0,
                "errors": 0,
            }
        elif kind == "request_progress":
            req = self.requests.get(event["request_id"])
            if req is not None:
                req["done"] = event["done"]
                req["errors"] = event["errors"]
        elif kind == "request_done":
            self.totals["completed_requests"] += 1
            req = self.requests.get(event["request_id"])
            if req is not None:
                req["state"] = "done"
                req["done"] = req["n_items"]
                req["errors"] = event["errors"]
                req["wall_s"] = event["wall_s"]
        elif kind == "tuple_done":
            fig = self._figure(
                event["workload"], event["fault_kind"], event["variant"]
            )
            fig["records"] += 1
            fig["covered"] += 1 if event["covered"] else 0
            fig["detected"] += 1 if event["detected"] else 0
            if event["t2d"] is not None:
                fig["t2d_sum"] += event["t2d"]
                fig["t2d_n"] += 1
        elif kind == "tuple_error":
            self.totals["errors"] += 1
        elif kind == "batch_done":
            self.totals["batches"] += 1
            self.totals["batch_wall_s"] += event["wall_s"]
        # Unknown kinds (say, ``shard_done`` from daemons that ran the
        # retired shard fabric) are ignored: old logs replay cleanly through
        # newer projections and vice versa.

    def _figure(self, workload: str, fault_kind: str, variant: str) -> Dict:
        key = f"{workload}/{fault_kind}/{variant}"
        fig = self.figures.get(key)
        if fig is None:
            fig = {
                "records": 0,
                "covered": 0,
                "detected": 0,
                "t2d_sum": 0,
                "t2d_n": 0,
            }
            self.figures[key] = fig
        return fig

    # -- queries --------------------------------------------------------

    def store_hit_rate(self) -> Optional[float]:
        admitted = self.totals["tuples_admitted"]
        if not admitted:
            return None
        return self.totals["store_hits"] / admitted

    def to_dict(self) -> Dict:
        totals = dict(self.totals)
        totals["batch_wall_s"] = round(totals["batch_wall_s"], 6)
        rate = self.store_hit_rate()
        if rate is not None:
            totals["store_hit_rate"] = round(rate, 4)
        figures = {}
        for key in sorted(self.figures):
            fig = dict(self.figures[key])
            if fig["records"]:
                fig["coverage"] = round(fig["covered"] / fig["records"], 4)
            if fig["t2d_n"]:
                fig["mean_t2d"] = round(fig["t2d_sum"] / fig["t2d_n"], 2)
            figures[key] = fig
        return {
            "totals": totals,
            "requests": {k: dict(v) for k, v in sorted(self.requests.items())},
            "figures": figures,
        }

    @classmethod
    def replay(cls, events: List[Dict]) -> "Projections":
        """Rebuild projections from the log alone (must equal the live fold)."""
        proj = cls()
        for event in events:
            proj.apply(event)
        return proj
