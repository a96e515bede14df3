"""Seeded inputs of the three workloads.

Everything a workload submits is generated here from ``--seed``; the
program under test only ever sees the generated :class:`CampaignRequest`
values.  String seeds (``random.Random("figure-matrix/7")``) hash through
SHA-512, so the inputs do not depend on ``PYTHONHASHSEED``.

Every cell does the same work for every seed: the seed picks the order
of cells and variants and the machine seeds, never which tuples a cell
has, so that runs with different seeds measure the same mix of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import CampaignRequest, diversity_variants, policy_variants
from repro.apps import WORKLOAD_ORDER
from repro.faultinject import FAULT_KINDS

FAMILIES = ("diversity", "policy")
#: the variants of each family that figure-matrix and observed-parallel
#: run: a fixed half of the family spanning its cost range (plain and
#: stateful diversity, small and large padding; every load, a temporal
#: sample, a sparse and a dense static sample).  Fixed, not seeded, so
#: a cell costs the same for every seed.
SUBSET = {
    "diversity": ("no-diversity", "rearrange-heap", "pad-malloc-8", "pad-malloc-1024"),
    "policy": ("all-loads", "temporal-1/2", "static-10%", "static-90%"),
}
DESIGNS = ("sds", "mds")
#: trace event kinds ``repro.obs.replay`` needs to recompute T2D.
REPLAY_EVENTS = ("run-start", "run-end", "fault", "detect")


def family_variants(family: str, design: str) -> List[str]:
    """The seven DPMR variant names of one family under one design."""
    make = diversity_variants if family == "diversity" else policy_variants
    return [v.name for v in make(design)]


def _machine_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 16)


#: walks of the service's warm sequence: 3 × 56 requests, so its p90 has
#: 16 requests beyond it.
WARM_WALKS = 3


@dataclass(frozen=True)
class Stream:
    """The service workload's inputs: priming, cold, warm request lists."""

    prime: Tuple[CampaignRequest, ...]
    cold: Tuple[CampaignRequest, ...]
    warm: Tuple[CampaignRequest, ...]


def figure_matrix(seed: int, tiny: bool = False) -> List[CampaignRequest]:
    """The Ch. 3–4 figure matrix: one request per (family, design, kind).

    Each request covers all four apps — the BenchLab grouping — with
    ``stdapp`` plus the family's :data:`SUBSET`, on the first fault site
    of each job (``max_sites=1``): 8 requests of 20 records.  Every cell
    does the same work for every seed; the seed picks the request order
    and the machine seed.  ``tiny`` keeps one variant per family.
    """
    rng = random.Random(f"figure-matrix/{seed}")
    machine_seed = _machine_seed(rng)
    requests = [
        CampaignRequest(
            workloads=WORKLOAD_ORDER,
            kinds=(kind,),
            variants=("stdapp",) + SUBSET[family][: 1 if tiny else 4],
            design=design,
            seeds=(machine_seed,),
            max_sites=1,
        )
        for family in FAMILIES
        for design in DESIGNS
        for kind in FAULT_KINDS
    ]
    rng.shuffle(requests)
    return [_with_id(r, f"fm-{i:02d}") for i, r in enumerate(requests)]


def observed_parallel(seed: int, tiny: bool = False) -> List[CampaignRequest]:
    """Scale-4 requests, one per (design, kind), both families in each.

    Each request holds ``stdapp`` plus both families' :data:`SUBSET` on
    the first fault site of each app's job: 36 tuples.  ``stdapp`` tuples
    do not depend on the design, so the second request of a kind finds
    them in the store; the 32 tuples left still give the executor its 16
    tuples per worker for both workers.  The seed picks the request order
    and the machine seed.  ``tiny`` runs the same shape at scale 1.
    """
    rng = random.Random(f"observed-parallel/{seed}")
    machine_seed = _machine_seed(rng)
    requests = [
        CampaignRequest(
            workloads=WORKLOAD_ORDER,
            kinds=(kind,),
            variants=("stdapp",) + SUBSET["diversity"] + SUBSET["policy"],
            design=design,
            scale=1 if tiny else 4,
            seeds=(machine_seed,),
            max_sites=1,
        )
        for design in DESIGNS
        for kind in FAULT_KINDS
    ]
    rng.shuffle(requests)
    return [_with_id(r, f"op-{i:02d}") for i, r in enumerate(requests)]


def service_stream(seed: int, tiny: bool = False) -> Stream:
    """Priming requests plus a cold and a warm request sequence.

    A *cell* is (app, kind) under a fixed design — SDS for
    heap-array-resize, MDS for immediate-free — and its variant list is
    ``stdapp`` followed by the design's seven diversity and seven policy
    variants, shuffled per family and interleaved ``d1 p1 d2 p2 …``.  A
    walk visits the cells in seeded order and each cell with windows of
    three variants advancing by two — ``[0,1,2] [2,3,4] … [12,13,14]`` —
    so neighbouring requests share a policy variant (dedupe joins and
    memory hits) while each diversity variant belongs to exactly one
    request.  Every request therefore carries tuples no other request asks
    for, executes at least one, and waits on one policy variant, which
    keeps its latency in one mode.  One site per job: 8 cells of 7
    requests.

    The cold sequence is one walk.  The warm sequence is
    :data:`WARM_WALKS` more walks with new machine seeds: every tuple is
    new to the daemon, but its code is generated already.  The priming requests (``max_sites=0``)
    build every harness, job and base transform of all three walks, so
    the warm stream times the service path and the per-site work.
    """
    rng = random.Random(f"service-stream/{seed}")
    first = _machine_seed(rng)
    machine_seeds = [first + k for k in range(1 + WARM_WALKS)]
    cells = [(app, kind) for app in WORKLOAD_ORDER for kind in FAULT_KINDS]
    rng.shuffle(cells)
    if tiny:
        cells = cells[:2]
    design = {"heap-array-resize": "sds", "immediate-free": "mds"}
    walks: List[Tuple[Tuple[str, str], Tuple[str, ...]]] = []
    variants: Dict[Tuple[str, str], Tuple[str, ...]] = {}
    for app, kind in cells:
        div = family_variants("diversity", design[kind])
        pol = family_variants("policy", design[kind])
        rng.shuffle(div)
        rng.shuffle(pol)
        order = ["stdapp"] + [name for pair in zip(div, pol) for name in pair]
        variants[(app, kind)] = tuple(order)
        for start in range(0, len(order) - 1, 2):
            walks.append(((app, kind), tuple(order[start : start + 3])))

    def requests(machine: int, tag: str) -> Tuple[CampaignRequest, ...]:
        return tuple(
            CampaignRequest(
                workloads=(app,),
                kinds=(kind,),
                variants=window,
                design=design[kind],
                seeds=(machine,),
                max_sites=1,
                request_id=f"{tag}-{i:03d}",
            )
            for i, ((app, kind), window) in enumerate(walks)
        )

    prime = tuple(
        CampaignRequest(
            workloads=(app,),
            kinds=(kind,),
            variants=variants[(app, kind)],
            design=design[kind],
            seeds=(machine,),
            max_sites=0,
            request_id=f"prime-{machine}-{app}-{kind}",
        )
        for machine in machine_seeds
        for app, kind in cells
    )
    cold, *warm = (requests(m, f"s{i}") for i, m in enumerate(machine_seeds))
    return Stream(prime=prime, cold=cold, warm=sum(warm, ()))


def _with_id(request: CampaignRequest, request_id: str) -> CampaignRequest:
    return CampaignRequest(**{**request.to_dict(), "request_id": request_id})
