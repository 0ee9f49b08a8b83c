"""The benchmark's workloads and their seeded request schedules.

A workload fixes the system the daemon serves, the nominal open-loop
rate, the job-shape mix, a log-normal hold and the lease TTL.  Shapes
are dealt from a shuffled deck holding each shape as many times as its
weight, so every seed runs the mix in nearly its exact proportions and
only the order varies; a shape that does not fit yet waits for a later
arrival.  A job is one launcher lifecycle: ``allocate`` at its Poisson
arrival, ``renew`` every TTL/3 while held, ``release`` when the hold
ends.  :func:`schedule`
is a pure function of (workload, seed, phase, duration).

Every workload holds under half of its cluster: an arrival whose
estimated nodes would push the jobs still held past half of the nodes is
left out of the schedule, so a denial is always a failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

#: a job keeps counting against the held-node budget this long after its
#: release falls due; the other half of the cluster absorbs later releases
RELEASE_MARGIN_S = 0.02
#: log-normal sigma of every hold
HOLD_SIGMA = 0.5
ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class Shape:
    """One job shape of a mix, its copies in the deck and its estimated
    node count."""

    n: int
    ppn: int | None
    copies: int
    nodes: int


@dataclass(frozen=True)
class Job:
    """One scheduled lifecycle; times are seconds from the phase start."""

    idx: int
    arrive: float
    n: int
    ppn: int | None
    alpha: float
    ttl_s: float
    renews: tuple[float, ...]
    release: float


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one system."""

    name: str
    why: str
    #: the system the daemon serves, and whether its snapshot is frozen
    kind: str
    frozen: bool
    #: nominal Poisson arrival rate, jobs/s
    rate: float
    shapes: tuple[Shape, ...]
    #: a job's α is drawn uniformly from these
    alphas: tuple[float, ...]
    #: median hold, s
    hold_s: float
    ttl_s: float
    #: target renews per allocate: the op mix a valid run shows
    renews_per_job: float
    #: p99 allocate latency limit of the nominal phase, ms
    slo_ms: float
    #: untimed load on each fresh daemon before a measured segment: long
    #: enough to fill a frozen snapshot's decision memo, short on a live
    #: one, whose refresh cost grows with the held-node sets it has seen
    warmup_s: float
    #: half of the cluster's nodes
    node_cap: int
    #: allocates in the placement-quality replay
    replay_jobs: int
    #: the decision-memo hit share a valid run lands in
    memo_hits: tuple[float, float] | None = None
    #: whether a valid run makes cross-shard grants
    cross_shard: bool = False

    def deal(self, rng: np.random.Generator) -> Iterator[Shape]:
        """Shapes from the deck, reshuffled every round."""
        deck = [shape for shape in self.shapes for _ in range(shape.copies)]
        while True:
            for i in rng.permutation(len(deck)):
                yield deck[i]


def _mix(
    ns: Sequence[int],
    ppns: Sequence[int | None],
    *,
    procs_per_node: int,
    max_nodes: int,
    copies: Callable[[int], int],
) -> tuple[Shape, ...]:
    """Every (n, ppn) needing at most ``max_nodes`` estimated nodes.

    Without a ``ppn`` Eq. 3 picks per-node counts; the estimate assumes
    ``procs_per_node`` free processors on a node.
    """
    return tuple(
        Shape(n, ppn, copies(n), nodes)
        for n in ns
        for ppn in ppns
        if (nodes := math.ceil(n / (ppn or procs_per_node))) <= max_nodes
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper60-churn",
            why="The paper's 60-node cluster with its monitor advancing and "
            "varied job shapes: uncached Alg. 1/2 decisions, snapshot "
            "refreshes and head-of-line blocking dominate",
            kind="paper60",
            frozen=False,
            rate=16.0,
            shapes=_mix(
                (8, 16, 32, 64), (2, 4, None), procs_per_node=4, max_nodes=16,
                copies=lambda n: {8: 4, 16: 3, 32: 2, 64: 1}[n],
            ),
            alphas=ALPHAS,
            # a renew may run 2/3 of a TTL late before its lease expires:
            # well past the longest refresh stall of a 5 s segment, which
            # a busy host can stretch past 170 ms
            hold_s=0.3,
            ttl_s=0.4,
            renews_per_job=2.0,
            slo_ms=100.0,
            warmup_s=0.5,
            node_cap=30,
            replay_jobs=200,
            memo_hits=(0.0, 0.5),
        ),
        Workload(
            name="paper60-hot",
            why="Same cluster with a frozen snapshot and one job shape: "
            "decisions are memo hits, so protocol, server and lease "
            "bookkeeping dominate and allocator changes must not show",
            kind="paper60",
            frozen=True,
            rate=60.0,
            shapes=(Shape(32, 4, 1, 8),),
            alphas=(0.3,),
            hold_s=0.001,
            ttl_s=1.0,
            renews_per_job=0.0,
            slo_ms=10.0,
            warmup_s=1.5,
            node_cap=30,
            replay_jobs=100,
            # a stall that queues allocates behind unreleased leases
            # makes a few misses; a valid run stays near 1
            memo_hits=(0.8, 1.0),
        ),
        Workload(
            name="fleet1k-fed",
            why="1024-node drifting fleet behind a 4-shard federation, about "
            "10% of jobs bigger than a shard: router scoring, shard "
            "forwards, two-phase commits and slice catch-up",
            kind="fleet1k-fed",
            frozen=False,
            rate=15.0,
            # 4 small shapes of 9 copies each and a big one of 4: one job
            # in ten needs more processors than any shard has free.  Every
            # shape leaves its per-node counts to Eq. 3: a big job can
            # drain a shard, and an explicit ppn routed to the few nodes
            # left there is granted more than ppn per node
            shapes=_mix(
                (16, 32, 64, 128), (None,), procs_per_node=6,
                max_nodes=32, copies=lambda n: 9,
            )
            + (Shape(2048, None, 4, 342),),
            alphas=ALPHAS,
            hold_s=0.38,
            ttl_s=0.5,
            renews_per_job=2.0,
            slo_ms=150.0,
            warmup_s=0.5,
            node_cap=512,
            replay_jobs=60,
            cross_shard=True,
        ),
    )
}


def schedule(w: Workload, seed: int, phase: str, duration_s: float) -> tuple[Job, ...]:
    """The seeded lifecycles of one phase at the nominal rate.

    Arrivals are a Poisson process conditioned on its count: ``rate ×
    duration`` times drawn uniformly and sorted, so every seed offers the
    same load.  An arrival takes the first waiting shape that fits, else
    the next card; a card that does not fit waits, and the arrival is
    left out.
    """
    rng = np.random.default_rng(
        [seed, zlib.crc32(w.name.encode()), zlib.crc32(phase.encode())]
    )
    step = w.ttl_s / 3.0
    cards = w.deal(rng)
    jobs: list[Job] = []
    held: list[tuple[float, int]] = []  # (counted until, estimated nodes)
    waiting: list[Shape] = []
    arrivals = np.sort(rng.uniform(0.0, duration_s, size=round(w.rate * duration_s)))
    for t in arrivals.tolist():
        hold = float(np.clip(
            rng.lognormal(math.log(w.hold_s), HOLD_SIGMA),
            0.2 * w.hold_s, 5.0 * w.hold_s,
        ))
        alpha = float(rng.choice(w.alphas))
        held = [h for h in held if h[0] > t]
        free = w.node_cap - sum(nodes for _, nodes in held)
        shape = next((s for s in waiting if s.nodes <= free), None)
        if shape is not None:
            waiting.remove(shape)
        else:
            shape = next(cards)
            if shape.nodes > free:
                waiting.append(shape)
                continue
        held.append((t + hold + RELEASE_MARGIN_S, shape.nodes))
        renews = tuple(t + k * step for k in range(1, math.ceil(hold / step)))
        jobs.append(Job(
            len(jobs), t, shape.n, shape.ppn, alpha, w.ttl_s, renews, t + hold
        ))
    return tuple(jobs)


def digest(jobs: Sequence[Job]) -> str:
    """A short fingerprint of a schedule: equal schedules, equal digests."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(repr(dataclasses.astuple(job)).encode())
    return h.hexdigest()[:16]
