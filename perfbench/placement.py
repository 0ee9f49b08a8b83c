"""Placement quality: granted placements against the sequential baseline.

A fixed seeded stream of allocates goes through the same service the
daemon runs, over a frozen snapshot, holding a sliding window of leases
so the exclusion sets vary.  Each grant, and the ``sequential`` policy's
pick for the same request and exclusions, is scored with the raw Eq-4
cost ``α·ΣCL + (1−α)·ΣNL`` over the fleet-wide Eq-1/Eq-2 loads.  The
metric is the ratio of the two mean costs, higher when speed was bought
with worse placements.  The stream comes from one fixed seed, not the
run's, on the cluster every run serves: a mean over a few hundred grants
still moves ~20% from seed to seed, and the score is meant to move only
with the code.
"""

from __future__ import annotations

from statistics import fmean
from typing import Sequence

import numpy as np

from repro.broker.protocol import AllocateParams, ProtocolError, ReleaseParams
from repro.core.compute_load import compute_loads
from repro.core.network_load import network_loads, total_group_network_load
from repro.core.policies import AllocationRequest
from repro.core.policies.sequential import SequentialPolicy
from repro.core.weights import TradeOff
from system import build_system
from workloads import Workload

#: replay leases never expire mid-replay
REPLAY_TTL_S = 3600.0
#: the seed of the replayed request stream
REPLAY_SEED = 0


def placement_vs_seq(w: Workload) -> tuple[float, int]:
    """``(mean granted cost / mean sequential cost, grants scored)``."""
    seed = REPLAY_SEED
    system = build_system(w.kind, frozen=True)
    service = system.service
    snapshot = system.source()
    cl = compute_loads(snapshot)
    nl = network_loads(snapshot)
    penalty = max(nl.values())

    def cost(nodes: Sequence[str], alpha: float) -> float:
        return alpha * sum(cl[v] for v in nodes) + (1.0 - alpha) * (
            total_group_network_load(nl, list(nodes), missing_penalty=penalty)
        )

    rng = np.random.default_rng([seed, 0x9E])
    cards = w.deal(rng)
    baseline, baseline_rng = SequentialPolicy(), np.random.default_rng([seed, 0x5E])
    held: list[tuple[str, list[str], int]] = []  # (lease id, nodes, estimate)
    granted: list[float] = []
    sequential: list[float] = []
    for _ in range(w.replay_jobs):
        shape, alpha = next(cards), float(rng.choice(w.alphas))
        while held and sum(k for *_, k in held) + shape.nodes > w.node_cap:
            service.release(ReleaseParams(lease_id=held.pop(0)[0]))
        exclude = frozenset(v for _, nodes, _ in held for v in nodes)
        out = service.allocate_batch([AllocateParams(
            n_processes=shape.n, ppn=shape.ppn, alpha=alpha,
            ttl_s=REPLAY_TTL_S,
        )])[0]
        if isinstance(out, ProtocolError):
            raise RuntimeError(
                f"replay allocate of {shape.n} processes denied: "
                f"{out.code.value} {out.message}"
            )
        pick = baseline.allocate(
            snapshot,
            AllocationRequest(
                n_processes=shape.n, ppn=shape.ppn,
                tradeoff=TradeOff.from_alpha(alpha),
            ),
            rng=baseline_rng,
            exclude=exclude,
        )
        granted.append(cost(out["nodes"], alpha))
        sequential.append(cost(pick.nodes, alpha))
        held.append((out["lease_id"], list(out["nodes"]), shape.nodes))
    return fmean(granted) / fmean(sequential), len(granted)
