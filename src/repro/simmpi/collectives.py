"""Collective operation cost models (log-tree algorithms).

MPICH implements small-message allreduce as recursive doubling:
``ceil(log2 P)`` rounds, each costing one latency plus the message
transfer at the group's worst available bandwidth.  Broadcast uses a
binomial tree with the same round structure.  These latency-dominated
forms are what miniFE's dot-product allreduces exercise.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.net.model import NetworkModel
from repro.simmpi.placement import Placement


def _group_network_extremes(
    network: NetworkModel, nodes: Sequence[str]
) -> tuple[float, float]:
    """(worst latency µs, worst available bandwidth MB/s) within a group."""
    distinct = list(dict.fromkeys(nodes))
    if len(distinct) < 2:
        return 0.0, math.inf
    worst_lat = 0.0
    worst_bw = math.inf
    pairs = [
        (a, b) for i, a in enumerate(distinct) for b in distinct[i + 1 :]
    ]
    bw = network.bulk_available_bandwidth(pairs)
    lat = network.latencies_us(pairs).tolist()
    for (a, b), lat_ab in zip(pairs, lat):
        worst_lat = max(worst_lat, lat_ab)
        worst_bw = min(worst_bw, bw[(a, b)])
    return worst_lat, worst_bw


def allreduce_time_s(
    network: NetworkModel,
    placement: Placement,
    message_mb: float,
    *,
    software_overhead_us: float = 20.0,
) -> float:
    """Recursive-doubling allreduce across the placement's ranks."""
    p = placement.n_ranks
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    lat_us, bw = _group_network_extremes(network, placement.nodes)
    per_round = (lat_us + software_overhead_us) * 1e-6
    if message_mb > 0 and math.isfinite(bw) and bw > 0:
        per_round += message_mb / bw
    return rounds * per_round


def bcast_time_s(
    network: NetworkModel,
    placement: Placement,
    message_mb: float,
    *,
    software_overhead_us: float = 20.0,
) -> float:
    """Binomial-tree broadcast across the placement's ranks."""
    p = placement.n_ranks
    if p <= 1:
        return 0.0
    rounds = math.ceil(math.log2(p))
    lat_us, bw = _group_network_extremes(network, placement.nodes)
    per_round = (lat_us + software_overhead_us) * 1e-6
    if message_mb > 0 and math.isfinite(bw) and bw > 0:
        per_round += message_mb / bw
    return rounds * per_round


def alltoall_time_s(
    network: NetworkModel,
    placement: Placement,
    per_pair_mb: float,
    *,
    software_overhead_us: float = 20.0,
) -> float:
    """Pairwise-exchange alltoall: P−1 rounds, each a disjoint pairing.

    Every rank sends ``per_pair_mb`` to every other rank.  MPICH's
    long-message algorithm schedules P−1 rounds of disjoint pairs; each
    round costs one latency plus the transfer at the group's worst
    bandwidth, with colocated partners going through shared memory.  The
    group-extreme approximation keeps this O(nodes²) instead of pricing
    P² individual messages.
    """
    if per_pair_mb < 0:
        raise ValueError(f"per_pair_mb must be non-negative: {per_pair_mb}")
    p = placement.n_ranks
    if p <= 1:
        return 0.0
    lat_us, bw = _group_network_extremes(network, placement.nodes)
    rounds = p - 1
    per_round = (lat_us + software_overhead_us) * 1e-6
    if per_pair_mb > 0 and math.isfinite(bw) and bw > 0:
        # In each round, the ranks sharing a node funnel their transfers
        # through one NIC; scale by the max ranks per node.
        ppn = max(placement.procs_per_node().values())
        per_round += per_pair_mb * ppn / bw
    return rounds * per_round


def barrier_time_s(
    network: NetworkModel,
    placement: Placement,
    *,
    software_overhead_us: float = 20.0,
) -> float:
    """Dissemination barrier: ceil(log2 P) latency-only rounds."""
    return allreduce_time_s(
        network, placement, 0.0, software_overhead_us=software_overhead_us
    )
