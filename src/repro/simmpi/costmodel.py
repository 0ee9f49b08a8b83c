"""Point-to-point message cost under network contention.

A BSP communication phase is a set of concurrent messages.  Inter-node
messages become greedy flows competing (max–min fairly) with background
traffic and with each other; each message finishes after

    latency + volume / achieved_rate

and the phase lasts until its slowest message finishes.  Holding every
flow active for the whole phase slightly underestimates rates for short
messages (finished transfers would free capacity), making the model mildly
conservative — the same direction real synchronous halo exchanges err.

Intra-node messages go through shared memory: fixed high bandwidth and
negligible latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.net.flows import Flow
from repro.net.model import NetworkModel
from repro.simmpi.placement import Placement
from repro.util.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class Message:
    """One point-to-point transfer in a communication phase."""

    src_rank: int
    dst_rank: int
    volume_mb: float

    def __post_init__(self) -> None:
        if self.src_rank == self.dst_rank:
            raise ValueError(f"message to self: rank {self.src_rank}")
        require_non_negative(self.volume_mb, "volume_mb")


@dataclass(frozen=True)
class CommPhase:
    """A synchronized set of concurrent messages (one BSP superstep)."""

    messages: tuple[Message, ...]

    @classmethod
    def of(cls, messages: Sequence[Message]) -> "CommPhase":
        return cls(messages=tuple(messages))


@dataclass(frozen=True)
class CommCostConfig:
    """Tunables of the message cost model."""

    #: shared-memory transfer rate between colocated ranks, MB/s
    intranode_bandwidth_mbs: float = 5000.0
    #: shared-memory latency, microseconds
    intranode_latency_us: float = 1.0
    #: per-message software overhead added to every transfer, microseconds
    software_overhead_us: float = 20.0

    def __post_init__(self) -> None:
        require_positive(self.intranode_bandwidth_mbs, "intranode_bandwidth_mbs")
        require_non_negative(self.intranode_latency_us, "intranode_latency_us")
        require_non_negative(self.software_overhead_us, "software_overhead_us")


class MessageCostModel:
    """Times communication phases against the live network model."""

    def __init__(
        self, network: NetworkModel, config: CommCostConfig | None = None
    ) -> None:
        self._network = network
        self.config = config or CommCostConfig()

    def phase_time_s(self, phase: CommPhase, placement: Placement) -> float:
        """Wall time of one phase (seconds): slowest message finishes last."""
        cfg = self.config
        if not phase.messages:
            return 0.0
        inter: list[tuple[Message, Flow]] = []
        slowest = 0.0
        for msg in phase.messages:
            if placement.colocated(msg.src_rank, msg.dst_rank):
                t = (
                    (cfg.intranode_latency_us + cfg.software_overhead_us) * 1e-6
                    + msg.volume_mb / cfg.intranode_bandwidth_mbs
                )
                slowest = max(slowest, t)
            else:
                flow = Flow(
                    src=placement.node(msg.src_rank),
                    dst=placement.node(msg.dst_rank),
                    demand_mbs=math.inf,
                    tag="_job_phase",
                )
                inter.append((msg, flow))
        if inter:
            net = self._network
            # Latency is priced against *background* congestion: the
            # phase's own short synchronized messages don't build the
            # standing queues the M/M/1 term models (pricing them as
            # saturating flows would send every phase to the rho->1
            # asymptote regardless of placement).
            pairs = list(
                dict.fromkeys(
                    (placement.node(msg.src_rank), placement.node(msg.dst_rank))
                    for msg, _flow in inter
                )
            )
            pair_lat = dict(zip(pairs, net.latencies_us(pairs).tolist()))
            # Bandwidth shares do include all concurrent phase messages:
            # simultaneous halo transfers compete on shared links.
            added = net.add_flows([f for _, f in inter])
            try:
                rates = net.rates()
                for msg, flow in inter:
                    pair = (
                        placement.node(msg.src_rank),
                        placement.node(msg.dst_rank),
                    )
                    rate = max(
                        rates.get(flow.flow_id, 0.0) * net._bw_factor(*pair),
                        1e-6,
                    )
                    lat_us = pair_lat[pair] + cfg.software_overhead_us
                    t = lat_us * 1e-6 + msg.volume_mb / rate
                    slowest = max(slowest, t)
            finally:
                for f in added:
                    net.remove_flow(f)
        return slowest

    def point_to_point_time_s(
        self, src_node: str, dst_node: str, volume_mb: float
    ) -> float:
        """Time for a single isolated message between two nodes."""
        cfg = self.config
        if src_node == dst_node:
            return (
                (cfg.intranode_latency_us + cfg.software_overhead_us) * 1e-6
                + volume_mb / cfg.intranode_bandwidth_mbs
            )
        bw = max(self._network.available_bandwidth(src_node, dst_node), 1e-6)
        lat_us = self._network.latency_us(src_node, dst_node) + cfg.software_overhead_us
        return lat_us * 1e-6 + volume_mb / bw
