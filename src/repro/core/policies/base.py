"""Allocation policy interface and common data types."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Collection, Mapping

import numpy as np

from repro.core.weights import ComputeWeights, NetworkWeights, TradeOff
from repro.monitor.snapshot import ClusterSnapshot


class AllocationError(RuntimeError):
    """Raised when a request cannot be satisfied (no nodes, bad data)."""


@dataclass(frozen=True)
class AllocationRequest:
    """What the user asks for (the paper's mpiexec-style request).

    ``n_processes`` is mandatory; ``ppn`` (processes per node) optionally
    pins how many ranks each node hosts — the paper's experiments use
    ``ppn = 4``.  The trade-off and weight profiles parameterize the
    network-and-load-aware policy; baselines ignore what they don't use.
    """

    n_processes: int
    ppn: int | None = None
    tradeoff: TradeOff = field(default_factory=lambda: TradeOff(0.3, 0.7))
    compute_weights: ComputeWeights = field(default_factory=ComputeWeights)
    network_weights: NetworkWeights = field(default_factory=NetworkWeights)

    def __post_init__(self) -> None:
        if self.n_processes <= 0:
            raise ValueError(
                f"n_processes must be positive, got {self.n_processes}"
            )
        if self.ppn is not None and self.ppn <= 0:
            raise ValueError(f"ppn must be positive, got {self.ppn}")

    @property
    def nodes_needed(self) -> int | None:
        """Exact node count when ``ppn`` is pinned, else ``None``."""
        if self.ppn is None:
            return None
        return math.ceil(self.n_processes / self.ppn)


@dataclass(frozen=True)
class Allocation:
    """A policy's answer: which nodes host how many processes."""

    policy: str
    nodes: tuple[str, ...]
    procs: Mapping[str, int]
    request: AllocationRequest
    snapshot_time: float
    metadata: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("allocation must contain at least one node")
        if set(self.procs) != set(self.nodes):
            raise ValueError("procs keys must exactly match nodes")
        if any(c <= 0 for c in self.procs.values()):
            raise ValueError("every allocated node must host >= 1 process")
        total = sum(self.procs.values())
        if total != self.request.n_processes:
            raise ValueError(
                f"allocation hosts {total} processes, "
                f"request wants {self.request.n_processes}"
            )

    def hostfile(self) -> str:
        """MPICH-style hostfile content (``host:count`` lines)."""
        return "\n".join(f"{n}:{self.procs[n]}" for n in self.nodes) + "\n"

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def distribute(
    nodes: list[str], n_processes: int, ppn: int | None
) -> dict[str, int]:
    """Spread ``n_processes`` over ``nodes``: ``ppn`` each, or balanced.

    With ``ppn`` set, nodes fill in order at ``ppn`` each (the last node
    takes the remainder).  Without it, processes are dealt round-robin so
    counts differ by at most one.
    """
    if not nodes:
        raise AllocationError("no nodes to distribute processes over")
    procs: dict[str, int] = {}
    if ppn is not None:
        remaining = n_processes
        for n in nodes:
            take = min(ppn, remaining)
            if take > 0:
                procs[n] = take
                remaining -= take
        if remaining > 0:
            # Oversubscribe round-robin like Algorithm 1 lines 12-13.
            i = 0
            while remaining > 0:
                n = nodes[i % len(nodes)]
                procs[n] = procs.get(n, 0) + 1
                remaining -= 1
                i += 1
    else:
        base, extra = divmod(n_processes, len(nodes))
        for i, n in enumerate(nodes):
            count = base + (1 if i < extra else 0)
            if count > 0:
                procs[n] = count
    return {n: c for n, c in procs.items() if c > 0}


class AllocationPolicy(ABC):
    """Strategy interface: snapshot + request → allocation."""

    #: short identifier used in result tables
    name: str = "abstract"

    @abstractmethod
    def allocate(
        self,
        snapshot: ClusterSnapshot,
        request: AllocationRequest,
        *,
        rng: np.random.Generator | None = None,
        exclude: Collection[str] | None = None,
    ) -> Allocation:
        """Choose nodes for the request. Stochastic policies need ``rng``.

        ``exclude`` masks nodes out of consideration (e.g. nodes busy
        with exclusively scheduled jobs) without the caller having to
        rebuild a filtered snapshot — the policy normalizes loads over
        exactly the remaining node set, as if the snapshot only
        contained those nodes.
        """

    def _usable_nodes(
        self,
        snapshot: ClusterSnapshot,
        exclude: Collection[str] | None = None,
    ) -> list[str]:
        """Nodes that are live, monitored, and not masked out."""
        live = set(snapshot.livehosts)
        if exclude:
            live.difference_update(exclude)
        usable = [n for n in snapshot.nodes if n in live]
        if not usable:
            raise AllocationError("no live nodes with monitoring data")
        return usable
