"""Per-shard scoring aggregates over one snapshot.

The federation router never runs Algorithms 1–2 over the whole fleet;
that is exactly the per-decision ceiling sharding removes.  Each shard's
:class:`~repro.broker.service.BrokerService` decides placements on its
own sliced snapshot.  The router only needs
:meth:`PartitionedLoadState.aggregates`: per shard, total/free cores,
mean Equation-1 CL and mean Equation-2 NL per subtree, and quarantine
counts.

The CL/NL means come from one **fleet-wide** Equation-1/2 pass rather
than from per-shard states: Equation 1/2 normalize *within* the ranked
set, so per-shard means would hover around 1.0 for every shard and
carry no cross-shard signal — the global pass makes subtree means
directly comparable.  The pass is the allocator's own,
:func:`~repro.core.arrays.slice_loads` over the live nodes, so the
router ranks shards on exactly the CL and NL values the allocator
normalizes, bit for bit the dict reference.  It reads the snapshot's
:class:`~repro.core.arrays.ArrayStore`, which
:func:`~repro.monitor.delta.apply_snapshot_delta` already patched in
O(changed), so the router never re-reads a node record or pair value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.arrays import ArrayStore, array_store, slice_loads
from repro.core.weights import ComputeWeights, NetworkWeights
from repro.monitor.snapshot import ClusterSnapshot

#: (store, store column → live position or -1, CL over the live nodes,
#: store positions of the live pairs, NL over them, PC per store column)
_FleetPass = tuple[
    ArrayStore, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
]


@dataclass(frozen=True)
class ShardAggregate:
    """One shard's scoring inputs, derived from the fleet-wide pass."""

    shard: str
    #: nodes of the shard present in the snapshot
    n_nodes: int
    #: nodes currently usable (live, not held, not quarantined)
    usable_nodes: int
    #: raw core count over present nodes (static capacity)
    total_cores: int
    #: summed Equation-3 effective processors over usable nodes
    free_procs: int
    #: mean fleet-normalized Equation-1 compute load over live nodes
    mean_cl: float
    #: mean fleet-normalized Equation-2 load over measured intra-shard
    #: pairs (falls back to the fleet mean when no link is measured, so
    #: an unmeasured subtree looks average rather than free)
    mean_nl: float
    #: shard nodes currently quarantined
    quarantined: int

    def as_dict(self) -> dict[str, float | int | str]:
        """JSON-ready form for the ``shards`` router verb."""
        return dataclasses.asdict(self)


class PartitionedLoadState:
    """Per-shard aggregates over one snapshot's store.

    ``partition`` maps shard name → node names; nodes the snapshot does
    not know (or that are not live) simply drop out of that shard's
    view.  Everything derived is memoized on the instance (one instance
    per snapshot), so a router consulting aggregates many times per
    snapshot pays each pass exactly once.
    """

    def __init__(
        self,
        snapshot: ClusterSnapshot,
        partition: Mapping[str, Iterable[str]],
    ) -> None:
        if not partition:
            raise ValueError("partition must name at least one shard")
        self.snapshot = snapshot
        self.partition = {
            shard: tuple(nodes) for shard, nodes in partition.items()
        }
        for shard, nodes in self.partition.items():
            if not nodes:
                raise ValueError(f"shard {shard!r} has no nodes")
        self._live_list: list[str] | None = None
        self._live_set: frozenset[str] = frozenset()
        self._fleet: _FleetPass | None = None
        # shard → (present, total cores, live members, mean CL, mean NL)
        self._shard_facts: dict[
            str, tuple[int, int, tuple[str, ...], float, float]
        ] = {}

    def _live(self) -> list[str]:
        if self._live_list is None:
            members = frozenset(self.snapshot.livehosts)
            self._live_list = [
                n
                for n in self.snapshot.nodes
                if not members or n in members
            ]
            self._live_set = frozenset(self._live_list)
        return self._live_list

    @property
    def shards(self) -> tuple[str, ...]:
        return tuple(self.partition)

    def live_nodes(self, shard: str) -> tuple[str, ...]:
        """The shard's nodes that are present and live in the snapshot."""
        self._live()
        return tuple(
            n for n in self.partition[shard] if n in self._live_set
        )

    # -- fleet-wide scoring pass ----------------------------------------
    def _fleet_pass(self) -> _FleetPass:
        """The fleet CL/NL/PC vectors over the live nodes, once per instance."""
        if self._fleet is None:
            store = array_store(self.snapshot)
            loads = slice_loads(
                store, self._live(), ComputeWeights(), NetworkWeights()
            )
            self._fleet = (
                store,
                loads.pos,
                loads.cl,
                loads.pairs,
                loads.nl,
                store.proc_counts(self.snapshot, "m1"),
            )
        return self._fleet

    def _shard(
        self, shard: str
    ) -> tuple[int, int, tuple[str, ...], float, float]:
        """(present, total cores, live members, mean CL, mean NL)."""
        facts = self._shard_facts.get(shard)
        if facts is None:
            store, pos, cl, pairs, nl, _ = self._fleet_pass()
            present = [
                n for n in self.partition[shard] if n in self.snapshot.nodes
            ]
            live = self.live_nodes(shard)
            cols = [store.index[n] for n in live]
            member = np.zeros(len(store.nodes), dtype=bool)
            member[cols] = True
            intra = np.flatnonzero(
                member[store.pair_ii[pairs]] & member[store.pair_jj[pairs]]
            )
            if len(intra):
                mean_nl = float(nl[intra].mean())
            elif len(nl):
                mean_nl = float(nl.mean())
            else:
                mean_nl = 0.0
            facts = (
                len(present),
                sum(self.snapshot.nodes[n].cores for n in present),
                live,
                float(cl[pos[cols]].mean()) if cols else 0.0,
                mean_nl,
            )
            self._shard_facts[shard] = facts
        return facts

    def aggregate(
        self,
        shard: str,
        *,
        held: frozenset[str] = frozenset(),
        quarantined: frozenset[str] = frozenset(),
    ) -> ShardAggregate:
        """The shard's scoring aggregates under the given exclusions."""
        store, *_, pc = self._fleet_pass()
        n_present, total_cores, live, mean_cl, mean_nl = self._shard(shard)
        blocked = held | quarantined
        usable = [store.index[n] for n in live if n not in blocked]
        return ShardAggregate(
            shard=shard,
            n_nodes=n_present,
            usable_nodes=len(usable),
            total_cores=total_cores,
            free_procs=int(sum(pc[usable].tolist())),
            mean_cl=mean_cl,
            mean_nl=mean_nl,
            quarantined=sum(
                1
                for n in self.partition[shard]
                if n in quarantined and n in self.snapshot.nodes
            ),
        )

    def aggregates(
        self,
        *,
        held: frozenset[str] = frozenset(),
        quarantined: frozenset[str] = frozenset(),
    ) -> dict[str, ShardAggregate]:
        """Aggregates for every shard, in partition order."""
        return {
            shard: self.aggregate(shard, held=held, quarantined=quarantined)
            for shard in self.partition
        }
