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
directly comparable.  The pass reads the raw inputs from the
snapshot's :class:`~repro.core.arrays.ArrayStore` — which
:func:`~repro.monitor.delta.apply_snapshot_delta` already patched in
O(changed) — and runs as a handful of numpy operations, so the router
pays no O(V) Python work per snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.arrays import ArrayStore, array_store
from repro.core.attributes import ATTRIBUTES, Criterion
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
        return {
            "shard": self.shard,
            "n_nodes": self.n_nodes,
            "usable_nodes": self.usable_nodes,
            "total_cores": self.total_cores,
            "free_procs": self.free_procs,
            "mean_cl": self.mean_cl,
            "mean_nl": self.mean_nl,
            "quarantined": self.quarantined,
        }


def _combine_cl(raw: np.ndarray, cols: np.ndarray, cw: ComputeWeights) -> np.ndarray:
    """Equation 1 over ``raw``'s ``cols`` — vectorized ``compute_loads``.

    Mirrors ``to_cost`` (mean-normalize, complement maximization
    attributes to the normalized maximum) and ``saw_scores`` (weight and
    sum); the means are NumPy's, the router's own scoring arithmetic.
    """
    v = len(cols)
    cl = np.zeros(v, dtype=np.float64)
    if v == 0:
        return cl
    for i, attr in enumerate(ATTRIBUTES):
        w = float(cw.weights.get(attr.name, 0.0))
        if w == 0.0:
            continue
        column = raw[i, cols]
        mean = float(column.mean())
        norm = column / mean if mean != 0.0 else np.zeros(v, dtype=np.float64)
        if attr.criterion is Criterion.MAXIMIZE:
            norm = norm.max() - norm
        cl += w * norm
    return cl


def _combine_nl(lat: np.ndarray, bwc: np.ndarray, nw: NetworkWeights) -> np.ndarray:
    """Equation 2 over pair vectors — vectorized ``combine_pair_costs``
    with mean normalization."""
    e = len(lat)
    if e == 0:
        return np.zeros(0, dtype=np.float64)
    lat_mean = float(lat.mean())
    bwc_mean = float(bwc.mean())
    lat_n = lat / lat_mean if lat_mean != 0.0 else np.zeros(e, dtype=np.float64)
    bwc_n = bwc / bwc_mean if bwc_mean != 0.0 else np.zeros(e, dtype=np.float64)
    return nw.w_lt * lat_n + nw.w_bw * bwc_n


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
        *,
        compute_weights: ComputeWeights | None = None,
        network_weights: NetworkWeights | None = None,
        ppn: int | None = None,
        load_key: str = "m1",
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
        self._cw = compute_weights or ComputeWeights()
        self._nw = network_weights or NetworkWeights()
        self._ppn = ppn
        self._load_key = load_key
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
            live = self._live()
            cols = np.fromiter(
                (store.index[n] for n in live), dtype=np.intp, count=len(live)
            )
            pos = np.full(len(store.nodes), -1, dtype=np.intp)
            pos[cols] = np.arange(len(cols))
            pairs = np.flatnonzero(
                (pos[store.pair_ii] >= 0) & (pos[store.pair_jj] >= 0)
            )
            if self._ppn is None:
                pc = store.proc_counts(self.snapshot, self._load_key)
            else:
                pc = np.full(len(store.nodes), self._ppn, dtype=np.int64)
            self._fleet = (
                store,
                pos,
                _combine_cl(store.raw, cols, self._cw),
                pairs,
                _combine_nl(store.lat[pairs], store.bwc[pairs], self._nw),
                pc,
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
