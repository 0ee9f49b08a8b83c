"""Switch topologies: the paper's tree, plus general switch graphs.

The paper's cluster "has a tree-like hierarchical topology with 4 switches.
Each switch connects 10-15 nodes using Gigabit Ethernet."  We model an
arbitrary tree of switches; compute nodes attach to leaf switches.  Hop
count between two nodes is the number of network links on the unique tree
path (2 for same-switch pairs, 4 via a common parent, ...), matching the
paper's "1 - 4 hops" proximity numbering.

Beyond the paper: ``extra_switch_links`` turns the switch *tree* into a
general connected switch *graph* (fat-trees with redundant cores, full
meshes, N+1-redundant standby switches — the scenario-zoo shapes).
Routing then uses deterministic BFS shortest paths (neighbors explored
in sorted order, so the same topology always routes the same way); the
tree's LCA fast path is kept bit-identical when no extra links exist.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import networkx as nx

from repro.cluster.node import NodeSpec
from repro.util.units import GIGABIT_PER_S_IN_MB_S


class SwitchTopology:
    """A tree of switches with compute nodes on the leaves.

    Parameters
    ----------
    switch_parents:
        Mapping switch -> parent switch; the root maps to ``None``.
    node_switch:
        Mapping node name -> leaf switch it attaches to.
    uplink_capacity_mbs / edge_capacity_mbs:
        Capacities of switch-switch and node-switch links (MB/s).
    extra_switch_links:
        Optional switch-switch links beyond the parent tree — either
        ``(a, b)`` pairs (at ``uplink_capacity_mbs``) or
        ``(a, b, capacity_mbs)`` triples.  Any extra link switches
        routing from the tree's LCA walk to deterministic BFS shortest
        paths over the whole switch graph.
    """

    def __init__(
        self,
        switch_parents: Mapping[str, str | None],
        node_switch: Mapping[str, str],
        *,
        uplink_capacity_mbs: float = GIGABIT_PER_S_IN_MB_S,
        edge_capacity_mbs: float = GIGABIT_PER_S_IN_MB_S,
        extra_switch_links: Sequence[tuple] | None = None,
    ) -> None:
        roots = [s for s, p in switch_parents.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"topology must have exactly one root switch, got {roots}")
        for s, p in switch_parents.items():
            if p is not None and p not in switch_parents:
                raise ValueError(f"switch {s} has unknown parent {p}")
        for node, sw in node_switch.items():
            if sw not in switch_parents:
                raise ValueError(f"node {node} attaches to unknown switch {sw}")
        self._root = roots[0]
        self._parents = dict(switch_parents)
        self._node_switch = dict(node_switch)
        self._uplink_capacity = float(uplink_capacity_mbs)
        self._edge_capacity = float(edge_capacity_mbs)

        self._graph = nx.Graph()
        for s in switch_parents:
            self._graph.add_node(s, kind="switch")
        tree_edges = []
        for s, p in switch_parents.items():
            if p is not None:
                self._graph.add_edge(s, p, capacity=uplink_capacity_mbs)
                tree_edges.append((s, p))
        self._extra_links: list[tuple[str, str]] = []
        for link in extra_switch_links or ():
            if len(link) == 2:
                a, b = link
                cap = uplink_capacity_mbs
            elif len(link) == 3:
                a, b, cap = link
            else:
                raise ValueError(
                    f"extra link must be (a, b) or (a, b, capacity): {link!r}"
                )
            for sw in (a, b):
                if sw not in switch_parents:
                    raise ValueError(f"extra link endpoint {sw!r} is not a switch")
            if a == b:
                raise ValueError(f"extra link {link!r} is a self-loop")
            if self._graph.has_edge(a, b):
                continue  # parent link (or duplicate) already carries traffic
            self._graph.add_edge(a, b, capacity=float(cap))
            self._extra_links.append((a, b) if a <= b else (b, a))
        for node, sw in node_switch.items():
            self._graph.add_node(node, kind="node")
            self._graph.add_edge(node, sw, capacity=edge_capacity_mbs)
        # The parent mapping must always form a spanning tree of the
        # switches (guarantees connectivity and a well-defined root);
        # extra links may only add redundancy on top of it.
        tree = nx.Graph()
        tree.add_nodes_from(switch_parents)
        tree.add_edges_from(tree_edges)
        if not nx.is_tree(tree):
            raise ValueError("switch parent graph must be a tree")
        # Depth of each switch for LCA computation.
        self._depth: dict[str, int] = {}
        for s in switch_parents:
            d, cur = 0, s
            while self._parents[cur] is not None:
                cur = self._parents[cur]  # type: ignore[assignment]
                d += 1
            self._depth[s] = d
        # Sorted adjacency over the switch graph: BFS explores neighbors
        # in this order, so shortest-path ties always break identically.
        self._switch_adj: dict[str, tuple[str, ...]] = {
            s: tuple(
                sorted(
                    n
                    for n in self._graph.neighbors(s)
                    if n in self._parents
                )
            )
            for s in switch_parents
        }
        self._path_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        self._switch_path_cache: dict[tuple[str, str], tuple[str, ...]] = {}
        self._links_cache: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}

    # ------------------------------------------------------------------
    @property
    def root(self) -> str:
        """Name of the root switch."""
        return self._root

    @property
    def switches(self) -> list[str]:
        """All switch names (stable order)."""
        return list(self._parents)

    @property
    def nodes(self) -> list[str]:
        """All node names (stable order)."""
        return list(self._node_switch)

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (switches + nodes)."""
        return self._graph

    def switch_of(self, node: str) -> str:
        """Leaf switch a node attaches to."""
        try:
            return self._node_switch[node]
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def nodes_on_switch(self, switch: str) -> list[str]:
        """Nodes attached to ``switch`` (stable order)."""
        if switch not in self._parents:
            raise KeyError(f"unknown switch {switch!r}")
        return [n for n, s in self._node_switch.items() if s == switch]

    # ------------------------------------------------------------------
    @property
    def extra_switch_links(self) -> tuple[tuple[str, str], ...]:
        """Canonically-ordered redundant switch links (empty for trees)."""
        return tuple(self._extra_links)

    def switch_path(self, sa: str, sb: str) -> tuple[str, ...]:
        """Sequence of switches on the routed path from ``sa`` to ``sb``.

        Pure trees use the LCA walk; once ``extra_switch_links`` exist,
        paths come from BFS over the switch graph with sorted neighbor
        order, so shortest-path ties break deterministically.
        """
        if sa == sb:
            return (sa,)
        if self._extra_links:
            return self._bfs_switch_path(sa, sb)
        up_a, up_b = [sa], [sb]
        a, b = sa, sb
        while self._depth[a] > self._depth[b]:
            a = self._parents[a]  # type: ignore[assignment]
            up_a.append(a)
        while self._depth[b] > self._depth[a]:
            b = self._parents[b]  # type: ignore[assignment]
            up_b.append(b)
        while a != b:
            a = self._parents[a]  # type: ignore[assignment]
            b = self._parents[b]  # type: ignore[assignment]
            up_a.append(a)
            up_b.append(b)
        # up_a ends at LCA; up_b also ends at LCA — drop the duplicate.
        return tuple(up_a + up_b[-2::-1])

    def _bfs_switch_path(self, sa: str, sb: str) -> tuple[str, ...]:
        """Deterministic BFS shortest switch path (cached per pair)."""
        key = (sa, sb) if sa <= sb else (sb, sa)
        cached = self._switch_path_cache.get(key)
        if cached is None:
            src, dst = key
            prev: dict[str, str] = {src: src}
            frontier = [src]
            while frontier and dst not in prev:
                nxt: list[str] = []
                for s in frontier:
                    for n in self._switch_adj[s]:
                        if n not in prev:
                            prev[n] = s
                            nxt.append(n)
                frontier = nxt
            if dst not in prev:  # unreachable: parent tree spans all switches
                raise KeyError(f"no switch path {sa!r} -> {sb!r}")
            rev = [dst]
            while rev[-1] != src:
                rev.append(prev[rev[-1]])
            cached = tuple(reversed(rev))
            self._switch_path_cache[key] = cached
        if (sa, sb) == key:
            return cached
        return cached[::-1]

    def path(self, u: str, v: str) -> tuple[str, ...]:
        """Full node-to-node path: [u, switches..., v]. Cached."""
        key = (u, v) if u <= v else (v, u)
        cached = self._path_cache.get(key)
        if cached is None:
            su, sv = self.switch_of(key[0]), self.switch_of(key[1])
            cached = (key[0],) + self.switch_path(su, sv) + (key[1],)
            self._path_cache[key] = cached
        if (u, v) == key:
            return cached
        return cached[::-1]

    def links_on_path(self, u: str, v: str) -> tuple[tuple[str, str], ...]:
        """Canonically-ordered link endpoints along the u-v path.

        Cached like :meth:`path`: a topology gains no link after
        ``__init__``, so a route never changes.
        """
        key = (u, v) if u <= v else (v, u)
        cached = self._links_cache.get(key)
        if cached is None:
            p = self.path(*key)
            cached = tuple(
                (a, b) if a <= b else (b, a) for a, b in zip(p[:-1], p[1:])
            )
            self._links_cache[key] = cached
        if (u, v) == key:
            return cached
        return cached[::-1]

    def hops(self, u: str, v: str) -> int:
        """Number of network links between two nodes (0 if ``u == v``)."""
        if u == v:
            return 0
        return len(self.path(u, v)) - 1

    def link_capacity(self, a: str, b: str) -> float:
        """Capacity (MB/s) of the link between adjacent elements a, b."""
        data = self._graph.get_edge_data(a, b)
        if data is None:
            raise KeyError(f"no link between {a!r} and {b!r}")
        return float(data["capacity"])


# ----------------------------------------------------------------------
def _star_switches(n_leaf: int) -> dict[str, str | None]:
    parents: dict[str, str | None] = {"root": None}
    for i in range(1, n_leaf + 1):
        parents[f"switch{i}"] = "root"
    return parents


def paper_cluster() -> tuple[list[NodeSpec], SwitchTopology]:
    """The evaluation cluster from §5 of the paper.

    60 nodes named ``csews1..csews60``: 40 × 12-core Intel @ 4.6 GHz and
    20 × 8-core Intel @ 2.8 GHz, 16 GB RAM each, spread over 4 leaf
    switches (15 nodes per switch) behind one root.  Node links are
    Gigabit Ethernet; switch uplinks are modelled as 1.5 Gbit/s trunks
    (typical LAG/stacking for that class of switch), so crossing switches
    costs hops and shared congestion rather than an artificial 1 Gbit/s
    cliff.  Nodes are numbered by physical proximity, so consecutive
    names share a switch — this is what makes the *sequential* baseline
    topology-friendly.
    """
    parents = _star_switches(4)
    node_switch: dict[str, str] = {}
    specs: list[NodeSpec] = []
    for i in range(60):
        name = f"csews{i + 1}"
        switch = f"switch{i // 15 + 1}"
        node_switch[name] = switch
        # Interleave so every switch has a mix of 12- and 8-core machines:
        # the first 10 of each 15-node group are 12-core, the rest 8-core.
        if i % 15 < 10:
            cores, freq = 12, 4.6
        else:
            cores, freq = 8, 2.8
        specs.append(
            NodeSpec(
                name=name, cores=cores, frequency_ghz=freq,
                memory_gb=16.0, switch=switch,
            )
        )
    topo = SwitchTopology(
        parents, node_switch, uplink_capacity_mbs=1.5 * GIGABIT_PER_S_IN_MB_S
    )
    return specs, topo


def uniform_cluster(
    n_nodes: int,
    *,
    nodes_per_switch: int = 15,
    cores: int = 12,
    frequency_ghz: float = 4.6,
    memory_gb: float = 16.0,
    name_prefix: str = "node",
    uplink_capacity_mbs: float = GIGABIT_PER_S_IN_MB_S,
    edge_capacity_mbs: float = GIGABIT_PER_S_IN_MB_S,
) -> tuple[list[NodeSpec], SwitchTopology]:
    """A homogeneous cluster for tests and synthetic experiments."""
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    if nodes_per_switch <= 0:
        raise ValueError(f"nodes_per_switch must be positive, got {nodes_per_switch}")
    n_switches = (n_nodes + nodes_per_switch - 1) // nodes_per_switch
    parents = _star_switches(n_switches)
    node_switch: dict[str, str] = {}
    specs: list[NodeSpec] = []
    for i in range(n_nodes):
        name = f"{name_prefix}{i + 1}"
        switch = f"switch{i // nodes_per_switch + 1}"
        node_switch[name] = switch
        specs.append(
            NodeSpec(
                name=name, cores=cores, frequency_ghz=frequency_ghz,
                memory_gb=memory_gb, switch=switch,
            )
        )
    topo = SwitchTopology(
        parents,
        node_switch,
        uplink_capacity_mbs=uplink_capacity_mbs,
        edge_capacity_mbs=edge_capacity_mbs,
    )
    return specs, topo
