"""Equation 4 on arrays: the reference's numbers, bit for bit.

One kernel scores every array candidate: compute costs are builtin
``sum`` in visit order, and network costs fold each group's pairs in
``itertools.combinations`` order, pairs-major: blocks of (pairs,
groups) values reduced across rows, which NumPy adds one row at a
time.  These tests pin the places where a plausible vectorization
would drift from the reference — summation order over values of mixed
magnitude, a one-group block that NumPy would sum pairwise, running
totals across block boundaries, and pairs past a short group's count —
and each caller of the kernel against the reference: the exact path,
``score_candidates_fast`` over arbitrary groups, and the seed-pruned
path over the seeds it keeps, including the all-free-processors slice
a cross-shard grant asks of a shard and a tie at the seed cut.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import arrays
from repro.core.arrays import (
    best_candidate_fast,
    generate_all_candidates_fast,
    load_state,
    score_candidates_fast,
)
from repro.core.candidate import CandidateSubgraph, generate_candidate
from repro.core.network_load import total_group_network_load
from repro.core.policies import AllocationRequest, NetworkLoadAwarePolicy
from repro.core.selection import score_candidates, select_best
from repro.core.weights import NetworkWeights, TradeOff
from repro.monitor.snapshot import ClusterSnapshot, NodeView
from tests.core.test_array_equivalence import (
    SWEEP_CONFIGS,
    assert_allocations_equal,
    random_snapshot,
)


def _flat(v: float) -> dict[str, float]:
    return {"now": v, "m1": v, "m5": v, "m15": v}


def _wide_latency_snapshot(rng: np.random.Generator, v: int) -> ClusterSnapshot:
    """Latencies log-uniform over 1e-3…1e6 µs: NL spans nine decades."""
    names = [f"w{i:02d}" for i in range(v)]
    views = {
        n: NodeView(
            name=n,
            cores=4,
            frequency_ghz=3.0,
            memory_gb=32.0,
            users=0,
            cpu_load=_flat(float(rng.uniform(0.0, 3.0))),
            cpu_util=_flat(float(rng.uniform(0.0, 100.0))),
            flow_rate_mbs=_flat(float(rng.uniform(0.0, 50.0))),
            available_memory_gb=_flat(float(rng.uniform(1.0, 16.0))),
        )
        for n in names
    }
    pairs = list(itertools.combinations(names, 2))
    return ClusterSnapshot(
        time=0.0,
        nodes=views,
        bandwidth_mbs={k: 100.0 for k in pairs},
        latency_us={k: float(10.0 ** rng.uniform(-3.0, 6.0)) for k in pairs},
        peak_bandwidth_mbs={k: 125.0 for k in pairs},
        livehosts=tuple(names),
    )


class TestFoldOrder:
    # On these seeds a NumPy pairwise or BLAS sum misses both reference
    # sums in the last bits, with no near-tie between the top candidates.
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_costs_are_the_reference_sums(self, seed):
        """A 10-node grant whose pair loads mix nine decades: the
        network cost is the reference's left-to-right fold and the
        compute cost its builtin ``sum`` — equal, not merely close."""
        snap = _wide_latency_snapshot(np.random.default_rng(seed), 20)
        request = AllocationRequest(
            n_processes=10,
            ppn=1,
            tradeoff=TradeOff.from_alpha(0.3),
            network_weights=NetworkWeights(w_lt=1.0, w_bw=0.0),
        )
        grant = NetworkLoadAwarePolicy().allocate(snap, request)
        state = load_state(
            snap, nodes=list(snap.nodes), ppn=1,
            network_weights=request.network_weights,
        )
        loads = list(state.nl.values())
        assert min(loads) < 1e-6 * max(loads)
        assert len(grant.nodes) == 10
        assert grant.metadata["network_cost"] == total_group_network_load(
            state.nl, grant.nodes, missing_penalty=state.missing_penalty
        )
        assert grant.metadata["compute_cost"] == sum(
            state.cl[u] for u in grant.nodes
        )
        reference = NetworkLoadAwarePolicy(use_arrays=False).allocate(
            snap, request
        )
        assert_allocations_equal(grant, reference)


def _nine_decade_loads(rng: np.random.Generator, v: int) -> np.ndarray:
    """A symmetric (v, v) ``NL`` matrix with a zero diagonal whose pair
    loads are log-uniform over nine decades."""
    upper = np.triu(10.0 ** rng.uniform(-3.0, 6.0, size=(v, v)), 1)
    return upper + upper.T


def _python_fold(nl_mat: np.ndarray, group) -> float:
    """The reference's walk: ``total += NL`` over the group's pairs in
    ``itertools.combinations`` order."""
    total = 0.0
    for a, b in itertools.combinations(group, 2):
        total += float(nl_mat[a, b])
    return total


def _left_aligned(groups) -> tuple[np.ndarray, np.ndarray]:
    """Groups as ``_eq4`` hands them over: members left-aligned in a
    (groups, widest) matrix, zero-padded, plus each group's count."""
    counts = np.array([len(g) for g in groups], dtype=np.intp)
    members = np.zeros((len(groups), int(counts.max())), dtype=np.intp)
    for row, group in zip(members, groups):
        row[: len(group)] = group
    return members, counts


class TestPairFolds:
    """``_pair_folds`` equals a plain ``total += v`` walk where a
    pairs-major reduce could go wrong: a group whose block NumPy would
    reduce pairwise, running totals carried across block boundaries, and
    pairs past a short group's count."""

    @pytest.mark.parametrize("n_groups", [1, 2, 3])
    def test_groups_past_the_pairwise_block(self, n_groups):
        """30-node groups: 435 pairs each, past NumPy's 128-value
        pairwise block, with loads spanning nine decades."""
        rng = np.random.default_rng(40 + n_groups)
        nl_mat = _nine_decade_loads(rng, 64)
        groups = [rng.choice(64, size=30, replace=False) for _ in range(n_groups)]
        folds = [_python_fold(nl_mat, g) for g in groups]
        # the data tell a pairwise sum from the sequential fold
        pairwise = [
            float(np.sum([nl_mat[a, b] for a, b in itertools.combinations(g, 2)]))
            for g in groups
        ]
        assert pairwise != folds
        assert arrays._pair_folds(nl_mat, *_left_aligned(groups)).tolist() == folds

    def test_running_totals_cross_block_boundaries(self):
        """Two groups with more pairs than ``_PAIR_BLOCK`` values: their
        pairs span at least three blocks."""
        width = next(
            w for w in itertools.count(2) if w * (w - 1) // 2 > arrays._PAIR_BLOCK
        )
        rng = np.random.default_rng(47)
        nl_mat = _nine_decade_loads(rng, width + 20)
        groups = [rng.choice(width + 20, size=width, replace=False) for _ in range(2)]
        assert arrays._pair_folds(nl_mat, *_left_aligned(groups)).tolist() == [
            _python_fold(nl_mat, g) for g in groups
        ]

    def test_unequal_counts(self):
        """Groups of 40, 24, 33, 2, 1 and 39 nodes in one call: the pairs
        past each short group's count add nothing."""
        rng = np.random.default_rng(48)
        nl_mat = _nine_decade_loads(rng, 64)
        groups = [
            rng.choice(64, size=k, replace=False) for k in (40, 24, 33, 2, 1, 39)
        ]
        assert arrays._pair_folds(nl_mat, *_left_aligned(groups)).tolist() == [
            _python_fold(nl_mat, g) for g in groups
        ]

    @pytest.mark.parametrize("n_candidates", [1, 2])
    def test_wide_candidates_score_as_the_reference(self, n_candidates):
        """``score_candidates_fast`` on one and on two 32-node candidates
        (496 pairs each) equals ``score_candidates`` on every field."""
        rng = np.random.default_rng(60 + n_candidates)
        snap = _wide_latency_snapshot(rng, 40)
        state = load_state(
            snap, nodes=list(snap.nodes),
            network_weights=NetworkWeights(w_lt=1.0, w_bw=0.0),
        )
        names = state.nodes
        candidates = []
        for _ in range(n_candidates):
            group = tuple(names[i] for i in rng.choice(40, size=32, replace=False))
            candidates.append(
                CandidateSubgraph(
                    start=group[0], nodes=group, procs=dict.fromkeys(group, 1)
                )
            )
        tradeoff = TradeOff.from_alpha(0.4)
        assert score_candidates_fast(
            state, candidates, tradeoff
        ) == score_candidates(candidates, state.cl, state.nl, tradeoff)


class TestScale:
    """~150 nodes: the reference's O(V²) dict loops bound the size."""

    @pytest.fixture(scope="class")
    def snap(self):
        return random_snapshot(
            np.random.default_rng(2024), 150, missing_fraction=0.3
        )

    def test_ordinary_request(self, snap):
        request = AllocationRequest(
            n_processes=48, ppn=None, tradeoff=TradeOff.from_alpha(0.4)
        )
        assert_allocations_equal(
            NetworkLoadAwarePolicy().allocate(snap, request),
            NetworkLoadAwarePolicy(use_arrays=False).allocate(snap, request),
        )

    def test_oversubscribed_request_spans_pair_blocks(self, snap):
        """Every candidate visits all 150 nodes (11,175 pairs each), so
        the pair values of the 150 candidates fill many blocks."""
        live = len(snap.livehosts)
        assert live * live * (live - 1) // 2 > 4 * arrays._PAIR_BLOCK
        request = AllocationRequest(
            n_processes=4 * live + 7, ppn=4, tradeoff=TradeOff.from_alpha(0.5)
        )
        grant = NetworkLoadAwarePolicy().allocate(snap, request)
        assert len(grant.nodes) == live
        assert_allocations_equal(
            grant,
            NetworkLoadAwarePolicy(use_arrays=False).allocate(snap, request),
        )


def _ring_fleet(n_nodes: int, seed: int) -> ClusterSnapshot:
    """A fleet whose monitor measures only ring links: each node's two
    nearest neighbours on each side.  Nearly every pair is unmeasured."""
    rng = np.random.default_rng(seed)
    names = [f"f{i:04d}" for i in range(n_nodes)]
    views = {}
    for name in names:
        load = float(rng.uniform(0.0, 10.0))
        views[name] = NodeView(
            name=name,
            cores=12,
            frequency_ghz=2.6,
            memory_gb=64.0,
            users=int(rng.integers(0, 3)),
            cpu_load=_flat(load),
            cpu_util=_flat(min(100.0, 8.0 * load)),
            flow_rate_mbs=_flat(float(rng.uniform(0.0, 60.0))),
            available_memory_gb=_flat(float(rng.uniform(8.0, 60.0))),
        )
    ring = {
        tuple(sorted((names[i], names[(i + step) % n_nodes])))
        for i in range(n_nodes)
        for step in (1, 2)
    }
    pairs = sorted(ring)
    return ClusterSnapshot(
        time=0.0,
        nodes=views,
        bandwidth_mbs={k: float(125.0 * rng.uniform(0.5, 1.0)) for k in pairs},
        latency_us={k: float(rng.uniform(40.0, 120.0)) for k in pairs},
        peak_bandwidth_mbs={k: 125.0 for k in pairs},
        livehosts=tuple(names),
    )


@pytest.fixture(scope="module")
def fleet():
    return _ring_fleet(1024, 0)


def _shard_state(fleet, seed: int, *, ppn: int | None = None):
    """One 256-node shard of the fleet with 1/8 of its nodes held."""
    shard = list(fleet.nodes)[256:512]
    held = set(
        np.random.default_rng(seed).choice(shard, size=32, replace=False)
    )
    return load_state(
        fleet, nodes=[n for n in shard if n not in held], ppn=ppn
    )


def _random_groups(rng, names, count: int) -> list[CandidateSubgraph]:
    """``count`` groups of distinct nodes, the first of them one node."""
    sizes = [1, *rng.integers(1, min(len(names), 40) + 1, size=count - 1)]
    groups = [
        tuple(names[i] for i in rng.choice(len(names), size=k, replace=False))
        for k in sizes
    ]
    return [
        CandidateSubgraph(start=g[0], nodes=g, procs=dict.fromkeys(g, 1))
        for g in groups
    ]


class TestScoreCandidatesFast:
    """The elastic planner's scorer is the reference, field for field."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "config", SWEEP_CONFIGS,
        ids=["-".join(f"{k[:4]}{v}" for k, v in c.items()) or "plain"
             for c in SWEEP_CONFIGS],
    )
    def test_random_snapshots(self, seed, config):
        rng = np.random.default_rng(500 + seed)
        snap = random_snapshot(rng, int(rng.integers(2, 41)), **config)
        live = [n for n in snap.nodes if n in snap.livehosts]
        state = load_state(snap, nodes=live, ppn=[None, 4][seed % 2])
        tradeoff = TradeOff.from_alpha(float(rng.choice([0.1, 0.3, 0.5, 0.9])))
        n = int(rng.integers(1, 4 * len(live) + 8))
        candidates = generate_all_candidates_fast(state, n, tradeoff)
        candidates += _random_groups(rng, state.nodes, 10)
        # ScoredCandidate equality: the candidate and every Eq-4 field
        assert score_candidates_fast(
            state, candidates, tradeoff
        ) == score_candidates(candidates, state.cl, state.nl, tradeoff)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_fleet_slice(self, fleet, alpha):
        rng = np.random.default_rng(int(10 * alpha))
        state = _shard_state(fleet, 1)
        tradeoff = TradeOff.from_alpha(alpha)
        grown = generate_all_candidates_fast(state, 128, tradeoff)
        picks = rng.choice(len(grown), size=20, replace=False)
        candidates = [grown[i] for i in picks]
        candidates += _random_groups(rng, state.nodes, 10)
        # most pairs of a fleet group are unmeasured, so they carry the
        # missing-pair penalty
        group = candidates[-1].nodes
        assert any(
            (a, b) not in state.nl
            for a, b in itertools.combinations(sorted(group), 2)
        )
        # ScoredCandidate equality: the candidate and every Eq-4 field
        assert score_candidates_fast(
            state, candidates, tradeoff
        ) == score_candidates(candidates, state.cl, state.nl, tradeoff)


class TestPrunedPath:
    """Above the prune threshold, Algorithm 2 runs exactly over the kept
    seeds: the reference run on those seeds' candidates agrees bit for
    bit, winner and every Equation-4 field."""

    @pytest.mark.parametrize(
        "n, alpha, ppn",
        [
            (16, 0.1, None),
            (64, 0.3, None),
            (128, 0.5, None),
            (700, 0.9, None),
            (64, 0.5, 4),
            # oversubscribed: every candidate holds every usable node
            (4 * 224 + 7, 0.3, 4),
            # every free processor, the first slice a cross-shard grant
            # asks of a shard: each kept seed grows the same node set in
            # its own visit order, so the winner turns on the last bits
            # of each fold
            pytest.param(None, 0.5, None, id="free-0.5-None"),
        ],
    )
    def test_winner_is_the_reference_over_kept_seeds(
        self, fleet, n, alpha, ppn
    ):
        state = _shard_state(fleet, n if n is not None else 1, ppn=ppn)
        if n is None:
            n = int(np.maximum(state.pc_vec, 0).sum())
        tradeoff = TradeOff.from_alpha(alpha)
        keep = arrays.PRUNE_KEEP_DEFAULT
        seeds = arrays._pruned_seeds(state, n, tradeoff, keep)
        assert len(seeds) == keep
        names = state.nodes
        reference = select_best(
            [
                generate_candidate(
                    names[s], names, state.cl, state.nl, state.pc, n, tradeoff
                )
                for s in seeds.tolist()
            ],
            state.cl,
            state.nl,
            tradeoff,
        )
        pruned = best_candidate_fast(
            state, n, tradeoff, prune_threshold=128, prune_keep=keep
        )
        assert pruned == reference


def test_seed_bounds_are_memoized_per_alpha_and_beta():
    """Two trade-offs with one α and βs 5e-7 apart (both valid) get
    their own first-addition bounds."""
    snap = random_snapshot(np.random.default_rng(8), 12, missing_fraction=0.3)
    state = load_state(snap, nodes=list(snap.nodes))
    for beta in (0.7, 0.7000005):
        tradeoff = TradeOff(0.3, beta)
        costs = tradeoff.alpha * state.cl_vec[None, :] + beta * state.nl_mat
        np.fill_diagonal(costs, np.inf)
        assert np.array_equal(
            arrays._seed_lower_bounds(state, tradeoff), costs.min(axis=1)
        )


def test_seed_cut_keeps_what_argpartition_picks(fleet):
    """Two mutual-nearest neighbours tie at the prune cut: each one's
    cheapest first addition is the other, so their bounds sum the same
    three terms, here to the same float.  ``_pruned_seeds`` keeps the
    seeds ``np.argpartition`` picks from the broadcast-expression bounds,
    so its introselect, not node order, decides which of the two stays;
    a node-order cut would keep the other one and change decisions."""
    state = _shard_state(fleet, 0)
    tradeoff = TradeOff.from_alpha(0.3)
    n, keep = 32, arrays.PRUNE_KEEP_DEFAULT
    costs = tradeoff.alpha * state.cl_vec[None, :] + tradeoff.beta * state.nl_mat
    np.fill_diagonal(costs, np.inf)
    base = tradeoff.alpha * state.cl_vec
    bounds = np.where(
        np.maximum(state.pc_vec, 0) >= n, base, base + costs.min(axis=1)
    )
    ranked = np.sort(bounds)
    assert ranked[keep - 1] == ranked[keep]  # the tie straddles the cut
    u, v = np.flatnonzero(bounds == ranked[keep - 1]).tolist()
    nearest = costs.argmin(axis=1)
    assert nearest[u] == v and nearest[v] == u
    kept = arrays._pruned_seeds(state, n, tradeoff, keep)
    assert np.array_equal(kept, np.sort(np.argpartition(bounds, keep - 1)[:keep]))
    assert np.isin([u, v], kept).sum() == 1
    node_order = np.sort(np.argsort(bounds, kind="stable")[:keep])
    assert not np.array_equal(kept, node_order)
