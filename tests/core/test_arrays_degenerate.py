"""Degenerate normalization inputs: both allocator paths must agree.

Covers the cases where a naive vectorization would divide by zero: all
compute loads exactly zero (``ΣC = 0``), an empty or near-empty measured
network-load set (``ΣN = 0``, penalty from zero or one pairs), and
candidate groups consisting entirely of unmeasured links.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.arrays import (
    best_candidate_fast,
    generate_all_candidates_fast,
    load_state,
)
from repro.core.candidate import generate_all_candidates
from repro.core.policies import AllocationRequest, NetworkLoadAwarePolicy
from repro.core.weights import TradeOff
from repro.monitor.snapshot import ClusterSnapshot, NodeView
from tests.core.test_array_equivalence import assert_allocations_equal


def _flat(v: float) -> dict[str, float]:
    return {"now": v, "m1": v, "m5": v, "m15": v}


def _identical_view(name: str, *, cores: int = 8) -> NodeView:
    """All attributes equal across nodes → every normalized cost is 0."""
    return NodeView(
        name=name,
        cores=cores,
        frequency_ghz=3.0,
        memory_gb=32.0,
        users=0,
        cpu_load=_flat(0.0),
        cpu_util=_flat(0.0),
        flow_rate_mbs=_flat(0.0),
        available_memory_gb=_flat(16.0),
    )


def _snapshot(
    names: list[str],
    *,
    measured_pairs: dict[tuple[str, str], tuple[float, float]] | None = None,
) -> ClusterSnapshot:
    """Identical nodes; only ``measured_pairs`` carry (bw, lat) data."""
    views = {n: _identical_view(n) for n in names}
    peak = {
        (a, b): 125.0 for a, b in itertools.combinations(sorted(names), 2)
    }
    bw: dict[tuple[str, str], float] = {}
    lat: dict[tuple[str, str], float] = {}
    for key, (b_val, l_val) in (measured_pairs or {}).items():
        key = key if key[0] <= key[1] else (key[1], key[0])
        bw[key] = b_val
        lat[key] = l_val
    return ClusterSnapshot(
        time=0.0,
        nodes=views,
        bandwidth_mbs=bw,
        latency_us=lat,
        peak_bandwidth_mbs=peak,
        livehosts=tuple(names),
    )


def _measured(state) -> np.ndarray:
    """(V, V) mask of the slice's measured pairs — the keys of ``nl``."""
    mask = np.zeros(state.nl_mat.shape, dtype=bool)
    for a, b in state.nl:
        i, j = state.index[a], state.index[b]
        mask[i, j] = mask[j, i] = True
    return mask


def _both_paths(snap: ClusterSnapshot, request: AllocationRequest):
    a = NetworkLoadAwarePolicy(use_arrays=True).allocate(snap, request)
    b = NetworkLoadAwarePolicy(use_arrays=False).allocate(snap, request)
    assert_allocations_equal(a, b)
    return a


NAMES = ["a", "b", "c", "d"]


class TestDegenerateNormalization:
    def test_all_zero_compute_loads(self):
        """Identical nodes → CL ≡ 0 → ΣC = 0; no division by zero."""
        pairs = {
            (a, b): (100.0, 100.0)
            for a, b in itertools.combinations(NAMES, 2)
        }
        snap = _snapshot(NAMES, measured_pairs=pairs)
        alloc = _both_paths(snap, AllocationRequest(n_processes=8, ppn=4))
        assert alloc.metadata["compute_cost_normalized"] == 0.0

    def test_empty_network_load(self):
        """No measured pairs at all → NL = {} and penalty 0.0."""
        snap = _snapshot(NAMES, measured_pairs=None)
        alloc = _both_paths(snap, AllocationRequest(n_processes=8, ppn=4))
        assert alloc.metadata["network_cost_normalized"] == 0.0
        assert alloc.metadata["network_cost"] == 0.0

    def test_single_measured_pair(self):
        """Penalty comes from a one-element load set (max of one value)."""
        snap = _snapshot(
            NAMES, measured_pairs={("a", "b"): (120.0, 80.0)}
        )
        for n, ppn in [(4, 2), (8, 4), (11, None)]:
            _both_paths(snap, AllocationRequest(n_processes=n, ppn=ppn))

    def test_group_of_only_unmeasured_links(self):
        """Nodes c and d share no measurements with anyone: candidates
        started there price every internal link at the worst observed
        load, in both paths."""
        snap = _snapshot(
            NAMES,
            measured_pairs={("a", "b"): (60.0, 200.0)},
        )
        state = load_state(snap, nodes=NAMES, ppn=2)
        tradeoff = TradeOff.from_alpha(0.3)
        fast = generate_all_candidates_fast(state, 6, tradeoff)
        ref = generate_all_candidates(
            NAMES, state.cl, state.nl, state.pc, 6, tradeoff
        )
        assert fast == ref
        assert state.missing_penalty == max(state.nl.values())
        assert not _measured(state)[2:, 2:].any()
        _both_paths(snap, AllocationRequest(n_processes=6, ppn=2))

    def test_all_zero_everything_is_pure_tie_break(self):
        """Zero CL and zero NL: every total is 0.0; both paths fall back
        to deterministic tie-breaking and must still agree."""
        snap = _snapshot(NAMES, measured_pairs=None)
        for n in (1, 4, 9, 40):
            _both_paths(snap, AllocationRequest(n_processes=n, ppn=4))

    def test_oversubscribed_identical_candidates(self):
        """Request beyond cluster capacity: all |V| candidates share one
        node set and the Equation-4 totals tie exactly — the fast path
        must still pick the dict winner."""
        pairs = {
            (a, b): (100.0, 100.0)
            for a, b in itertools.combinations(NAMES, 2)
        }
        snap = _snapshot(NAMES, measured_pairs=pairs)
        _both_paths(snap, AllocationRequest(n_processes=100, ppn=4))

    def test_fast_path_errors_match_reference(self):
        snap = _snapshot(NAMES)
        with pytest.raises(ValueError):
            NetworkLoadAwarePolicy(use_arrays=True).allocate(
                snap, AllocationRequest(n_processes=0, ppn=4)
            )


class TestLoadStateShape:
    def test_matrix_symmetry_and_diagonal(self):
        rngpairs = {
            ("a", "b"): (100.0, 90.0),
            ("a", "c"): (50.0, 400.0),
        }
        snap = _snapshot(NAMES, measured_pairs=rngpairs)
        state = load_state(snap, nodes=NAMES, ppn=4)
        assert state.nl_mat.shape == (4, 4)
        assert np.allclose(state.nl_mat, state.nl_mat.T)
        assert np.all(np.diag(state.nl_mat) == 0.0)
        measured = _measured(state)
        assert measured.sum() == 2 * len(rngpairs)
        # Unmeasured off-diagonal entries hold the worst observed load.
        off_diag = ~np.eye(4, dtype=bool)
        unmeasured = off_diag & ~measured
        assert np.all(state.nl_mat[unmeasured] == state.missing_penalty)
