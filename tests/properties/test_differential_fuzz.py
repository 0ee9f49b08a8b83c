"""Differential fuzz: 500 random snapshots, array fast path vs dict oracle.

The acceptance bar for the vectorized allocator is *bitwise agreement on
the decision*: for every randomized snapshot and request shape, the
NumPy fast path (``use_arrays=True``) must pick the identical node
group, process layout, and bit-identical metadata as the pure-dict
reference implementation (``use_arrays=False``).  This sweep is the
volume complement to tests/core/test_array_equivalence.py: same
helpers, ~500 seeded trials spanning missing pairs, degenerate loads,
dead hosts, exclude masks, and tie-heavy uniform clusters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import AllocationRequest, NetworkLoadAwarePolicy
from repro.core.weights import TradeOff

from tests.core.test_array_equivalence import (
    assert_allocations_equal,
    random_snapshot,
)

N_TRIALS = 500
_CHUNK = 50

_DEGENERACY_MENU = (
    {},
    {"missing_fraction": 0.3},
    {"missing_fraction": 0.9},
    {"zero_load_fraction": 0.6},
    {"zero_load_fraction": 1.0},  # all-zero: every compute load ties
    {"full_load_fraction": 0.6},
    {"missing_fraction": 0.4, "dead_fraction": 0.3},
    {"missing_fraction": 0.2, "zero_load_fraction": 0.3,
     "full_load_fraction": 0.3},
)


def _one_trial(trial: int) -> int:
    """Run one randomized snapshot through both paths; returns checks made."""
    rng = np.random.default_rng(90_000 + trial)
    config = _DEGENERACY_MENU[trial % len(_DEGENERACY_MENU)]
    n_nodes = int(rng.integers(2, 10))
    snap = random_snapshot(rng, n_nodes, **config)
    fast = NetworkLoadAwarePolicy(use_arrays=True)
    oracle = NetworkLoadAwarePolicy(use_arrays=False)

    capacity = sum(
        snap.nodes[n].cores for n in snap.livehosts if n in snap.nodes
    )
    n = int(rng.integers(1, max(2, capacity + 4)))  # includes oversubscribed
    ppn = [None, 1, 2, 4][int(rng.integers(0, 4))]
    alpha = float(rng.choice([0.0, 0.3, 0.5, 0.7, 1.0]))
    request = AllocationRequest(
        n_processes=n, ppn=ppn, tradeoff=TradeOff.from_alpha(alpha)
    )
    exclude = frozenset()
    if n_nodes > 2 and rng.uniform() < 0.3:
        k = int(rng.integers(1, n_nodes - 1))
        exclude = frozenset(
            str(x) for x in rng.choice(list(snap.nodes), size=k, replace=False)
        )

    try:
        a = fast.allocate(snap, request, exclude=exclude)
    except Exception as exc_fast:
        # Both paths must fail identically — same type, and never an
        # arithmetic error.
        assert not isinstance(exc_fast, (ZeroDivisionError, FloatingPointError))
        with pytest.raises(type(exc_fast)):
            oracle.allocate(snap, request, exclude=exclude)
        return 1
    b = oracle.allocate(snap, request, exclude=exclude)
    assert_allocations_equal(a, b)
    assert sum(a.procs.values()) == n
    assert not set(a.nodes) & exclude
    return 1


@pytest.mark.parametrize("chunk", range(N_TRIALS // _CHUNK))
def test_fast_path_matches_oracle_500_snapshots(chunk):
    agreed = sum(
        _one_trial(trial)
        for trial in range(chunk * _CHUNK, (chunk + 1) * _CHUNK)
    )
    assert agreed == _CHUNK  # 500/500 across the full parametrization
