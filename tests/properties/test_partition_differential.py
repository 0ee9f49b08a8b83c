"""Differential: router aggregates over a delta-patched store ≡ a fresh build.

``PartitionedLoadState`` reads the fleet snapshot's array store, which
``apply_snapshot_delta`` patches instead of rebuilding.  Over randomized
drift sequences (the delta differential's ``DRIFT_MIXES``) the shard
aggregates computed on the patched snapshot must equal, bit for bit,
those of a brand-new snapshot holding the same facts, under held-node
exclusions.  The Equation-3 counts the store patches per load key are
pinned the same way through ``load_state``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import STORE_KEY, load_state
from repro.core.partition import PartitionedLoadState
from repro.monitor.delta import apply_snapshot_delta, compute_delta
from repro.monitor.snapshot import derived_cache
from tests.core.test_array_equivalence import random_snapshot
from tests.properties.test_delta_differential import (
    DRIFT_MIXES,
    _fresh_copy,
    assert_states_identical,
    perturb,
)


def _partition(names: list[str], shards: int) -> dict[str, tuple[str, ...]]:
    ordered = sorted(names)
    size = -(-len(ordered) // shards)
    return {
        f"shard{i + 1}": tuple(ordered[i * size:(i + 1) * size])
        for i in range(shards)
        if ordered[i * size:(i + 1) * size]
    }


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mix", DRIFT_MIXES, ids=lambda m: f"n{m[0]}l{m[1]}")
def test_aggregates_over_patched_store_match_fresh_build(seed, mix):
    node_fraction, link_fraction = mix
    rng = np.random.default_rng(43_000 + seed)
    snap = random_snapshot(
        rng, int(rng.integers(8, 16)), missing_fraction=0.2, dead_fraction=0.1
    )
    names = list(snap.nodes)
    partition = _partition(names, 3)
    PartitionedLoadState(snap, partition).aggregates()  # builds the store
    for _ in range(4):
        target = perturb(
            rng, snap, node_fraction=node_fraction, link_fraction=link_fraction
        )
        delta = compute_delta(snap, target)
        assert delta is not None
        old_store = derived_cache(snap)[STORE_KEY]
        snap = apply_snapshot_delta(snap, delta)
        assert derived_cache(snap)[STORE_KEY] is not old_store  # patched
        fresh = _fresh_copy(snap)
        held = frozenset(rng.choice(names, size=2, replace=False).tolist())
        patched = PartitionedLoadState(snap, partition)
        rebuilt = PartitionedLoadState(fresh, partition)
        assert patched.aggregates(held=held) == rebuilt.aggregates(held=held)


@pytest.mark.parametrize("load_key", ["m1", "m15"])
def test_patched_equation3_counts_match_fresh_build(load_key):
    rng = np.random.default_rng(44_000)
    snap = random_snapshot(rng, 12, missing_fraction=0.2)
    usable = list(snap.nodes)[2:]
    load_state(snap, nodes=usable, load_key=load_key)  # fills the store
    for _ in range(4):
        target = perturb(rng, snap, node_fraction=0.5, link_fraction=0.5)
        snap = apply_snapshot_delta(snap, compute_delta(snap, target))
        assert_states_identical(
            load_state(snap, nodes=usable, load_key=load_key),
            load_state(_fresh_copy(snap), nodes=usable, load_key=load_key),
        )
