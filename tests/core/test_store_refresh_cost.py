"""Refresh cost does not depend on how many usable sets were decided.

Every decision slices the snapshot's one array store; a delta patches
that store once and carries no slice to the next snapshot.  So however
many distinct usable sets the broker has decided on — K ∈ {1, 32, 128}
— applying one delta patches exactly one store, and the new snapshot
starts with no ``LoadState`` at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arrays import STORE_KEY, ArrayStore, LoadState
from repro.core.policies import AllocationRequest, NetworkLoadAwarePolicy
from repro.monitor.delta import apply_snapshot_delta, compute_delta
from repro.monitor.snapshot import derived_cache
from tests.core.test_array_equivalence import random_snapshot
from tests.properties.test_delta_differential import perturb


def _states(snapshot) -> list[LoadState]:
    return [
        v for v in derived_cache(snapshot).values() if isinstance(v, LoadState)
    ]


@pytest.mark.parametrize("k", [1, 32, 128])
def test_one_delta_patches_one_store(k, monkeypatch):
    rng = np.random.default_rng(45_000 + k)
    snap = random_snapshot(rng, 24, missing_fraction=0.2)
    names = list(snap.nodes)
    policy = NetworkLoadAwarePolicy()
    request = AllocationRequest(n_processes=8, ppn=2)
    seen: set[frozenset[str]] = set()
    while len(seen) < k:
        exclude = frozenset(rng.choice(names, size=3, replace=False).tolist())
        if exclude not in seen:
            seen.add(exclude)
            policy.allocate(snap, request, exclude=exclude)
    assert len(_states(snap)) == k

    patches: list[ArrayStore] = []
    patched_fn = ArrayStore.patched

    def counting(self, *args, **kwargs):
        patches.append(self)
        return patched_fn(self, *args, **kwargs)

    monkeypatch.setattr(ArrayStore, "patched", counting)
    target = perturb(rng, snap, node_fraction=0.3, link_fraction=0.3)
    nxt = apply_snapshot_delta(snap, compute_delta(snap, target))
    assert len(patches) == 1
    assert patches[0] is derived_cache(snap)[STORE_KEY]
    assert isinstance(derived_cache(nxt)[STORE_KEY], ArrayStore)
    assert _states(nxt) == []
