"""Network load — Equation 2 of the paper.

``NL_(u,v) = w_lt · LT_(u,v) + w_bw · B̄W_(u,v)`` where ``LT`` is measured
latency and ``B̄W`` is the *complement of available bandwidth* (peak −
available).  Both terms are sum-normalized over the pair set before
weighting ("Normalization is done similar to compute load"), and both are
minimization criteria, so ``NL`` needs no further complementing.

The network load of a *group* of nodes is the average of ``NL`` over all
pairs in the group (§3.2.2 last sentence).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from repro.core.normalization import NORMALIZERS
from repro.core.weights import NetworkWeights
from repro.monitor.snapshot import ClusterSnapshot

PairKey = tuple[str, str]


def pair_inputs(
    snapshot: ClusterSnapshot,
    *,
    nodes: Sequence[str] | None = None,
) -> tuple[dict[PairKey, float], dict[PairKey, float]]:
    """Raw Equation-2 inputs: measured latency and bandwidth complement.

    A pair contributes only when **both** measurements exist, so the
    scan walks the measured-link keys — O(links · log links) for the
    deterministic sort — never the O(V²) candidate pairs; fleet-scale
    monitors measure a sparse subset and the federation router runs
    this pass over the whole fleet per snapshot.  The array path
    (:func:`repro.core.arrays.array_store`) runs it once per snapshot
    lineage; deltas then patch only the changed entries of its vectors.
    """
    keep = None if nodes is None else frozenset(nodes)
    lat: dict[PairKey, float] = {}
    bwc: dict[PairKey, float] = {}
    for key in sorted(snapshot.latency_us):
        if key not in snapshot.bandwidth_mbs:
            continue
        if keep is not None and (key[0] not in keep or key[1] not in keep):
            continue
        lat[key] = snapshot.latency(*key)
        bwc[key] = snapshot.bandwidth_complement(*key)
    return lat, bwc


def combine_pair_costs(
    lat: Mapping[PairKey, float],
    bwc: Mapping[PairKey, float],
    weights: NetworkWeights | None = None,
    *,
    method: str = "mean",
) -> dict[PairKey, float]:
    """Normalize both Equation-2 terms over the pair set and combine.

    O(pairs); iteration follows ``lat``'s key order, so patching values
    in an existing input dict and re-combining reproduces a full
    :func:`network_loads` rebuild bit for bit.
    """
    weights = weights or NetworkWeights()
    try:
        normalize = NORMALIZERS[method]
    except KeyError:
        raise ValueError(
            f"unknown normalization {method!r}; choose from {sorted(NORMALIZERS)}"
        ) from None
    lat_n = normalize(lat)
    bwc_n = normalize(bwc)
    return {
        key: weights.w_lt * lat_n[key] + weights.w_bw * bwc_n[key] for key in lat
    }


def network_loads(
    snapshot: ClusterSnapshot,
    weights: NetworkWeights | None = None,
    *,
    nodes: Sequence[str] | None = None,
    method: str = "mean",
) -> dict[PairKey, float]:
    """``NL_(u,v)`` for every measured pair among ``nodes``.

    Pairs missing either a bandwidth or a latency measurement are
    omitted; callers decide how to penalise unknown links (policies use
    the worst observed value).
    """
    lat, bwc = pair_inputs(snapshot, nodes=nodes)
    return combine_pair_costs(lat, bwc, weights, method=method)


def group_network_load(
    loads: Mapping[PairKey, float],
    group: Sequence[str],
    *,
    missing_penalty: float | None = None,
) -> float:
    """Average ``NL`` over all pairs within ``group``.

    ``missing_penalty`` substitutes for unmeasured pairs; by default the
    worst (maximum) observed load is used, so unknown links look risky
    rather than free.  A single-node group has zero network load.
    """
    members = list(dict.fromkeys(group))
    if len(members) < 2:
        return 0.0
    if missing_penalty is None:
        missing_penalty = max(loads.values()) if loads else 0.0
    total, count = 0.0, 0
    for a, b in itertools.combinations(members, 2):
        key = (a, b) if a <= b else (b, a)
        total += loads.get(key, missing_penalty)
        count += 1
    return total / count


def total_group_network_load(
    loads: Mapping[PairKey, float],
    group: Sequence[str],
    *,
    missing_penalty: float | None = None,
) -> float:
    """Sum of ``NL`` over all pairs within ``group`` (the ``N_G`` of §3.3.2)."""
    members = list(dict.fromkeys(group))
    if len(members) < 2:
        return 0.0
    if missing_penalty is None:
        missing_penalty = max(loads.values()) if loads else 0.0
    total = 0.0
    for a, b in itertools.combinations(members, 2):
        key = (a, b) if a <= b else (b, a)
        total += loads.get(key, missing_penalty)
    return total
