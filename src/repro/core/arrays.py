"""Vectorized fast path for the allocation pipeline (Eq. 1–4, Alg. 1–2).

The reference implementation in :mod:`repro.core.candidate` and
:mod:`repro.core.selection` runs Algorithms 1 and 2 as pure-Python dict
arithmetic over O(V²) pair keys.  This module packs the same quantities
into NumPy arrays and replays both algorithms as array operations:

* :class:`ArrayStore` — one per snapshot, memoized in its
  :func:`~repro.monitor.snapshot.derived_cache`: the node index, the raw
  attribute matrix, Equation-3 processor counts and the measured pairs'
  raw latency/bandwidth-complement vectors.  It holds no weights, no
  ``ppn`` and no normalization, so one store serves every request
  shape, and :func:`~repro.monitor.delta.apply_snapshot_delta` patches
  it once per delta instead of rebuilding it.
* :class:`LoadState` — one *slice* of the store: Equation-1 ``CL``
  vector, dense symmetric Equation-2 ``NL`` matrix (unmeasured pairs
  filled with the worst observed load) and Equation-3 vector, all
  normalized over exactly the usable node set (§3.2.1).  Memoized on
  the snapshot per (node subset, weights, normalization, ppn/load-key).
  Its Equations 1–2 come from :func:`slice_loads`, which the federation
  router's fleet-wide pass calls too.
* :func:`generate_all_candidates_fast` — Algorithm 1 for *all* |V|
  starting nodes at once: one addition-cost matrix
  ``A = α·CL[None, :] + β·NL``, one stable per-row lexsort, one
  cumulative-sum cutoff of effective processor counts, and a closed-form
  round-robin remainder.  The array step underneath (:class:`Growth`:
  visit order and per-visit takes per seed) is materialized into
  :class:`~repro.core.candidate.CandidateSubgraph` objects only for the
  callers that need them.
* :func:`best_candidate_fast` — Algorithm 2 / Equation 4 straight from
  the growth arrays (:func:`select_best_fast`); only the winner is
  materialized.
* :func:`score_candidates_fast` — Equation 4 over an arbitrary candidate
  list (the elastic planner's scorer), through the same kernel.

Exactness contract: a slice normalizes with the reference's own
left-to-right Python sums, in the reference's iteration order, and
NumPy's element-wise ``α·CL + β·NL`` is bit-identical to the scalar
expression (also computed in place, into one buffer), so the per-row
lexsort reproduces the reference candidate *exactly* (same nodes, same
process counts, same tie-breaks).  Equation 4 has one array kernel
(:func:`_eq4`), which repeats the reference's arithmetic in the
reference's order: builtin ``sum`` wherever the reference calls it
(compensated since Python 3.12, so a NumPy sum may not stand in for
it) and, wherever it loops ``total +=``, a pairs-major
``np.add.reduce`` across rows of (pairs, groups) blocks, which NumPy
runs as one sequential fold per group (:func:`_pair_folds`).  Every
array score — the exact path's, the seed-pruned fleet path's and
:func:`score_candidates_fast`'s — is the reference's bit for bit over
the same candidates, and so is the winner under exact ties.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.attributes import ATTRIBUTES, Criterion
from repro.core.candidate import CandidateSubgraph
from repro.core.effective_procs import effective_proc_count
from repro.core.network_load import PairKey, pair_inputs
from repro.core.normalization import NORMALIZERS
from repro.core.selection import ScoredCandidate
from repro.core.weights import ComputeWeights, NetworkWeights, TradeOff
from repro.monitor.snapshot import ClusterSnapshot, derived_cache

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (delta → arrays)
    from repro.monitor.delta import SnapshotDelta

#: node count above which :func:`best_candidate_fast` may switch to the
#: seed-pruned approximate path (when a threshold is passed in)
PRUNE_THRESHOLD_DEFAULT = 512
#: how many Algorithm-1 seeds the pruned path keeps
PRUNE_KEEP_DEFAULT = 32

#: key under which a snapshot's :class:`ArrayStore` lives in its
#: ``derived_cache``
STORE_KEY = "array_store"
#: most pair values (and their indices) :func:`_pair_folds` gathers at
#: once: a block holds this many over the number of groups pairs, so
#: its memory stays flat at any group size
_PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class ArrayStore:
    """One snapshot's raw Equation 1–3 inputs, packed as arrays.

    Nothing here depends on a request: weights, ``ppn`` and
    normalization are applied when :func:`load_state` slices the store.
    """

    #: node names in snapshot order; ``index`` maps name → column
    nodes: tuple[str, ...]
    index: Mapping[str, int]
    #: raw attribute values, (attributes, V) in ``ATTRIBUTES`` order
    raw: np.ndarray
    #: measured pairs (latency and bandwidth both known, both ends in
    #: ``nodes``) in sorted-key order — the dict path's iteration order
    pairs: tuple[PairKey, ...]
    pair_index: Mapping[PairKey, int]
    #: endpoint columns of each pair
    pair_ii: np.ndarray
    pair_jj: np.ndarray
    #: raw Equation-2 inputs per pair
    lat: np.ndarray
    bwc: np.ndarray
    #: Equation-3 effective processor counts per load key, (V,) each,
    #: computed on first use
    procs: dict[str, np.ndarray] = field(
        default_factory=dict, compare=False, repr=False
    )

    def proc_counts(
        self, snapshot: ClusterSnapshot, load_key: str
    ) -> np.ndarray:
        """Equation 3 for every node, from the ``load_key`` running mean."""
        pc = self.procs.get(load_key)
        if pc is None:
            views = snapshot.nodes
            pc = np.fromiter(
                (
                    effective_proc_count(
                        views[n].cores, float(views[n].cpu_load[load_key])
                    )
                    for n in self.nodes
                ),
                dtype=np.int64,
                count=len(self.nodes),
            )
            self.procs[load_key] = pc
        return pc

    def patched(
        self, snapshot: ClusterSnapshot, delta: "SnapshotDelta"
    ) -> "ArrayStore":
        """This store advanced by ``delta``; ``snapshot`` is the patched one.

        Copy-on-write in O(changed): only the vectors a delta touches are
        copied, only its entries are re-extracted, and the index tables
        are shared (a delta never changes the node or pair sets).
        """
        changed = [n for n in delta.nodes if n in self.index]
        raw, procs = self.raw, dict(self.procs)
        if changed:
            raw = raw.copy()
            procs = {key: pc.copy() for key, pc in procs.items()}
            for n in changed:
                view = snapshot.nodes[n]
                j = self.index[n]
                for i, attr in enumerate(ATTRIBUTES):
                    if not attr.static:
                        # a static change is structural → full rebuild
                        raw[i, j] = attr.extract(view)
                for key, pc in procs.items():
                    pc[j] = effective_proc_count(
                        view.cores, float(view.cpu_load[key])
                    )
        touched = [
            k
            for k in {*delta.latency_us, *delta.bandwidth_mbs}
            if k in self.pair_index
        ]
        lat, bwc = self.lat, self.bwc
        if touched:
            lat, bwc = lat.copy(), bwc.copy()
            for key in touched:
                j = self.pair_index[key]
                lat[j] = snapshot.latency(*key)
                bwc[j] = snapshot.bandwidth_complement(*key)
        return dataclasses.replace(
            self, raw=raw, lat=lat, bwc=bwc, procs=procs
        )


def array_store(snapshot: ClusterSnapshot) -> ArrayStore:
    """The snapshot's :class:`ArrayStore`, built on first use."""
    cache = derived_cache(snapshot)
    store = cache.get(STORE_KEY)
    if store is None:
        nodes = tuple(snapshot.nodes)
        index = {n: i for i, n in enumerate(nodes)}
        views = [snapshot.nodes[n] for n in nodes]
        lat, bwc = pair_inputs(snapshot, nodes=nodes)
        pairs = tuple(lat)
        count = len(pairs)
        store = ArrayStore(
            nodes=nodes,
            index=index,
            raw=np.array(
                [[a.extract(view) for view in views] for a in ATTRIBUTES],
                dtype=np.float64,
            ),
            pairs=pairs,
            pair_index={k: j for j, k in enumerate(pairs)},
            pair_ii=np.fromiter(
                (index[a] for a, _ in pairs), dtype=np.intp, count=count
            ),
            pair_jj=np.fromiter(
                (index[b] for _, b in pairs), dtype=np.intp, count=count
            ),
            lat=np.fromiter(lat.values(), dtype=np.float64, count=count),
            bwc=np.fromiter(bwc.values(), dtype=np.float64, count=count),
        )
        cache[STORE_KEY] = store
    return store


@dataclass(frozen=True)
class LoadState:
    """Allocator inputs (Eq. 1–3) over one usable node set, as arrays.

    A slice of its snapshot's :class:`ArrayStore`.  The reference dicts
    (``cl``, ``nl``, ``pc``) are derived from the arrays on first access,
    for the hierarchical policy and the equivalence suites' oracle.
    """

    #: node names in index order (the usable-node order)
    nodes: tuple[str, ...]
    #: name → row/column index
    index: Mapping[str, int]
    #: ``CL`` as a (V,) float vector
    cl_vec: np.ndarray
    #: dense symmetric (V, V) ``NL`` matrix — unmeasured pairs hold
    #: ``missing_penalty``, the diagonal is zero
    nl_mat: np.ndarray
    #: worst observed pair load (0.0 when nothing was measured)
    missing_penalty: float
    #: effective processors as a (V,) int vector
    pc_vec: np.ndarray
    #: the store this state was sliced from, and the positions in
    #: ``store.pairs`` of the measured pairs with both ends in ``nodes``
    store: ArrayStore = field(compare=False, repr=False)
    pair_sel: np.ndarray = field(compare=False, repr=False)
    #: per-state scratch memos (seed-pruning bounds)
    scratch: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def cl(self) -> dict[str, float]:
        """Equation-1 compute loads (reference dict)."""
        return dict(zip(self.nodes, self.cl_vec.tolist()))

    @cached_property
    def nl(self) -> dict[PairKey, float]:
        """Equation-2 loads over measured pairs (reference dict)."""
        keys = [self.store.pairs[p] for p in self.pair_sel.tolist()]
        rows = [self.index[a] for a, _ in keys]
        cols = [self.index[b] for _, b in keys]
        return dict(zip(keys, self.nl_mat[rows, cols].tolist()))

    @cached_property
    def pc(self) -> dict[str, int]:
        """Equation-3 effective processor counts (reference dict)."""
        return dict(zip(self.nodes, self.pc_vec.tolist()))


def _normalized(values: np.ndarray, method: str) -> np.ndarray:
    """``mean_normalize``/``sum_normalize`` over a vector, bit for bit.

    The denominator is a left-to-right Python ``sum`` in vector order,
    exactly the dict path's ``sum(values.values())`` — not NumPy's
    pairwise sum — and the divisions are the same IEEE operations.
    """
    if not len(values):
        return values
    total = sum(values.tolist())
    denom = total / len(values) if method == "mean" else total
    return values / denom if denom != 0 else np.zeros_like(values)


def load_state(
    snapshot: ClusterSnapshot,
    *,
    nodes: Sequence[str] | None = None,
    compute_weights: ComputeWeights | None = None,
    network_weights: NetworkWeights | None = None,
    ppn: int | None = None,
    load_key: str = "m1",
    method: str = "mean",
) -> LoadState:
    """The :class:`LoadState` for ``snapshot``, memoized on the snapshot.

    Slices the snapshot's :class:`ArrayStore`: the usable names become
    an index array, Equation 1 runs over the slice's columns and
    Equation 2 over the measured pairs with both ends in the slice.  The
    cache key covers everything a slice depends on: the node subset
    (normalization runs over exactly the ranked set), both weight
    profiles, the normalization method, and the Equation-3 parameters.
    """
    names = tuple(nodes) if nodes is not None else tuple(snapshot.nodes)
    cw = compute_weights or ComputeWeights()
    nw = network_weights or NetworkWeights()
    key = (
        "load_state",
        names,
        tuple(sorted(cw.weights.items())),
        (nw.w_lt, nw.w_bw),
        ppn,
        load_key,
        method,
    )
    cache = derived_cache(snapshot)
    state = cache.get(key)
    if state is None:
        state = _slice(
            snapshot, names, cw, nw, ppn=ppn, load_key=load_key, method=method
        )
        cache[key] = state
    return state


class SliceLoads(NamedTuple):
    """Equations 1–2 over one node list, as :func:`slice_loads` returns them."""

    #: the nodes' store columns, in list order
    cols: np.ndarray
    #: store column → position in the list, or -1 for a node outside it
    pos: np.ndarray
    #: positions in ``store.pairs`` of the measured pairs with both ends
    #: in the list, in the store's sorted-key order
    pairs: np.ndarray
    #: Equation-1 ``CL`` per node, in list order
    cl: np.ndarray
    #: Equation-2 ``NL`` per pair of ``pairs``
    nl: np.ndarray


def slice_loads(
    store: ArrayStore,
    names: Sequence[str],
    compute_weights: ComputeWeights,
    network_weights: NetworkWeights,
    method: str = "mean",
) -> SliceLoads:
    """Equations 1–2 over ``names``, bit for bit the dict reference.

    ``cl`` equals :func:`~repro.core.compute_load.compute_loads` and
    ``nl`` :func:`~repro.core.network_load.network_loads` called with
    ``nodes=names``: both normalize over exactly the listed nodes and
    the measured pairs among them, with :func:`_normalized`'s reference
    sums.  :func:`load_state` slices with it, and so does the federation
    router's fleet-wide pass.
    """
    if method not in NORMALIZERS:
        raise ValueError(
            f"unknown normalization {method!r}; choose from {sorted(NORMALIZERS)}"
        )
    v = len(names)
    cols = np.fromiter(
        (store.index[n] for n in names), dtype=np.intp, count=v
    )

    # Equation 1 (compute_loads: to_cost + saw_scores) over the columns
    cl = np.zeros(v, dtype=np.float64)
    for i, attr in enumerate(ATTRIBUTES):
        w = float(compute_weights.weights.get(attr.name, 0.0))
        if w == 0.0 or v == 0:
            continue
        norm = _normalized(store.raw[i, cols], method)
        if attr.criterion is Criterion.MAXIMIZE:
            norm = float(norm.max()) - norm
        cl += w * norm

    # Equation 2 (combine_pair_costs) over the pairs inside the list
    pos = np.full(len(store.nodes), -1, dtype=np.intp)
    pos[cols] = np.arange(v)
    pairs = np.flatnonzero(
        (pos[store.pair_ii] >= 0) & (pos[store.pair_jj] >= 0)
    )
    nl = network_weights.w_lt * _normalized(
        store.lat[pairs], method
    ) + network_weights.w_bw * _normalized(store.bwc[pairs], method)
    return SliceLoads(cols, pos, pairs, cl, nl)


def _slice(
    snapshot: ClusterSnapshot,
    names: tuple[str, ...],
    compute_weights: ComputeWeights,
    network_weights: NetworkWeights,
    *,
    ppn: int | None,
    load_key: str,
    method: str,
) -> LoadState:
    store = array_store(snapshot)
    loads = slice_loads(store, names, compute_weights, network_weights, method)
    v = len(names)
    ii = loads.pos[store.pair_ii[loads.pairs]]
    jj = loads.pos[store.pair_jj[loads.pairs]]
    penalty = float(loads.nl.max()) if len(loads.nl) else 0.0
    nl_mat = np.full((v, v), penalty, dtype=np.float64)
    np.fill_diagonal(nl_mat, 0.0)
    nl_mat[ii, jj] = loads.nl
    nl_mat[jj, ii] = loads.nl

    # Equation 3, unless the request fixes processes per node
    if ppn is None:
        pc_vec = store.proc_counts(snapshot, load_key)[loads.cols]
    elif ppn <= 0:
        raise ValueError(f"ppn must be positive, got {ppn}")
    else:
        pc_vec = np.full(v, ppn, dtype=np.int64)

    return LoadState(
        nodes=names,
        index={n: i for i, n in enumerate(names)},
        cl_vec=loads.cl,
        nl_mat=nl_mat,
        missing_penalty=penalty,
        pc_vec=pc_vec,
        store=store,
        pair_sel=loads.pairs,
    )


def addition_cost_matrix(state: LoadState, tradeoff: TradeOff) -> np.ndarray:
    """All |V|² addition costs at once: row ``v`` holds ``A_v(·)``.

    Element-wise ``α·CL + β·NL`` is the same two-multiply-one-add IEEE
    sequence the scalar reference uses, so entries are bit-identical to
    :func:`repro.core.candidate.addition_costs`.
    """
    a = tradeoff.alpha * state.cl_vec[None, :] + tradeoff.beta * state.nl_mat
    np.fill_diagonal(a, 0.0)  # A_v(v) = 0 per Algorithm 1 line 4
    return a


def generate_all_candidates_fast(
    state: LoadState, n_processes: int, tradeoff: TradeOff
) -> list[CandidateSubgraph]:
    """Vectorized Algorithm 1 over every starting node.

    Returns candidates identical (nodes, order, process counts) to
    :func:`repro.core.candidate.generate_all_candidates` run on the same
    reference dicts.
    """
    seeds = np.arange(len(state.nodes), dtype=np.intp)
    return _materialize(state, _grow(state, seeds, n_processes, tradeoff))


@dataclass(frozen=True)
class Growth:
    """Algorithm 1 for a set of seeds, as arrays: one row per seed."""

    #: seed columns
    seeds: np.ndarray
    #: (S, V) node columns in visit order
    order: np.ndarray
    #: (S, V) processes taken at each visit — 0 past the last visit and
    #: at visited nodes with no free processor, which the candidate drops
    takes: np.ndarray


def _grow(
    state: LoadState,
    seeds: np.ndarray,
    n_processes: int,
    tradeoff: TradeOff,
) -> Growth:
    """Algorithm 1 for an arbitrary seed subset (rows of the cost matrix).

    With ``seeds == arange(V)`` this is the all-seeds fast path (same
    element-wise ``α·CL + β·NL`` IEEE sequence, same lexsort); the
    pruned path passes only the surviving seeds and builds K×V instead
    of V×V intermediates.
    """
    if n_processes <= 0:
        raise ValueError(f"n_processes must be positive, got {n_processes}")
    v = len(state.nodes)
    s = len(seeds)
    if v == 0 or s == 0:
        empty = np.zeros((s, v), dtype=np.intp)
        return Growth(seeds, empty, empty.astype(np.int64))
    rows = np.arange(s)
    costs = state.nl_mat[seeds]  # the one K×V cost buffer
    np.multiply(costs, tradeoff.beta, out=costs)
    np.add(tradeoff.alpha * state.cl_vec[None, :], costs, out=costs)
    costs[rows, seeds] = 0.0  # A_v(v) = 0 per Algorithm 1 line 4
    # Reference sort key is (cost, u != start) with stable ties on node
    # order; lexsort's last key is primary and full ties keep ascending
    # index, which *is* node order.
    not_start = np.ones_like(costs)
    not_start[rows, seeds] = 0.0
    order = np.lexsort((not_start, costs), axis=-1)

    caps = np.maximum(state.pc_vec, 0)[order]  # capacities in visit order
    cum = np.cumsum(caps, axis=1)
    covered = cum >= n_processes
    any_covered = covered.any(axis=1)
    # Nodes are visited while the running total is short of the request,
    # so the visit count is (first covering index + 1), or all V nodes.
    k = np.where(any_covered, covered.argmax(axis=1) + 1, v)
    col = np.arange(v)
    takes = np.where(col[None, :] < k[:, None], caps, 0)
    # Last visited node is truncated to the remaining need.
    r = np.flatnonzero(any_covered)
    last = k[r] - 1
    takes[r, last] = n_processes - (cum[r, last] - caps[r, last])
    # Cluster exhausted: Algorithm 1 lines 12-13 round-robin the
    # remainder over the visited nodes (all V of them), in visit order.
    r = np.flatnonzero(~any_covered)
    if len(r):
        extra, first = np.divmod(n_processes - cum[r, -1], v)
        takes[r] += extra[:, None] + (col[None, :] < first[:, None])
    return Growth(seeds, order, takes)


def _materialize(state: LoadState, growth: Growth) -> list[CandidateSubgraph]:
    """One :class:`CandidateSubgraph` per row, zero-take nodes dropped."""
    names = state.nodes
    kept = growth.takes > 0
    cols = growth.order[kept].tolist()  # row-major: visit order per row
    takes = growth.takes[kept].tolist()
    out: list[CandidateSubgraph] = []
    lo = 0
    for seed, count in zip(growth.seeds.tolist(), kept.sum(axis=1).tolist()):
        hi = lo + count
        sel = tuple(names[j] for j in cols[lo:hi])
        out.append(
            CandidateSubgraph(
                start=names[seed], nodes=sel, procs=dict(zip(sel, takes[lo:hi]))
            )
        )
        lo = hi
    return out


def score_candidates_fast(
    state: LoadState,
    candidates: Sequence[CandidateSubgraph],
    tradeoff: TradeOff,
) -> list[ScoredCandidate]:
    """:func:`repro.core.selection.score_candidates` on arrays, bit for bit.

    Each candidate's nodes (distinct, as in every group) go through the
    kernel :func:`select_best_fast` uses.
    """
    if not candidates:
        return []
    index = state.index
    members = np.array(
        [index[n] for cand in candidates for n in cand.nodes], dtype=np.intp
    )
    counts = np.array([len(cand.nodes) for cand in candidates], dtype=np.intp)
    rows = _eq4(state, members, counts, tradeoff)
    return [ScoredCandidate(cand, *row) for cand, row in zip(candidates, rows)]


def select_best_fast(
    state: LoadState, growth: Growth, tradeoff: TradeOff
) -> ScoredCandidate:
    """Algorithm 2 / Equation 4 over grown candidates, on arrays.

    Scores every row with :func:`_eq4` and picks the reference's
    ``(total, start)`` minimum, so it reproduces
    :func:`repro.core.selection.select_best` bit for bit.  Only the
    winner is materialized.
    """
    # Every grown candidate takes at least one process, so the reference's
    # filter on empty candidates only ever drops a V = 0 growth.
    if not len(growth.seeds):
        raise ValueError("candidate generation produced no groups")
    kept = growth.takes > 0
    # row-major: each row's nodes in visit order
    rows = _eq4(state, growth.order[kept], kept.sum(axis=1), tradeoff)
    names = state.nodes
    starts = [names[j] for j in growth.seeds.tolist()]
    best = min(range(len(rows)), key=lambda i: (rows[i][-1], starts[i]))
    pick = [best]
    winner = Growth(growth.seeds[pick], growth.order[pick], growth.takes[pick])
    return ScoredCandidate(_materialize(state, winner)[0], *rows[best])


def _eq4(
    state: LoadState,
    members: np.ndarray,
    counts: np.ndarray,
    tradeoff: TradeOff,
) -> list[tuple[float, float, float, float, float]]:
    """Equation 4 for groups given as flat member columns.

    Group ``i`` is the next ``counts[i]`` entries of ``members``.  This
    is the reference's arithmetic in the reference's order: each compute
    cost and both totals are builtin ``sum`` over the same floats
    (compensated since Python 3.12, so NumPy's sums may not stand in for
    it), each network cost is a sequential fold (:func:`_pair_folds`),
    and the normalization and ``α·C_norm + β·N_norm`` are element-wise.
    One ``(C, N, C_norm, N_norm, T)`` row per group, in
    :class:`ScoredCandidate` field order.
    """
    flat = state.cl_vec[members].tolist()
    c_raw: list[float] = []
    lo = 0
    for hi in np.cumsum(counts).tolist():
        c_raw.append(sum(flat[lo:hi]))
        lo = hi
    # The same nodes left-aligned in a (groups, max count) matrix.
    padded = np.zeros((len(counts), int(counts.max())), dtype=np.intp)
    padded[np.arange(padded.shape[1])[None, :] < counts[:, None]] = members
    n_raw = _pair_folds(state.nl_mat, padded, counts)

    c_total = sum(c_raw)
    n_total = sum(n_raw.tolist())
    c_vec = np.array(c_raw, dtype=np.float64)
    c_norm = c_vec / c_total if c_total > 0 else np.zeros_like(c_vec)
    n_norm = n_raw / n_total if n_total > 0 else np.zeros_like(n_raw)
    totals = tradeoff.alpha * c_norm + tradeoff.beta * n_norm
    return list(
        zip(c_raw, n_raw.tolist(), c_norm.tolist(), n_norm.tolist(),
            totals.tolist())
    )


def _pair_folds(
    nl_mat: np.ndarray, members: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Each row's ``N_G``, folded like the reference's ``total += NL``.

    Row ``i`` lists its group's columns in ``members[i, :counts[i]]``.
    Its pairs are taken in ``itertools.combinations`` order (the upper
    triangle, row-major) and folded pairs-major: a block of pairs is
    gathered as a (pairs, groups) matrix, pairs past a group's size are
    set to ``0.0``, the running totals are added into the block's first
    row, and ``np.add.reduce(axis=0)`` adds the rows one after another.
    NumPy sums pairwise only along an array's fast axis, so a reduce
    across rows is a sequential fold per column.  One group still gets
    a second (ignored) column: a ``(pairs, 1)`` block is reduced along
    its fast axis, pairwise.
    """
    s, width = members.shape
    out = np.zeros(max(s, 2), dtype=np.float64)
    p, q = np.triu_indices(width, 1)
    if not len(p):
        return out[:s]
    cols = np.zeros((width, len(out)), dtype=np.intp)
    cols[:, :s] = members.T
    offsets = cols * nl_mat.shape[1]  # each member's row in ``flat``
    flat = nl_mat.ravel()
    short = bool((counts < width).any())
    step = max(1, _PAIR_BLOCK // len(out))
    for lo in range(0, len(p), step):
        qb = q[lo : lo + step]
        idx = offsets.take(p[lo : lo + step], axis=0)
        idx += cols.take(qb, axis=0)
        vals = flat.take(idx)
        if short:
            vals[:, :s][qb[:, None] >= counts[None, :]] = 0.0
        vals[0] += out
        out = np.add.reduce(vals, axis=0)
    return out[:s]


def best_candidate_fast(
    state: LoadState,
    n_processes: int,
    tradeoff: TradeOff,
    *,
    prune_threshold: int | None = None,
    prune_keep: int = PRUNE_KEEP_DEFAULT,
) -> ScoredCandidate:
    """Full fast pipeline: Algorithm 1 + Algorithm 2 on one state.

    Algorithm 2 runs over every seed's candidate, bit-identical to the
    dict reference.  When ``prune_threshold`` is set and the state has
    more nodes than that, it runs over the ``prune_keep`` seeds that
    :func:`_pruned_seeds` ranks best instead, and equals the reference
    run over those seeds' candidates.
    """
    v = len(state.nodes)
    if (
        prune_threshold is not None
        and v > prune_threshold
        and 0 < prune_keep < v
    ):
        seeds = _pruned_seeds(state, n_processes, tradeoff, prune_keep)
    else:
        seeds = np.arange(v, dtype=np.intp)
    growth = _grow(state, seeds, n_processes, tradeoff)
    return select_best_fast(state, growth, tradeoff)


def _seed_lower_bounds(state: LoadState, tradeoff: TradeOff) -> np.ndarray:
    """Cheapest possible first addition cost for every seed, memoized.

    ``min_u A_v(u) = min_u (α·CL[u] + β·NL[v, u])`` over ``u ≠ v`` — a
    lower bound on what seed ``v``'s candidate pays for its first grown
    member.  O(V²) once per (state, α, β), cached in the state's scratch
    space; a state never outlives its snapshot, so the bound always
    matches the arrays.
    """
    key = ("seed_first_addition", tradeoff.alpha, tradeoff.beta)
    cached = state.scratch.get(key)
    if cached is None:
        if len(state.nodes) < 2:
            cached = np.zeros(len(state.nodes), dtype=np.float64)
        else:
            a = np.multiply(state.nl_mat, tradeoff.beta)
            np.add(tradeoff.alpha * state.cl_vec[None, :], a, out=a)
            np.fill_diagonal(a, np.inf)
            cached = a.min(axis=1)
        state.scratch[key] = cached
    return cached


def _pruned_seeds(
    state: LoadState, n_processes: int, tradeoff: TradeOff, keep: int
) -> np.ndarray:
    """The ``keep`` most promising Algorithm-1 seeds, in node order.

    Ranks every seed by a lower bound on its candidate's unnormalized
    Equation-4 contribution — ``α·CL[seed]`` when the seed alone covers
    the request, otherwise plus the cheapest first addition
    (:func:`_seed_lower_bounds`) — so fleet-scale states grow K×V
    instead of V×V intermediates.  The one approximation versus the
    exhaustive path: Equation 4 then normalizes over the K surviving
    candidates rather than all |V|, so the winner may differ.
    """
    caps = np.maximum(state.pc_vec, 0)
    base = tradeoff.alpha * state.cl_vec
    bounds = np.where(
        caps >= n_processes, base, base + _seed_lower_bounds(state, tradeoff)
    )
    part = np.argpartition(bounds, keep - 1)[:keep]
    return np.sort(part).astype(np.intp)  # candidate order = node order
