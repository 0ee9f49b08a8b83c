"""Router scoring: cached aggregates vs a brute-force fleet pass.

The router ranks shards off :class:`PartitionedLoadState` aggregates
memoized per snapshot.  These tests recompute every shard's score from
scratch — one uncached fleet-wide Equation-1/2 pass, plain Python means
per subtree — and require the cached ranking to agree exactly, on the
paper's §5 evaluation topology.  The fleet pass itself must equal the
dict reference's Equations 1–2 bit for bit.  Quarantine avoidance and
denial spill-over ride on the same fixtures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.broker.protocol import AllocateParams, ErrorCode, ProtocolError
from repro.core.compute_load import compute_loads
from repro.core.network_load import network_loads
from repro.core.weights import ComputeWeights, NetworkWeights
from repro.federation import build_federation
from repro.monitor.quarantine import NodeQuarantine
from tests.core.test_array_equivalence import random_snapshot
from tests.federation.conftest import TTL, cross_shard_n, make_federation

ALPHAS = (0.1, 0.3, 0.5, 0.9)


def brute_force_scores(
    snapshot, partition, alpha: float
) -> dict[str, float]:
    """Ask-every-shard baseline: no caching, no ShardAggregate."""
    live = [
        n
        for n in snapshot.nodes
        if not snapshot.livehosts or n in snapshot.livehosts
    ]
    cl = compute_loads(snapshot, ComputeWeights(), nodes=live)
    nl = network_loads(snapshot, NetworkWeights(), nodes=live)
    fleet_nl = sum(nl.values()) / len(nl) if nl else 0.0
    scores: dict[str, float] = {}
    for sid, nodes in partition.items():
        members = frozenset(n for n in nodes if n in cl)
        intra = [
            v for (a, b), v in nl.items() if a in members and b in members
        ]
        mean_cl = sum(cl[n] for n in members) / len(members)
        mean_nl = sum(intra) / len(intra) if intra else fleet_nl
        scores[sid] = alpha * mean_cl + (1.0 - alpha) * mean_nl
    return scores


class TestScoringAgreesWithBruteForce:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_paper_topology_ranking(self, paper_sc, alpha):
        router = make_federation(paper_sc, 4)
        snap = router._snapshots()
        aggs = router._partitioned().aggregates()
        expected = brute_force_scores(snap, router.partition, alpha)
        for sid, agg in aggs.items():
            assert router._score(agg, alpha) == pytest.approx(
                expected[sid], rel=1e-9
            )
        ranked = router._rank(aggs, alpha=alpha)
        assert ranked == sorted(
            expected,
            key=lambda s: (expected[s], -aggs[s].free_procs, s),
        )

    def test_allocate_forwards_to_best_scoring_shard(self, paper_sc):
        router = make_federation(paper_sc, 4)
        aggs = router._partitioned().aggregates()
        best = router._rank(aggs, alpha=0.3)[0]
        out = router.allocate_batch(
            [AllocateParams(n_processes=2, alpha=0.3, ttl_s=TTL)]
        )[0]
        assert not isinstance(out, ProtocolError)
        assert out["lease_id"].startswith(f"{best}:")

    def test_degenerate_single_shard(self, small_sc):
        router = make_federation(small_sc, 1)
        assert router.shard_ids == ("shard1",)
        out = router.allocate_batch(
            [AllocateParams(n_processes=2, ttl_s=TTL)]
        )[0]
        assert not isinstance(out, ProtocolError)
        assert out["lease_id"].startswith("shard1:")
        # nothing to spill or split to: an oversized ask is a typed denial
        huge = router.allocate_batch(
            [AllocateParams(n_processes=10_000, ttl_s=TTL)]
        )[0]
        assert isinstance(huge, ProtocolError)
        assert huge.code == ErrorCode.NO_CAPACITY


def _bits(values):
    return {key: float(v).hex() for key, v in values.items()}


class TestFleetPassEqualsReference:
    """The router scores shards on the allocator's own Equations 1–2."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fleet_pass_is_the_dict_reference(self, seed):
        rng = np.random.default_rng(45_000 + seed)
        snap = random_snapshot(
            rng, 40, missing_fraction=0.2, dead_fraction=0.15
        )
        names = sorted(snap.nodes)
        partition = {"a": tuple(names[:20]), "b": tuple(names[20:])}
        router = build_federation(lambda: snap, partition)
        store, pos, cl, pairs, nl, _ = router._partitioned()._fleet_pass()

        live = [n for n in snap.nodes if n in snap.livehosts]
        assert len(live) < len(snap.nodes)  # dead nodes drop out
        expected_cl = compute_loads(snap, ComputeWeights(), nodes=live)
        expected_nl = network_loads(snap, NetworkWeights(), nodes=live)
        assert len(expected_nl) < len(live) * (len(live) - 1) // 2
        got_cl = {n: cl[pos[store.index[n]]] for n in live}
        got_nl = dict(zip([store.pairs[p] for p in pairs.tolist()], nl))
        assert _bits(got_cl) == _bits(expected_cl)
        assert _bits(got_nl) == _bits(expected_nl)


class TestQuarantineAvoidance:
    def test_quarantined_subtree_is_never_picked(self, small_sc):
        quarantine = NodeQuarantine(
            clock=lambda: small_sc.engine.now,
            flap_threshold=1,
            window_s=1e9,
            cooldown_s=1e9,
        )
        router = make_federation(small_sc, 2, quarantine=quarantine)
        aggs = router._partitioned().aggregates()
        best = router._rank(aggs, alpha=0.3)[0]
        for node in router.partition[best]:
            quarantine.record_flap(node)
        assert set(router.partition[best]) <= quarantine.excluded()

        ranked = router._rank(
            router._partitioned().aggregates(
                quarantined=router._quarantined()
            ),
            alpha=0.3,
        )
        assert best not in ranked
        for _ in range(3):
            out = router.allocate_batch(
                [AllocateParams(n_processes=2, ttl_s=TTL)]
            )[0]
            assert not isinstance(out, ProtocolError)
            assert not out["lease_id"].startswith(f"{best}:")
            assert not set(out["nodes"]) & set(router.partition[best])

    def test_shards_verb_reports_quarantine(self, small_sc):
        quarantine = NodeQuarantine(
            clock=lambda: small_sc.engine.now,
            flap_threshold=1,
            window_s=1e9,
            cooldown_s=1e9,
        )
        router = make_federation(small_sc, 2, quarantine=quarantine)
        victim = router.shard_ids[0]
        for node in router.partition[victim]:
            quarantine.record_flap(node)
        rows = {r["shard"]: r for r in router.shards()["shards"]}
        assert rows[victim]["quarantined"] == len(router.partition[victim])
        assert rows[victim]["usable_nodes"] == 0


class _DenyingService:
    """Wraps a shard service; every allocate is a NO_CAPACITY denial."""

    def __init__(self, service):
        self._service = service
        self.denials = 0

    def __getattr__(self, name):
        return getattr(self._service, name)

    def allocate_batch(self, batch):
        self.denials += len(batch)
        return [
            ProtocolError(ErrorCode.NO_CAPACITY, "stub: shard full")
            for _ in batch
        ]


class TestSpillOver:
    def test_denial_spills_to_next_ranked_shard(self, small_sc):
        router = make_federation(small_sc, 2)
        best = router._rank(
            router._partitioned().aggregates(), alpha=0.3
        )[0]
        stub = _DenyingService(router.shard(best).service)
        router.shard(best).service = stub
        out = router.allocate_batch(
            [AllocateParams(n_processes=2, alpha=0.3, ttl_s=TTL)]
        )[0]
        assert not isinstance(out, ProtocolError)
        assert not out["lease_id"].startswith(f"{best}:")
        assert stub.denials == 1
        assert router.spills == 1

    def test_non_capacity_errors_do_not_spill(self, small_sc):
        class Exploding(_DenyingService):
            def allocate_batch(self, batch):
                self.denials += len(batch)
                return [
                    ProtocolError(ErrorCode.BAD_REQUEST, "stub: malformed")
                    for _ in batch
                ]

        router = make_federation(small_sc, 2)
        best = router._rank(
            router._partitioned().aggregates(), alpha=0.3
        )[0]
        router.shard(best).service = Exploding(router.shard(best).service)
        out = router.allocate_batch(
            [AllocateParams(n_processes=2, alpha=0.3, ttl_s=TTL)]
        )[0]
        assert isinstance(out, ProtocolError)
        assert out.code == ErrorCode.BAD_REQUEST
        assert router.spills == 0


class TestCrossShardSizing:
    def test_helper_exceeds_every_single_shard(self, small_sc):
        router = make_federation(small_sc, 2)
        n = cross_shard_n(router)
        rows = router.shards()["shards"]
        assert all(n > row["free_procs"] for row in rows)
        assert n <= sum(row["free_procs"] for row in rows)


class TestExplicitPpnAcrossShards:
    def test_over_ppn_request_is_split_not_oversubscribed(self, small_sc):
        """No single 4-node shard fits 12 processes at ppn=2: each shard
        denies, and the router splits the job across shards instead of
        a shard packing 3 processes onto a node."""
        router = make_federation(small_sc, 4)
        assert all(
            row["n_nodes"] * 2 < 12 for row in router.shards()["shards"]
        )
        out = router.allocate_batch(
            [AllocateParams(n_processes=12, ppn=2, alpha=0.3, ttl_s=TTL)]
        )[0]
        assert not isinstance(out, ProtocolError), out
        assert out["lease_id"].startswith("x:") and len(out["shards"]) >= 2
        assert router.spills > 0
        assert sum(out["procs"].values()) == 12
        assert max(out["procs"].values()) <= 2
