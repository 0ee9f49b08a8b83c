"""Unit tests of the benchmark's own machinery: no daemon, no sockets.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from layers import analyze  # noqa: E402
from ledger import Ledger  # noqa: E402
from loadgen import PhaseStats  # noqa: E402
from stats import MIN_BEYOND, tail  # noqa: E402
from tracer import Tracer, merge_dumps, own_pieces, self_times  # noqa: E402
from workloads import WORKLOADS, digest, schedule  # noqa: E402


def grant(lease_id, procs, expires_at=10.0):
    return {
        "lease_id": lease_id,
        "nodes": list(procs),
        "procs": dict(procs),
        "hostfile": "".join(f"{n}:{c}\n" for n, c in procs.items()),
        "expires_at": expires_at,
    }


def test_schedule_is_a_pure_function_of_workload_and_seed():
    w = WORKLOADS["paper60-churn"]
    jobs = schedule(w, 7, "nominal", 5.0)
    assert len(jobs) > 10
    assert jobs == schedule(w, 7, "nominal", 5.0)
    assert digest(jobs) == digest(schedule(w, 7, "nominal", 5.0))
    assert digest(schedule(w, 8, "nominal", 5.0)) != digest(jobs)
    assert digest(schedule(w, 7, "warmup", 5.0)) != digest(jobs)
    assert digest(schedule(WORKLOADS["fleet1k-fed"], 7, "nominal", 5.0)) != digest(jobs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_of_the_deck_deals_the_mix_exactly(name):
    w = WORKLOADS[name]
    size = sum(shape.copies for shape in w.shapes)
    cards = w.deal(np.random.default_rng(5))
    for _ in range(3):
        dealt = Counter(next(cards) for _ in range(size))
        assert dealt == {shape: shape.copies for shape in w.shapes}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_lifecycles_renew_every_third_ttl_and_hold_under_half(name):
    w = WORKLOADS[name]
    jobs = schedule(w, 3, "nominal", 5.0)
    nodes = {(s.n, s.ppn): s.nodes for s in w.shapes}
    for job in jobs:
        step = job.ttl_s / 3
        assert all(
            r == pytest.approx(job.arrive + (k + 1) * step)
            for k, r in enumerate(job.renews)
        )
        assert all(r < job.release for r in job.renews)
        held = sum(
            nodes[(o.n, o.ppn)] for o in jobs if o.arrive <= job.arrive < o.release
        )
        assert held <= w.node_cap


def test_tail_is_p99_when_the_sample_supports_it():
    assert tail(list(range(1, 1001))) == (99.0, 990)


@pytest.mark.parametrize("n", [20, 137, 500, 999])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    xs = list(range(n))
    pct, value = tail(xs)
    assert pct < 99.0
    assert sum(x > value for x in xs) == MIN_BEYOND


def test_tail_of_a_tiny_sample_is_the_median():
    assert tail([5.0, 1.0, 3.0])[1] == 3.0


def test_ledger_catches_an_injected_double_grant():
    ledger = Ledger()
    assert ledger.grant(8, 4, grant("L1", {"a": 4, "b": 4}))
    assert not ledger.grant(8, 4, grant("L2", {"b": 4, "c": 4}))
    assert any("b granted to L2" in v for v in ledger.violations)


def test_ledger_frees_a_node_once_its_release_is_sent():
    ledger = Ledger()
    ledger.grant(4, None, grant("L1", {"a": 4}))
    ledger.release_sent("L1")
    assert ledger.grant(4, None, grant("L2", {"a": 4}))
    assert ledger.released("L1")
    assert ledger.violations == []
    assert ledger.unreleased() == ["L2"]


def test_ledger_checks_procs_ppn_hostfile_renewals_and_releases():
    ledger = Ledger()
    assert not ledger.grant(9, 4, grant("L1", {"a": 4, "b": 4}))
    assert not ledger.grant(8, 2, grant("L2", {"c": 4, "d": 4}))
    bad = grant("L3", {"e": 4})
    bad["hostfile"] = "e:3\n"
    assert not ledger.grant(4, None, bad)
    ledger.grant(4, None, grant("L4", {"f": 4}, expires_at=10.0))
    assert ledger.renew("L4", {"expires_at": 11.0})
    assert not ledger.renew("L4", {"expires_at": 11.0})
    ledger.release_sent("L4")
    assert ledger.released("L4")
    assert not ledger.released("L4")
    assert len(ledger.violations) == 5


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 6.0, 0],
        ["e", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    pieces = own_pieces(spans)
    assert pieces == [
        (0.0, 1.0, "a"), (1.0, 2.0, "b"), (2.0, 3.0, "c"), (3.0, 4.0, "b"),
        (4.0, 5.0, "a"), (5.0, 6.0, "d"), (6.0, 10.0, "a"), (11.0, 12.0, "e"),
    ]
    own = {}
    for start, end, name in pieces:
        own[name] = own.get(name, 0.0) + end - start
    assert own == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0, "e": 1.0}


def test_tracer_records_nesting():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", inner)
    outer()
    inner()
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", -1),
    ]
    assert min(self_times(tracer.spans)) >= 0.0


def traced_phase():
    """One allocate a1, sent at 1.0 and answered at 2.0, queued behind a
    refresh run for another request; times are seconds."""
    stats = PhaseStats(window=(0.0, 100.0))
    stats.timing["a1"] = (1.0, 2.0)
    stats.allocs.append((1.0, 1000.0, None))
    stats.grants = 1
    dump = {
        "spans": [
            ["monitor.refresh", 0.5, 1.05, -1],
            ["protocol.decode", 1.1, 1.2, -1],
            ["service.allocate_batch", 1.3, 1.8, -1],
            ["core.policy_allocate", 1.4, 1.7, 2],
            ["protocol.encode", 1.85, 1.9, -1],
        ],
        "requests": {"a1": ["allocate", 1.1, 1.2, 50]},
        "responses": {"a1": [1.85, 1.9, 150]},
        "batches": [[2, ["a1"]]],
        "held_sizes": [],
    }
    return dump, stats


def test_attribution_counts_the_work_an_allocate_waited_behind():
    dump, stats = traced_phase()
    metrics, rows = analyze(dump, stats, [stats.window], {}, (0, 0), federated=False)
    per_alloc = {name: ms for name, kind, ms, _, _ in rows if kind != "wait"}
    assert per_alloc["monitor.refresh"] == pytest.approx(50.0)
    assert per_alloc["protocol.decode"] == pytest.approx(100.0)
    assert per_alloc["core.policy_allocate"] == pytest.approx(300.0)
    assert per_alloc["service.allocate_batch"] == pytest.approx(200.0)
    assert per_alloc["protocol.encode"] == pytest.approx(50.0)
    assert per_alloc["unattributed"] == pytest.approx(300.0)
    assert metrics["trace.coverage"] == pytest.approx(0.7)
    assert metrics["trace.unattributed_ms"] == pytest.approx(300.0)
    assert metrics["protocol.bytes_per_op"] == pytest.approx(200.0)


def test_server_waits_are_reported_beside_the_stages():
    dump, stats = traced_phase()
    metrics, rows = analyze(dump, stats, [stats.window], {}, (0, 0), federated=False)
    waits = {name: ms for name, kind, ms, _, _ in rows if kind == "wait"}
    assert waits["server.read_wait"] == pytest.approx(100.0)
    assert waits["server.queue_wait"] == pytest.approx(100.0)
    assert waits["server.reply_wait"] == pytest.approx(50.0)
    assert metrics["server.queue_wait_ms_p50"] == pytest.approx(100.0)
    assert sum(share for _, kind, _, share, _ in rows if kind != "wait") == (
        pytest.approx(1.0)
    )


def test_merged_dumps_keep_each_span_under_its_own_parent():
    dump, _ = traced_phase()
    merged = merge_dumps([dump, dump])
    n = len(dump["spans"])
    assert len(merged["spans"]) == 2 * n
    assert merged["spans"][n + 3][3] == 2 + n
    assert merged["batches"] == [[2, ["a1"]], [2 + n, ["a1"]]]
    assert self_times(merged["spans"]) == self_times(dump["spans"]) * 2
