"""End-to-end smoke: the CI scenario set must hold every invariant.

The full matrix runs via ``make chaos``; this keeps the fastest,
highest-signal scenarios (healthy baseline, corrupt store, mid-migration
death, shard death mid-cross-shard-reserve, seeded interleavings) inside
the regular pytest tier so a regression in the degradation paths fails
the ordinary test run too.
"""

from __future__ import annotations

import pytest

from repro.chaos.runner import format_report, run_scenarios, select_scenarios
from repro.chaos.scenarios import SCENARIOS, SMOKE_SCENARIOS


class TestSelection:
    def test_smoke_set_is_a_subset_of_the_matrix(self):
        assert set(SMOKE_SCENARIOS) <= set(SCENARIOS)
        assert len(SMOKE_SCENARIOS) == 7
        assert "shard_death_cross_reserve" in SMOKE_SCENARIOS
        assert "interleave_pipelined_burst" in SMOKE_SCENARIOS
        assert "interleave_shutdown_drain" in SMOKE_SCENARIOS
        assert "interleave_atomic_sections" in SMOKE_SCENARIOS

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            select_scenarios(["baseline_no_faults", "nope"])

    def test_default_selection_is_everything(self):
        assert select_scenarios() == list(SCENARIOS)
        assert select_scenarios(smoke=True) == list(SMOKE_SCENARIOS)


# scenarios that assert shutdown/sanitizer behaviour rather than allocation
_NO_GRANT_SCENARIOS = frozenset(
    {"interleave_shutdown_drain", "interleave_atomic_sections"}
)


@pytest.mark.parametrize("name", SMOKE_SCENARIOS)
def test_smoke_scenario_holds_invariants(name):
    report = run_scenarios([name], seed=0)[0]
    detail = "; ".join(str(v) for v in report.checker.violations)
    assert report.ok, f"{name}: {detail}"
    if name not in _NO_GRANT_SCENARIOS:
        assert report.stats["grants"] >= 1
    rendered = format_report(report)
    assert "OK" in rendered and name in rendered


def test_reports_are_seed_deterministic():
    a = run_scenarios(["baseline_no_faults"], seed=7)[0]
    b = run_scenarios(["baseline_no_faults"], seed=7)[0]
    assert a.summary() == b.summary()
