"""Every experiment driver accepts a scenario name (wiring coverage).

The elastic driver composes a scenario's topology, background
processes and arrivals with its own drifting ambient load; these tests
pin the composition rules and that a scenario world threads all the
way through the driver without disturbing the legacy (None) path.
"""

from __future__ import annotations

import pytest

from repro.elastic.experiment import drifting_world, submit_offsets
from repro.scenarios import get_scenario
from repro.util.rng import RngStream
from repro.workload.generator import WorkloadConfig


def test_legacy_world_unchanged():
    specs, topo, cfg, spec = drifting_world(
        None, drift_intensity=1.0, n_nodes=12, nodes_per_switch=4
    )
    assert spec is None
    assert len(specs) == 12
    assert topo.extra_switch_links == ()
    # the drifting ambient OU is what distinguishes this config
    assert cfg != WorkloadConfig()


def test_scenario_world_takes_topology_keeps_drift():
    specs, topo, cfg, spec = drifting_world(
        "fat-tree", drift_intensity=1.0, n_nodes=12, nodes_per_switch=4
    )
    assert spec is get_scenario("fat-tree")
    assert len(specs) == 24
    assert topo.extra_switch_links  # the scenario's redundant links
    legacy_cfg = drifting_world(
        None, drift_intensity=1.0, n_nodes=12, nodes_per_switch=4
    )[2]
    # ambient drift comes from the experiment, not the scenario...
    for f in ("ambient_load_mu", "ambient_load_theta", "ambient_load_sigma"):
        assert getattr(cfg, f) == getattr(legacy_cfg, f)
    # ...while job/flow background comes from the scenario
    base = spec.workload_config
    assert cfg.jobs == base.jobs and cfg.netflows == base.netflows


def test_scenario_world_carries_regimes():
    _specs, _topo, cfg, spec = drifting_world(
        "spike", drift_intensity=1.0, n_nodes=12, nodes_per_switch=4
    )
    assert cfg.spikes == spec.workload_config.spikes
    assert cfg.spikes is not None


def test_submit_offsets_fixed_vs_scenario():
    assert submit_offsets(None, 3, 600.0, RngStream(0)) == (0.0, 600.0, 1200.0)
    spec = get_scenario("bursty")
    offsets = submit_offsets(spec, 8, 600.0, RngStream(0))
    assert len(offsets) == 8
    assert offsets == tuple(sorted(offsets))
    assert all(t >= 0 for t in offsets)
    # deterministic in the stream seed
    assert offsets == submit_offsets(spec, 8, 600.0, RngStream(0))
    assert offsets != submit_offsets(spec, 8, 600.0, RngStream(1))


def test_unknown_scenario_raises():
    with pytest.raises(KeyError, match="registered"):
        drifting_world(
            "nope", drift_intensity=1.0, n_nodes=12, nodes_per_switch=4
        )
