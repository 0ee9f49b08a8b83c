"""Tests for the command-line interface.

CLI commands build real (small-warm-up) scenarios, so these are
integration tests; they use short warm-ups to stay quick.
"""

import pytest

from repro.cli import build_parser, main

FAST = ["--warmup-min", "5"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    @pytest.mark.parametrize("argv", [
        ["fleet"], ["client", "fleet-plan"], ["client", "fleet-status"],
    ])
    def test_retired_fleet_commands_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_defaults(self):
        args = build_parser().parse_args(["allocate"])
        assert args.procs == 32 and args.ppn == 4
        assert args.policy == "network_load_aware"


class TestRequestValidation:
    @pytest.mark.parametrize("command", ["allocate", "simulate", "compare"])
    @pytest.mark.parametrize(
        "bad",
        [["-n", "0"], ["--ppn", "0"], ["--alpha", "1.5"]],
        ids=["procs-0", "ppn-0", "alpha-1.5"],
    )
    def test_bad_value_exits_2_with_usage(self, command, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *bad, *FAST])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {bad[0]}" in err or "argument -n/--procs" in err

    def test_federate_keeps_ppn_zero(self):
        args = build_parser().parse_args(["federate", "--ppn", "0"])
        assert args.ppn == 0


class TestAllocate:
    def test_prints_hostfile(self, capsys):
        assert main(["allocate", "-n", "8", "--seed", "1", *FAST]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 2
        assert all(":" in l for l in lines)
        total = sum(int(l.split(":")[1]) for l in lines)
        assert total == 8

    def test_policy_selection(self, capsys):
        assert main(
            ["allocate", "-n", "8", "--policy", "load_aware", "--seed", "1", *FAST]
        ) == 0
        assert "policy=load_aware" in capsys.readouterr().out


class TestSimulate:
    def test_minimd(self, capsys):
        rc = main(
            ["simulate", "-n", "8", "--app", "minimd", "--size", "8",
             "--seed", "1", *FAST]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "app=miniMD" in out and "time=" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--app", "hpl", *FAST])


class TestCompare:
    def test_all_policies_listed(self, capsys):
        rc = main(
            ["compare", "-n", "8", "--app", "minife", "--size", "48",
             "--alpha", "0.4", "--seed", "1", *FAST]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for policy in ("random", "sequential", "load_aware", "network_load_aware"):
            assert policy in out


class TestTrace:
    def test_csv_to_stdout(self, capsys):
        rc = main(
            ["trace", "--hours", "0.5", "--period-s", "600", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("time,node,")

    def test_csv_to_file(self, tmp_path, capsys):
        target = tmp_path / "trace.csv"
        rc = main(
            ["trace", "--hours", "0.5", "--period-s", "600",
             "--seed", "1", "-o", str(target)]
        )
        assert rc == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out


class TestReport:
    def test_table4(self, capsys):
        rc = main(["report", "table4", "--seed", "1", *FAST])
        assert rc == 0
        assert "Table 4" in capsys.readouterr().out

    def test_fig1_short(self, capsys):
        rc = main(["report", "fig1", "--hours", "2", "--seed", "1"])
        assert rc == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["report", "fig99"])

    def test_reduced_grid_table2(self, capsys):
        rc = main(
            ["report", "table2", "--procs", "8", "--sizes", "16",
             "--repeats", "1", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_bad_grid_list(self):
        with pytest.raises(SystemExit):
            main(["report", "fig4", "--procs", "eight"])


class TestJsonOutput:
    def test_allocate_json(self, capsys):
        import json

        assert main(["allocate", "-n", "8", "--seed", "1", "--json", *FAST]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["policy"] == "network_load_aware"
        assert sum(data["procs"].values()) == 8
        assert set(data["procs"]) == set(data["nodes"])
        assert data["hostfile"].endswith("\n")

    def test_compare_json(self, capsys):
        import json

        rc = main(
            ["compare", "-n", "8", "--app", "minimd", "--size", "8",
             "--seed", "1", "--json", *FAST]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["runs"]) == {
            "random", "sequential", "load_aware", "network_load_aware",
        }
        for run in data["runs"].values():
            assert run["time_s"] > 0 and run["n_nodes"] == len(run["nodes"])


class TestScenarios:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-tree" in out and "[paper]" in out
        assert "fat-tree" in out and "bursty" in out

    def test_list_json(self, capsys):
        import json

        assert main(["scenarios", "list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = [d["name"] for d in data]
        assert names[0] == "paper-tree"
        assert sum(d["paper"] for d in data) == 1
        assert all({"name", "description", "smoke", "paper"} <= set(d)
                   for d in data)

    def test_run_json(self, capsys):
        import json

        rc = main(
            ["scenarios", "run", "fat-tree", "--seed", "1", "--jobs", "2",
             "-n", "8", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scenario"] == "fat-tree" and data["n_jobs"] == 2
        assert set(data["mean_times_s"]) == {
            "random", "sequential", "load_aware", "network_load_aware",
        }

    def test_run_unknown_scenario(self, capsys):
        assert main(["scenarios", "run", "no-such"]) == 2
        assert "registered" in capsys.readouterr().err

    def test_world_commands_accept_scenario_flag(self):
        for argv in (
            ["allocate", "--scenario", "mesh"],
            ["elastic", "--scenario", "bursty"],
            ["chaos", "--scenario", "bursty"],
        ):
            args = build_parser().parse_args(argv)
            assert args.scenario == argv[-1]

    def test_allocate_on_scenario_world(self, capsys):
        rc = main(
            ["allocate", "-n", "8", "--seed", "1", "--scenario", "fat-tree",
             *FAST]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert sum(int(l.split(":")[1]) for l in lines) == 8

    def test_allocate_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["allocate", "--scenario", "no-such", *FAST])


class TestServeClientParsers:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7077 and args.host == "127.0.0.1"
        assert args.batch_window_ms == 0.0 and args.max_queue == 128
        assert args.default_ttl_s == 60.0

    def test_client_allocate_defaults(self):
        args = build_parser().parse_args(["client", "allocate"])
        assert args.procs == 32 and args.ppn is None
        assert args.port == 7077 and not args.json

    def test_client_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client"])


class TestClientCommands:
    """Drive the `client` CLI against a real loopback daemon."""

    @pytest.fixture(scope="class")
    def daemon(self):
        from repro.broker import BrokerDaemonThread, BrokerServer, BrokerService
        from repro.experiments.scenario import small_scenario
        from repro.monitor.snapshot import CachedSnapshotSource

        sc = small_scenario(8, seed=5, warmup_s=600.0)
        source = CachedSnapshotSource(sc.snapshot, max_age_s=1e9)
        server = BrokerServer(BrokerService(source), port=0)
        with BrokerDaemonThread(server) as d:
            yield d

    def test_full_lease_roundtrip(self, daemon, capsys):
        import json

        port = str(daemon.port)
        rc = main(["client", "--port", port, "allocate", "-n", "8",
                   "--ppn", "4", "--ttl-s", "30", "--json"])
        assert rc == 0
        grant = json.loads(capsys.readouterr().out)
        lease = grant["lease_id"]
        assert sum(grant["procs"].values()) == 8

        assert main(["client", "--port", port, "renew", lease]) == 0
        assert "renewed" in capsys.readouterr().out

        assert main(["client", "--port", port, "release", lease]) == 0
        assert "released" in capsys.readouterr().out

        # double release surfaces the structured code and a non-zero rc
        assert main(["client", "--port", port, "release", lease]) == 1
        assert "UNKNOWN_LEASE" in capsys.readouterr().err

    def test_status_command(self, daemon, capsys):
        assert main(["client", "--port", str(daemon.port), "status"]) == 0
        out = capsys.readouterr().out
        assert "leases:" in out and "latency:" in out

    def test_connect_error_exit_code(self, capsys):
        rc = main(["client", "--port", "1", "--connect-retries", "0",
                   "status"])
        assert rc == 1
        assert "CONNECT" in capsys.readouterr().err
