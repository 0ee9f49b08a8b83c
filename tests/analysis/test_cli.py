"""CLI and engine semantics: exit codes, JSON, GEN001, the meta-gate.

The meta-tests at the bottom are the acceptance criterion in executable
form: the real repository lints clean against its committed baseline.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main as lint_main
from repro.analysis.engine import lint_project
from repro.analysis.source import Project
from repro.cli import main as repro_main

from tests.analysis.conftest import write_tree

REPO_ROOT = Path(__file__).resolve().parents[2]

_VIOLATION = {
    "src/repro/des/engine.py": """
        import time

        def stamp():
            return time.time()
    """,
}

_CLEAN = {
    "src/repro/des/engine.py": """
        def stamp(clock):
            return clock()
    """,
}


class TestExitCodes:
    def test_clean_corpus_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, _CLEAN)
        rc = lint_main(["--root", str(tmp_path), "--no-baseline"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, _VIOLATION)
        rc = lint_main(["--root", str(tmp_path), "--no-baseline"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "hint:" in out

    def test_unknown_rule_family_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, _CLEAN)
        rc = lint_main(["--root", str(tmp_path), "--rules", "NOPE"])
        assert rc == 2

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, _CLEAN)
        (tmp_path / "lint-baseline.json").write_text('{"version": 99}')
        rc = lint_main(["--root", str(tmp_path)])
        assert rc == 2

    def test_rules_filter_scopes_families(self, tmp_path, capsys):
        write_tree(tmp_path, _VIOLATION)
        # The violation is DET; restricting to ERR hides it.
        assert lint_main(
            ["--root", str(tmp_path), "--no-baseline", "--rules", "ERR"]
        ) == 0
        assert lint_main(
            ["--root", str(tmp_path), "--no-baseline", "--rules", "DET,ERR"]
        ) == 1


class TestBaselineWorkflow:
    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        write_tree(tmp_path, _VIOLATION)
        assert lint_main(["--root", str(tmp_path)]) == 1  # gate fails
        assert lint_main(["--root", str(tmp_path), "--write-baseline"]) == 0
        assert lint_main(["--root", str(tmp_path)]) == 0  # grandfathered

    def test_new_violation_still_fails_after_baseline(self, tmp_path, capsys):
        write_tree(tmp_path, _VIOLATION)
        lint_main(["--root", str(tmp_path), "--write-baseline"])
        write_tree(tmp_path, {
            "src/repro/des/other.py": """
                import time

                def stamp2():
                    return time.time()
            """,
        })
        rc = lint_main(["--root", str(tmp_path)])
        assert rc == 1

    def test_fixed_violation_reports_stale_entry(self, tmp_path, capsys):
        write_tree(tmp_path, _VIOLATION)
        lint_main(["--root", str(tmp_path), "--write-baseline"])
        write_tree(tmp_path, _CLEAN)  # overwrite: violation gone
        rc = lint_main(["--root", str(tmp_path)])
        assert rc == 0  # fixing debt never fails the gate
        assert "stale baseline" in capsys.readouterr().err


class TestOutputs:
    def test_json_report_shape(self, tmp_path, capsys):
        write_tree(tmp_path, _VIOLATION)
        rc = lint_main(["--root", str(tmp_path), "--no-baseline", "--json"])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is False
        (finding,) = report["new"]
        assert finding["rule"] == "DET001"
        assert finding["path"].endswith("engine.py")
        assert finding["context"] == "stamp"

    def test_jsonl_emits_one_object_per_finding(self, tmp_path, capsys):
        write_tree(tmp_path, _VIOLATION)
        rc = lint_main(["--root", str(tmp_path), "--no-baseline", "--jsonl"])
        assert rc == 1
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 1
        assert records[0]["rule"] == "DET001"
        assert records[0]["path"].endswith("engine.py")

    def test_jsonl_clean_run_emits_nothing(self, tmp_path, capsys):
        write_tree(
            tmp_path, {"src/repro/des/fine.py": "x = 1\n"}
        )
        rc = lint_main(["--root", str(tmp_path), "--no-baseline", "--jsonl"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == ""

    def test_list_rules_covers_all_families(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "DET001", "ASY001", "ERR001", "PRO008", "GEN001", "RACE001",
        ):
            assert rule in out

    def test_syntax_error_becomes_gen001(self, tmp_path):
        write_tree(tmp_path, {
            "src/repro/des/broken.py": "def oops(:\n",
            **_VIOLATION,
        })
        project = Project.load(tmp_path, [tmp_path / "src"])
        findings = lint_project(project)
        rules = [f.rule for f in findings]
        # the broken file reports GEN001; the parseable one still lints
        assert "GEN001" in rules
        assert "DET001" in rules


class TestReproCliDispatch:
    def test_lint_verb_forwards_leading_options(self, tmp_path, capsys):
        # `repro lint --no-baseline ...` — leading options after the verb
        # must reach the lint parser (argparse.REMAINDER would not).
        write_tree(tmp_path, _VIOLATION)
        rc = repro_main(
            ["lint", "--no-baseline", "--root", str(tmp_path)]
        )
        assert rc == 1

    def test_lint_listed_in_help(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            repro_main(["--help"])
        assert "lint" in capsys.readouterr().out


class TestMetaGate:
    """The repository itself must pass its own gate."""

    def test_repo_lints_clean_against_committed_baseline(self, capsys):
        rc = lint_main(["--root", str(REPO_ROOT)])
        assert rc == 0, capsys.readouterr().out

    def test_committed_baseline_is_loadable_and_versioned(self):
        path = REPO_ROOT / "lint-baseline.json"
        assert path.exists(), "lint-baseline.json must be committed"
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert isinstance(data["findings"], dict)
