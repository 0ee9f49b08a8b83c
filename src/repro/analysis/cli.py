"""``python -m repro lint`` — the static-analysis gate.

Exit codes are CI semantics, not suggestions:

* ``0`` — no findings beyond the committed baseline;
* ``1`` — at least one new finding (the build should fail);
* ``2`` — the linter itself could not run (bad arguments, unreadable
  baseline).

``--write-baseline`` regenerates ``lint-baseline.json`` from the current
findings and exits 0 — the explicit act of accepting debt (or shedding
stale entries after a fix).  See ``docs/ANALYSIS.md`` for the rule
families and the pragma syntax.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import baseline as baseline_mod
from repro.analysis import engine
from repro.analysis.findings import LintReport
from repro.analysis.rules import ALL_RULES

#: rule-family prefixes accepted by ``--rules``
FAMILIES = ("DET", "ASY", "ERR", "PRO", "RACE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checks: determinism, async-safety, "
        "typed-error discipline, idempotency tokens, async races",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--root", default=".",
        help="repo root findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: <root>/{baseline_mod.DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather the current findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--rules", default=None, metavar="FAM[,FAM...]",
        help=f"restrict to rule families, e.g. DET,ERR (from {FAMILIES})",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable report instead of text",
    )
    parser.add_argument(
        "--jsonl", action="store_true",
        help="emit one JSON object per new finding (CI annotations)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every rule id with its family and summary, then exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for info in ALL_RULES:
            print(f"{info.rule}  [{info.family}]  {info.summary}")
        return 0

    root = Path(args.root).resolve()
    paths = [Path(p) for p in (args.paths or ["src/repro"])]

    families: set[str] | None = None
    if args.rules:
        families = {f.strip().upper() for f in args.rules.split(",") if f.strip()}
        unknown = families - set(FAMILIES)
        if unknown:
            print(
                f"unknown rule families {sorted(unknown)}; "
                f"choose from {FAMILIES}",
                file=sys.stderr,
            )
            return 2

    baseline_path = (
        Path(args.baseline)
        if args.baseline is not None
        else root / baseline_mod.DEFAULT_BASELINE
    )
    try:
        report = engine.run(
            root,
            paths,
            baseline_path=None if args.no_baseline else baseline_path,
            families=families,
        )
    except (OSError, ValueError) as exc:
        print(f"lint failed to run: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        baseline_mod.write(baseline_path, report.findings)
        print(
            f"baseline written: {baseline_path} "
            f"({len(report.findings)} grandfathered finding(s))"
        )
        return 0

    if args.jsonl:
        # one object per line, new findings only: `gh` annotations and
        # editor integrations stream these without buffering the report
        for finding in report.new:
            print(json.dumps(finding.to_dict(), sort_keys=True))
    elif args.json:
        print(json.dumps(_as_json(report), indent=2))
    else:
        _render_text(report)
    return 0 if report.clean else 1


def _as_json(report: LintReport) -> dict:
    return {
        "files_checked": report.files_checked,
        "clean": report.clean,
        "new": [f.to_dict() for f in report.new],
        "baselined": [f.to_dict() for f in report.baselined],
        "stale_baseline": report.stale_baseline,
    }


def _render_text(report: LintReport) -> None:
    for finding in report.new:
        print(finding.render())
        if finding.hint:
            print(f"    hint: {finding.hint}")
    summary = (
        f"{len(report.findings)} finding(s): {len(report.new)} new, "
        f"{len(report.baselined)} baselined "
        f"({report.files_checked} file(s) checked)"
    )
    print(("FAIL  " if report.new else "OK    ") + summary)
    for fp in report.stale_baseline:
        print(
            f"stale baseline entry (violation no longer present): {fp}\n"
            "    run `python -m repro lint --write-baseline` to shed it",
            file=sys.stderr,
        )


if __name__ == "__main__":  # pragma: no cover — exercised via `repro lint`
    raise SystemExit(main())
