"""Static-analysis engine enforcing the repo's runtime invariants.

``python -m repro lint`` (or :func:`repro.analysis.engine.run`) walks
the package with :mod:`ast` and reports structured findings across four
rule families, each grounded in an invariant the dynamic test layers
already rely on:

* **determinism** (``DET*``) — clocks and RNGs are injected, never
  ambient, so chaos/DES runs replay from a seed;
* **async-safety** (``ASY*``) — nothing blocks the broker's event loop;
* **typed errors** (``ERR*``) — broad catches carry a justification
  pragma, and the wire ``ErrorCode`` enum stays exhaustive between
  server and client;
* **idempotency** (``PRO008``) — federation code never drops the
  client's allocate dedupe token.

Pre-existing violations are grandfathered in ``lint-baseline.json``;
anything new fails the gate (exit 1).  See ``docs/ANALYSIS.md``.
"""

from repro.analysis.baseline import DEFAULT_BASELINE, fingerprint
from repro.analysis.engine import lint_project, run
from repro.analysis.findings import Finding, LintReport, RuleInfo
from repro.analysis.rules import ALL_RULES
from repro.analysis.source import Project, SourceFile

__all__ = [
    "ALL_RULES",
    "DEFAULT_BASELINE",
    "Finding",
    "LintReport",
    "Project",
    "RuleInfo",
    "SourceFile",
    "fingerprint",
    "lint_project",
    "run",
]
