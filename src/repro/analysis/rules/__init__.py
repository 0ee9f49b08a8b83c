"""Rule registry for the invariant lint engine.

Each rule family is a module exposing ``RULES`` (metadata) and either
``check(file)`` (per-file) or ``check_project(project)`` (whole-corpus
cross-checks).  The engine imports the registry, so adding a family here
is all it takes to wire a new one in.
"""

from __future__ import annotations

from repro.analysis import race
from repro.analysis.findings import RuleInfo
from repro.analysis.rules import (
    asyncsafety,
    determinism,
    idempotency,
    typederrors,
)

#: per-file rules: run once per parsed source file
FILE_RULES = (
    determinism.check,
    asyncsafety.check,
    typederrors.check,
    race.check,
)

#: project rules: run once over the whole corpus
PROJECT_RULES = (
    typederrors.check_project,
    idempotency.check_project,
)

#: every known rule id with its family and summary (``--list-rules``)
ALL_RULES: tuple[RuleInfo, ...] = (
    RuleInfo("GEN001", "general", "file fails to parse"),
    *determinism.RULES,
    *asyncsafety.RULES,
    *typederrors.RULES,
    *idempotency.RULES,
    *race.RULES,
)
