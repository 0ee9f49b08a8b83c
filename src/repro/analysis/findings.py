"""Finding and rule metadata types shared across the lint engine.

A :class:`Finding` is one reported violation — stable rule id, severity,
``file:line:col`` location, human message, and a fix hint.  Findings are
value objects: the engine produces them, the baseline fingerprints them,
and the CLI renders them; nothing mutates one after creation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: finding severities, in increasing order of interest
SEVERITIES = ("warning", "error")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  #: repo-relative POSIX path
    line: int
    col: int
    rule: str  #: stable id, e.g. ``DET003``
    severity: str  #: ``error`` or ``warning``
    message: str
    hint: str = ""  #: one-line fix suggestion
    context: str = "<module>"  #: enclosing ``Class.func`` qualname

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    @property
    def family(self) -> str:
        """The rule family prefix (``DET``, ``ASY``, ``ERR``, ``PRO``)."""
        return "".join(c for c in self.rule if c.isalpha())

    def render(self) -> str:
        """The canonical one-line text form."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (used by ``repro lint --json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
            "context": self.context,
        }


@dataclass(frozen=True)
class RuleInfo:
    """Registry metadata for one rule id (for ``--list-rules`` and docs)."""

    rule: str
    family: str  #: ``determinism`` / ``async-safety`` / ``typed-errors`` / ``idempotency``
    summary: str


@dataclass
class LintReport:
    """Everything one lint run produced, pre-baseline and post-baseline."""

    findings: list[Finding] = field(default_factory=list)
    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing beyond the committed baseline was found."""
        return not self.new
