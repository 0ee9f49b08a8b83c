"""Typed-error discipline — broad catches justify themselves, codes stay exhaustive.

The chaos harness's first invariant is *typed errors only*: a daemon
may degrade, it may deny, but a raw ``Exception`` escaping (or being
silently swallowed) is always a bug.  Statically that splits into two
checks:

* ``ERR001``/``ERR002`` — bare ``except:`` and broad
  ``except Exception``/``except BaseException`` clauses are allowed only
  with a justification pragma (``# noqa: BLE001 — <why>`` or
  ``# lint: allow(ERR002) — <why>``).  The rationale is mandatory:
  every must-not-die catch in the tree documents why dying is worse
  than catching.
* ``ERR003`` — the :class:`~repro.broker.protocol.ErrorCode` enum
  stays exhaustive across the whole package: every declared code must
  be **produced** somewhere on the server side (service, daemon, lease
  table, executor, chaos transport).  A code that can be sent but never
  produced is dead protocol surface.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, RuleInfo
from repro.analysis.pragmas import has_unjustified_pragma, justification
from repro.analysis.source import Project, QualnameVisitor, SourceFile

RULES = (
    RuleInfo("ERR001", "typed-errors", "bare except without justification"),
    RuleInfo("ERR002", "typed-errors", "broad except Exception/BaseException without justification"),
    RuleInfo("ERR003", "typed-errors", "ErrorCode never produced server-side"),
)

#: module that declares the ErrorCode enum
PROTOCOL_MODULE = "repro.broker.protocol"

#: modules that may legitimately produce wire error codes
SERVER_MODULES = (
    "repro.broker.protocol",
    "repro.broker.server",
    "repro.broker.service",
    "repro.scheduler.leases",
    "repro.elastic.executor",
    "repro.chaos.transport",
    "repro.federation.router",
)


# ----------------------------------------------------------------------
# per-file: broad catches need a justification pragma

def check(file: SourceFile) -> list[Finding]:
    if file.tree is None:
        return []
    quals = QualnameVisitor(file.tree)
    findings: list[Finding] = []
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            rule, caught = "ERR001", "everything (bare except)"
        else:
            broad = _broad_names(node.type)
            if not broad:
                continue
            rule, caught = "ERR002", "/".join(sorted(broad))
        if justification(file, node.lineno, rule) is not None:
            continue
        if has_unjustified_pragma(file, node.lineno):
            hint = (
                "the pragma is missing its rationale — append "
                "'— <one line on why dying here is worse>'"
            )
        else:
            hint = (
                "narrow the except clause, or justify it: "
                "'# noqa: BLE001 — <why this must not propagate>'"
            )
        findings.append(
            Finding(
                path=file.rel,
                line=node.lineno,
                col=node.col_offset,
                rule=rule,
                severity="error",
                message=f"broad except catching {caught} without a "
                "justification pragma",
                hint=hint,
                context=quals.qualname(node.lineno),
            )
        )
    return findings


def _broad_names(expr: ast.expr) -> set[str]:
    """Names among ``Exception``/``BaseException`` caught by this clause."""
    targets = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    broad: set[str] = set()
    for t in targets:
        if isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"):
            broad.add(t.id)
    return broad


# ----------------------------------------------------------------------
# project-wide: ErrorCode exhaustiveness cross-check

def check_project(project: Project) -> list[Finding]:
    protocol = project.find_module(PROTOCOL_MODULE)
    if protocol is None or protocol.tree is None:
        return []  # fixture corpora without a broker are fine
    members = _error_code_members(protocol)
    if not members:
        return []

    produced = _produced_codes(project, exclude_enum_in=protocol)

    findings: list[Finding] = []
    for name, lineno in sorted(members.items()):
        if name not in produced:
            findings.append(
                Finding(
                    path=protocol.rel,
                    line=lineno,
                    col=0,
                    rule="ERR003",
                    severity="error",
                    message=f"ErrorCode.{name} is declared but never "
                    "produced by any server-side module",
                    hint="raise it (service/server/leases/executor) or "
                    "retire the code from the enum",
                    context=f"ErrorCode.{name}",
                )
            )
    return findings


def _error_code_members(protocol: SourceFile) -> dict[str, int]:
    """``{member_name: lineno}`` of the ErrorCode enum (empty if absent)."""
    assert protocol.tree is not None
    for node in protocol.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ErrorCode":
            members: dict[str, int] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            members[target.id] = stmt.lineno
            return members
    return {}


def _enum_span(protocol: SourceFile) -> tuple[int, int]:
    assert protocol.tree is not None
    for node in protocol.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ErrorCode":
            return node.lineno, node.end_lineno or node.lineno
    return (0, -1)


def _produced_codes(
    project: Project, *, exclude_enum_in: SourceFile
) -> set[str]:
    """Codes evidenced as produced in any server-side module.

    Evidence is an ``ErrorCode.NAME`` attribute access or a bare string
    literal equal to the member name (the lease table and executor raise
    their own typed errors carrying the code as a string).  The enum
    declaration body itself is excluded — ``BUSY = "BUSY"`` is not
    production.
    """
    enum_start, enum_end = _enum_span(exclude_enum_in)
    produced: set[str] = set()
    for file in project.files:
        if file.tree is None or not file.in_package(*SERVER_MODULES):
            continue
        for node in ast.walk(file.tree):
            in_enum = (
                file is exclude_enum_in
                and enum_start <= getattr(node, "lineno", 0) <= enum_end
            )
            if in_enum:
                continue
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "ErrorCode"
            ):
                produced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isupper():
                    produced.add(node.value)
    return produced
