"""Idempotency rule — federation code keeps the client's dedupe token.

``PRO008`` fires when a federation module constructs ``AllocateParams``
without a ``token`` keyword.  Router forwarding and cross-shard
splitting must preserve (or derive from) the client's idempotency
token, or a retried request can double-book nodes.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, RuleInfo
from repro.analysis.source import Project, SourceFile

RULES = (
    RuleInfo("PRO008", "idempotency", "federation AllocateParams dropping the idempotency token"),
)

#: package whose AllocateParams constructions PRO008 polices
FEDERATION_PACKAGE = "repro.federation"


def check_project(project: Project) -> list[Finding]:
    # Forwarding reuses the params object; *constructed* sub-requests
    # must derive a token explicitly.
    findings: list[Finding] = []
    for file in project.files:
        if file.tree is None or not file.in_package(FEDERATION_PACKAGE):
            continue
        for lineno in _tokenless_allocate_params(file):
            findings.append(
                Finding(
                    path=file.rel,
                    line=lineno,
                    col=0,
                    rule="PRO008",
                    severity="error",
                    message="AllocateParams constructed without a `token` "
                    "keyword in federation code",
                    hint="pass token=... (derive a per-shard token from the "
                    "client's, or forward None explicitly) so retries stay "
                    "idempotent across the router",
                    context="<federation>",
                )
            )
    return findings


def _tokenless_allocate_params(file: SourceFile) -> list[int]:
    """Lines constructing ``AllocateParams(...)`` with no ``token=``.

    A ``**kwargs`` splat is trusted (the token may ride inside it).
    """
    assert file.tree is not None
    lines: list[int] = []
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "AllocateParams":
            continue
        has_token = any(
            kw.arg == "token" or kw.arg is None  # None = **splat
            for kw in node.keywords
        )
        if not has_token:
            lines.append(node.lineno)
    return lines
