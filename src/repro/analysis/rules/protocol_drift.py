"""Protocol-drift rules — client verbs and server dispatch stay in sync.

The wire protocol is defined in one place (``broker/protocol.py``'s
``OPS`` tuple) but *implemented* in three: the protocol parser's
``op ==`` ladder, the daemon's ``_dispatch`` ladder (mirrored by the
chaos transport's socketless dispatcher), and the client library's
typed ``self.call("<op>", ...)`` methods.  Adding a verb to one ladder
and forgetting another compiles fine and fails at runtime with
``UNKNOWN_OP`` — precisely the drift PR 3 hit when ``reconfigure``
landed.  These rules diff the four surfaces on every lint run:

* ``PRO001`` — an op in ``OPS`` is missing from a dispatch ladder
  (parser, daemon, or chaos transport mirror).
* ``PRO002`` — an op in ``OPS`` has no client ``call()`` literal.
* ``PRO003`` — a dispatch/client literal is not in ``OPS`` or
  ``TRANSPORT_OPS`` (a verb that can never be requested, or a typo).
* ``PRO004`` — ``_RETRY_SAFE_OPS`` names an op outside ``OPS``
  (transport verbs are deliberately excluded: replaying a ``hello``
  after a transport death is the *client's* reconnect logic, not a
  generic retry).
* ``PRO005`` — a transport verb in ``TRANSPORT_OPS`` is missing from
  the parser or a transport ladder (the codec-negotiation/pipelining
  path must stay in sync everywhere requests are interpreted).

The federation grew a second dispatch surface: router verbs declared in
``FEDERATION_OPS`` are parsed by the protocol but dispatched only by
the federation daemon (a single-broker daemon deliberately has no dead
``shards`` branch).  Three more rules keep that split honest:

* ``PRO006`` — a federation verb in ``FEDERATION_OPS`` is missing from
  the parser or the federation daemon's dispatch ladder.
* ``PRO007`` — a federation verb has no client ``call()`` literal.
* ``PRO008`` — a federation module constructs ``AllocateParams``
  without a ``token`` keyword: router forwarding and cross-shard
  splitting must preserve (or derive from) the client's idempotency
  token, or a retried request can double-book nodes.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, RuleInfo
from repro.analysis.source import Project, SourceFile

RULES = (
    RuleInfo("PRO001", "protocol-drift", "declared op missing from a dispatch ladder"),
    RuleInfo("PRO002", "protocol-drift", "declared op missing from the client library"),
    RuleInfo("PRO003", "protocol-drift", "dispatched/called op not declared in OPS"),
    RuleInfo("PRO004", "protocol-drift", "_RETRY_SAFE_OPS entry not declared in OPS"),
    RuleInfo("PRO005", "protocol-drift", "transport op missing from a transport ladder"),
    RuleInfo("PRO006", "protocol-drift", "federation op missing from a federation ladder"),
    RuleInfo("PRO007", "protocol-drift", "federation op missing from the client library"),
    RuleInfo("PRO008", "protocol-drift", "federation AllocateParams dropping the idempotency token"),
)

PROTOCOL_MODULE = "repro.broker.protocol"
CLIENT_MODULE = "repro.broker.client"

#: modules holding an ``op ==`` dispatch ladder that must cover OPS
DISPATCH_MODULES = ("repro.broker.server", "repro.chaos.transport")

#: modules whose ladders must additionally cover FEDERATION_OPS (the
#: single-broker daemon deliberately does not — its base ladder answers
#: UNKNOWN_OP for router verbs, which is correct, not drift)
FED_DISPATCH_MODULES = ("repro.federation.daemon",)

#: package whose AllocateParams constructions PRO008 polices
FEDERATION_PACKAGE = "repro.federation"


def check_project(project: Project) -> list[Finding]:
    protocol = project.find_module(PROTOCOL_MODULE)
    if protocol is None or protocol.tree is None:
        return []
    ops = _ops_tuple(protocol, "OPS")
    if ops is None:
        return []
    declared, ops_line = ops
    transport = _ops_tuple(protocol, "TRANSPORT_OPS")
    transport_ops = transport[0] if transport is not None else set()
    federation = _ops_tuple(protocol, "FEDERATION_OPS")
    federation_ops = federation[0] if federation is not None else set()
    known = declared | transport_ops | federation_ops

    findings: list[Finding] = []
    parser_seen = _op_comparisons(protocol)

    # 1. every dispatch ladder (parser included) covers every op
    ladders: list[tuple[SourceFile, dict[str, int]]] = [
        (protocol, parser_seen)
    ]
    for module in DISPATCH_MODULES:
        file = project.find_module(module)
        if file is not None and file.tree is not None:
            ladders.append((file, _op_comparisons(file)))
    for file, seen in ladders:
        for op in sorted(declared):
            if op not in seen:
                findings.append(
                    Finding(
                        path=file.rel,
                        line=1,
                        col=0,
                        rule="PRO001",
                        severity="error",
                        message=f"op {op!r} is declared in OPS but this "
                        "module's dispatch ladder never matches it",
                        hint="add the `op == ...` branch (and its handler) "
                        "or drop the op from OPS",
                        context="<dispatch>",
                    )
                )
        # transport verbs must be understood wherever requests are
        # interpreted: the parser and every transport ladder
        for op in sorted(transport_ops):
            if op not in seen:
                findings.append(
                    Finding(
                        path=file.rel,
                        line=1,
                        col=0,
                        rule="PRO005",
                        severity="error",
                        message=f"transport op {op!r} is declared in "
                        "TRANSPORT_OPS but this module never matches it",
                        hint="handle the transport verb (codec negotiation/"
                        "pipelining) or drop it from TRANSPORT_OPS",
                        context="<dispatch>",
                    )
                )
        for op, lineno in sorted(seen.items()):
            if op not in known:
                findings.append(
                    Finding(
                        path=file.rel,
                        line=lineno,
                        col=0,
                        rule="PRO003",
                        severity="error",
                        message=f"dispatch matches op {op!r}, which is not "
                        "declared in protocol OPS or TRANSPORT_OPS",
                        hint="declare it in OPS (and the parser) or remove "
                        "the dead branch",
                        context="<dispatch>",
                    )
                )

    # 1b. federation verbs: the parser and every federation dispatch
    # ladder must match them (the base daemon deliberately does not)
    fed_ladders: list[tuple[SourceFile, dict[str, int]]] = [
        (protocol, parser_seen)
    ]
    for module in FED_DISPATCH_MODULES:
        file = project.find_module(module)
        if file is not None and file.tree is not None:
            seen = _op_comparisons(file)
            fed_ladders.append((file, seen))
            for op, lineno in sorted(seen.items()):
                if op not in known:
                    findings.append(
                        Finding(
                            path=file.rel,
                            line=lineno,
                            col=0,
                            rule="PRO003",
                            severity="error",
                            message=f"dispatch matches op {op!r}, which is "
                            "not declared in protocol OPS, TRANSPORT_OPS, "
                            "or FEDERATION_OPS",
                            hint="declare it in FEDERATION_OPS (and the "
                            "parser) or remove the dead branch",
                            context="<dispatch>",
                        )
                    )
    for file, seen in fed_ladders:
        for op in sorted(federation_ops):
            if op not in seen:
                findings.append(
                    Finding(
                        path=file.rel,
                        line=1,
                        col=0,
                        rule="PRO006",
                        severity="error",
                        message=f"federation op {op!r} is declared in "
                        "FEDERATION_OPS but this module's dispatch ladder "
                        "never matches it",
                        hint="add the `op == ...` branch (parser and "
                        "federation daemon) or drop the op from "
                        "FEDERATION_OPS",
                        context="<dispatch>",
                    )
                )

    # 1c. federation code must thread the idempotency token through
    # every AllocateParams it constructs (forwarding reuses the params
    # object; *constructed* sub-requests must derive a token explicitly)
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

    # 2. the client's typed methods cover every op, and only real ops
    client = project.find_module(CLIENT_MODULE)
    if client is not None and client.tree is not None:
        called = _client_call_ops(client)
        for op in sorted(declared):
            if op not in called:
                findings.append(
                    Finding(
                        path=client.rel,
                        line=1,
                        col=0,
                        rule="PRO002",
                        severity="error",
                        message=f"op {op!r} is declared in OPS but the "
                        "client library never calls it",
                        hint="add a typed client method wrapping "
                        f"call({op!r}, ...)",
                        context="BrokerClient",
                    )
                )
        for op, lineno in sorted(called.items()):
            if op not in known:
                findings.append(
                    Finding(
                        path=client.rel,
                        line=lineno,
                        col=0,
                        rule="PRO003",
                        severity="error",
                        message=f"client calls op {op!r}, which is not "
                        "declared in protocol OPS or TRANSPORT_OPS",
                        hint="declare the op in broker/protocol.py or fix "
                        "the verb string",
                        context="BrokerClient",
                    )
                )
        for op in sorted(federation_ops):
            if op not in called:
                findings.append(
                    Finding(
                        path=client.rel,
                        line=1,
                        col=0,
                        rule="PRO007",
                        severity="error",
                        message=f"federation op {op!r} is declared in "
                        "FEDERATION_OPS but the client library never calls it",
                        hint="add a typed client method wrapping "
                        f"call({op!r}, ...)",
                        context="BrokerClient",
                    )
                )
        retry_safe = _retry_safe_ops(client)
        if retry_safe is not None:
            safe_ops, line = retry_safe
            for op in sorted(safe_ops):
                if op not in declared | federation_ops:
                    findings.append(
                        Finding(
                            path=client.rel,
                            line=line,
                            col=0,
                            rule="PRO004",
                            severity="error",
                            message=f"_RETRY_SAFE_OPS lists {op!r}, which "
                            "is not declared in protocol OPS or "
                            "FEDERATION_OPS",
                            hint="retry safety only applies to real verbs; "
                            "fix the entry",
                            context="_RETRY_SAFE_OPS",
                        )
                    )
    return findings


def _ops_tuple(
    protocol: SourceFile, name: str
) -> tuple[set[str], int] | None:
    """An ``<name> = (...)`` ops declaration: ``(ops, lineno)``.

    String literals anywhere in the right-hand side count, so
    ``TRANSPORT_OPS``-style conditional concatenations (e.g. appending
    ``"msgpack"`` only when the library imports) are still seen.
    """
    assert protocol.tree is not None
    for node in protocol.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            continue
        ops = {
            c.value
            for c in ast.walk(node.value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
        }
        return ops, node.lineno
    return None


def _op_comparisons(file: SourceFile) -> dict[str, int]:
    """String literals compared (or matched) against an ``op`` expression.

    Covers ``request.op == "allocate"``, ``op == "renew"``,
    ``assert request.op == "status"`` and ``match op: case "..."``.
    """
    assert file.tree is not None
    seen: dict[str, int] = {}

    def is_op_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id == "op"
        return isinstance(expr, ast.Attribute) and expr.attr == "op"

    for node in ast.walk(file.tree):
        if isinstance(node, ast.Compare) and is_op_expr(node.left):
            for comparator in node.comparators:
                if isinstance(comparator, ast.Constant) and isinstance(
                    comparator.value, str
                ):
                    seen.setdefault(comparator.value, node.lineno)
        elif isinstance(node, ast.Match) and is_op_expr(node.subject):
            for case in node.cases:
                pattern = case.pattern
                if isinstance(pattern, ast.MatchValue) and isinstance(
                    pattern.value, ast.Constant
                ):
                    if isinstance(pattern.value.value, str):
                        seen.setdefault(pattern.value.value, pattern.value.lineno)
    return seen


def _client_call_ops(client: SourceFile) -> dict[str, int]:
    """First-argument literals of ``*.call("<op>", ...)`` invocations."""
    assert client.tree is not None
    seen: dict[str, int] = {}
    for node in ast.walk(client.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "call"):
            continue
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                seen.setdefault(value, node.lineno)
    return seen


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


def _retry_safe_ops(client: SourceFile) -> tuple[set[str], int] | None:
    """The ``_RETRY_SAFE_OPS`` declaration, if present."""
    assert client.tree is not None
    for node in ast.walk(client.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "_RETRY_SAFE_OPS"
            for t in node.targets
        ):
            continue
        ops = {
            c.value
            for c in ast.walk(node.value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)
        }
        return ops, node.lineno
    return None
