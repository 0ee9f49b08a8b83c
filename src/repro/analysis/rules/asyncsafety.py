"""Async-safety rules — nothing may block the broker's event loop.

The broker daemon is a single asyncio loop: one blocking call inside an
``async def`` stalls every connection, the batch callback, and the lease
sweeper at once.  The failure is invisible in unit tests (they await one
coroutine at a time) and catastrophic under load, which is exactly the
profile a static check covers best.

* ``ASY001`` — a known blocking call (``time.sleep``, synchronous
  socket construction, ``subprocess.*``, ``os.system``, blocking urllib)
  inside an ``async def`` body.
* ``ASY002`` — a synchronous ``SharedStore``/``FileStore`` access
  (``.value()``/``.put()``/``.get()``/``.keys()`` on a receiver whose
  name ends in ``store``) inside an ``async def`` body.  FileStore hits
  the disk per call; monitor reads belong off-loop (warning severity —
  the receiver heuristic can misfire on unrelated objects).

Nested synchronous ``def``/``lambda`` bodies are *not* scanned: they run
only when called, and calling them from the loop is a dynamic property
the chaos harness covers.  Nested ``async def`` bodies are scanned in
their own right.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, RuleInfo
from repro.analysis.names import dotted_name, import_aliases, resolve_call
from repro.analysis.pragmas import justification
from repro.analysis.source import QualnameVisitor, SourceFile

RULES = (
    RuleInfo("ASY001", "async-safety", "blocking call inside async def"),
    RuleInfo("ASY002", "async-safety", "synchronous store access inside async def"),
)

#: canonical names that block the calling thread
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.socket",
        "socket.getaddrinfo",
        "socket.gethostbyname",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "os.waitpid",
        "urllib.request.urlopen",
    }
)

#: SharedStore API methods that hit the store synchronously
_STORE_METHODS = frozenset({"value", "put", "get", "keys", "delete", "age"})


def check(file: SourceFile) -> list[Finding]:
    if file.tree is None:
        return []
    aliases = import_aliases(file.tree)
    quals = QualnameVisitor(file.tree)
    findings: list[Finding] = []

    def emit(
        node: ast.Call, rule: str, severity: str, message: str, hint: str
    ) -> None:
        if justification(file, node.lineno, rule) is not None:
            return
        findings.append(
            Finding(
                path=file.rel,
                line=node.lineno,
                col=node.col_offset,
                rule=rule,
                severity=severity,
                message=message,
                hint=hint,
                context=quals.qualname(node.lineno),
            )
        )

    def scan_async_body(fn: ast.AsyncFunctionDef) -> None:
        for stmt in fn.body:
            for node in _walk_same_context(stmt):
                if isinstance(node, ast.AsyncFunctionDef):
                    continue  # the outer ast.walk scans it separately
                if not isinstance(node, ast.Call):
                    continue
                target = resolve_call(node.func, aliases)
                if target in _BLOCKING_CALLS:
                    emit(
                        node,
                        "ASY001",
                        "error",
                        f"blocking {target}() inside async def {fn.name!r} "
                        "stalls the whole event loop",
                        "await the asyncio equivalent (asyncio.sleep, "
                        "open_connection, create_subprocess_exec) or run "
                        "it in a thread via asyncio.to_thread",
                    )
                    continue
                receiver_method = _store_access(node)
                if receiver_method is not None:
                    receiver, method = receiver_method
                    emit(
                        node,
                        "ASY002",
                        "warning",
                        f"synchronous store access {receiver}.{method}() "
                        f"inside async def {fn.name!r} (FileStore hits "
                        "disk per call)",
                        "snapshot the store off-loop or wrap the read in "
                        "asyncio.to_thread",
                    )

    for node in ast.walk(file.tree):
        if isinstance(node, ast.AsyncFunctionDef):
            scan_async_body(node)
    return findings


def _walk_same_context(stmt: ast.AST):
    """Walk ``stmt`` without descending into nested sync functions.

    Yields every node reachable from ``stmt`` except the bodies of
    nested ``def``/``lambda`` (their execution context is unknown).
    Nested ``async def`` nodes are yielded (not descended) so the caller
    can scan them as their own async context.
    """
    yield stmt
    if isinstance(stmt, (ast.FunctionDef, ast.Lambda, ast.AsyncFunctionDef)):
        return
    for child in ast.iter_child_nodes(stmt):
        yield from _walk_same_context(child)


def _store_access(call: ast.Call) -> tuple[str, str] | None:
    """``(receiver, method)`` when the call looks like a store access."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _STORE_METHODS:
        return None
    receiver = dotted_name(func.value)
    if receiver is None:
        return None
    tail = receiver.split(".")[-1].lower()
    if tail.endswith("store"):
        return receiver, func.attr
    return None
