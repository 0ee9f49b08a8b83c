"""Invariants every chaos scenario asserts, and the checker that collects
violations instead of dying on the first one.

The contract under fault injection is graceful degradation, which
decomposes into four checkable properties:

1. **No unhandled exceptions** — every failure surfaces as one of the
   stack's typed errors (:data:`TYPED_ERRORS`); a raw ``KeyError`` or
   ``ZeroDivisionError`` escaping to the caller is a bug, full stop.
2. **Lease safety** — no node is ever held by two active leases
   (double-grant) and the table's active count always equals
   grants − releases − expiries (no leak), even across retries,
   rollbacks and mid-migration deaths.
3. **Liveness** — the service keeps granting when degraded-but-usable
   data exists, and denies with a *typed* error (``MONITOR_STALE``,
   ``NO_CAPACITY``) when it doesn't.
4. **Bounded quality** — a placement chosen from degraded data scores
   within :data:`DEFAULT_QUALITY_BOUND` of the fault-free oracle's
   choice under Equation 4 *evaluated on ground truth*.  Degradation may
   cost quality; it may not produce arbitrarily bad placements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.broker.client import BrokerError
from repro.broker.protocol import ProtocolError
from repro.core.broker import WaitRecommended
from repro.core.policies import AllocationError, AllocationRequest
from repro.elastic.executor import ReconfigError
from repro.monitor.snapshot import ClusterSnapshot, SnapshotUnavailableError
from repro.monitor.store import StoreCorruptError
from repro.scenarios.quality import eq4_group_scores
from repro.scheduler.leases import LeaseError, LeaseTable

#: the exception types a degraded stack is ALLOWED to raise — anything
#: else escaping to the caller is an unhandled-exception violation.
TYPED_ERRORS: tuple[type[BaseException], ...] = (
    ProtocolError,
    BrokerError,
    AllocationError,
    WaitRecommended,
    LeaseError,
    ReconfigError,
    StoreCorruptError,
    SnapshotUnavailableError,
)

#: how much worse (Eq.-4 score ratio on ground truth) a degraded
#: placement may be than the oracle's before it counts as a violation
DEFAULT_QUALITY_BOUND = 3.0


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


@dataclass
class InvariantChecker:
    """Collects violations and degradation statistics across a scenario."""

    scenario: str
    violations: list[Violation] = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)
    error_codes: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violate(self, invariant: str, detail: str) -> None:
        self.violations.append(Violation(invariant, detail))

    # -- invariant 1: typed errors only ---------------------------------
    def guard(self, label: str, fn: Callable[[], Any]) -> Any | None:
        """Run ``fn``; typed errors count as degradation, raw ones as bugs.

        Returns the result, or ``None`` when a typed error occurred.
        """
        try:
            result = fn()
        except TYPED_ERRORS as exc:
            self.stats["typed_errors"] += 1
            code = getattr(exc, "code", type(exc).__name__)
            self.error_codes[str(code)] += 1
            return None
        except Exception as exc:  # noqa: BLE001 — this IS the invariant
            self.stats["unhandled"] += 1
            self.violate(
                "no_unhandled_exception",
                f"{label}: {type(exc).__name__}: {exc}",
            )
            return None
        self.stats["ok_calls"] += 1
        return result

    # -- invariant 2: lease safety --------------------------------------
    def check_no_double_grant(self, leases: LeaseTable) -> None:
        """No node may appear in more than one active lease."""
        owners: dict[str, str] = {}
        for lease in leases.active():
            for node in lease.nodes:
                if node in owners:
                    self.violate(
                        "no_double_grant",
                        f"node {node!r} held by both {owners[node]} "
                        f"and {lease.lease_id}",
                    )
                owners[node] = lease.lease_id

    def check_lease_accounting(
        self, leases: LeaseTable, expected_active: int
    ) -> None:
        """Active leases must equal grants − releases − expiries."""
        actual = len(leases.active())
        if actual != expected_active:
            self.violate(
                "no_lease_leak",
                f"expected {expected_active} active lease(s), table holds "
                f"{actual}",
            )

    # -- invariant 4: bounded quality ------------------------------------
    def check_quality(
        self,
        *,
        chosen: Iterable[str],
        oracle: Iterable[str],
        truth: ClusterSnapshot,
        request: AllocationRequest,
        bound: float = DEFAULT_QUALITY_BOUND,
        label: str = "",
    ) -> float:
        """Equation-4 score ratio of ``chosen`` vs ``oracle`` on ``truth``.

        Both groups are costed on the *ground-truth* snapshot — the
        degraded allocator picked blind, but it is judged with eyes open.
        Nodes the truth snapshot does not know (e.g. genuinely down)
        count as stale placements, not quality violations.
        """
        chosen = tuple(chosen)
        oracle = tuple(oracle)
        known = set(truth.nodes)
        if not set(chosen) <= known or not set(oracle) <= known:
            self.stats["stale_placements"] += 1
            return 1.0
        scores = eq4_group_scores(
            truth, {"chosen": chosen, "oracle": oracle}, request
        )
        t_chosen, t_oracle = scores["chosen"], scores["oracle"]
        if t_oracle <= 1e-12:
            ratio = 1.0 if t_chosen <= 1e-12 else float("inf")
        else:
            ratio = t_chosen / t_oracle
        self.stats["quality_checks"] += 1
        if ratio > bound:
            self.violate(
                "bounded_quality",
                f"{label or 'placement'}: degraded choice scores "
                f"{ratio:.2f}× the oracle's (bound {bound:g}); "
                f"chosen={sorted(chosen)} oracle={sorted(oracle)}",
            )
        return ratio

    # -- reporting -------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "violations": [str(v) for v in self.violations],
            "stats": dict(self.stats),
            "error_codes": dict(self.error_codes),
        }
