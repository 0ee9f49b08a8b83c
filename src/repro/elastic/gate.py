"""The cost/benefit gate — a plan runs only when it pays for itself.

A planner that re-runs Algorithm 1/2 on every drift tick will happily
emit a stream of tiny improvements; acting on all of them turns the
cluster into a thrashing mess where jobs spend their lives in
checkpoint/restart.  The gate is the damper:

* the **benefit** of a plan is the wall time it saves — by default the
  Equation-4 relative gain applied to the job's remaining runtime (the
  DES integration passes an exactly-priced override instead);
* the **cost** is the migration bill from :mod:`repro.elastic.cost`;
* a plan is accepted only when benefit exceeds cost *with margin*
  (``benefit_margin``), the predicted gain clears a noise floor
  (``min_gain``), enough runtime remains to amortize anything at all
  (``min_remaining_s``), and the job is out of its post-reconfiguration
  cooldown (hysteresis against flapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from repro.util.validation import require_non_negative, require_positive

if TYPE_CHECKING:
    from repro.elastic.plan import ReconfigPlan


class MigrationCoster(Protocol):
    """Anything that can price a plan (see :mod:`repro.elastic.cost`)."""

    def migration_cost_s(self, plan: "ReconfigPlan") -> float: ...


@dataclass(frozen=True)
class GateConfig:
    """Acceptance thresholds for reconfiguration plans."""

    #: minimum Equation-4 relative gain worth considering (noise floor)
    min_gain: float = 0.05
    #: benefit must exceed cost by this factor (1.5 = save 50% more
    #: wall time than the migration costs)
    benefit_margin: float = 1.5
    #: jobs with less remaining runtime than this never reconfigure
    min_remaining_s: float = 60.0
    #: seconds after an accepted plan before the same job may move again
    cooldown_s: float = 300.0

    def __post_init__(self) -> None:
        require_non_negative(self.min_gain, "min_gain")
        require_positive(self.benefit_margin, "benefit_margin")
        require_non_negative(self.min_remaining_s, "min_remaining_s")
        require_non_negative(self.cooldown_s, "cooldown_s")


@dataclass(frozen=True)
class GateDecision:
    """The gate's verdict on one plan, with its arithmetic shown."""

    accepted: bool
    #: machine-readable reason: accepted / gain_below_floor /
    #: job_nearly_done / in_cooldown / cost_exceeds_benefit
    reason: str
    #: predicted wall seconds saved over the job's remaining runtime
    benefit_s: float
    #: predicted wall seconds the migration itself costs
    cost_s: float

    def __bool__(self) -> bool:
        return self.accepted


class PlanGate:
    """Accepts or rejects :class:`ReconfigPlan` proposals.

    The gate remembers when it last accepted a plan for each lease and
    enforces ``cooldown_s`` between acceptances — the hysteresis that
    stops a job oscillating between two near-equal placements.  Time is
    whatever the caller passes as ``now`` (simulation or wall clock).
    """

    def __init__(
        self,
        cost_model: MigrationCoster,
        config: GateConfig | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.config = config or GateConfig()
        self._last_accept: dict[str, float] = {}
        #: decision counters by reason (observability)
        self.counts: dict[str, int] = {}

    def evaluate(
        self,
        plan: "ReconfigPlan",
        *,
        remaining_s: float,
        now: float = 0.0,
        benefit_s: float | None = None,
    ) -> GateDecision:
        """Judge one plan against a job with ``remaining_s`` left to run.

        ``benefit_s`` overrides the default score-proxy benefit
        (``predicted_gain × remaining_s``) — the DES scheduler passes the
        exactly re-priced runtime difference instead.
        """
        cfg = self.config
        cost_s = float(self.cost_model.migration_cost_s(plan))
        if benefit_s is None:
            benefit_s = plan.predicted_gain * max(remaining_s, 0.0)
        benefit_s = float(benefit_s)

        if remaining_s < cfg.min_remaining_s:
            return self._decide("job_nearly_done", benefit_s, cost_s)
        if plan.predicted_gain < cfg.min_gain:
            return self._decide("gain_below_floor", benefit_s, cost_s)
        last = self._last_accept.get(plan.lease_id)
        if last is not None and now - last < cfg.cooldown_s:
            return self._decide("in_cooldown", benefit_s, cost_s)
        if benefit_s < cfg.benefit_margin * cost_s:
            return self._decide("cost_exceeds_benefit", benefit_s, cost_s)

        self._last_accept[plan.lease_id] = now
        return self._decide("accepted", benefit_s, cost_s)

    def forget(self, lease_id: str) -> None:
        """Drop cooldown state for a finished/released lease."""
        self._last_accept.pop(lease_id, None)

    def _decide(
        self, reason: str, benefit_s: float, cost_s: float
    ) -> GateDecision:
        self.counts[reason] = self.counts.get(reason, 0) + 1
        return GateDecision(
            accepted=reason == "accepted",
            reason=reason,
            benefit_s=benefit_s,
            cost_s=cost_s,
        )
