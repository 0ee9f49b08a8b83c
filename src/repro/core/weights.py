"""Weight profiles for the SAW combination and the α/β trade-off.

All empirical values come from §5 of the paper:

* compute-load weights: 0.3 CPU load, 0.2 CPU utilization, 0.2 node
  bandwidth (data-flow rate), 0.1 used memory, 0.1 logical core count,
  0.05 CPU clock speed, 0.05 total physical memory;
* network-load weights: ``w_lt = 0.25``, ``w_bw = 0.75``;
* α/β: 0.3/0.7 for miniMD, 0.4/0.6 for miniFE (α weighs compute,
  β weighs network; α + β = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.attributes import ATTRIBUTE_NAMES

_TOL = 1e-9


@dataclass(frozen=True)
class ComputeWeights:
    """Relative weights ``w_a`` of Equation 1, keyed by attribute name.

    Unspecified attributes get weight 0.  Weights must be non-negative
    and are used as given (the paper's add to 1; we don't force that so
    ablations can scale them).
    """

    weights: Mapping[str, float] = field(
        default_factory=lambda: dict(PAPER_COMPUTE_WEIGHTS)
    )

    def __post_init__(self) -> None:
        for name, w in self.weights.items():
            if name not in ATTRIBUTE_NAMES:
                raise KeyError(
                    f"unknown attribute {name!r}; choose from {ATTRIBUTE_NAMES}"
                )
            if w < 0:
                raise ValueError(f"weight for {name!r} must be non-negative, got {w}")
        if all(w == 0 for w in self.weights.values()):
            raise ValueError("at least one compute weight must be positive")
        for name, w in self.weights.items():
            if not math.isfinite(w):
                raise ValueError(f"weight for {name!r} must be finite, got {w}")

    def get(self, name: str) -> float:
        return float(self.weights.get(name, 0.0))


#: §5: the paper's empirically chosen Equation-1 weights.
PAPER_COMPUTE_WEIGHTS: dict[str, float] = {
    "cpu_load": 0.30,
    "cpu_util": 0.20,
    "flow_rate": 0.20,         # "node bandwidth" usage in the paper's wording
    "available_memory": 0.10,  # "used memory" — equivalent criterion direction
    "core_count": 0.10,
    "cpu_frequency": 0.05,
    "total_memory": 0.05,
}


@dataclass(frozen=True)
class NetworkWeights:
    """``w_lt`` and ``w_bw`` of Equation 2; must sum to 1."""

    w_lt: float = 0.25
    w_bw: float = 0.75

    def __post_init__(self) -> None:
        if self.w_lt < 0 or self.w_bw < 0:
            raise ValueError(
                f"network weights must be non-negative: {self.w_lt}, {self.w_bw}"
            )
        if abs(self.w_lt + self.w_bw - 1.0) > 1e-6:
            raise ValueError(
                f"w_lt + w_bw must equal 1, got {self.w_lt + self.w_bw}"
            )
        if not (math.isfinite(self.w_lt) and math.isfinite(self.w_bw)):
            raise ValueError(
                f"network weights must be finite: {self.w_lt}, {self.w_bw}"
            )


@dataclass(frozen=True)
class TradeOff:
    """The α/β pair of Equation 4 (and Algorithm 1's addition cost).

    α weighs compute cost (high for compute-bound jobs), β weighs network
    cost (high for communication-bound jobs); α + β = 1.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(
                f"alpha/beta must be non-negative: {self.alpha}, {self.beta}"
            )
        if abs(self.alpha + self.beta - 1.0) > 1e-6:
            raise ValueError(
                f"alpha + beta must equal 1, got {self.alpha + self.beta}"
            )
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(
                f"alpha/beta must be finite: {self.alpha}, {self.beta}"
            )

    @classmethod
    def from_alpha(cls, alpha: float) -> "TradeOff":
        return cls(alpha=alpha, beta=1.0 - alpha)


#: §5 empirical trade-offs for the two evaluation applications.
MINIMD_TRADEOFF = TradeOff(alpha=0.3, beta=0.7)
MINIFE_TRADEOFF = TradeOff(alpha=0.4, beta=0.6)
