"""Drift detection on rolling means — has a signal *moved*, not just spiked?

The elastic reallocation engine must distinguish sustained load drift
(worth paying a migration for) from the transient spikes Figure 1 shows
every shared cluster produces.  Raw instantaneous samples cannot make
that call; the paper's own monitoring design already keeps 1/5/15-minute
running means, and those are exactly the right lens:

* the **short window** (1 min) tracks where the signal is *now*;
* the **long window** (15 min) remembers where it *used to be*;
* sustained drift pushes the short mean away from the long mean and
  keeps it there, while a spike moves the short mean briefly and decays.

:class:`DriftTracker` wraps one :class:`~repro.monitor.rolling.RollingWindows`
per tracked signal and reports a :class:`DriftReading` comparing the two
window means.  It is deliberately free of any elastic-specific policy —
thresholds live with the consumer (:mod:`repro.elastic.drift`) — so other
subsystems (autoscaling, alerting) can reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.monitor.rolling import RollingWindows
from repro.util.units import MINUTES


@dataclass(frozen=True)
class DriftReading:
    """Short-vs-long rolling-mean comparison for one signal."""

    #: trailing short-window mean (the signal's current neighborhood)
    short_mean: float
    #: trailing long-window mean (the signal's recent history)
    long_mean: float
    #: ``short_mean - long_mean`` (positive = rising)
    delta: float
    #: ``delta / max(long_mean, floor)`` — scale-free drift magnitude
    relative: float
    #: number of samples contributing to the short window
    samples: int

    def exceeds(self, rel_threshold: float) -> bool:
        """Whether |relative drift| crossed ``rel_threshold``."""
        return abs(self.relative) > rel_threshold


class DriftTracker:
    """Per-key drift readings from two rolling-mean windows.

    ``short_s``/``long_s`` default to the paper's 1- and 15-minute
    monitoring windows.  ``floor`` guards the relative computation when
    the long mean is ~0 (an idle node going busy is maximal drift, not a
    division blow-up).  ``min_samples`` suppresses readings until the
    short window has enough history to mean anything.
    """

    def __init__(
        self,
        *,
        short_s: float = 1 * MINUTES,
        long_s: float = 15 * MINUTES,
        floor: float = 0.05,
        min_samples: int = 2,
    ) -> None:
        if short_s <= 0 or long_s <= short_s:
            raise ValueError(
                f"need 0 < short_s < long_s, got {short_s}/{long_s}"
            )
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        self.short_s = float(short_s)
        self.long_s = float(long_s)
        self.floor = float(floor)
        self.min_samples = int(min_samples)
        self._windows: dict[str, RollingWindows] = {}

    def observe(self, key: str, time: float, value: float) -> None:
        """Record one sample of signal ``key`` at ``time``."""
        win = self._windows.get(key)
        if win is None:
            win = RollingWindows((self.short_s, self.long_s))
            self._windows[key] = win
        win.add(time, value)

    def reading(self, key: str, now: float | None = None) -> DriftReading | None:
        """The current drift reading for ``key``; ``None`` when unknown.

        Returns ``None`` for untracked keys and while fewer than
        ``min_samples`` samples landed in the short window — a tracker
        that just started must not report (spurious) maximal drift.
        """
        win = self._windows.get(key)
        if win is None:
            return None
        short, long = win.means(now).values()
        if short is None or long is None:
            return None
        n_short = win.count(self.short_s, now)
        if n_short < self.min_samples:
            return None
        delta = short - long
        return DriftReading(
            short_mean=short,
            long_mean=long,
            delta=delta,
            relative=delta / max(long, self.floor),
            samples=n_short,
        )

    def forget(self, key: str) -> None:
        """Drop all history for ``key`` (e.g. after a migration away)."""
        self._windows.pop(key, None)

    def keys(self) -> list[str]:
        """All signals with any recorded history."""
        return list(self._windows)
