"""Time-windowed running means (1/5/15 minutes by default).

The paper's daemons "keep track of the running mean of the last 1, 5, and
15 minutes of historical data of dynamic attributes".  We keep the
timestamped samples, evicting those older than the largest window, and
compute window means on demand.

Every window's mean is the sum of its samples taken newest first
(``total = 0.0; total += v`` for each in-window value), divided by their
count.  The windows are nested, so each one's sum is a prefix of one
newest-first fold: :meth:`RollingWindows.means` runs that fold once and
reads every window's total off it, with the same IEEE additions in the
same order as a walk per window.  A window starts at the first sample
not older than ``now - window``, found by bisection on the timestamps.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import accumulate, islice
from typing import Sequence

from repro.util.units import MINUTES

#: The paper's windows, in seconds.
DEFAULT_WINDOWS: tuple[float, ...] = (1 * MINUTES, 5 * MINUTES, 15 * MINUTES)


class RollingWindows:
    """Running means of a scalar signal over multiple trailing windows."""

    def __init__(self, windows: Sequence[float] = DEFAULT_WINDOWS) -> None:
        if not windows:
            raise ValueError("need at least one window")
        ws = tuple(float(w) for w in windows)
        if any(w <= 0 for w in ws):
            raise ValueError(f"windows must be positive, got {ws}")
        self.windows = tuple(sorted(ws))
        self._times: deque[float] = deque()
        self._values: deque[float] = deque()

    def add(self, time: float, value: float) -> None:
        """Record a sample; timestamps must be non-decreasing."""
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"samples must arrive in time order: {time} < {times[-1]}"
            )
        times.append(time)
        self._values.append(float(value))
        horizon = time - self.windows[-1]
        while times and times[0] < horizon:
            times.popleft()
            self._values.popleft()

    def count(self, window: float, now: float | None = None) -> int:
        """Samples in the trailing ``window`` seconds.

        ``now`` defaults to the newest sample's timestamp.
        """
        times = self._times
        if not times:
            return 0
        if now is None:
            now = times[-1]
        return len(times) - bisect_left(times, now - window)

    def _means(
        self, windows: Sequence[float], now: float | None
    ) -> list[float | None]:
        """One newest-first fold, read at the end of every window."""
        counts = [self.count(w, now) for w in windows]
        totals = list(
            accumulate(islice(reversed(self._values), max(counts)), initial=0.0)
        )
        return [totals[c] / c if c else None for c in counts]

    def mean(self, window: float, now: float | None = None) -> float | None:
        """Mean over the trailing ``window`` seconds; ``None`` if empty.

        ``now`` defaults to the newest sample's timestamp.
        """
        return self._means((window,), now)[0]

    def means(self, now: float | None = None) -> dict[float, float | None]:
        """Means for every configured window, shortest first."""
        return dict(zip(self.windows, self._means(self.windows, now)))

    @property
    def latest(self) -> float | None:
        """Most recent sample value (instantaneous reading)."""
        return self._values[-1] if self._values else None

    def __len__(self) -> int:
        return len(self._times)
