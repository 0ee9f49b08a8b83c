"""Time-windowed running means (1/5/15 minutes by default).

The paper's daemons "keep track of the running mean of the last 1, 5, and
15 minutes of historical data of dynamic attributes".  We keep the
timestamped samples, evicting those older than the largest window, and
compute window means on demand.

A :class:`RollingWindows` holds one or more signals sampled together: one
row per sample time, one column per signal (``NodeStateD``'s four
attributes, or ``LatencyD``'s node pairs).  A row may leave signals out
(a pair not probed while a node was down); each column then averages
only its own samples.  Rows age out for every column at once, so read
at or after the newest row, a column equals a window of its own.  An
absent signal is marked in a presence mask, never by a NaN value: a NaN
*sample* still poisons its window's mean.

Every window's mean is the sum of its samples taken newest first
(``total = 0.0; total += v`` for each in-window value), divided by their
count.  The windows are nested, so each one's sum is a prefix of one
newest-first fold.  The rows are stored newest first above a row of
``+0.0`` (the fold's seed), and :meth:`RollingWindows.fold` reads every
window of every column off one ``np.cumsum`` along time.  That is a
sequential accumulation, unlike ``np.sum``'s pairwise one, so each
column's sum makes the same IEEE additions in the same order as the walk;
an absent sample is stored as ``+0.0``, and adding ``+0.0`` to a sum
seeded with ``+0.0`` leaves it unchanged.  A window starts at the first
row not older than ``now - window``, found by bisection on the
timestamps.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Sequence

import numpy as np

from repro.util.units import MINUTES

#: The paper's windows, in seconds.
DEFAULT_WINDOWS: tuple[float, ...] = (1 * MINUTES, 5 * MINUTES, 15 * MINUTES)


class RollingWindows:
    """Running means of ``width`` signals over multiple trailing windows.

    :meth:`add` records one row of samples and :meth:`fold` reads every
    window's sums and counts.  ``mean``, ``means``, ``count`` and
    ``latest`` read a one-signal window (``width == 1``).
    """

    def __init__(
        self, windows: Sequence[float] = DEFAULT_WINDOWS, *, width: int = 1
    ) -> None:
        if not windows:
            raise ValueError("need at least one window")
        ws = tuple(float(w) for w in windows)
        if any(w <= 0 for w in ws):
            raise ValueError(f"windows must be positive, got {ws}")
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        self.windows = tuple(sorted(ws))
        self.width = width
        self._times: deque[float] = deque()
        # One row per sample time: ``width`` samples, then ``width``
        # presence flags (1.0 or 0.0).  Live rows are
        # ``_rows[_head:_head + len(_times)]``, newest first; every row
        # before ``_head`` is still the buffer's initial +0.0.
        self._rows = np.zeros((2, 2 * width))
        self._head = 2

    def add(
        self,
        time: float,
        value: float | Sequence[float] | np.ndarray,
        columns: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        """Record one row of samples; timestamps must be non-decreasing.

        ``value`` holds one sample per column, or a float for a
        one-signal window.  With ``columns``, ``value`` holds the samples
        of just those columns and every other column misses this row.
        """
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"samples must arrive in time order: {time} < {times[-1]}"
            )
        if self._head < 2:
            self._relocate()
        self._head -= 1
        row = self._rows[self._head]
        if columns is None:
            row[: self.width] = value
            row[self.width :] = 1.0
        else:
            columns = np.asarray(columns, dtype=np.intp)
            row[columns] = value
            row[self.width + columns] = 1.0
        times.append(time)
        horizon = time - self.windows[-1]
        while times[0] < horizon:
            times.popleft()

    def _relocate(self) -> None:
        """Move the live rows to the end of a fresh, larger buffer."""
        n = len(self._times)
        size = 2 * n + 16
        rows = np.zeros((size, 2 * self.width))
        rows[size - n :] = self._rows[self._head : self._head + n]
        self._rows = rows
        self._head = size - n

    def _depths(self, now: float | None, windows: Sequence[float]) -> list[int]:
        """Rows in each trailing window; ``now`` defaults to the newest."""
        times = self._times
        if now is None:
            now = times[-1] if times else 0.0
        return [len(times) - bisect_left(times, now - w) for w in windows]

    def fold(
        self, now: float | None = None, windows: Sequence[float] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every window's newest-first sum and sample count, per column.

        Returns two ``(len(windows), width)`` arrays, one row per window
        (default: the configured windows, shortest first); the counts
        are whole floats.  A column with no sample in a window sums to
        ``0.0`` with count 0.  ``now`` defaults to the newest sample's
        timestamp.
        """
        depth = self._depths(now, self.windows if windows is None else windows)
        # the +0.0 row before the newest one seeds the fold: entry k is
        # the sum of the k newest rows, and entry 0 the empty sum
        span = self._rows[self._head - 1 : self._head + max(depth)]
        folded = span.cumsum(axis=0)[depth]
        return folded[:, : self.width], folded[:, self.width :]

    def count(self, window: float, now: float | None = None) -> int:
        """Samples in the trailing ``window`` seconds.

        ``now`` defaults to the newest sample's timestamp.
        """
        (depth,) = self._depths(now, (window,))
        return int(self._rows[self._head : self._head + depth, self.width].sum())

    def mean(self, window: float, now: float | None = None) -> float | None:
        """Mean over the trailing ``window`` seconds; ``None`` if empty.

        ``now`` defaults to the newest sample's timestamp.
        """
        return self._means((window,), now)[0]

    def means(self, now: float | None = None) -> dict[float, float | None]:
        """Means for every configured window, shortest first."""
        return dict(zip(self.windows, self._means(self.windows, now)))

    def _means(
        self, windows: Sequence[float], now: float | None
    ) -> list[float | None]:
        sums, counts = self.fold(now, windows)
        return [
            total / n if n else None
            for total, n in zip(sums[:, 0].tolist(), counts[:, 0].tolist())
        ]

    @property
    def latest(self) -> float | None:
        """Most recent sample value (instantaneous reading)."""
        return float(self._rows[self._head, 0]) if self._times else None

    def __len__(self) -> int:
        return len(self._times)
