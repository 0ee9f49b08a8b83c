"""``RollingWindows`` folds every window in one pass, bit for bit.

:meth:`RollingWindows.means` reads all window sums off one newest-first
fold.  Each must equal — with ``==``, not approximately — the mean a
plain per-window walk gives: newest sample first, ``total += v`` until
the first sample older than ``now - window``.  :class:`ReferenceWindows`
is that walk, kept here as the oracle; other suites (the refresh
differential) patch it into the monitor daemons.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.rolling import DEFAULT_WINDOWS, RollingWindows


class ReferenceWindows:
    """One newest-first walk per window (the unfolded definition)."""

    def __init__(self, windows=DEFAULT_WINDOWS) -> None:
        self.windows = tuple(sorted(float(w) for w in windows))
        self._samples: deque[tuple[float, float]] = deque()

    def add(self, time: float, value: float) -> None:
        if self._samples and time < self._samples[-1][0]:
            raise ValueError("samples must arrive in time order")
        self._samples.append((time, float(value)))
        horizon = time - self.windows[-1]
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def _walk(self, window: float, now: float | None) -> tuple[float, int]:
        if now is None:
            now = self._samples[-1][0] if self._samples else 0.0
        cutoff = now - window
        total, count = 0.0, 0
        for t, v in reversed(self._samples):
            if t < cutoff:
                break
            total += v
            count += 1
        return total, count

    def mean(self, window: float, now: float | None = None) -> float | None:
        total, count = self._walk(window, now)
        return total / count if count else None

    def means(self, now: float | None = None) -> dict[float, float | None]:
        return {w: self.mean(w, now) for w in self.windows}

    def count(self, window: float, now: float | None = None) -> int:
        return self._walk(window, now)[1]

    @property
    def latest(self) -> float | None:
        return self._samples[-1][1] if self._samples else None

    def __len__(self) -> int:
        return len(self._samples)


def same(a: float | None, b: float | None) -> bool:
    """``==`` that also holds for two NaNs and tells ``0.0`` from ``-0.0``."""
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


#: sample gaps include 0 (duplicate timestamps) and gaps longer than the
#: largest window (windows that empty out)
gaps = st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 5.0, 7.5, 60.0, 299.0, 1000.0])
values = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [0.0, -0.0, 1e-300, 1e300, 0.1, 0.7, 3.0]
)
window_sets = st.sampled_from(
    [DEFAULT_WINDOWS, (60.0, 300.0), (60.0, 900.0), (1.0,), (0.5, 2.5, 10.0)]
)


@settings(max_examples=200, deadline=None)
@given(
    windows=window_sets,
    samples=st.lists(st.tuples(gaps, values), max_size=120),
    probes=st.lists(
        st.sampled_from([None, 0.0, -1.0, 30.0, 60.0, 400.0, 2000.0]),
        min_size=1,
        max_size=4,
    ),
)
def test_means_equal_the_newest_first_walk(windows, samples, probes):
    folded, walked = RollingWindows(windows), ReferenceWindows(windows)
    t = 0.0
    for gap, value in samples:
        t += gap
        folded.add(t, value)
        walked.add(t, value)
        assert len(folded) == len(walked)
        assert same(folded.latest, walked.latest)
        for offset in probes:
            # ``None`` reads at the newest sample; offsets probe past it
            # (windows with fewer samples, or none) and before it
            now = None if offset is None else t + offset
            got, want = folded.means(now), walked.means(now)
            assert list(got) == list(want)
            for w in folded.windows:
                assert same(got[w], want[w])
                assert same(folded.mean(w, now), want[w])
                assert folded.count(w, now) == walked.count(w, now)
            # a window that is not configured folds the same way
            assert same(folded.mean(17.0, now), walked.mean(17.0, now))


def test_empty_windows_read_none_and_zero():
    rw = RollingWindows()
    assert rw.means() == {60.0: None, 300.0: None, 900.0: None}
    assert rw.mean(60.0, now=5.0) is None
    assert rw.count(60.0) == 0
    rw.add(0.0, 2.0)
    assert rw.means(now=1e6) == {60.0: None, 300.0: None, 900.0: None}
    assert rw.count(900.0, now=1e6) == 0


def test_duplicate_timestamps_sum_newest_first():
    values = [0.1, 0.2, 0.3, 1e16, -1e16, 0.7]
    rw = RollingWindows((60.0,))
    for v in values:
        rw.add(10.0, v)
    total = 0.0
    for v in reversed(values):
        total += v
    assert rw.mean(60.0) == total / len(values)
    assert rw.count(60.0) == len(values)
