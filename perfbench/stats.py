"""Order statistics for latency samples."""

from __future__ import annotations

import math
from typing import Sequence

#: a reported tail percentile keeps at least this many samples beyond it
MIN_BEYOND = 10


def tail(samples: Sequence[float], target: float = 99.0) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile up to ``target``
    that has at least :data:`MIN_BEYOND` samples beyond it (nearest rank).

    With too few samples for any such percentile, the median.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = min(math.ceil(target / 100.0 * n - 1e-9), n - MIN_BEYOND)
    if k < 1:
        k = math.ceil(n / 2)
    return 100.0 * k / n, xs[k - 1]
