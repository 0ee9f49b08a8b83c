"""Per-node quarantine for flapping hosts.

A node that keeps dropping out of the livehosts list is worse than a
node that is cleanly down: allocations placed on it while it happens to
be up die when it flaps again, and every flap churns the monitor data
everyone else plans against.  :class:`NodeQuarantine` watches membership
transitions and, once a node has flapped more than ``flap_threshold``
times inside ``window_s``, excludes it from placement for ``cooldown_s``
— fed to policies through the same ``exclude=`` masks that already carry
leased nodes, so no allocator code changes are needed.

The clock is injected so tests (and the chaos harness) drive time
deterministically.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from repro.util.validation import require_non_negative, require_positive


class NodeQuarantine:
    """Flap detector + cooldown-based exclusion set."""

    def __init__(
        self,
        *,
        clock: Callable[[], float],
        flap_threshold: int = 3,
        window_s: float = 300.0,
        cooldown_s: float = 600.0,
    ) -> None:
        if flap_threshold < 1:
            raise ValueError(
                f"flap_threshold must be >= 1, got {flap_threshold}"
            )
        require_positive(window_s, "window_s")
        require_non_negative(cooldown_s, "cooldown_s")
        self._clock = clock
        self.flap_threshold = flap_threshold
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self._flaps: dict[str, deque[float]] = {}
        self._quarantined_until: dict[str, float] = {}
        self._previous: frozenset[str] | None = None
        #: observability counters
        self.flaps_recorded = 0
        self.quarantines = 0

    # -- recording ------------------------------------------------------
    def observe(self, present: Iterable[str]) -> None:
        """Feed one membership observation (e.g. a snapshot's livehosts).

        A node that was present last time and is absent now flapped.
        The first observation only records the baseline.
        """
        current = frozenset(present)
        if self._previous is not None:
            for node in self._previous - current:
                self.record_flap(node)
        self._previous = current

    def record_flap(self, node: str) -> None:
        """Count one flap; quarantine the node when the threshold trips."""
        now = self._clock()
        events = self._flaps.setdefault(node, deque())
        events.append(now)
        while events and events[0] < now - self.window_s:
            events.popleft()
        self.flaps_recorded += 1
        if len(events) >= self.flap_threshold:
            until = now + self.cooldown_s
            if self._quarantined_until.get(node, float("-inf")) < until:
                self._quarantined_until[node] = until
                self.quarantines += 1

    # -- queries --------------------------------------------------------
    def excluded(self) -> frozenset[str]:
        """Nodes currently quarantined (cooldowns pruned lazily)."""
        now = self._clock()
        expired = [
            n for n, until in self._quarantined_until.items() if until <= now
        ]
        for n in expired:
            del self._quarantined_until[n]
        return frozenset(self._quarantined_until)

    def stats(self) -> dict:
        """The JSON-serializable block for the broker's status RPC."""
        return {
            "quarantined": sorted(self.excluded()),
            "flaps_recorded": self.flaps_recorded,
            "quarantines": self.quarantines,
            "flap_threshold": self.flap_threshold,
            "window_s": self.window_s,
            "cooldown_s": self.cooldown_s,
        }
