"""Atomic-section assertions — runtime teeth for static atomicity claims.

The RACE lint pass (``repro/analysis/race/``) only analyses ``async
def`` bodies; the broker's hottest invariant lives one layer down:
:class:`~repro.broker.service.BrokerService` and the federation router
are *synchronous* objects whose multi-step updates (decision-memo
check-then-insert, cross-shard reserve bookkeeping) are atomic **only
because they never yield and only one thread drives them**.  These
helpers turn that unstated assumption into an assertion that the
interleaving fuzzer (:mod:`repro.chaos.interleave`) can actually trip:

* :func:`atomic_between_awaits` — decorator.  On a sync function it
  asserts no other thread/task is inside the section concurrently; on
  an async function it asserts the body completes without yielding
  even once (it is driven with ``coro.send(None)`` and must finish in
  one shot).
* :func:`no_interleaving` — ``async with no_interleaving(obj, "label")``
  asserts that while one task is inside the section, no other task
  enters a section with the same monitor — precisely the claim "no
  interleaving can occur here" that the static pass certifies.

Violations raise :class:`AtomicViolation` (an ``AssertionError``
subclass: these are bugs, never operational conditions, so they must
not be swallowed by typed-error handling).

This module lives in ``repro.util`` — not ``repro.chaos`` — because the
production modules it decorates are imported *by* the chaos package;
``repro.chaos.interleave`` re-exports it for scenario authors.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable[..., Any])


class AtomicViolation(AssertionError):
    """A section declared atomic was interleaved or yielded control."""


def _entrant() -> tuple[int, int]:
    """Identity of the caller: ``(thread ident, task id)``."""
    try:
        task = asyncio.current_task()
    except RuntimeError:  # no running loop in this thread
        task = None
    return threading.get_ident(), id(task) if task is not None else 0


def atomic_between_awaits(func: F) -> F:
    """Assert ``func`` runs atomically with respect to the event loop.

    Sync ``func``: no other thread or task may be inside it while a call
    is in progress (re-entry by the *same* entrant — recursion — is
    allowed).  Async ``func``: the coroutine must complete without ever
    yielding; an ``await`` that actually suspends inside the section is
    the violation the name promises to catch.
    """
    if asyncio.iscoroutinefunction(func):
        return _wrap_async(func)
    return _wrap_sync(func)


def _wrap_sync(func: F) -> F:
    # keyed by owning instance (bound methods) or 0 for free functions,
    # so two independent service objects never false-positive each other
    active: dict[int, tuple[tuple[int, int], int]] = {}
    guard = threading.Lock()

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        key = id(args[0]) if args else 0
        me = _entrant()
        with guard:
            holder = active.get(key)
            if holder is not None and holder[0] != me:
                raise AtomicViolation(
                    f"{func.__qualname__} entered by thread/task {me} while "
                    f"thread/task {holder[0]} is still inside — the section "
                    "is declared atomic between awaits"
                )
            depth = holder[1] + 1 if holder is not None else 1
            active[key] = (me, depth)
        try:
            return func(*args, **kwargs)
        finally:
            with guard:
                holder = active.get(key)
                if holder is not None:
                    if holder[1] <= 1:
                        del active[key]
                    else:
                        active[key] = (holder[0], holder[1] - 1)

    return wrapper  # type: ignore[return-value]


def _wrap_async(func: F) -> F:
    @functools.wraps(func)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        coro = func(*args, **kwargs)
        try:
            coro.send(None)
        except StopIteration as stop:
            return stop.value
        coro.close()
        raise AtomicViolation(
            f"async def {func.__qualname__} is declared atomic between "
            "awaits but yielded control to the event loop — another task "
            "can interleave inside it"
        )

    return wrapper  # type: ignore[return-value]


#: open sections: ``id(monitor)`` → (entrant, label, depth)
_OPEN_SECTIONS: dict[int, tuple[tuple[int, int], str, int]] = {}


class no_interleaving:
    """``async with no_interleaving(obj, "label"):`` — exclusive section.

    While one task is inside, any *other* task entering a section on the
    same monitor object raises :class:`AtomicViolation`.  Unlike a lock
    this never waits — contention is the bug being asserted against, so
    it must surface, not serialize.
    """

    def __init__(self, monitor: object, label: str = "section") -> None:
        self._key = id(monitor)
        self._monitor = monitor
        self._label = label

    async def __aenter__(self) -> "no_interleaving":
        me = _entrant()
        held = _OPEN_SECTIONS.get(self._key)
        if held is not None and held[0] != me:
            raise AtomicViolation(
                f"section {self._label!r} on {type(self._monitor).__name__} "
                f"entered by {me} while {held[0]} is inside "
                f"{held[1]!r} — declared non-interleaving"
            )
        depth = held[2] + 1 if held is not None else 1
        _OPEN_SECTIONS[self._key] = (me, self._label, depth)
        return self

    async def __aexit__(self, *exc: object) -> bool:
        held = _OPEN_SECTIONS.get(self._key)
        if held is not None:
            if held[2] <= 1:
                del _OPEN_SECTIONS[self._key]
            else:
                _OPEN_SECTIONS[self._key] = (held[0], held[1], held[2] - 1)
        return False
