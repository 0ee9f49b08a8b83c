"""Shared key-value store standing in for the paper's NFS data plane.

Every daemon writes its observations here; the Node Allocator reads only
from here.  Three implementations share one interface:

* :class:`InMemoryStore` — fast, used by simulations and tests; values
  are stored by reference (a later mutation through the caller's alias
  is visible to readers — simulations rely on cheap writes);
* :class:`MemoryStore` — in-memory but *serialized*: records are
  JSON-encoded at ``put`` and decoded at ``get``, giving FileStore's
  isolation and corruption semantics without the filesystem, plus an
  async surface (:class:`AsyncSharedStore`) for coroutine code, which
  no daemon in the package uses;
* :class:`FileStore` — one JSON file per key under a directory, matching
  the paper's "each node daemon writes its data to the shared file
  system" literally (useful for inspecting runs on disk).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any


class StoreCorruptError(Exception):
    """A stored record that cannot be decoded into ``(time, value)``.

    Raised instead of a raw ``json.JSONDecodeError``/``KeyError`` so
    readers (snapshot assembly, the broker's refresh loop) can skip the
    damaged key and keep serving from the rest of the store — a torn or
    half-written file on the shared filesystem must degrade one key, not
    crash the allocator.
    """

    def __init__(self, key: str, reason: str) -> None:
        super().__init__(f"store record {key!r} is corrupt: {reason}")
        self.key = key
        self.reason = reason


class SharedStore(ABC):
    """Abstract timestamped key-value store."""

    @abstractmethod
    def put(self, key: str, value: Any, time: float) -> None:
        """Write ``value`` under ``key`` with write timestamp ``time``."""

    @abstractmethod
    def get(self, key: str) -> tuple[float, Any] | None:
        """Return ``(time, value)`` or ``None`` if the key is absent."""

    @abstractmethod
    def keys(self, prefix: str = "") -> list[str]:
        """All keys starting with ``prefix``, sorted."""

    @abstractmethod
    def delete(self, key: str) -> bool:
        """Remove ``key``; return whether it existed."""

    # -- convenience ------------------------------------------------------
    def value(self, key: str, default: Any = None) -> Any:
        """The stored value, or ``default``."""
        rec = self.get(key)
        return default if rec is None else rec[1]

    def age(self, key: str, now: float) -> float | None:
        """Seconds since ``key`` was last written, or ``None``."""
        rec = self.get(key)
        return None if rec is None else now - rec[0]


class AsyncSharedStore(ABC):
    """Awaitable counterpart of :class:`SharedStore`.

    Coroutine code must not call a store that can block the event loop;
    this surface makes that contract explicit.  Backends whose
    operations are already non-blocking (:class:`MemoryStore`) implement
    both interfaces over the same data.  Nothing in the package awaits
    it today: the broker and federation daemons read monitor state as
    snapshots, not store records.
    """

    @abstractmethod
    async def aput(self, key: str, value: Any, time: float) -> None:
        """Write ``value`` under ``key`` with write timestamp ``time``."""

    @abstractmethod
    async def aget(self, key: str) -> tuple[float, Any] | None:
        """Return ``(time, value)`` or ``None`` if the key is absent."""

    @abstractmethod
    async def akeys(self, prefix: str = "") -> list[str]:
        """All keys starting with ``prefix``, sorted."""

    @abstractmethod
    async def adelete(self, key: str) -> bool:
        """Remove ``key``; return whether it existed."""

    # -- convenience ------------------------------------------------------
    async def avalue(self, key: str, default: Any = None) -> Any:
        """The stored value, or ``default``."""
        rec = await self.aget(key)
        return default if rec is None else rec[1]

    async def aage(self, key: str, now: float) -> float | None:
        """Seconds since ``key`` was last written, or ``None``."""
        rec = await self.aget(key)
        return None if rec is None else now - rec[0]


class InMemoryStore(SharedStore):
    """Dictionary-backed store."""

    def __init__(self) -> None:
        self._data: dict[str, tuple[float, Any]] = {}

    def put(self, key: str, value: Any, time: float) -> None:
        self._data[key] = (time, value)

    def get(self, key: str) -> tuple[float, Any] | None:
        return self._data.get(key)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._data if k.startswith(prefix))

    def delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._data)


class MemoryStore(SharedStore, AsyncSharedStore):
    """Serialized in-memory store, safe to share across writers.

    Records are JSON-encoded at ``put`` time into one string per key —
    the exact bytes FileStore would write — so a writer mutating a value
    it already handed over cannot retroactively change what readers see,
    and undecodable records surface as :class:`StoreCorruptError` with
    the same ``(key, reason)`` contract FileStore's torn files have.

    Every operation is a single dict read/replace of an immutable
    string, so writes are atomic with respect to readers (a reader sees
    the old record or the new one, never a torn hybrid) and nothing ever
    blocks — which is what makes the :class:`AsyncSharedStore` methods
    honest straight delegations rather than thread-pool shims.
    """

    def __init__(self) -> None:
        self._data: dict[str, str] = {}

    # -- sync surface ----------------------------------------------------
    def put(self, key: str, value: Any, time: float) -> None:
        self._data[key] = json.dumps({"time": time, "value": value})

    def get(self, key: str) -> tuple[float, Any] | None:
        raw = self._data.get(key)
        if raw is None:
            return None
        try:
            rec = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptError(key, f"not valid JSON ({exc})") from exc
        return _decode_record(key, rec)

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self._data if k.startswith(prefix))

    def delete(self, key: str) -> bool:
        return self._data.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._data)

    # -- async surface ---------------------------------------------------
    async def aput(self, key: str, value: Any, time: float) -> None:
        self.put(key, value, time)

    async def aget(self, key: str) -> tuple[float, Any] | None:
        return self.get(key)

    async def akeys(self, prefix: str = "") -> list[str]:
        return self.keys(prefix)

    async def adelete(self, key: str) -> bool:
        return self.delete(key)


def _decode_record(key: str, rec: Any) -> tuple[float, Any]:
    """``{"time": t, "value": v}`` → ``(t, v)``, or :class:`StoreCorruptError`."""
    if not isinstance(rec, dict):
        raise StoreCorruptError(
            key, f"record must be a JSON object, got {type(rec).__name__}"
        )
    if "time" not in rec or "value" not in rec:
        raise StoreCorruptError(key, "record lacks 'time'/'value' fields")
    try:
        time = float(rec["time"])
    except (TypeError, ValueError) as exc:
        raise StoreCorruptError(
            key, f"record time {rec['time']!r} is not a number"
        ) from exc
    return (time, rec["value"])


_SAFE = re.compile(r"[^A-Za-z0-9_.|-]")


class FileStore(SharedStore):
    """One JSON file per key under ``root`` (an NFS directory in the paper).

    Keys may contain ``/`` which maps to subdirectories; other unsafe
    characters are percent-escaped so arbitrary node names round-trip.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        parts = [
            _SAFE.sub(lambda m: f"%{ord(m.group()):02x}", p)
            for p in key.split("/")
        ]
        if any(p in ("", ".", "..") for p in parts):
            raise ValueError(f"invalid key {key!r}")
        path = self._root.joinpath(*parts)
        # Append (don't with_suffix-replace) so keys containing dots
        # ("a.b" vs "a.c") map to distinct files.
        return path.with_name(path.name + ".json")

    def put(self, key: str, value: Any, time: float) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A *uniquely named* temp file in the same directory, then an
        # atomic rename.  A shared temp name (the old `<key>.tmp`) lets
        # two concurrent writers interleave create/truncate/rename and
        # publish a torn file; mkstemp + os.replace guarantees a reader
        # (e.g. the broker's refresh loop) only ever sees complete JSON.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps({"time": time, "value": value}))
            os.replace(tmp, path)
        except BaseException:  # noqa: BLE001 — cleanup-and-reraise: only unlinks the temp file, and must run even on KeyboardInterrupt so aborted writes don't litter the store
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get(self, key: str) -> tuple[float, Any] | None:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            rec = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptError(key, f"not valid JSON ({exc})") from exc
        return _decode_record(key, rec)

    def keys(self, prefix: str = "") -> list[str]:
        out = []
        for p in self._root.rglob("*.json"):
            rel = p.relative_to(self._root)
            parts = rel.parts[:-1] + (rel.name[: -len(".json")],)
            key = "/".join(
                re.sub(
                    r"%([0-9a-f]{2})",
                    lambda m: chr(int(m.group(1), 16)),
                    part,
                )
                for part in parts
            )
            if key.startswith(prefix):
                out.append(key)
        return sorted(out)

    def delete(self, key: str) -> bool:
        path = self._path(key)
        if path.exists():
            path.unlink()
            return True
        return False
