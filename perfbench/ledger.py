"""Client-side lease-safety ledger, fed every response as it arrives.

It keeps what the daemon promised and flags every broken promise:

* no node is in two live grants;
* ``procs`` covers exactly the granted nodes and sums to ``n``, and no
  node gets more than an explicit ``ppn``;
* the MPICH hostfile says the same as ``procs``;
* every renew moves ``expires_at`` later;
* every lease is released exactly once.

A node counts as free again from the moment its release is *sent*: the
daemon may hand it to an allocate on the other connection before the
release reply comes back.
"""

from __future__ import annotations

from typing import Any


def parse_hostfile(text: str) -> dict[str, int]:
    """``host:count`` lines as a mapping."""
    out: dict[str, int] = {}
    for line in text.splitlines():
        if line.strip():
            host, _, count = line.rpartition(":")
            out[host] = out.get(host, 0) + int(count)
    return out


class Ledger:
    """Lease state as the client saw it; ``violations`` lists each breach."""

    def __init__(self) -> None:
        #: node → the live lease holding it
        self.owner: dict[str, str] = {}
        #: lease id → {"nodes", "expires_at", "state": live|releasing|released}
        self.leases: dict[str, dict[str, Any]] = {}
        self.violations: list[str] = []

    def _check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.violations.append(message)
        return ok

    def grant(self, n: int, ppn: int | None, result: dict[str, Any]) -> bool:
        """Record a grant of ``n`` processes; False on any violation."""
        lid = result["lease_id"]
        nodes = list(result["nodes"])
        procs = {node: int(c) for node, c in result["procs"].items()}
        ok = self._check(lid not in self.leases, f"lease id {lid} granted twice")
        for node in nodes:
            other = self.owner.get(node)
            ok &= self._check(
                other is None, f"{node} granted to {lid} while {other} holds it"
            )
        ok &= self._check(
            len(set(nodes)) == len(nodes) and set(procs) == set(nodes),
            f"{lid}: procs {sorted(procs)} do not match nodes {nodes}",
        )
        ok &= self._check(
            sum(procs.values()) == n,
            f"{lid}: procs sum to {sum(procs.values())}, {n} asked",
        )
        if ppn is not None:
            ok &= self._check(
                max(procs.values(), default=0) <= ppn,
                f"{lid}: a node got more than ppn={ppn}",
            )
        ok &= self._check(
            parse_hostfile(result["hostfile"]) == procs,
            f"{lid}: hostfile disagrees with procs",
        )
        for node in nodes:
            self.owner.setdefault(node, lid)
        self.leases[lid] = {
            "nodes": nodes,
            "expires_at": float(result["expires_at"]),
            "state": "live",
        }
        return ok

    def renew(self, lid: str, result: dict[str, Any]) -> bool:
        lease = self.leases.get(lid)
        # a renew sent before the release may be answered after it is sent
        if not self._check(
            lease is not None and lease["state"] in ("live", "releasing"),
            f"{lid} renewed after its release",
        ):
            return False
        assert lease is not None
        expires_at = float(result["expires_at"])
        ok = self._check(
            expires_at > lease["expires_at"], f"{lid}: renew did not extend expires_at"
        )
        lease["expires_at"] = max(expires_at, lease["expires_at"])
        return ok

    def release_sent(self, lid: str) -> None:
        lease = self.leases[lid]
        self._check(lease["state"] == "live", f"{lid} released twice")
        lease["state"] = "releasing"
        for node in lease["nodes"]:
            if self.owner.get(node) == lid:
                del self.owner[node]

    def released(self, lid: str) -> bool:
        lease = self.leases.get(lid)
        ok = self._check(
            lease is not None and lease["state"] == "releasing",
            f"{lid}: release acknowledged twice or never sent",
        )
        if lease is not None:
            lease["state"] = "released"
        return ok

    def unreleased(self) -> list[str]:
        """Leases granted but not (yet) acknowledged as released."""
        return [
            lid for lid, lease in self.leases.items() if lease["state"] != "released"
        ]
