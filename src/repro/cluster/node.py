"""Node descriptions: static hardware spec and dynamic runtime state.

The split mirrors the paper's Table 1: *static attributes* (core count,
CPU frequency, total memory) are queried once; *dynamic attributes*
(CPU load, CPU utilization, memory usage, node data-flow rate, logged-in
users) vary and are sampled by the monitoring daemons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class NodeSpec:
    """Static attributes of a compute node.

    Parameters
    ----------
    name:
        Hostname, e.g. ``"csews12"``.
    cores:
        Logical core count (the paper's clusters mix 8- and 12-core nodes).
    frequency_ghz:
        CPU clock frequency in GHz.
    memory_gb:
        Total physical memory in GB (most paper nodes have 16 GB).
    switch:
        Identifier of the leaf switch this node hangs off.
    """

    name: str
    cores: int
    frequency_ghz: float
    memory_gb: float
    switch: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")
        require_positive(self.cores, "cores")
        require_positive(self.frequency_ghz, "frequency_ghz")
        require_positive(self.memory_gb, "memory_gb")
        if not self.switch:
            raise ValueError("switch must be non-empty")


@dataclass
class NodeState:
    """Dynamic attributes of a compute node at an instant.

    Attributes
    ----------
    cpu_load:
        UNIX load average style: number of runnable/waiting processes.
    cpu_util:
        Aggregate CPU utilization across logical cores, in percent [0, 100].
    memory_used_gb:
        Physical memory currently in use, GB.
    flow_rate_mbs:
        Node data-flow rate — bytes sent+received at the NIC per second,
        expressed in MB/s (the paper measures this with psutil).
    users:
        Count of currently logged-in users.
    up:
        Whether the node responds to pings (livehosts membership).
    """

    cpu_load: float = 0.0
    cpu_util: float = 0.0
    memory_used_gb: float = 0.0
    flow_rate_mbs: float = 0.0
    users: int = 0
    up: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check physical plausibility; raises ``ValueError`` on nonsense."""
        require_non_negative(self.cpu_load, "cpu_load")
        if not 0.0 <= self.cpu_util <= 100.0:
            raise ValueError(f"cpu_util must be in [0, 100], got {self.cpu_util}")
        require_non_negative(self.memory_used_gb, "memory_used_gb")
        require_non_negative(self.flow_rate_mbs, "flow_rate_mbs")
        if self.users < 0:
            raise ValueError(f"users must be non-negative, got {self.users}")

    def copy(self) -> "NodeState":
        """Return an independent copy of this state."""
        return replace(self)

