"""Memory accounting and out-of-memory simulation.

The paper reports that the naive BASELINE implementation "fails due to
resource exhaustion" on orkut and twitter-rv because it replicates full
neighborhood lists across 2-hop paths.  The simulated engine reproduces that
behaviour: each machine has a (scaled) memory capacity and the engine tracks
the byte footprint of all vertex data hosted on it, raising
:class:`~repro.errors.ResourceExhaustedError` when the footprint exceeds the
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ResourceExhaustedError
from repro.gas.cluster import ClusterConfig
from repro.gas.vertex_program import payload_size_bytes

__all__ = ["MemoryTracker"]


@dataclass
class MemoryTracker:
    """Tracks per-machine vertex-data footprints against a capacity."""

    cluster: ClusterConfig
    enforce: bool = True
    _per_machine_bytes: list[int] = field(default_factory=list)
    _peak_bytes: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        machines = self.cluster.num_machines
        self._per_machine_bytes = [0] * machines
        self._peak_bytes = [0] * machines

    @property
    def capacity_bytes(self) -> float:
        """Per-machine capacity after the cluster's memory scaling."""
        return self.cluster.per_machine_memory_bytes

    def charge(self, machine: int, num_bytes: int) -> None:
        """Add ``num_bytes`` of vertex data to ``machine``.

        Raises :class:`ResourceExhaustedError` when enforcement is on and the
        machine's footprint exceeds its capacity.
        """
        self._per_machine_bytes[machine] += num_bytes
        current = self._per_machine_bytes[machine]
        if current > self._peak_bytes[machine]:
            self._peak_bytes[machine] = current
        if self.enforce and current > self.capacity_bytes:
            raise ResourceExhaustedError(
                f"machine {machine} exhausted its simulated memory: "
                f"{current / 1024**2:.2f} MiB requested, capacity "
                f"{self.capacity_bytes / 1024**2:.2f} MiB",
                machine=machine,
                requested_bytes=current,
                capacity_bytes=int(self.capacity_bytes),
            )

    def release(self, machine: int, num_bytes: int) -> None:
        """Remove ``num_bytes`` of vertex data from ``machine``."""
        self._per_machine_bytes[machine] = max(
            0, self._per_machine_bytes[machine] - num_bytes
        )

    def charge_value(self, machine: int, value: object) -> int:
        """Charge the estimated size of ``value``; returns the bytes charged."""
        size = payload_size_bytes(value)
        self.charge(machine, size)
        return size

    def usage_bytes(self, machine: int) -> int:
        """Current footprint of ``machine``."""
        return self._per_machine_bytes[machine]

    def peak_bytes(self, machine: int) -> int:
        """Peak footprint observed on ``machine``."""
        return self._peak_bytes[machine]

    def peak_per_machine(self) -> list[int]:
        """Peak footprint of every machine."""
        return list(self._peak_bytes)

    def total_peak_bytes(self) -> int:
        """Sum of per-machine peaks (upper bound on the cluster footprint)."""
        return sum(self._peak_bytes)
