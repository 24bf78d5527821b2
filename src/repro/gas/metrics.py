"""Accounting structures recorded while executing GAS programs.

Every super-step records per-machine work (gather invocations weighted by the
program's ``compute_cost``), network traffic (bytes shipped for remote
gathers and for replica synchronization after apply), and the memory
footprint of vertex data.  These metrics feed the analytical cost model that
turns them into simulated execution times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["StepMetrics", "RunMetrics"]


@dataclass
class StepMetrics:
    """Metrics for one GAS super-step."""

    name: str
    num_machines: int
    gather_invocations: int = 0
    compute_units_per_machine: list[int] = field(default_factory=list)
    network_bytes_per_machine: list[int] = field(default_factory=list)
    sync_bytes_per_machine: list[int] = field(default_factory=list)
    apply_invocations: int = 0
    vertex_data_bytes_per_machine: list[int] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.compute_units_per_machine:
            self.compute_units_per_machine = [0] * self.num_machines
        if not self.network_bytes_per_machine:
            self.network_bytes_per_machine = [0] * self.num_machines
        if not self.sync_bytes_per_machine:
            self.sync_bytes_per_machine = [0] * self.num_machines
        if not self.vertex_data_bytes_per_machine:
            self.vertex_data_bytes_per_machine = [0] * self.num_machines

    @property
    def total_compute_units(self) -> int:
        return sum(self.compute_units_per_machine)

    @property
    def total_network_bytes(self) -> int:
        return sum(self.network_bytes_per_machine) + sum(self.sync_bytes_per_machine)

    @property
    def max_machine_memory_bytes(self) -> int:
        if not self.vertex_data_bytes_per_machine:
            return 0
        return max(self.vertex_data_bytes_per_machine)


@dataclass
class RunMetrics:
    """Metrics accumulated over a full GAS program run (all steps)."""

    steps: list[StepMetrics] = field(default_factory=list)
    simulated_seconds: float = 0.0
    wall_clock_seconds: float = 0.0

    def add_step(self, step: StepMetrics) -> None:
        self.steps.append(step)

    @property
    def total_compute_units(self) -> int:
        return sum(step.total_compute_units for step in self.steps)

    @property
    def total_network_bytes(self) -> int:
        return sum(step.total_network_bytes for step in self.steps)

    @property
    def peak_machine_memory_bytes(self) -> int:
        if not self.steps:
            return 0
        return max(step.max_machine_memory_bytes for step in self.steps)

    @property
    def total_gather_invocations(self) -> int:
        return sum(step.gather_invocations for step in self.steps)

    def describe(self) -> str:
        """Human-readable multi-line summary of the run."""
        lines = [
            f"steps={len(self.steps)} "
            f"compute_units={self.total_compute_units:,} "
            f"network={self.total_network_bytes / 1024**2:.2f} MiB "
            f"peak_mem={self.peak_machine_memory_bytes / 1024**2:.2f} MiB "
            f"simulated={self.simulated_seconds:.2f}s "
            f"wall={self.wall_clock_seconds:.2f}s"
        ]
        for step in self.steps:
            lines.append(
                f"  [{step.name}] gathers={step.gather_invocations:,} "
                f"compute={step.total_compute_units:,} "
                f"net={step.total_network_bytes / 1024**2:.2f} MiB"
            )
        return "\n".join(lines)
