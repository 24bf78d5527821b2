"""Vertex-program API of the gather-apply-scatter (GAS) model.

A GAS program (Section 2.3 of the paper) runs a sequence of super-steps; in
each step every active vertex ``u``:

1. **gather** — maps over the incident edges/neighbor data and reduces the
   mapped values with a commutative/associative ``sum``;
2. **apply** — updates the vertex data ``Du`` from the gathered value;
3. **scatter** — optionally updates the data of outgoing edges.

The engine in :mod:`repro.gas.engine` executes programs that implement the
:class:`VertexProgram` interface.  To keep the accounting faithful, a gather
result must report its (approximate) serialized size via
:func:`payload_size_bytes`, which the cost model uses to charge network
traffic whenever the neighbor lives on a different simulated machine.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from enum import Enum
from typing import Any

__all__ = [
    "EdgeDirection",
    "VertexProgram",
    "GatherResult",
    "payload_size_bytes",
]


class EdgeDirection(Enum):
    """Which incident edges a gather/scatter phase iterates over."""

    IN = "in"
    OUT = "out"
    BOTH = "both"
    NONE = "none"


#: A gather result is an arbitrary Python value; ``None`` means "nothing
#: gathered" and is skipped by the engine's sum.
GatherResult = Any


def payload_size_bytes(value: Any) -> int:
    """Approximate the serialized size of a gather/scatter payload.

    The estimate intentionally mirrors what a C++ GAS engine would ship over
    the wire: 8 bytes per integer or float, container overhead ignored,
    strings at one byte per character.  The absolute numbers only matter
    relative to each other (SNAPLE's small payloads vs. BASELINE's full
    neighborhood payloads), which is what drives the paper's results.
    """
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return sum(payload_size_bytes(k) + payload_size_bytes(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(payload_size_bytes(item) for item in value)
    if hasattr(value, "nbytes"):  # numpy arrays
        return int(value.nbytes)
    # Fall back to the in-memory size; better to overestimate than ignore.
    return sys.getsizeof(value)


class VertexProgram(ABC):
    """One GAS super-step expressed as gather / sum / apply / scatter.

    Subclasses override the phases they need.  ``gather_direction`` controls
    which incident edges the engine enumerates during the gather phase
    (SNAPLE gathers over out-edges; other programs may gather over in-edges).

    Each vertex's data ``Du`` is a plain ``dict`` that the engine keeps
    between steps; ``apply`` writes it in place, and the engine charges
    :func:`payload_size_bytes` of the whole dict to every replica's memory
    and to the replica sync.
    """

    #: Human-readable step name used in engine metrics.
    name: str = "step"

    gather_direction: EdgeDirection = EdgeDirection.OUT
    scatter_direction: EdgeDirection = EdgeDirection.NONE

    @abstractmethod
    def gather(self, u: int, v: int, u_data: dict[str, Any],
               v_data: dict[str, Any]) -> GatherResult:
        """Map one incident edge ``(u, v)`` to a partial gather value.

        ``u`` is the vertex running the program; ``v`` the neighbor on the
        enumerated edge.  ``u_data`` / ``v_data`` are the mutable data
        dictionaries of the two vertices (``Du`` / ``Dv`` in the paper);
        gather must treat them as read-only.
        """

    def sum(self, left: GatherResult, right: GatherResult) -> GatherResult:
        """Combine two gather results; must be commutative and associative."""
        raise NotImplementedError(
            f"{type(self).__name__} gathered more than one value but does "
            "not define sum()"
        )

    @abstractmethod
    def apply(self, u: int, u_data: dict[str, Any],
              gathered: GatherResult) -> None:
        """Update ``Du`` in place from the aggregated gather value."""

    def scatter(self, u: int, v: int, u_data: dict[str, Any],
                edge_data: dict[str, Any]) -> None:
        """Optionally update outgoing edge data after apply (unused by SNAPLE)."""
        return None

    def gather_payload_bytes(self, value: GatherResult) -> int:
        """Size charged to the network when the gathered edge crosses machines."""
        return payload_size_bytes(value)

    def compute_cost(self, value: GatherResult) -> int:
        """Abstract work units charged per gather invocation.

        Defaults to 1 unit per gathered edge; programs whose per-edge work is
        heavier (e.g. a Jaccard over two neighbor lists) override this so the
        simulated times reflect the extra computation.
        """
        return 1
