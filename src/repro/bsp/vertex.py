"""Vertex-program API of the Bulk Synchronous Parallel (BSP / Pregel) model.

The paper positions the GAS model against Bulk Synchronous Processing
(Section 2.2 and Section 6): Pregel-style engines such as Giraph or Bagel run
the computation as a sequence of *supersteps* in which every active vertex
receives the messages sent to it in the previous superstep, updates its own
state, and sends new messages, with a synchronization barrier between
supersteps.  Porting SNAPLE to these engines is listed as future work
(Section 7); this package provides the substrate for that port so the data
flow of the two models can be compared on equal footing.

A BSP program implements :class:`BspVertexProgram.compute`, which the engine
in :mod:`repro.bsp.engine` invokes once per active vertex per superstep with
a :class:`ComputeContext` giving access to the vertex's out-edges, message
sending, halting, and global aggregators.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import Any

__all__ = [
    "BspVertexProgram",
    "ComputeContext",
    "MessageCombiner",
    "SumCombiner",
    "MinCombiner",
    "MaxCombiner",
]


class MessageCombiner(ABC):
    """Combines messages addressed to the same destination vertex.

    Pregel combiners reduce network traffic: messages produced on one machine
    for the same destination are merged into a single message before crossing
    the network.  A combiner must be commutative and associative, because the
    engine applies it in an arbitrary order.
    """

    @abstractmethod
    def combine(self, left: Any, right: Any) -> Any:
        """Merge two messages addressed to the same vertex."""


class SumCombiner(MessageCombiner):
    """Adds numeric messages together (the classic PageRank combiner)."""

    def combine(self, left: Any, right: Any) -> Any:
        return left + right


class MinCombiner(MessageCombiner):
    """Keeps the smallest message (used by connected-components / SSSP)."""

    def combine(self, left: Any, right: Any) -> Any:
        return min(left, right)


class MaxCombiner(MessageCombiner):
    """Keeps the largest message."""

    def combine(self, left: Any, right: Any) -> Any:
        return max(left, right)


class ComputeContext:
    """Per-vertex view of the engine handed to :meth:`BspVertexProgram.compute`.

    The context exposes exactly what a Pregel worker exposes to user code: the
    vertex's out-edges, a way to send messages (to out-neighbors or to any
    vertex id learned through earlier messages), ``vote_to_halt``, the
    superstep number, graph-level constants, and global aggregators whose
    values become visible in the *next* superstep.
    """

    __slots__ = (
        "superstep",
        "num_vertices",
        "num_edges",
        "_vertex",
        "_out_neighbors",
        "_send",
        "_halt",
        "_aggregate",
        "_aggregated_values",
        "messages_sent",
    )

    def __init__(
        self,
        *,
        superstep: int,
        num_vertices: int,
        num_edges: int,
        vertex: int,
        out_neighbors: Sequence[int],
        send: Callable[[int, int, Any], None],
        halt: Callable[[int], None],
        aggregate: Callable[[str, Any], None],
        aggregated_values: dict[str, Any],
    ) -> None:
        self.superstep = superstep
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self._vertex = vertex
        self._out_neighbors = out_neighbors
        self._send = send
        self._halt = halt
        self._aggregate = aggregate
        self._aggregated_values = aggregated_values
        self.messages_sent = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def vertex(self) -> int:
        """Id of the vertex currently running ``compute``."""
        return self._vertex

    def out_neighbors(self) -> Sequence[int]:
        """Out-neighbors of the current vertex (its locally stored edges)."""
        return self._out_neighbors

    def out_degree(self) -> int:
        """Out-degree of the current vertex."""
        return len(self._out_neighbors)

    # ------------------------------------------------------------------
    # Messaging and halting
    # ------------------------------------------------------------------
    def send_message(self, target: int, value: Any) -> None:
        """Send ``value`` to ``target``; delivered at the next superstep."""
        self._send(self._vertex, target, value)
        self.messages_sent += 1

    def send_message_to_all_neighbors(self, value: Any) -> None:
        """Send the same message along every out-edge."""
        for target in self._out_neighbors:
            self.send_message(target, value)

    def vote_to_halt(self) -> None:
        """Deactivate this vertex until a message re-activates it."""
        self._halt(self._vertex)

    # ------------------------------------------------------------------
    # Global aggregators
    # ------------------------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to the named global aggregator.

        The reduced value is visible to every vertex in the *next* superstep
        via :meth:`aggregated`, mirroring Pregel's aggregator semantics.
        """
        self._aggregate(name, value)

    def aggregated(self, name: str, default: Any = None) -> Any:
        """Value of the named aggregator reduced over the previous superstep."""
        return self._aggregated_values.get(name, default)


class BspVertexProgram(ABC):
    """A Pregel-style vertex program executed superstep by superstep.

    Subclasses implement :meth:`compute`; the engine calls it for every active
    vertex at every superstep, passing the messages delivered to that vertex.
    A vertex stays active until it calls ``context.vote_to_halt()`` and is
    re-activated whenever it receives a message.  The run terminates when all
    vertices are halted and no messages are in flight, or after
    ``max_supersteps``.

    Each vertex's state is the plain ``dict`` :meth:`initial_state` returns;
    ``compute`` updates it in place, and the engine charges its
    :func:`~repro.gas.vertex_program.payload_size_bytes` to the owning
    machine's memory.
    """

    #: Human-readable program name used in run metrics.
    name: str = "bsp-program"

    #: Upper bound on supersteps; a safety net against non-terminating programs.
    max_supersteps: int = 50

    #: Optional combiner merging messages to the same destination per machine.
    combiner: MessageCombiner | None = None

    def aggregators(self) -> dict[str, Callable[[Any, Any], Any]]:
        """Named global reductions available through the compute context."""
        return {}

    def initial_state(self, vertex: int) -> dict[str, Any]:
        """Initial mutable state of ``vertex`` before superstep 0."""
        return {}

    @abstractmethod
    def compute(self, state: dict[str, Any], messages: list[Any],
                context: ComputeContext) -> None:
        """Update ``state`` from the received ``messages`` and send new ones."""

    def message_payload_bytes(self, value: Any) -> int:
        """Serialized size charged when a message crosses machines."""
        from repro.gas.vertex_program import payload_size_bytes

        return payload_size_bytes(value)

    def compute_cost(self, state: dict[str, Any], num_messages: int) -> int:
        """Abstract work units charged per ``compute`` invocation.

        Defaults to one unit plus one per received message; programs with
        heavier per-vertex work override this so the simulated times reflect
        the extra computation.
        """
        return 1 + num_messages
