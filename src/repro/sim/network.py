"""Interconnects: the shared bus and the general interconnection network.

These are the two interconnect families of the paper's Figure 1:

* :class:`Bus` -- a single shared medium.  Transfers are serialized and
  delivered in the order they were accepted, so the bus is a total-order,
  FIFO transport (which is why a cacheless bus system needs a write buffer
  or out-of-order issue to violate sequential consistency).
* :class:`GeneralNetwork` -- point-to-point links with per-message latency
  jitter and **no ordering guarantees**, even between the same endpoints
  (which is why program-order issue alone cannot save sequential
  consistency on such systems -- Lamport's observation, quoted in Figure 1).

Both are deterministic given the seed: the network draws jitter from its
own ``random.Random``.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, Optional

from repro.sim.events import SimulationError, Simulator
from repro.sim.faults import NULL_INJECTOR
from repro.sim.messages import Message

#: Handler invoked when a message is delivered to a node.
Handler = Callable[[Message], None]


class Interconnect:
    """Common endpoint registry for both interconnect types."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._handlers: Dict[str, Handler] = {}
        self.messages_sent = 0
        #: Fault injector (see :mod:`repro.sim.faults`); the shared null
        #: injector keeps the fault-free path to one attribute check.
        self.injector = NULL_INJECTOR
        self._delivered_ids: Optional[set] = None

    def attach(self, node_id: str, handler: Handler) -> None:
        """Register ``node_id``; messages addressed to it invoke ``handler``."""
        if node_id in self._handlers:
            raise SimulationError(f"node {node_id!r} attached twice")
        self._handlers[node_id] = handler

    def send(self, message: Message) -> None:
        """Accept a message for delivery (subclasses schedule it)."""
        raise NotImplementedError

    def _deliver(self, message: Message) -> None:
        handler = self._handlers.get(message.dst)
        if handler is None:
            raise SimulationError(f"message to unknown node {message.dst!r}")
        handler(message)

    def _schedule_delivery(self, message: Message, arrival: int) -> None:
        """Schedule delivery at ``arrival``, applying any fault plan.

        With faults active the injector may delay the message, refuse it a
        bounded number of times (modelled as retransmission latency), drop
        it outright, or deliver it more than once.  Duplicate deliveries
        pass through an idempotent-delivery filter keyed by ``msg_id`` --
        the endpoints see exactly-once semantics over an at-least-once
        transport, so the protocol state machines need no changes.
        """
        if not self.injector.enabled:
            self.sim.at(arrival, partial(self._deliver, message))
            return
        times = self.injector.delivery_times(message, arrival)
        if not times:
            return  # dropped: delivery-violating plans answer to the watchdog
        if len(times) == 1:
            self.sim.at(times[0], partial(self._deliver, message))
            return
        if self._delivered_ids is None:
            self._delivered_ids = set()
        for when in times:
            self.sim.at(when, partial(self._deliver_once, message))

    def _deliver_once(self, message: Message) -> None:
        if message.msg_id in self._delivered_ids:
            self.injector.count_duplicate_suppressed()
            return
        self._delivered_ids.add(message.msg_id)
        self._deliver(message)


class Bus(Interconnect):
    """Shared bus: serialized transfers, global FIFO delivery order.

    Each transfer occupies the bus for ``latency`` cycles; a message
    accepted while the bus is busy waits its turn.  Delivery order equals
    acceptance order, system-wide.
    """

    def __init__(self, sim: Simulator, latency: int = 2) -> None:
        super().__init__(sim)
        if latency < 1:
            raise SimulationError("bus latency must be >= 1")
        self.latency = latency
        self._free_at = 0

    def send(self, message: Message) -> None:
        """Arbitrate for the bus and schedule in-order delivery."""
        start = max(self.sim.now, self._free_at)
        done = start + self.latency
        self._free_at = done
        self.messages_sent += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.async_span(
                "net", message.kind.value, "net", self.sim.now, done,
                args={
                    "src": message.src,
                    "dst": message.dst,
                    "loc": message.location,
                },
            )
        self._schedule_delivery(message, done)


class GeneralNetwork(Interconnect):
    """Point-to-point network with jittered latency and no ordering.

    ``latency`` is the base propagation delay; each message adds uniform
    jitter in ``[0, jitter]``, so two messages between the same endpoints
    can arrive out of order -- unless ``fifo_per_pair`` is set, which
    enforces per-(src, dst) FIFO delivery while keeping the jitter (useful
    for ablations).
    """

    def __init__(
        self,
        sim: Simulator,
        latency: int = 3,
        jitter: int = 6,
        seed: int = 0,
        fifo_per_pair: bool = False,
    ) -> None:
        super().__init__(sim)
        if latency < 1:
            raise SimulationError("network latency must be >= 1")
        self.latency = latency
        self.jitter = max(0, jitter)
        self.fifo_per_pair = fifo_per_pair
        self._rng = random.Random(seed)
        # randint(0, jitter) is randrange(0, jitter + 1), which returns
        # _randbelow(jitter + 1): the same draw, two calls fewer per message.
        self._draw_below = self._rng._randbelow
        self._last_arrival: Dict[tuple, int] = {}

    def send(self, message: Message) -> None:
        """Schedule delivery after base latency plus per-message jitter."""
        delay = self.latency
        if self.jitter:
            delay += self._draw_below(self.jitter + 1)
        arrival = self.sim.now + delay
        if self.fifo_per_pair:
            pair = (message.src, message.dst)
            arrival = max(arrival, self._last_arrival.get(pair, 0) + 1)
            self._last_arrival[pair] = arrival
        self.messages_sent += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.async_span(
                "net", message.kind.value, "net", self.sim.now, arrival,
                args={
                    "src": message.src,
                    "dst": message.dst,
                    "loc": message.location,
                },
            )
        self._schedule_delivery(message, arrival)
