"""Unit tests for the discrete-event kernel, interconnects, and access records."""

import pytest

from repro.core.types import OpKind
from repro.sim.access import AccessError, AccessRecord, BlockLevel, GateCondition
from repro.sim.events import SimulationError, Simulator
from repro.sim.messages import Message, MsgKind
from repro.sim.network import Bus, GeneralNetwork


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(5, lambda: order.append("b"))
        sim.at(1, lambda: order.append("a"))
        sim.at(9, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 9

    def test_ties_run_in_insertion_order(self):
        sim = Simulator()
        order = []
        sim.at(3, lambda: order.append(1))
        sim.at(3, lambda: order.append(2))
        sim.run()
        assert order == [1, 2]

    def test_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.at(4, lambda: sim.after(3, lambda: times.append(sim.now)))
        sim.run()
        assert times == [7]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.at(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(2, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().after(-1, lambda: None)

    def test_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.at(2, lambda: fired.append(2))
        sim.at(10, lambda: fired.append(10))
        sim.run(until=5)
        assert fired == [2]
        assert sim.pending() == 1

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.after(1, rearm)

        sim.at(0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_stop_when_predicate(self):
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            sim.after(1, tick)

        sim.at(0, tick)
        sim.run(stop_when=lambda: count["n"] >= 5, max_events=100)
        assert count["n"] == 5


class TestBus:
    def _msg(self, src="a", dst="b"):
        return Message(MsgKind.MEM_READ, src=src, dst=dst, location="x")

    def test_fifo_delivery(self):
        sim = Simulator()
        bus = Bus(sim, latency=2)
        got = []
        bus.attach("b", lambda m: got.append(("b", sim.now, m.msg_id)))
        m1, m2 = self._msg(), self._msg()
        bus.send(m1)
        bus.send(m2)
        sim.run()
        assert [g[2] for g in got] == [m1.msg_id, m2.msg_id]
        # serialized: second transfer waits for the first
        assert got[0][1] == 2 and got[1][1] == 4

    def test_bus_serializes_across_senders(self):
        sim = Simulator()
        bus = Bus(sim, latency=3)
        got = []
        bus.attach("m", lambda m: got.append(sim.now))
        bus.send(self._msg(dst="m"))
        bus.send(self._msg(src="c", dst="m"))
        sim.run()
        assert got == [3, 6]

    def test_unknown_destination_raises(self):
        sim = Simulator()
        bus = Bus(sim, latency=1)
        bus.send(self._msg(dst="ghost"))
        with pytest.raises(SimulationError):
            sim.run()

    def test_double_attach_rejected(self):
        sim = Simulator()
        bus = Bus(sim, latency=1)
        bus.attach("n", lambda m: None)
        with pytest.raises(SimulationError):
            bus.attach("n", lambda m: None)

    def test_zero_latency_rejected(self):
        with pytest.raises(SimulationError):
            Bus(Simulator(), latency=0)


class TestGeneralNetwork:
    def test_deterministic_for_seed(self):
        arrivals = []
        for _ in range(2):
            sim = Simulator()
            net = GeneralNetwork(sim, latency=3, jitter=6, seed=42)
            got = []
            net.attach("b", lambda m: got.append(sim.now))
            for _ in range(5):
                net.send(Message(MsgKind.MEM_READ, src="a", dst="b", location="x"))
            sim.run()
            arrivals.append(tuple(got))
        assert arrivals[0] == arrivals[1]

    def test_can_reorder_messages(self):
        """Some seed reorders two back-to-back messages (Lamport's hazard)."""
        reordered = False
        for seed in range(50):
            sim = Simulator()
            net = GeneralNetwork(sim, latency=1, jitter=8, seed=seed)
            got = []
            net.attach("b", lambda m: got.append(m.msg_id))
            m1 = Message(MsgKind.MEM_READ, src="a", dst="b", location="x")
            m2 = Message(MsgKind.MEM_READ, src="a", dst="b", location="y")
            net.send(m1)
            net.send(m2)
            sim.run()
            if got == [m2.msg_id, m1.msg_id]:
                reordered = True
                break
        assert reordered

    def test_fifo_per_pair_option(self):
        for seed in range(30):
            sim = Simulator()
            net = GeneralNetwork(sim, latency=1, jitter=8, seed=seed, fifo_per_pair=True)
            got = []
            net.attach("b", lambda m: got.append(m.msg_id))
            msgs = [
                Message(MsgKind.MEM_READ, src="a", dst="b", location="x")
                for _ in range(4)
            ]
            for m in msgs:
                net.send(m)
            sim.run()
            assert got == [m.msg_id for m in msgs]

    def test_message_counter(self):
        sim = Simulator()
        net = GeneralNetwork(sim, seed=0)
        net.attach("b", lambda m: None)
        net.send(Message(MsgKind.MEM_READ, src="a", dst="b", location="x"))
        assert net.messages_sent == 1


class TestAccessRecord:
    def _access(self, kind=OpKind.DATA_READ):
        return AccessRecord(0, 0, 0, kind, "x", None if kind.has_read else 1)

    def test_lifecycle_flags(self):
        a = self._access()
        assert not a.generated and not a.committed and not a.globally_performed
        a.mark_generated(1)
        a.mark_committed(5, 42)
        a.mark_globally_performed(7)
        assert a.generate_time == 1 and a.commit_time == 5 and a.gp_time == 7
        assert a.value_read == 42

    def test_double_commit_rejected(self):
        a = self._access()
        a.mark_committed(1, 0)
        with pytest.raises(AccessError):
            a.mark_committed(2, 0)

    def test_read_commit_requires_value(self):
        a = self._access()
        with pytest.raises(AccessError):
            a.mark_committed(1, None)

    def test_commit_callback_fires_once(self):
        a = self._access()
        calls = []
        a.on_commit(lambda acc: calls.append(acc.value_read))
        a.mark_committed(3, 9)
        assert calls == [9]

    def test_callback_after_event_fires_immediately(self):
        a = self._access()
        a.mark_committed(3, 9)
        calls = []
        a.on_commit(lambda acc: calls.append(1))
        assert calls == [1]

    def test_rewriting_kind_rederives_classification(self):
        a = AccessRecord(0, 0, 0, OpKind.SYNC_READ, "s", None)
        assert a.is_sync and a.has_read and not a.has_write
        a.kind = OpKind.DATA_WRITE
        assert a.kind is OpKind.DATA_WRITE
        assert not a.is_sync and not a.has_read and a.has_write

    def test_to_operation_roundtrip(self):
        a = AccessRecord(4, 2, 1, OpKind.SYNC_RMW, "s", 1)
        a.mark_committed(10, 0)
        op = a.to_operation()
        assert op.proc == 2 and op.value_read == 0 and op.value_written == 1

    def test_to_operation_before_commit_rejected(self):
        with pytest.raises(AccessError):
            self._access().to_operation()

    def test_gate_condition_satisfaction(self):
        a = self._access(OpKind.DATA_WRITE)
        commit_gate = GateCondition(a, BlockLevel.COMMIT)
        gp_gate = GateCondition(a, BlockLevel.GP)
        assert not commit_gate.satisfied and not gp_gate.satisfied
        a.mark_committed(1)
        assert commit_gate.satisfied and not gp_gate.satisfied
        a.mark_globally_performed(2)
        assert gp_gate.satisfied

    def test_gate_subscription(self):
        a = self._access(OpKind.DATA_WRITE)
        fired = []
        GateCondition(a, BlockLevel.GP).subscribe(lambda: fired.append(True))
        a.mark_committed(1)
        assert not fired
        a.mark_globally_performed(2)
        assert fired == [True]
