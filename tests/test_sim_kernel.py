"""Unit tests for the event-driven simulation kernel."""

import pytest

from repro.sim.kernel import HeapSimulator, SimulationError, Simulator

#: Both scheduler implementations must honor the same (cycle, seq) contract;
#: the edge-case tests below run against each.
KERNELS = [Simulator, HeapSimulator]


def test_initial_state():
    sim = Simulator()
    assert sim.cycle == 0
    assert sim.pending_events == 0
    assert sim.events_processed == 0


def test_schedule_and_run_executes_callback():
    sim = Simulator()
    fired = []
    sim.schedule(lambda: fired.append(sim.cycle), delay=5)
    sim.run(10)
    assert fired == [5]
    assert sim.cycle == 10


def test_run_returns_number_of_events():
    sim = Simulator()
    for delay in range(3):
        sim.schedule(lambda: None, delay=delay)
    assert sim.run(5) == 3


def test_events_beyond_horizon_stay_queued():
    sim = Simulator()
    fired = []
    sim.schedule(lambda: fired.append("late"), delay=100)
    sim.run(10)
    assert fired == []
    assert sim.pending_events == 1
    sim.run(100)
    assert fired == ["late"]


def test_same_cycle_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    sim.schedule(lambda: order.append("a"), delay=2)
    sim.schedule(lambda: order.append("b"), delay=2)
    sim.schedule(lambda: order.append("c"), delay=2)
    sim.run(5)
    assert order == ["a", "b", "c"]


def test_event_can_schedule_followup_in_same_run():
    sim = Simulator()
    seen = []

    def first():
        seen.append(("first", sim.cycle))
        sim.schedule(lambda: seen.append(("second", sim.cycle)), delay=3)

    sim.schedule(first, delay=1)
    sim.run(10)
    assert seen == [("first", 1), ("second", 4)]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(lambda: None, delay=-1)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.run(10)
    with pytest.raises(SimulationError):
        sim.schedule_at(lambda: None, cycle=5)


def test_clock_advances_to_horizon_even_without_events():
    sim = Simulator()
    sim.run(42)
    assert sim.cycle == 42


def test_run_until_absolute_cycle():
    sim = Simulator()
    fired = []
    sim.schedule_at(lambda: fired.append(sim.cycle), 7)
    sim.run_until(7)
    assert fired == [7]
    assert sim.cycle == 7


def test_run_to_completion_drains_queue():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(lambda: chain(n + 1), delay=10)

    sim.schedule(lambda: chain(0), delay=0)
    sim.run_to_completion()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.pending_events == 0


def test_run_to_completion_respects_max_cycles():
    sim = Simulator()
    fired = []
    sim.schedule(lambda: fired.append(1), delay=5)
    sim.schedule(lambda: fired.append(2), delay=500)
    sim.run_to_completion(max_cycles=100)
    assert fired == [1]
    assert sim.pending_events == 1


def test_run_to_completion_with_limit_advances_clock_to_limit():
    """Regression: bounded run_to_completion left the clock at the last event.

    ``run_until`` always advances the clock to the horizon; the bounded
    form must do the same so back-to-back calls observe a consistent clock
    (a second ``run_to_completion(max_cycles=N)`` call previously re-spanned
    part of the first call's window).
    """
    sim = Simulator()
    sim.schedule(lambda: None, delay=5)
    sim.schedule(lambda: None, delay=500)
    sim.run_to_completion(max_cycles=100)
    assert sim.cycle == 100
    sim.run_to_completion(max_cycles=100)
    assert sim.cycle == 200
    assert sim.pending_events == 1  # the cycle-500 event is still out there


def test_run_to_completion_with_limit_advances_clock_when_queue_drains():
    sim = Simulator()
    sim.schedule(lambda: None, delay=5)
    sim.run_to_completion(max_cycles=100)
    assert sim.cycle == 100


def test_run_to_completion_without_limit_rests_at_last_event():
    sim = Simulator()
    sim.schedule(lambda: None, delay=7)
    sim.run_to_completion()
    assert sim.cycle == 7


def test_schedule_call_passes_arguments():
    sim = Simulator()
    seen = []
    sim.schedule_call(lambda a, b: seen.append((a, b, sim.cycle)), ("x", 2), delay=4)
    sim.run(10)
    assert seen == [("x", 2, 4)]


def test_schedule_call_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_call(lambda: None, (), delay=-1)


def test_schedule_delivery_invokes_receive_packet():
    sim = Simulator()

    class Sink:
        def __init__(self):
            self.received = []

        def receive_packet(self, packet, in_port, vc_index):
            self.received.append((packet, in_port, vc_index, sim.cycle))

    sink = Sink()
    sim.schedule_delivery(sink, "pkt", 2, 1, delay=3)
    sim.run(5)
    assert sink.received == [("pkt", 2, 1, 3)]


def test_schedule_delivery_rejects_negative_delay():
    sim = Simulator()

    class Sink:
        def receive_packet(self, packet, in_port, vc_index):
            pass

    with pytest.raises(SimulationError):
        sim.schedule_delivery(Sink(), "pkt", 0, 0, delay=-2)


def test_mixed_event_kinds_preserve_schedule_order():
    sim = Simulator()
    order = []

    class Sink:
        def receive_packet(self, packet, in_port, vc_index):
            order.append("delivery")

    sim.schedule(lambda: order.append("plain"), delay=2)
    sim.schedule_delivery(Sink(), None, 0, 0, delay=2)
    sim.schedule_call(lambda tag: order.append(tag), ("call",), delay=2)
    sim.run(5)
    assert order == ["plain", "delivery", "call"]


def test_derived_rng_is_deterministic():
    sim_a = Simulator(seed=11)
    sim_b = Simulator(seed=11)
    assert sim_a.derived_rng(3).random() == sim_b.derived_rng(3).random()
    assert sim_a.derived_rng(3).random() != sim_a.derived_rng(4).random()


def test_events_processed_accumulates():
    sim = Simulator()
    for delay in (1, 2, 3):
        sim.schedule(lambda: None, delay=delay)
    sim.run(2)
    assert sim.events_processed == 2
    sim.run(2)
    assert sim.events_processed == 3


# ---------------------------------------------------------------------- #
# Edge cases the calendar queue must honor (run against both kernels)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_same_cycle_fifo_across_all_schedule_kinds(kernel_cls):
    """Interleaved schedule/schedule_call/schedule_delivery keep seq order."""
    sim = kernel_cls()
    order = []

    class Sink:
        def receive_packet(self, packet, in_port, vc_index):
            order.append(packet)

    sim.schedule_call(lambda tag: order.append(tag), ("call-1",), delay=3)
    sim.schedule(lambda: order.append("plain-1"), delay=3)
    sim.schedule_delivery(Sink(), "delivery-1", 0, 0, delay=3)
    sim.schedule_call(lambda tag: order.append(tag), ("call-2",), delay=3)
    sim.schedule_delivery(Sink(), "delivery-2", 0, 0, delay=3)
    sim.schedule(lambda: order.append("plain-2"), delay=3)
    sim.run(5)
    assert order == [
        "call-1", "plain-1", "delivery-1", "call-2", "delivery-2", "plain-2"
    ]


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_event_at_exactly_end_cycle_runs(kernel_cls):
    sim = kernel_cls()
    fired = []
    sim.schedule_at(lambda: fired.append(sim.cycle), 10)
    sim.run_until(10)
    assert fired == [10]
    assert sim.cycle == 10


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_event_one_past_end_cycle_stays_queued(kernel_cls):
    sim = kernel_cls()
    fired = []
    sim.schedule_at(lambda: fired.append(sim.cycle), 11)
    sim.run_until(10)
    assert fired == []
    assert sim.pending_events == 1
    sim.run_until(11)
    assert fired == [11]


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_reentrant_run_rejected(kernel_cls):
    sim = kernel_cls()
    errors = []

    def reenter():
        try:
            sim.run(1)
        except SimulationError:
            errors.append("run")
        try:
            sim.run_to_completion()
        except SimulationError:
            errors.append("run_to_completion")

    sim.schedule(reenter, delay=1)
    sim.run(2)
    assert errors == ["run", "run_to_completion"]
    # The failed re-entry must not wedge the kernel.
    sim.schedule(lambda: errors.append("after"), delay=1)
    sim.run(2)
    assert errors[-1] == "after"


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_far_future_event_crosses_bucket_horizon(kernel_cls):
    """An overflow event must merge back in ahead of later-scheduled peers."""
    sim = kernel_cls(horizon=8)
    order = []
    # Scheduled far beyond the 8-cycle window: lands in the overflow heap
    # (calendar) or simply deep in the heap (reference kernel).
    sim.schedule_at(lambda: order.append("early-seq"), 100)
    sim.schedule_at(lambda: order.append("waypoint"), 50)

    def late_same_cycle():
        # By now cycle 100 is inside the window; this entry goes straight to
        # the ring bucket that the overflow event must already occupy.
        sim.schedule_at(lambda: order.append("late-seq"), 100)

    sim.schedule_at(late_same_cycle, 99)
    sim.run_until(200)
    assert order == ["waypoint", "early-seq", "late-seq"]
    assert sim.cycle == 200


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_overflow_chain_across_many_windows(kernel_cls):
    sim = kernel_cls(horizon=4)
    fired = []

    def hop(n):
        fired.append(sim.cycle)
        if n:
            sim.schedule(lambda: hop(n - 1), delay=13)

    sim.schedule(lambda: hop(5), delay=13)
    sim.run_to_completion()
    assert fired == [13 * (i + 1) for i in range(6)]


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_bounded_run_to_completion_event_at_exact_limit(kernel_cls):
    sim = kernel_cls()
    fired = []
    sim.schedule(lambda: fired.append(sim.cycle), delay=100)
    sim.run_to_completion(max_cycles=100)
    assert fired == [100]
    assert sim.cycle == 100


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_events_processed_counts_event_that_raises(kernel_cls):
    """Regression: a raising callback must still be counted as processed."""
    sim = kernel_cls()
    ran = []
    sim.schedule(lambda: ran.append("ok"), delay=1)

    def boom():
        raise RuntimeError("boom")

    sim.schedule(boom, delay=1)
    sim.schedule(lambda: ran.append("never"), delay=1)
    with pytest.raises(RuntimeError):
        sim.run(5)
    # Both the successful event and the raising one began executing.
    assert sim.events_processed == 2
    assert ran == ["ok"]
    # The kernel is not wedged and the remaining event is still queued.
    assert sim.pending_events == 1
    sim.run(5)
    assert ran == ["ok", "never"]
    assert sim.events_processed == 3


@pytest.mark.parametrize("kernel_cls", KERNELS)
def test_next_event_cycle_reports_earliest(kernel_cls):
    sim = kernel_cls(horizon=8)
    assert sim.next_event_cycle is None
    sim.schedule_at(lambda: None, 300)  # overflow on the calendar kernel
    assert sim.next_event_cycle == 300
    sim.schedule_at(lambda: None, 5)
    assert sim.next_event_cycle == 5
    sim.run_until(5)
    assert sim.next_event_cycle == 300


def test_kernels_execute_identical_event_order():
    """Randomized workload: both kernels fire events in the same order."""
    import random

    def drive(sim):
        rng = random.Random(99)
        trace = []

        def evt(tag):
            trace.append((sim.cycle, tag))
            for _ in range(rng.randrange(3)):
                delay = rng.choice((0, 1, 2, 3, 17, 1500))
                sim.schedule_call(evt, (f"{tag}/{delay}",), delay)

        for i in range(20):
            sim.schedule_call(evt, (f"root{i}",), rng.randrange(40))
        sim.run_until(4000)
        return trace, sim.events_processed

    trace_cal, n_cal = drive(Simulator(seed=7, horizon=16))
    trace_heap, n_heap = drive(HeapSimulator(seed=7))
    assert n_cal == n_heap
    assert trace_cal == trace_heap
