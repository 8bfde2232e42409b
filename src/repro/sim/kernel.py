"""Event-driven simulation kernel with cycle granularity.

Events are callables scheduled at integer cycles.  Components (routers,
cache banks, cores) schedule themselves only when they have work, so an
idle 64-core chip costs nothing per cycle.  Determinism is guaranteed by
the ``(cycle, seq)`` contract: events fire in cycle order, and events
sharing a cycle fire in the order they were scheduled.

Two interchangeable schedulers implement that contract:

* :class:`Simulator` (the default) is a **calendar queue**: a ring of
  per-cycle buckets covering a sliding window of ``horizon`` cycles ahead
  of the clock, with a binary heap holding the rare far-future events that
  fall outside the window.  Scheduling inside the window is a plain list
  append, and :meth:`Simulator.run_until` drains one cycle's entire bucket
  in FIFO order without any per-event re-heapifying — the append order of
  a bucket *is* the ``seq`` order, so the sequence counter is only
  materialised for overflow events.  Overflow events migrate into the ring
  strictly before the window advances over their cycle, which keeps the
  merged order identical to a global ``(cycle, seq)`` sort.
* :class:`HeapSimulator` is the previous binary-heap implementation, kept
  only as the test oracle the calendar queue is diffed against: the two
  kernels execute bit-identical event orders (asserted by
  ``scripts/check_kernel_equivalence.py`` in CI and by the
  kernel-parametrised tests).

Internally every queue entry carries ``(callback, args)``.  Carrying the
argument tuple in the event itself lets hot paths such as packet delivery
(:meth:`Simulator.schedule_delivery`) schedule a bound method plus its
arguments directly instead of allocating a fresh closure per packet, which
measurably reduces allocation pressure in large sweeps.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Tuple

_NO_ARGS: Tuple = ()

#: Width of the calendar ring in cycles (rounded up to a power of two).
#: Delays up to the horizon — which covers every per-hop, serialization and
#: memory latency in the model — schedule with a list append; longer delays
#: take the overflow heap.  1024 buckets cost ~60 KB per Simulator.
DEFAULT_HORIZON = 1024


class SimulationError(RuntimeError):
    """Raised when the kernel is used incorrectly (e.g. scheduling in the past)."""


class Simulator:
    """Global simulation clock and calendar-queue event scheduler.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All stochastic
        decisions in the model draw either from this RNG or from per-component
        RNGs derived from it, so runs are reproducible.
    horizon:
        Width of the calendar ring in cycles (rounded up to a power of two).
        Exposed for tests that exercise window wrap-around; the default suits
        every model in the repository.
    """

    #: Scheduler implementation name, for logs and equivalence checks.
    kernel = "calendar"

    def __init__(self, seed: int = 0, horizon: int = DEFAULT_HORIZON) -> None:
        self.cycle: int = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self._seq: int = 0
        self._events_processed: int = 0
        self._running = False
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        size = 1
        while size < horizon:
            size <<= 1
        self._horizon = size
        self._mask = size - 1
        #: Ring of per-cycle FIFO buckets.  Invariant: every bucketed event's
        #: cycle lies in ``[self.cycle, self._win_end)`` with
        #: ``_win_end - self.cycle <= horizon`` at every point where user code
        #: can schedule, so a bucket never mixes two cycles.
        self._buckets: List[list] = [[] for _ in range(size)]
        self._bucket_count: int = 0
        #: Far-future events as ``(cycle, seq, callback, args)`` heap entries;
        #: migrated into the ring before the window reaches their cycle.
        self._overflow: list = []
        self._win_end: int = size

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, callback: Callable[[], None], delay: int = 0) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        self.schedule_at(callback, self.cycle + delay)

    def schedule_at(self, callback: Callable[[], None], cycle: int) -> None:
        """Schedule ``callback`` at an absolute ``cycle``."""
        if cycle < self.cycle:
            raise SimulationError(
                f"cannot schedule event in the past (cycle {cycle} < now {self.cycle})"
            )
        if cycle < self._win_end:
            self._buckets[cycle & self._mask].append((callback, _NO_ARGS))
            self._bucket_count += 1
        else:
            heapq.heappush(self._overflow, (cycle, self._seq, callback, _NO_ARGS))
            self._seq += 1

    def schedule_call(self, callback: Callable[..., None], args: Tuple, delay: int = 0) -> None:
        """Schedule ``callback(*args)`` without wrapping it in a closure.

        The fast path for hot callers: the argument tuple rides along in the
        event entry, so no per-event lambda (with its defaults tuple and
        function object) has to be allocated.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        cycle = self.cycle + delay
        if cycle < self._win_end:
            self._buckets[cycle & self._mask].append((callback, args))
            self._bucket_count += 1
        else:
            heapq.heappush(self._overflow, (cycle, self._seq, callback, args))
            self._seq += 1

    def schedule_delivery(
        self, sink, packet, in_port: int, vc_index: int, delay: int
    ) -> None:
        """Fast path for packet delivery: ``sink.receive_packet(packet, ...)``.

        Equivalent to ``schedule(lambda: sink.receive_packet(...), delay)``
        but allocation-light; this is the single most frequent event in any
        network-bound simulation.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        cycle = self.cycle + delay
        if cycle < self._win_end:
            self._buckets[cycle & self._mask].append(
                (sink.receive_packet, (packet, in_port, vc_index))
            )
            self._bucket_count += 1
        else:
            heapq.heappush(
                self._overflow,
                (cycle, self._seq, sink.receive_packet, (packet, in_port, vc_index)),
            )
            self._seq += 1

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, cycles: int) -> int:
        """Advance the simulation by ``cycles`` cycles.

        Returns the number of events processed during this call.  Events
        scheduled beyond the horizon remain queued for subsequent calls.
        """
        return self.run_until(self.cycle + cycles)

    def _migrate(self, window_end: int) -> None:
        """Move overflow events with ``cycle < window_end`` into the ring.

        Called strictly before the window advances over those cycles, so a
        migrated event always lands in its bucket ahead of any event
        scheduled for the same cycle afterwards — preserving global
        ``(cycle, seq)`` order without storing ``seq`` in the ring.
        """
        overflow = self._overflow
        buckets = self._buckets
        mask = self._mask
        moved = 0
        pop = heapq.heappop
        while overflow and overflow[0][0] < window_end:
            cycle, _seq, callback, args = pop(overflow)
            buckets[cycle & mask].append((callback, args))
            moved += 1
        self._bucket_count += moved

    def run_until(self, end_cycle: int) -> int:
        """Process events until the clock reaches ``end_cycle``.

        One cycle's bucket is drained start to finish — including events a
        callback appends for the *current* cycle — before the clock moves,
        so all same-cycle work batches into a single drain pass.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        buckets = self._buckets
        mask = self._mask
        horizon = self._horizon
        overflow = self._overflow
        t = self.cycle
        try:
            while t <= end_cycle:
                if overflow and overflow[0][0] < t + horizon:
                    self._migrate(t + horizon)
                if not self._bucket_count:
                    if not overflow or overflow[0][0] > end_cycle:
                        break
                    t = overflow[0][0]
                    continue
                bucket = buckets[t & mask]
                if bucket:
                    self.cycle = t
                    self._win_end = t + horizon
                    i = 0
                    try:
                        # A for-loop over a growing list picks up same-cycle
                        # appends made by callbacks (list iterators re-check
                        # the length), giving the batch-drain semantics with
                        # one bound-check per event instead of an explicit
                        # len() call.
                        for i, (callback, args) in enumerate(bucket, 1):
                            callback(*args)
                    finally:
                        # Events that began executing are counted and removed
                        # even if one of them raised; the rest of the bucket
                        # stays queued for a resumed run.
                        processed += i
                        self._bucket_count -= i
                        del bucket[:i]
                t += 1
            if end_cycle > self.cycle:
                self.cycle = end_cycle
            if overflow and overflow[0][0] < self.cycle + horizon:
                self._migrate(self.cycle + horizon)
            self._win_end = self.cycle + horizon
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    def run_to_completion(self, max_cycles: Optional[int] = None) -> int:
        """Process events until the queue drains (or ``max_cycles`` elapse).

        With ``max_cycles`` given, the clock always advances to the limit —
        exactly like :meth:`run_until` — even when the first deferred event
        lies beyond it, so back-to-back bounded calls observe a consistent
        clock.  Without a limit the clock rests at the last executed event.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        limit = None if max_cycles is None else self.cycle + max_cycles
        buckets = self._buckets
        mask = self._mask
        horizon = self._horizon
        overflow = self._overflow
        t = self.cycle
        try:
            while True:
                if overflow and overflow[0][0] < t + horizon:
                    self._migrate(t + horizon)
                if not self._bucket_count:
                    if not overflow:
                        break
                    nxt = overflow[0][0]
                    if limit is not None and nxt > limit:
                        break
                    t = nxt
                    continue
                if limit is not None and t > limit:
                    break
                bucket = buckets[t & mask]
                if bucket:
                    self.cycle = t
                    self._win_end = t + horizon
                    i = 0
                    try:
                        for i, (callback, args) in enumerate(bucket, 1):
                            callback(*args)
                    finally:
                        processed += i
                        self._bucket_count -= i
                        del bucket[:i]
                t += 1
            if limit is not None and limit > self.cycle:
                self.cycle = limit
            if overflow and overflow[0][0] < self.cycle + horizon:
                self._migrate(self.cycle + horizon)
            self._win_end = self.cycle + horizon
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return self._bucket_count + len(self._overflow)

    @property
    def next_event_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event, or ``None`` when idle.

        Introspection only (tests, debugging); the run loops never call it.
        """
        earliest = self._overflow[0][0] if self._overflow else None
        if self._bucket_count:
            buckets = self._buckets
            mask = self._mask
            for t in range(self.cycle, self._win_end):
                if buckets[t & mask]:
                    return t if earliest is None or t < earliest else earliest
        return earliest

    @property
    def events_processed(self) -> int:
        """Total number of events executed since construction.

        Updated even when a callback raises: events that began executing
        before the exception are included (regression-tested), so profiling
        and equivalence checks never undercount on error paths.
        """
        return self._events_processed

    def derived_rng(self, salt: int) -> random.Random:
        """Return a deterministic per-component RNG derived from the seed."""
        return random.Random((self.seed * 1_000_003 + salt) & 0xFFFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(cycle={self.cycle}, "
            f"pending={self.pending_events})"
        )


class HeapSimulator(Simulator):
    """Reference binary-heap scheduler (the pre-calendar implementation).

    Exists only as the reference the calendar queue is diffed against: it
    is never constructed by the simulator itself, only by tests and the
    equivalence and benchmark scripts.  Events are ``(cycle, seq,
    callback, args)`` heap entries; execution order is bit-identical to the
    calendar queue, which CI asserts on a congested mesh so the two can
    never silently diverge.
    """

    kernel = "heap"

    #: Class-level sentinel: ``Component.wake``'s inlined ring-append fast
    #: path tests ``target < sim._win_end`` — with a zero window every wake
    #: falls through to :meth:`schedule_at` and lands on the heap.
    _win_end = 0

    def __init__(self, seed: int = 0, horizon: int = DEFAULT_HORIZON) -> None:
        self.cycle = 0
        self.seed = seed
        self.rng = random.Random(seed)
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._queue: list = []

    # ------------------------------------------------------------------ #
    def schedule_at(self, callback: Callable[[], None], cycle: int) -> None:
        if cycle < self.cycle:
            raise SimulationError(
                f"cannot schedule event in the past (cycle {cycle} < now {self.cycle})"
            )
        heapq.heappush(self._queue, (cycle, self._seq, callback, _NO_ARGS))
        self._seq += 1

    def schedule_call(self, callback: Callable[..., None], args: Tuple, delay: int = 0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        heapq.heappush(self._queue, (self.cycle + delay, self._seq, callback, args))
        self._seq += 1

    def schedule_delivery(
        self, sink, packet, in_port: int, vc_index: int, delay: int
    ) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay}")
        heapq.heappush(
            self._queue,
            (self.cycle + delay, self._seq, sink.receive_packet, (packet, in_port, vc_index)),
        )
        self._seq += 1

    # ------------------------------------------------------------------ #
    def run_until(self, end_cycle: int) -> int:
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue and queue[0][0] <= end_cycle:
                cycle, _seq, callback, args = pop(queue)
                self.cycle = cycle
                processed += 1
                callback(*args)
            if end_cycle > self.cycle:
                self.cycle = end_cycle
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    def run_to_completion(self, max_cycles: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        limit = None if max_cycles is None else self.cycle + max_cycles
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                cycle = queue[0][0]
                if limit is not None and cycle > limit:
                    break
                _cycle, _seq, callback, args = pop(queue)
                self.cycle = cycle
                processed += 1
                callback(*args)
            if limit is not None and limit > self.cycle:
                self.cycle = limit
        finally:
            self._running = False
            self._events_processed += processed
        return processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def next_event_cycle(self) -> Optional[int]:
        return self._queue[0][0] if self._queue else None
