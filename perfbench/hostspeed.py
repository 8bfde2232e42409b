"""The host's speed, sampled on a timer with a fixed reference loop.

On a shared host the CPU a run gets is at times markedly slower than at
others, as neighbours come and go, and the speed changes every few
seconds.  A :class:`HostSpeed` interrupts the program every :data:`PERIOD`
seconds (``SIGALRM``) and times a small pure-Python reference loop that
never changes with the program.  Its speed, relative to
:data:`REFERENCE_SECONDS`, is charged to the innermost open span of the
probe, and the time the sampling takes is left out of every span.  A
span's host time multiplied by its mean sampled speed is the time it
would have taken on the reference host at full speed.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

from perfbench.probe import Probe

#: Seconds the timed reference pass takes at full speed on the reference
#: host (a 2-vCPU KVM guest on an Intel Xeon, Python 3.11; see BASELINE.md).
REFERENCE_SECONDS = 150e-6
#: Seconds between samples.
PERIOD = 0.02
REFERENCE_ITERATIONS = 800


class _Node:
    """Object traffic like the simulator's: slots, method calls, dicts."""

    __slots__ = ("left", "right", "table")

    def __init__(self) -> None:
        self.left = 1
        self.right = 2
        self.table = {}

    def step(self, x: int) -> int:
        return self.left + x if x & 1 else self.right - x


_NODE = _Node()


def reference_loop() -> None:
    """The fixed reference work.  It allocates no object the GC tracks."""
    node = _NODE
    table = node.table
    for i in range(REFERENCE_ITERATIONS):
        table[i & 63] = node.step(i) + table.get((i + 1) & 63, 0)


class HostSpeed:
    """Sample the host's speed into ``probe`` while the ``with`` block runs.

    While active, the probe's clock leaves out the time spent sampling.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        #: Seconds spent sampling so far.
        self.excluded = 0.0
        self._previous_handler = None

    def clock(self) -> float:
        return perf_counter() - self.excluded

    def sample(self) -> float:
        """Time the reference loop once, warm; return the speed it shows."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_loop()  # warm the loop's code and data first
            start = perf_counter()
            reference_loop()
            return REFERENCE_SECONDS / (perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def _on_timer(self, _signum, _frame) -> None:
        start = perf_counter()
        self.probe.add_speed_sample(self.sample())
        self.excluded += perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        self.probe.clock = self.clock
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.probe.clock = perf_counter
