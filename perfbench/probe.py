"""Spans around the public calls the benchmark makes into the simulator.

The benchmark measures the program from outside: it never edits ``src/``.
A :class:`Probe` records a span (name, start, end, parent, run id) around
every call it times.  Calls the benchmark makes itself are wrapped with
:meth:`Probe.span`; calls the program makes on the benchmark's behalf
(``run_sweep`` building chips, the engine loading from its cache...) are
timed by :meth:`Probe.instrument`, which wraps the public functions for
the duration of a ``with`` block and restores them afterwards.

The wrappers add a few microseconds per simulated point, so spans stay on
in untraced and traced runs alike; the optional profiler is what makes a
run "traced".
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

#: Span names whose host time counts as set-up (chip/network construction
#: and sweep expansion).
SETUP_SPANS = ("build", "network_build", "expand")
#: Span names that advance the timing simulator: the detailed windows.
DETAILED_SPANS = ("detailed_warmup", "measure", "inject", "drain")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Host-speed samples taken while this was the innermost open span.
    speed_sum: float = 0.0
    speed_samples: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int) -> Dict[str, object]:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            **self.attrs,
        }


class Probe:
    """In-memory span recorder, optionally driving a profiler per workload."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Label stamped on every span opened from now on.
        self.run_id = ""
        #: A ``cProfile.Profile`` enabled inside :meth:`workload` spans.
        self.profiler = None
        self._open: List[int] = []
        #: The time source of spans (see :class:`perfbench.hostspeed.HostSpeed`).
        self.clock = perf_counter
        #: Name given to the next ``Simulator.run`` span of the current chip.
        self._sim_phase = "detailed_warmup"

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = Span(name, self.clock(), 0.0, parent, self.run_id, dict(attrs))
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def add_speed_sample(self, speed: float) -> None:
        if self._open:
            span = self.spans[self._open[-1]]
            span.speed_sum += speed
            span.speed_samples += 1

    @contextmanager
    def workload(self, name: str):
        """The top-level span of one repetition, profiled when tracing."""
        with self.span("workload", workload=name) as span:
            if self.profiler is not None:
                self.profiler.enable()
            try:
                yield span
            finally:
                if self.profiler is not None:
                    self.profiler.disable()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def of_run(self, run: str, names: Iterable[str]) -> List[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.run == run and s.name in wanted]

    def seconds(self, run: str, *names: str) -> float:
        return sum(s.seconds for s in self.of_run(run, names))

    def attr_sum(self, run: str, key: str, *names: str) -> int:
        return sum(s.attrs.get(key, 0) for s in self.of_run(run, names))

    def self_seconds(self, run: str) -> List[Tuple[Span, float]]:
        """Every span of ``run`` in order, with its length less its children's.

        The self times of a repetition's spans add up to its ``workload`` span.
        """
        own = {i: s.seconds for i, s in enumerate(self.spans) if s.run == run}
        for i in own:
            parent = self.spans[i].parent
            if parent in own:
                own[parent] -= self.spans[i].seconds
        return [(self.spans[i], seconds) for i, seconds in own.items()]

    def export(self) -> List[Dict[str, object]]:
        return [span.to_dict(index) for index, span in enumerate(self.spans)]

    # ------------------------------------------------------------------ #
    # Instrumentation of the program's public calls
    # ------------------------------------------------------------------ #
    @contextmanager
    def instrument(self):
        """Time the public calls a sweep or chip run makes, then restore them."""
        from repro.chip.chip import Chip
        from repro.experiments import engine
        from repro.scenarios.spec import SweepSpec
        from repro.sim.kernel import Simulator

        probe = self

        def on_build(_args) -> None:
            probe._sim_phase = "detailed_warmup"

        def on_reset(_args) -> None:
            probe._sim_phase = "measure"

        def sim_run_attrs(span, args, kwargs, _result) -> None:
            span.name = probe._sim_phase
            span.attrs["cycles"] = args[1] if len(args) > 1 else kwargs["cycles"]

        def collect_attrs(span, args, _kwargs, result) -> None:
            chip = args[0]
            span.attrs.update(
                events=chip.sim.events_processed,
                instructions=result.total_instructions,
                l1d_misses=sum(n.l1d.misses for n in chip.core_nodes.values()),
                mem_queue_cycles=sum(
                    mc.channel.total_queue_cycles
                    for mc in chip.memory_controllers.values()
                ),
            )

        targets = [
            (Chip, "__init__", "build", on_build, None),
            (Chip, "warmup", "warmup", None, None),
            (Chip, "reset_statistics", None, on_reset, None),
            (Chip, "collect_results", "collect", None, collect_attrs),
            (Simulator, "run", "sim.run", None, sim_run_attrs),
            (engine, "execute_point", "execute_point", None, None),
            (engine.ResultCache, "load", "cache.load", None, None),
            (engine.ResultCache, "store", "cache.store", None, None),
            (engine.ExperimentPoint, "content_hash", "hash", None, None),
            (SweepSpec, "expand", "expand", None, None),
        ]
        originals = []
        try:
            for owner, attr, name, before, after in targets:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def _wrap(self, original, name, before, after):
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if name is None:
                return original(*args, **kwargs)
            with probe.span(name) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
            return result

        return wrapper
