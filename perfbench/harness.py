"""Run one workload for a time budget and turn its spans into metrics.

Untraced runs (``trace=False``) repeat the workload until the budget is
spent and report the end-to-end metrics as medians over the repetitions
after the first, in reference-host seconds (see :meth:`Run.measure`).
Traced runs alternate an untraced and a cProfile-traced repetition and
report the per-layer metrics: span-derived phase times from the untraced
repetition, self times from the traced one, and their wall-clock ratio as
``trace.overhead_ratio``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import resource
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from perfbench.checks import Checks
from perfbench.hostspeed import HostSpeed
from perfbench.layers import LAYERS, LayerMap
from perfbench.probe import DETAILED_SPANS, SETUP_SPANS, Probe, Span
from perfbench.workloads import DEFAULT_SIZES, WORKLOADS, Outcome, Sizes

#: End-to-end metrics (untraced runs) and their units.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_kcycles_per_s": "kcycles/s",
    "sim_kips": "kinst/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs) and their units.
PER_LAYER_UNITS = {
    "chip.build_s": "s",
    "chip.warmup_s": "s",
    "chip.detailed_warmup_s": "s",
    "chip.measure_s": "s",
    "chip.collect_s": "s",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "noc.messages_delivered": "count",
    "noc.flits_switched": "count",
    "noc.mean_latency_cycles": "cycles",
    "noc.mean_hops": "hops",
    "cache.llc_accesses": "count",
    "cache.llc_hit_rate": "ratio",
    "cache.l1d_misses": "count",
    "cache.bank_conflicts": "count",
    "cache.memory_reads": "count",
    "cache.mem_queue_cycles": "cycles",
    "cpu.instructions": "count",
    "workloads.blocks_generated": "count",
    "experiments.cache_store_s": "s",
    "experiments.cache_load_s": "s",
    "experiments.hash_s": "s",
    "experiments.simulations_run": "count",
    "experiments.cache_hits": "count",
    "scenarios.expand_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

#: Per-layer phase times read from spans, by span name.
PHASE_SPANS = {
    "chip.build_s": "build",
    "chip.warmup_s": "warmup",
    "chip.detailed_warmup_s": "detailed_warmup",
    "chip.measure_s": "measure",
    "chip.collect_s": "collect",
    "experiments.cache_store_s": "cache.store",
    "experiments.cache_load_s": "cache.load",
    "experiments.hash_s": "hash",
    "scenarios.expand_s": "expand",
}


def _medians(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}


def _repeat(seconds: float, step: Callable[[], None]) -> None:
    """Call ``step`` at least once, and again while it should end in time.

    Another call starts only if, at the mean call time so far, it should
    end within ``seconds`` of the start, so a run never much exceeds
    ``seconds`` however long its repetitions are.
    """
    start = perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        now = perf_counter()
        if now + (now - start) / calls > start + seconds:
            return


class Run:
    """One benchmark invocation: a workload, a seed and a time budget."""

    def __init__(
        self,
        workload: str,
        seed: int,
        work_dir: Path,
        sizes: Sizes = DEFAULT_SIZES,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.sizes = sizes
        self.probe = Probe()
        self.checks = Checks()
        #: (run id, outcome) of every repetition, in order.
        self.repetitions: List[Tuple[str, Outcome]] = []
        #: Traced run id -> per-layer self time (filled by :meth:`trace`).
        self.layer_self_times: Dict[str, Dict[str, float]] = {}
        #: Packages under ``repro`` that ``LAYER_OF_PACKAGE`` does not name.
        self.unknown_packages: List[str] = []
        #: Host-time medians and median host speed (filled by :meth:`measure`).
        self.raw: Dict[str, float] = {}
        self.host_speed = 1.0

    def repetition(self, run_id: str) -> Outcome:
        """Run the workload once against a fresh private cache directory.

        The previous repetition's cyclic garbage (chips are full of
        reference cycles) is collected first, so neither its collection
        time nor its memory lands in this repetition.
        """
        gc.collect()
        self.probe.run_id = run_id
        self.work_dir.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=self.work_dir))
        try:
            outcome = WORKLOADS[self.workload].run(
                self.seed, self.sizes, self.probe, self.checks, scratch
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if self.repetitions:
            first_id, first = self.repetitions[0]
            self.checks.check(
                f"{run_id} digest equals {first_id} digest",
                outcome.digest == first.digest,
                f"{outcome.digest} != {first.digest}",
            )
        self.repetitions.append((run_id, outcome))
        return outcome

    # ------------------------------------------------------------------ #
    def measure(self, seconds: float) -> Dict[str, float]:
        """Untraced repetitions until ``seconds`` pass; end-to-end medians.

        Times are reference-host seconds: each span's self time multiplied
        by the host speed sampled while it ran (:mod:`perfbench.hostspeed`),
        so that a neighbour's load on a shared host does not read as a
        slower program.  :attr:`raw` keeps the plain host-time medians and
        :attr:`host_speed` the median sampled speed.

        The first repetition only warms up: it pays for lazy imports, and
        the heap grows during it, which moves the program's full garbage
        collections to other spans than in every later repetition.
        """
        with HostSpeed(self.probe):
            start = perf_counter()
            self.repetition("rep1")
            _repeat(
                seconds - (perf_counter() - start),
                lambda: self.repetition(f"rep{len(self.repetitions) + 1}"),
            )
        timed = self.repetitions[1:]
        self.raw = _medians(
            [self._end_to_end(self._pieces(run_id, normalized=False), out) for run_id, out in timed]
        )
        self.host_speed = statistics.median(self._speed(run_id) for run_id, _ in timed)
        metrics = _medians(
            [self._end_to_end(self._pieces(run_id), out) for run_id, out in timed]
        )
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics

    def _speed(self, run_id: str) -> float:
        """Mean host speed sampled during a repetition (1.0 if never sampled)."""
        spans = [span for span in self.probe.spans if span.run == run_id]
        samples = sum(span.speed_samples for span in spans)
        return sum(span.speed_sum for span in spans) / samples if samples else 1.0

    def _pieces(self, run_id: str, normalized: bool = True) -> List[Tuple[Span, float]]:
        """A repetition's spans with their self times in reference-host
        seconds (plain host seconds if not ``normalized``).  A span that was
        never sampled takes the repetition's mean speed."""
        pieces = self.probe.self_seconds(run_id)
        if not normalized:
            return pieces
        mean = self._speed(run_id)
        return [
            (span, seconds * (span.speed_sum / span.speed_samples if span.speed_samples else mean))
            for span, seconds in pieces
        ]

    @staticmethod
    def _end_to_end(pieces: List[Tuple[Span, float]], outcome: Outcome) -> Dict[str, float]:
        def seconds(*names: str) -> float:
            return sum(s for span, s in pieces if span.name in names)

        detailed_cycles = sum(
            span.attrs.get("cycles", 0) for span, _ in pieces if span.name in DETAILED_SPANS
        )
        return {
            "wall_s": sum(s for _, s in pieces),
            "setup_s": seconds(*SETUP_SPANS),
            "sim_kcycles_per_s": detailed_cycles / seconds(*DETAILED_SPANS) / 1000.0,
            "sim_kips": outcome.work_items / seconds(*outcome.work_spans) / 1000.0,
        }

    # ------------------------------------------------------------------ #
    def trace(self, seconds: float) -> Dict[str, float]:
        """Untraced/traced repetition pairs until ``seconds`` pass."""
        import repro

        layer_map = LayerMap(str(Path(repro.__file__).parent))
        samples = []

        def pair() -> None:
            plain_id, traced_id = f"untraced{len(samples) + 1}", f"traced{len(samples) + 1}"
            outcome = self.repetition(plain_id)
            self.probe.profiler = cProfile.Profile()
            try:
                self.repetition(traced_id)
            finally:
                profiler, self.probe.profiler = self.probe.profiler, None
            stats = pstats.Stats(profiler).stats
            self_times = layer_map.self_times(stats)
            self.layer_self_times[traced_id] = self_times
            samples.append(
                self._per_layer(plain_id, traced_id, outcome, stats, self_times, layer_map)
            )

        _repeat(seconds, pair)
        self.unknown_packages = sorted(layer_map.unknown_packages)
        return {
            name: statistics.median(sample[name] for sample in samples)
            for name in PER_LAYER_UNITS
        }

    def _per_layer(self, plain_id, traced_id, outcome, stats, self_times, layer_map):
        probe = self.probe
        metrics: Dict[str, float] = {
            name: probe.seconds(plain_id, span) for name, span in PHASE_SPANS.items()
        }
        metrics.update(outcome.counters)
        metrics["sim.host_ns_per_event"] = (
            1e9 * probe.seconds(plain_id, *DETAILED_SPANS) / outcome.counters["sim.events"]
        )
        metrics["workloads.blocks_generated"] = layer_map.call_count(
            stats, "workloads", "next_block"
        )
        total_self = sum(self_times.values())
        traced_wall = probe.seconds(traced_id, "workload")
        for layer, seconds in self_times.items():
            metrics[f"{layer}.self_s"] = seconds
            metrics[f"{layer}.share"] = seconds / total_self
        metrics["trace.overhead_ratio"] = traced_wall / probe.seconds(plain_id, "workload")
        metrics["trace.accounted_ratio"] = total_self / traced_wall
        return metrics

    def write_trace(self) -> Path:
        """Write the spans and per-layer self times; return the file."""
        path = self.work_dir / f"trace-{self.workload}-seed{self.seed}.json"
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "workload": self.workload,
                    "seed": self.seed,
                    "spans": self.probe.export(),
                    "layer_self_s": self.layer_self_times,
                },
                indent=1,
            )
        )
        return path
