"""The benchmark's three workloads, each one repetition at a time.

A workload function runs one repetition against the simulator's public
API, records its spans on the probe (under the probe's current run id),
checks the outputs into ``checks`` and returns an :class:`Outcome`.  All
inputs derive from ``seed``; the sizes are fixed by :data:`DEFAULT_SIZES`
(tests pass smaller ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.checks import Checks, digest, results_digest
from perfbench.probe import Probe


@dataclass(frozen=True)
class Sizes:
    """How much work one repetition of each workload does."""

    #: Figure-7 workloads (None = all six CloudSuite workloads).
    fig7_workloads: Optional[Tuple[str, ...]] = None
    #: ``RunSettings.scaled`` factor for the Figure-7 windows.
    fig7_scale: float = 0.25
    noc_window_cycles: int = 2000
    scaleout_cores: int = 1024
    scaleout_scale: float = 1.0


DEFAULT_SIZES = Sizes()

#: Uniform injection rate per node and cycle on the 64-bit-link 8x8 mesh:
#: past saturation (the ``congested_mesh`` shape of bench_kernel_hotpath).
NOC_INJECTION_RATE = 0.25


@dataclass
class Outcome:
    """What one repetition produced, beside its spans."""

    #: Fingerprint of every simulated output of the repetition.
    digest: str
    #: Simulated work in the ``work_spans``: committed instructions, or
    #: delivered messages on the network-only workload.
    work_items: int
    work_spans: Tuple[str, ...]
    #: Simulated counts and ``_cycles`` values, deterministic per seed.
    counters: Dict[str, float]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _chip_counters(results: List, probe: Probe) -> Dict[str, float]:
    """Per-layer counts summed (or message-weighted) over chip results."""
    run = probe.run_id
    delivered = sum(r.messages_delivered for r in results)
    accesses = sum(r.llc_accesses for r in results)
    return {
        "sim.events": probe.attr_sum(run, "events", "collect"),
        "noc.messages_delivered": delivered,
        "noc.flits_switched": sum(
            r.network_activity.get("flits_switched", 0.0) for r in results
        ),
        "noc.mean_latency_cycles": _ratio(
            sum(r.network_mean_latency * r.messages_delivered for r in results), delivered
        ),
        "noc.mean_hops": _ratio(
            sum(r.network_mean_hops * r.messages_delivered for r in results), delivered
        ),
        "cache.llc_accesses": accesses,
        "cache.llc_hit_rate": _ratio(
            sum(r.llc_hit_rate * r.llc_accesses for r in results), accesses
        ),
        "cache.l1d_misses": probe.attr_sum(run, "l1d_misses", "collect"),
        "cache.bank_conflicts": sum(r.bank_conflicts for r in results),
        "cache.memory_reads": sum(r.memory_reads for r in results),
        "cache.mem_queue_cycles": probe.attr_sum(run, "mem_queue_cycles", "collect"),
        "cpu.instructions": sum(r.total_instructions for r in results),
        "experiments.simulations_run": 0,
        "experiments.cache_hits": 0,
    }


def fig7_sweep(seed: int, sizes: Sizes, probe: Probe, checks: Checks, scratch: Path) -> Outcome:
    """Figure 7 cold through ``run_sweep`` into a fresh cache, then warm."""
    from repro.experiments.engine import ResultCache, SweepExecutor
    from repro.experiments.fig7_performance import figure7_spec
    from repro.experiments.harness import RunSettings
    from repro.scenarios import run_sweep

    settings = RunSettings(seed=seed).scaled(sizes.fig7_scale)
    spec = figure7_spec(sizes.fig7_workloads, settings=settings)
    executor = SweepExecutor(jobs=1, cache=ResultCache(scratch, backend="json"))
    with probe.instrument(), probe.workload("fig7_sweep"):
        with probe.span("cold_pass"):
            cold = run_sweep(spec, executor=executor)
        cold_stats = executor.last_stats
        with probe.span("warm_pass"):
            warm = run_sweep(spec, executor=executor)
        warm_stats = executor.last_stats

    points = len(cold)
    checks.check(
        "fig7 cold pass simulates every point",
        cold_stats.cache_hits == 0 and cold_stats.simulations_run == points,
        f"{cold_stats}",
    )
    for record in cold:
        label = f"{record.coords['workload']} / {record.coords['topology']}"
        checks.result(label, record.result, settings.measure_cycles)
    checks.check(
        "fig7 warm pass is served from the cache",
        warm_stats.simulations_run == 0 and warm_stats.cache_hits == points,
        f"{warm_stats}",
    )
    cold_results = [record.result for record in cold]
    warm_results = [record.result for record in warm]
    checks.check(
        "fig7 warm results equal cold results",
        [r.to_dict() for r in warm_results] == [r.to_dict() for r in cold_results],
    )
    counters = _chip_counters(cold_results, probe)
    counters["experiments.simulations_run"] = (
        cold_stats.simulations_run + warm_stats.simulations_run
    )
    counters["experiments.cache_hits"] = cold_stats.cache_hits + warm_stats.cache_hits
    return Outcome(
        digest=results_digest(cold_results),
        work_items=counters["cpu.instructions"],
        work_spans=("measure",),
        counters=counters,
    )


def noc_saturated_mesh(
    seed: int, sizes: Sizes, probe: Probe, checks: Checks, scratch: Path
) -> Outcome:
    """Uniform random traffic past saturation on an 8x8 mesh, then a drain."""
    from repro.config.noc import NocConfig, Topology
    from repro.config.system import SystemConfig
    from repro.noc.mesh import MeshNetwork
    from repro.sim.kernel import Simulator
    from repro.workloads.traffic import UniformRandomTrafficGenerator

    window = sizes.noc_window_cycles
    with probe.workload("noc_saturated_mesh"):
        with probe.span("network_build"):
            config = SystemConfig(
                num_cores=64,
                noc=NocConfig(topology=Topology.MESH, link_width_bits=64),
                seed=seed,
            )
            sim = Simulator(seed=seed)
            coords = {node: (node % 8, node // 8) for node in range(64)}
            network = MeshNetwork(sim, config, coords)
            generator = UniformRandomTrafficGenerator(
                sim, network, list(coords), NOC_INJECTION_RATE, seed=seed
            )
        with probe.span("inject", cycles=window):
            generator.start()
            sim.run(window)
        generator.stop()
        drain_start = sim.cycle
        with probe.span("drain") as drain:
            sim.run_to_completion()
        drain.attrs["cycles"] = sim.cycle - drain_start

    generated = int(generator.messages_generated.value)
    sent = int(network.messages_sent.value)
    delivered = int(network.messages_delivered.value)
    checks.check(
        "noc drained mesh conserves messages",
        generated == sent == delivered > 0 and sim.pending_events == 0,
        f"generated {generated}, sent {sent}, delivered {delivered}, "
        f"{sim.pending_events} events pending",
    )
    activity = network.activity()
    counters = {
        "sim.events": sim.events_processed,
        "noc.messages_delivered": delivered,
        "noc.flits_switched": activity["flits_switched"],
        "noc.mean_latency_cycles": network.mean_latency(),
        "noc.mean_hops": network.mean_hops(),
        "cache.llc_accesses": 0,
        "cache.llc_hit_rate": 0.0,
        "cache.l1d_misses": 0,
        "cache.bank_conflicts": 0,
        "cache.memory_reads": 0,
        "cache.mem_queue_cycles": 0,
        "cpu.instructions": 0,
        "experiments.simulations_run": 0,
        "experiments.cache_hits": 0,
    }
    payload = {
        "cycle": sim.cycle,
        "generated": generated,
        "network": network.stats.to_dict(),
        "activity": activity,
        "counters": counters,
    }
    return Outcome(
        digest=digest(payload),
        work_items=delivered,
        work_spans=("inject", "drain"),
        counters=counters,
    )


def scaleout_1024(seed: int, sizes: Sizes, probe: Probe, checks: Checks, scratch: Path) -> Outcome:
    """Data Serving at 1024 cores on the mesh and the chiplet fabric."""
    from repro.chip.chip import Chip
    from repro.experiments.harness import RunSettings
    from repro.scenarios import SweepSpec

    settings = RunSettings(seed=seed).scaled(sizes.scaleout_scale)
    spec = SweepSpec(
        axes={"topology": ("mesh", "chiplet")},
        settings=settings,
        fixed={"workload": "Data Serving", "num_cores": sizes.scaleout_cores},
    )
    results = []
    with probe.instrument(), probe.workload("scaleout_1024"):
        for sweep_point in spec.expand():
            topology = sweep_point.coords["topology"]
            with probe.span("point", topology=topology):
                chip = Chip(sweep_point.point.config)
                results.append(
                    chip.run_experiment(
                        warmup_references=settings.warmup_references,
                        detailed_warmup_cycles=settings.detailed_warmup_cycles,
                        measure_cycles=settings.measure_cycles,
                    )
                )
            del chip  # free this 1000-router fabric before building the next

    for result in results:
        label = f"{result.workload} / {result.topology} / {result.num_cores} cores"
        checks.result(label, result, settings.measure_cycles)
    counters = _chip_counters(results, probe)
    return Outcome(
        digest=results_digest(results),
        work_items=counters["cpu.instructions"],
        work_spans=("measure",),
        counters=counters,
    )


@dataclass(frozen=True)
class Workload:
    run: Callable[[int, Sizes, Probe, Checks, Path], Outcome]
    why: str


WORKLOADS: Dict[str, Workload] = {
    "fig7_sweep": Workload(
        fig7_sweep,
        "The paper's headline sweep (6 workloads x 3 fabrics, 64 cores), cold into a "
        "fresh cache then warm: every layer works, incl. the result store's writes and reads",
    ),
    "noc_saturated_mesh": Workload(
        noc_saturated_mesh,
        "Network only: 8x8 mesh, 64-bit links, uniform traffic past saturation, then a "
        "drain; kernel and router under backpressure, no cores, caches or warm-up",
    ),
    "scaleout_1024": Workload(
        scaleout_1024,
        "Data Serving on mesh and chiplet at 1024 cores: set-up (routing tables) is a "
        "third of wall-clock, and ~1000 mostly idle routers test that idle costs nothing",
    ),
}
