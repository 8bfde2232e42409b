"""Tests of the benchmark itself: metrics emitted, checks, layer map.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Workloads run at :data:`TINY` sizes so the suite takes seconds.
"""

import json
import math
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.checks import Checks, result_problems
from perfbench.harness import END_TO_END_UNITS, PER_LAYER_UNITS, Run
from perfbench.hostspeed import HostSpeed
from perfbench.layers import LAYER_OF_PACKAGE, LAYERS, LayerMap
from perfbench.probe import Probe
from perfbench.workloads import WORKLOADS, Sizes

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = Sizes(
    fig7_workloads=("Web Search",),
    fig7_scale=0.05,
    noc_window_cycles=200,
    scaleout_cores=64,
    scaleout_scale=0.05,
)


def _names(section):
    return [metric["name"] for metric in BENCHMARK[section]]


def test_benchmark_json_matches_the_code():
    for declared in BENCHMARK["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why
    assert _names("end_to_end") == list(END_TO_END_UNITS)
    assert _names("per_layer") == list(PER_LAYER_UNITS)
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        for metric in BENCHMARK[section]:
            assert metric["unit"] == units[metric["name"]]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_emits_every_end_to_end_metric(workload, tmp_path):
    run = Run(workload, seed=3, work_dir=tmp_path, sizes=TINY)
    metrics = run.measure(seconds=0)
    assert list(metrics) == _names("end_to_end")
    assert all(math.isfinite(value) and value > 0 for value in metrics.values()), metrics
    assert run.checks.failures == []
    assert run.checks.attempted >= 1


def test_end_to_end_times_are_scaled_by_the_sampled_host_speed(tmp_path, monkeypatch):
    # A host sampled at half the reference speed: every time halves.
    monkeypatch.setattr(HostSpeed, "sample", lambda self: 0.5)
    handler = signal.getsignal(signal.SIGALRM)
    run = Run("noc_saturated_mesh", seed=3, work_dir=tmp_path, sizes=TINY)
    metrics = run.measure(seconds=1.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(run.repetitions) >= 2
    assert sum(span.speed_samples for span in run.probe.spans) > 0
    assert run.host_speed == 0.5
    assert metrics["setup_s"] == pytest.approx(run.raw["setup_s"] / 2)
    assert metrics["sim_kcycles_per_s"] == pytest.approx(run.raw["sim_kcycles_per_s"] * 2)
    # The spans' self times add up to their repetition, and the first
    # repetition is a warm-up outside the medians.
    for run_id, _ in run.repetitions:
        wall = run.probe.seconds(run_id, "workload")
        assert sum(s for _, s in run.probe.self_seconds(run_id)) == pytest.approx(wall)
    walls = [run.probe.seconds(run_id, "workload") for run_id, _ in run.repetitions[1:]]
    assert metrics["wall_s"] == pytest.approx(statistics.median(walls) / 2)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_emits_every_per_layer_metric(workload, tmp_path):
    run = Run(workload, seed=3, work_dir=tmp_path, sizes=TINY)
    metrics = run.trace(seconds=0)
    assert list(metrics) == _names("per_layer")
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    assert run.checks.failures == []
    # The traced repetition simulated exactly what the untraced one did.
    (_, plain), (_, traced) = run.repetitions
    assert plain.digest == traced.digest
    assert sum(metrics[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)
    assert 0.8 < metrics["trace.accounted_ratio"] < 1.2
    spans = json.loads(run.write_trace().read_text())["spans"]
    assert {span["run"] for span in spans} == {"untraced1", "traced1"}


def test_network_only_workload_runs_no_chip_layers(tmp_path):
    metrics = Run("noc_saturated_mesh", seed=3, work_dir=tmp_path, sizes=TINY).trace(0)
    for name in ("chip.warmup_s", "cache.llc_accesses", "cpu.instructions", "cache.self_s"):
        assert metrics[name] == 0
    assert metrics["noc.messages_delivered"] > 0


def _results(**overrides):
    from repro.chip.chip import SimulationResults

    fields = dict(
        workload="w",
        topology="mesh",
        num_cores=4,
        active_cores=2,
        cycles=100,
        total_instructions=30,
        per_core_instructions={0: 10, 1: 20},
        messages_delivered=5,
        llc_hit_rate=0.5,
    )
    fields.update(overrides)
    return SimulationResults(**fields)


def test_consistent_result_passes():
    checks = Checks()
    assert checks.result("ok", _results(), measure_cycles=100)
    assert (checks.attempted, checks.failed) == (1, 0)


@pytest.mark.parametrize(
    "overrides, problem",
    [
        ({"total_instructions": 31}, "per-core sum"),
        ({"cycles": 99}, "measure_cycles"),
        ({"total_instructions": 0, "per_core_instructions": {}}, "no instructions"),
        ({"messages_delivered": 0}, "no messages"),
        ({"llc_hit_rate": 1.5}, "llc_hit_rate"),
        ({"l1d_miss_rate": -0.1}, "l1d_miss_rate"),
    ],
)
def test_tampered_result_counts_as_failed(overrides, problem):
    checks = Checks()
    assert not checks.result("tampered", _results(**overrides), measure_cycles=100)
    assert (checks.attempted, checks.failed) == (1, 1)
    assert problem in checks.failures[0]
    assert result_problems(_results(**overrides), 100)


def test_layer_map_covers_every_package():
    repro_dir = ROOT / "src" / "repro"
    packages = {p.name for p in repro_dir.iterdir() if (p / "__init__.py").is_file()}
    assert packages == set(LAYER_OF_PACKAGE) - {""}
    assert set(LAYER_OF_PACKAGE.values()) <= set(LAYERS)


def test_layer_attribution_accounts_for_all_profiled_time():
    repro_dir = ROOT / "src" / "repro"
    layer_map = LayerMap(str(repro_dir))
    noc_fn = (str(repro_dir / "noc" / "router.py"), 1, "_tick")
    tenancy_fn = (str(repro_dir / "tenancy" / "traffic.py"), 1, "_tick")
    bench_fn = (str(ROOT / "perfbench" / "run.py"), 1, "main")
    builtin = ("~", 0, "<method 'random' of '_random.Random' objects>")
    stats = {
        noc_fn: (1, 1, 2.0, 3.0, {}),
        tenancy_fn: (1, 1, 0.5, 0.5, {}),
        bench_fn: (1, 1, 0.25, 4.0, {}),
        # 1.0 s of builtin time from noc, 0.75 s from the benchmark.
        builtin: (5, 5, 1.75, 1.75, {noc_fn: (3, 3, 1.0, 1.0), bench_fn: (2, 2, 0.75, 0.75)}),
    }
    self_times = layer_map.self_times(stats)
    assert self_times["noc"] == 3.0
    assert self_times["workloads"] == 0.5
    assert self_times["other"] == 1.0
    assert sum(self_times.values()) == pytest.approx(4.5)
    assert layer_map.unknown_packages == set()


def test_instrumentation_is_transparent():
    from repro.chip.chip import Chip
    from repro.experiments import engine
    from repro.experiments.harness import RunSettings, point_for
    from repro.config import presets
    from repro.config.noc import Topology

    original_init = Chip.__init__
    point = point_for(
        Topology.MESH,
        presets.workload("Web Search"),
        num_cores=16,
        settings=RunSettings(1000, 200, 500, seed=5),
    )
    probe = Probe()
    with probe.instrument():
        traced = engine.execute_point(point)
    assert Chip.__init__ is original_init
    assert engine.execute_point(point).to_dict() == traced.to_dict()
    names = [span.name for span in probe.spans]
    assert names == [
        "execute_point", "build", "warmup", "detailed_warmup", "measure", "collect",
    ]
    assert [span.attrs.get("cycles") for span in probe.spans[3:5]] == [200, 500]
    assert all(span.parent == 0 for span in probe.spans[1:])


def test_cli_refuses_non_default_simulator_paths(monkeypatch):
    from perfbench import run

    monkeypatch.setenv("REPRO_KERNEL", "heap")
    with pytest.raises(SystemExit, match="REPRO_KERNEL"):
        run.main(["--workload", "noc_saturated_mesh", "--seed", "1", "--seconds", "0"])


def test_cli_prints_the_result_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noc_saturated_mesh",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == _names("end_to_end")
    assert any(line.split()[0] == "failed_frac" for line in lines[:-1])
