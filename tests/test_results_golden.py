"""Simulated outputs stay byte-identical across host-only changes.

``tests/data/results_golden_v2.json`` holds, for a handful of small points
(one per built-in fabric plus one tenanted chip), the SHA-256 of the
sorted-key JSON of ``SimulationResults.to_dict()``.  A change that only
makes the simulator faster (warm-up, kernel, data structures) must leave
every digest unchanged; a change that is meant to move outputs bumps
``MODEL_VERSION`` and regenerates the file::

    PYTHONPATH=src python -m tests.test_results_golden > tests/data/results_golden_v2.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.chip.chip import Chip
from repro.scenarios.registry import build_system, workload
from repro.tenancy.placement import build_placement

GOLDEN = Path(__file__).parent / "data" / "results_golden_v2.json"

WARMUP_REFERENCES = 1000
DETAILED_WARMUP_CYCLES = 300
MEASURE_CYCLES = 1500

#: name -> (topology, workload, seed); one point per built-in fabric.
FABRIC_POINTS = {
    "mesh/Data Serving": ("mesh", "Data Serving", 1),
    "flattened_butterfly/MapReduce-C": ("flattened_butterfly", "MapReduce-C", 2),
    "noc_out/Web Search": ("noc_out", "Web Search", 3),
    "ideal/SAT Solver": ("ideal", "SAT Solver", 4),
    "cmesh/MapReduce-W": ("cmesh", "MapReduce-W", 5),
    "chiplet/Web Frontend": ("chiplet", "Web Frontend", 6),
}
TENANTED_POINT = "mesh/split_half[Data Serving+MapReduce-C]"
POINTS = sorted([*FABRIC_POINTS, TENANTED_POINT])


def point_config(name: str):
    if name == TENANTED_POINT:
        wmap = build_placement(
            "split_half", 64, ["Data Serving", "MapReduce-C"], arrival="bursty", rate=0.05
        )
        return build_system("mesh", num_cores=64, seed=7).with_workload_map(wmap)
    topology, workload_name, seed = FABRIC_POINTS[name]
    return build_system(topology, num_cores=64, seed=seed).with_workload(
        workload(workload_name)
    )


def results_digest(name: str) -> str:
    results = Chip(point_config(name)).run_experiment(
        warmup_references=WARMUP_REFERENCES,
        detailed_warmup_cycles=DETAILED_WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES,
    )
    payload = json.dumps(results.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_golden_file_covers_every_point():
    assert sorted(json.loads(GOLDEN.read_text())) == POINTS


@pytest.mark.parametrize("name", POINTS)
def test_results_are_byte_identical_to_golden(name):
    assert results_digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: results_digest(name) for name in POINTS}, indent=1, sort_keys=True))
