#!/usr/bin/env python3
"""CI check: the calendar and heap kernels are statistically equivalent.

Runs the seeded congested 8x8 mesh (the ``congested_mesh`` scenario from
``benchmarks/bench_kernel_hotpath.py``) once under each scheduler —
:class:`repro.sim.kernel.Simulator` (calendar queue) and
:class:`repro.sim.kernel.HeapSimulator` (reference binary heap) — and
asserts the runs are indistinguishable:

* identical ``events_processed`` (every kernel event fired on both);
* identical network statistics, compared via the full ``stats.to_dict()``
  tree (messages sent/delivered, per-class latency histograms, hop and
  flit-hop counts);
* identical per-interface injection/delivery counters.

Because both kernels execute the exact same callbacks, any divergence here
means event *order* diverged — which per the ``MODEL_VERSION`` policy in
``docs/experiments.md`` must be traced and version-bumped, never shipped
silently.  The calendar/heap swap itself required no bump precisely
because this check holds.

Exits non-zero with a diff summary on any mismatch.

Usage::

    python scripts/check_kernel_equivalence.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config.noc import NocConfig, Topology  # noqa: E402
from repro.config.system import SystemConfig  # noqa: E402
from repro.noc.mesh import MeshNetwork  # noqa: E402
from repro.sim.kernel import HeapSimulator, Simulator  # noqa: E402
from repro.workloads.traffic import UniformRandomTrafficGenerator  # noqa: E402

#: The congested_mesh scenario: heavy uniform traffic over narrow links,
#: so credit blocking, busy-port wakes and multi-candidate arbitration all
#: exercise heavily.  Must stay in sync with bench_kernel_hotpath.py.
INJECTION_RATE = 0.25
LINK_WIDTH_BITS = 64
CYCLES = 6_000
SIM_SEED = 3
TRAFFIC_SEED = 5


def run_scenario(kernel_cls) -> dict:
    sim = kernel_cls(seed=SIM_SEED)
    noc = NocConfig(topology=Topology.MESH, link_width_bits=LINK_WIDTH_BITS)
    config = SystemConfig(num_cores=64, noc=noc, seed=SIM_SEED)
    coords = {i: (i % 8, i // 8) for i in range(64)}
    network = MeshNetwork(sim, config, coords)
    generator = UniformRandomTrafficGenerator(
        sim, network, list(coords), INJECTION_RATE, seed=TRAFFIC_SEED
    )
    generator.start()
    sim.run(CYCLES)
    interfaces = {
        node: (ni.messages_injected, ni.messages_delivered, ni.flits_injected)
        for node, ni in network.interfaces.items()
    }
    return {
        "kernel": sim.kernel,
        "events_processed": sim.events_processed,
        "network_stats": network.stats.to_dict(),
        "generator_stats": generator.stats.to_dict(),
        "interfaces": interfaces,
    }


def diff_dicts(a: dict, b: dict, prefix: str = "") -> list:
    """Flat list of dotted paths where two nested dicts differ."""
    mismatches = []
    for key in sorted(set(a) | set(b)):
        path = f"{prefix}{key}"
        va, vb = a.get(key), b.get(key)
        if isinstance(va, dict) and isinstance(vb, dict):
            mismatches.extend(diff_dicts(va, vb, prefix=f"{path}."))
        elif va != vb:
            mismatches.append(f"  {path}: calendar={va!r} heap={vb!r}")
    return mismatches


def main() -> int:
    calendar = run_scenario(Simulator)
    heap = run_scenario(HeapSimulator)
    # Explicit checks, not asserts: ``python -O`` must not strip a gate.
    kernels = (calendar["kernel"], heap["kernel"])
    if kernels != ("calendar", "heap"):
        print(f"kernel equivalence FAILED: ran kernels {kernels}, "
              "expected ('calendar', 'heap')")
        return 1

    problems = []
    if calendar["events_processed"] != heap["events_processed"]:
        problems.append(
            f"  events_processed: calendar={calendar['events_processed']} "
            f"heap={heap['events_processed']}"
        )
    for section in ("network_stats", "generator_stats", "interfaces"):
        problems.extend(diff_dicts(calendar[section], heap[section], f"{section}."))

    name = f"congested 8x8 mesh, {CYCLES} cycles, rate {INJECTION_RATE}"
    if problems:
        print(f"kernel equivalence FAILED on {name}:")
        print("\n".join(problems))
        print(
            "\nEvent order diverged between the calendar and heap kernels; "
            "per docs/experiments.md this must be traced (and MODEL_VERSION "
            "bumped if the new order is intended)."
        )
        return 1
    print(
        f"kernel equivalence OK on {name}: "
        f"{calendar['events_processed']} events, "
        f"{calendar['network_stats']['messages_delivered']:.0f} messages "
        f"delivered, statistics identical under both kernels"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
