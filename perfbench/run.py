"""Host-time benchmark of the NOC-Out simulator: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload fig7_sweep --seed 1 --seconds 60 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced measurement and prints the per-layer metrics (and writes
the spans under ``.perfbench_work/``).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Environment variables that select a non-default simulator path or would
#: let a user's settings leak into the measurement.
REFUSED_ENV = (
    "REPRO_PROFILE",
    "REPRO_KERNEL",
    "REPRO_TRANSPORT",
    "REPRO_STORE",
    "REPRO_CACHE_MAX_MB",
)
WORK_DIR = ROOT / ".perfbench_work"


def _import_program() -> None:
    """Put this checkout's ``src`` and ``perfbench`` first on the path.

    The script directory is replaced by the root so ``perfbench/*.py`` can
    never shadow a stdlib module; a ``repro`` found anywhere but this
    checkout's ``src/`` is refused.
    """
    script_dir = str(ROOT / "perfbench")
    sys.path[:] = [entry for entry in sys.path if entry != script_dir]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the simulator from {ROOT / 'src'}: {exc}")
    found = Path(repro.__file__).resolve()
    if (ROOT / "src") not in found.parents:
        raise SystemExit(f"perfbench: imported repro from {found}, not from {ROOT / 'src'}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        raise SystemExit(
            f"perfbench: unset {', '.join(refused)}; the benchmark measures the "
            "default kernel, transport and JSON result store only"
        )
    _import_program()
    from perfbench.harness import END_TO_END_UNITS, PER_LAYER_UNITS, Run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})"
        )
    run = Run(args.workload, args.seed, WORK_DIR)
    if args.trace:
        metrics = run.trace(args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics = run.measure(args.seconds)
        units = END_TO_END_UNITS

    checks = run.checks
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(run.repetitions)} repetitions"
    )
    for run_id, outcome in run.repetitions:
        print(f"  digest {run_id:<10} {outcome.digest}")
    for name, value in metrics.items():
        note = ""
        if name == "sim_kips" and args.workload == "noc_saturated_mesh":
            note = "  (delivered messages: no instructions run on this workload)"
        if name in run.raw:
            note += f"  (in plain host time: {run.raw[name]:.6g})"
        print(f"  {name:<28} {value:.6g} {units[name]}{note}")
    if not args.trace:
        print(
            f"  {'host_speed':<28} {run.host_speed:.6g} of the reference host's full speed"
            " (times above are in reference-host seconds)"
        )
    failed_frac = checks.failed / checks.attempted
    print(f"  {'failed_frac':<28} {failed_frac:.6g} ratio ({checks.failed} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    if args.trace:
        for package in run.unknown_packages:
            print(f"  WARNING repro.{package} is missing from perfbench/layers.py; charged to other")
        print(f"  spans written to {run.write_trace().relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
