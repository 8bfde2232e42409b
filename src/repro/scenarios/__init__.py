"""Declarative scenario API: registries, sweep specs, structured results.

This package is the experiment-facing surface of the reproduction:

* :mod:`~repro.scenarios.registry` — ``@register_workload`` /
  ``@register_topology`` name registries (workloads seeded by
  :mod:`repro.config.presets`, fabric plugins by :mod:`repro.fabrics`), so
  fabrics and workloads are discoverable and extensible by name; a fabric
  registration carries the full build/describe protocol
  (:func:`fabric_for` dispatches chip construction through it);
* :mod:`~repro.scenarios.spec` — :class:`SweepSpec`, a frozen, JSON
  round-trippable description of a sweep (axes x fixed overrides) that
  expands to the engine's content-hashed experiment points and shards by
  hash range (``spec.shard(i, n)``);
* :mod:`~repro.scenarios.results` — :class:`ResultSet` /
  :class:`ResultRecord`, tidy records with ``filter`` / ``value`` /
  ``pivot`` / ``to_json`` queries plus ``merge`` / ``summary`` /
  ``delta`` for combining and comparing result sets (the
  paper-vs-measured layer in :mod:`repro.reporting` consumes these);
* :mod:`~repro.scenarios.run` — :func:`run_sweep` (blocking) and
  :func:`iter_results` (streams records as simulations finish).

Shard caches are combined by importing each into one columnar store with
``python -m repro.store.migrate`` and compacting (:mod:`repro.store`).

Typical usage::

    from repro.scenarios import SweepSpec, run_sweep
    from repro.experiments import RunSettings

    spec = SweepSpec(
        axes={"workload": ("Web Search",), "topology": ("mesh", "noc_out")},
        settings=RunSettings.from_env(),
    )
    table = run_sweep(spec).pivot("workload", "topology", "throughput_ipc")

Import-order invariant: modules here import other ``repro`` subpackages
only lazily (inside functions).  ``repro.config.presets`` imports the
registration decorators at module level to seed the registries, and the
figure modules under ``repro.experiments`` import this package at module
level; eager imports in the other direction would cycle.
"""

from repro.scenarios.registry import (
    RegistrationError,
    Registry,
    build_system,
    fabric_for,
    register_topology,
    register_workload,
    topologies,
    topology_names,
    workload,
    workload_names,
    workloads,
)
from repro.scenarios.results import (
    METRIC_NAMES,
    RecordDelta,
    ResultRecord,
    ResultSet,
    TableMetrics,
    record_for,
)
from repro.scenarios.run import iter_results, run_sweep
from repro.scenarios.spec import SweepPoint, SweepSpec, point_for_coords

__all__ = [
    "METRIC_NAMES",
    "RecordDelta",
    "RegistrationError",
    "Registry",
    "ResultRecord",
    "ResultSet",
    "SweepPoint",
    "SweepSpec",
    "TableMetrics",
    "build_system",
    "fabric_for",
    "iter_results",
    "point_for_coords",
    "record_for",
    "register_topology",
    "register_workload",
    "run_sweep",
    "topologies",
    "topology_names",
    "workload",
    "workload_names",
    "workloads",
]
