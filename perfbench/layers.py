"""Charge a cProfile of one repetition to the simulator's layers.

A layer is named after a package under ``src/repro/``.  Each function's
own time (``tottime``) goes to the layer of the package that defines it.
Time in stdlib and builtin functions goes to the layer of the repro
function that called it directly, where the profile records one, and
otherwise to ``other`` (the benchmark's own code lands there too).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: Layers reported as ``<layer>.self_s`` / ``<layer>.share``.
LAYERS = (
    "chip",
    "sim",
    "noc",
    "core",
    "fabrics",
    "cache",
    "cpu",
    "workloads",
    "experiments",
    "scenarios",
    "other",
)

#: Every package under ``src/repro/`` and the layer its time is charged to.
#: Packages that are not layers of their own fold into the layer they serve.
#: The key ``""`` is the top-level ``repro/__init__.py`` facade.
LAYER_OF_PACKAGE = {
    "": "other",
    "analysis": "experiments",  # result metrics helpers
    "cache": "cache",
    "chip": "chip",
    "config": "chip",  # configuration objects a chip is built from
    "core": "core",  # NOC-Out reduction / dispersion trees
    "cpu": "cpu",
    "experiments": "experiments",
    "fabrics": "fabrics",
    "noc": "noc",
    "power": "experiments",  # area / energy post-processing
    "reporting": "experiments",
    "scenarios": "scenarios",
    "sim": "sim",
    "store": "experiments",  # alternative result store backends
    "tenancy": "workloads",  # tenant traffic generation
    "workloads": "workloads",
}

FuncKey = Tuple[str, int, str]


class LayerMap:
    """Resolves profiled functions to layers for one ``repro`` install."""

    def __init__(self, repro_dir: str) -> None:
        self.repro_dir = os.path.realpath(repro_dir)
        self.unknown_packages = set()
        self._cache: Dict[str, Optional[str]] = {}

    def package_of(self, filename: str) -> Optional[str]:
        """Package of ``filename`` under ``repro`` ("" = top level), else None."""
        path = os.path.realpath(filename)
        if not path.startswith(self.repro_dir + os.sep):
            return None
        parts = os.path.relpath(path, self.repro_dir).split(os.sep)
        return parts[0] if len(parts) > 1 else ""

    def layer_of(self, func: FuncKey) -> Optional[str]:
        """Layer of a profiled function, or None outside ``repro``."""
        filename = func[0]
        if filename not in self._cache:
            package = self.package_of(filename) if filename != "~" else None
            layer = None
            if package is not None:
                layer = LAYER_OF_PACKAGE.get(package)
                if layer is None:
                    self.unknown_packages.add(package)
                    layer = "other"
            self._cache[filename] = layer
        return self._cache[filename]

    def self_times(self, stats: Dict[FuncKey, tuple]) -> Dict[str, float]:
        """Per-layer self time from ``pstats.Stats(...).stats``."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
            layer = self.layer_of(func)
            if layer is not None:
                totals[layer] += tottime
                continue
            charged = 0.0
            for caller, caller_stats in callers.items():
                caller_layer = self.layer_of(caller)
                if caller_layer is not None:
                    totals[caller_layer] += caller_stats[2]
                    charged += caller_stats[2]
            totals["other"] += tottime - charged
        return totals

    def call_count(self, stats: Dict[FuncKey, tuple], layer: str, name: str) -> int:
        """Total calls of functions called ``name`` defined in ``layer``."""
        return sum(
            entry[1]
            for func, entry in stats.items()
            if func[2] == name and self.layer_of(func) == layer
        )
