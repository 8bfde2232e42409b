"""Output checks and result digests.

Every check counts into ``attempted``; a check that does not hold counts
into ``failed`` (and so into ``failed_frac``) with a one-line reason.
Digests fingerprint the simulated outputs, so two runs of a host-only
change can prove their simulated statistics bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List

#: Rate fields of ``SimulationResults`` that must lie in [0, 1].
RATE_FIELDS = ("llc_hit_rate", "snoop_rate", "l1i_miss_rate", "l1d_miss_rate")


class Checks:
    """Tally of attempted and failed output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def result(self, label: str, result, measure_cycles: int) -> bool:
        """Check one point's ``SimulationResults`` for internal consistency."""
        problems = result_problems(result, measure_cycles)
        return self.check(f"result {label}", not problems, "; ".join(problems))


def result_problems(result, measure_cycles: int) -> List[str]:
    """What is wrong with one point's results (empty when consistent)."""
    problems = []
    if result.cycles != measure_cycles:
        problems.append(f"cycles {result.cycles} != measure_cycles {measure_cycles}")
    per_core = sum(result.per_core_instructions.values())
    if result.total_instructions != per_core:
        problems.append(
            f"total_instructions {result.total_instructions} != per-core sum {per_core}"
        )
    if result.total_instructions <= 0:
        problems.append("no instructions committed")
    if result.messages_delivered <= 0:
        problems.append("no messages delivered")
    for name in RATE_FIELDS:
        value = getattr(result, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value} outside [0, 1]")
    return problems


def digest(payload) -> str:
    """SHA-256 over the canonical JSON form of ``payload`` (16 hex digits)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def results_digest(results: Iterable) -> str:
    """One digest over a sequence of ``SimulationResults``, order included."""
    return digest([result.to_dict() for result in results])
