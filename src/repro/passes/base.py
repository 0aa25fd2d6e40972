"""The ``Pass`` protocol: one uniform, instrumented unit of program rewriting.

A pass is a function of its program: :meth:`Pass.apply` mutates the
program in place and returns ``(changed, counters)``, and its
:meth:`Pass.run` wrapper measures the application, producing a
:class:`PassResult` with that flag and those counters, the IR-size delta,
and wall time.  Pipelines (:mod:`repro.passes.pipeline`) compose passes,
and :class:`PassStats` aggregates their results across many runs for
reporting.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..ir.nodes import Program
from ..ir.serialization import program_to_dict
from ..observability.tracing import span as _trace_span


def program_ir_size(program: Program) -> int:
    """Node count of a program (loops, computations, library calls)."""
    return sum(_subtree_size(node) for node in program.body)


def _subtree_size(node) -> int:
    # Module-level, not a recursive closure (a function<->cell cycle).
    total = 1
    for child in getattr(node, "body", ()):
        total += _subtree_size(child)
    return total


def program_fingerprint(program: Program) -> str:
    """Stable content hash of a whole program (used for change detection)."""
    text = json.dumps(program_to_dict(program), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """What one pass application did to one program."""

    pass_name: str
    changed: bool = False
    wall_time_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    ir_size_before: int = 0
    ir_size_after: int = 0

    @property
    def ir_size_delta(self) -> int:
        return self.ir_size_after - self.ir_size_before

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pass_name": self.pass_name,
            "changed": self.changed,
            "wall_time_s": self.wall_time_s,
            "counters": dict(self.counters),
            "ir_size_before": self.ir_size_before,
            "ir_size_after": self.ir_size_after,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "PassResult":
        return PassResult(
            pass_name=str(data.get("pass_name", "")),
            changed=bool(data.get("changed", False)),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            counters={str(k): v for k, v in dict(data.get("counters") or {}).items()},
            ir_size_before=int(data.get("ir_size_before", 0)),
            ir_size_after=int(data.get("ir_size_after", 0)),
        )


#: What ``Pass.apply`` returns: whether it rewrote the program, and its
#: named counters.
ApplyOutcome = Tuple[bool, Dict[str, float]]


class Pass:
    """Base class of all passes.

    Subclasses implement :meth:`apply`, which mutates the program in place
    and returns whether it rewrote anything, with its counters — the
    rewrite knows, and nothing else is asked: no pass serialises the
    program to find out.  :meth:`run` wraps the application with timing and
    IR-size accounting.
    """

    #: Name used in results, registries, and reports; set by subclasses.
    name: str = "pass"

    def apply(self, program: Program) -> ApplyOutcome:
        raise NotImplementedError

    def run(self, program: Program,
            ir_size: Optional[int] = None) -> PassResult:
        """Apply the pass and measure it; returns the :class:`PassResult`.

        ``ir_size`` is the program's :func:`program_ir_size` when the caller
        knows it (a pipeline hands each pass the size its predecessor left);
        a pass that reports no change leaves it as it was.
        """
        with _trace_span("pass:" + self.name) as span:
            size_before = (program_ir_size(program) if ir_size is None
                           else ir_size)
            started = time.perf_counter()
            changed, counters = self.apply(program)
            wall_time = time.perf_counter() - started
            result = PassResult(pass_name=self.name, changed=changed,
                                wall_time_s=wall_time, counters=counters,
                                ir_size_before=size_before,
                                ir_size_after=(program_ir_size(program)
                                               if changed else size_before))
            span.set_attributes(changed=result.changed,
                                wall_time_s=result.wall_time_s,
                                ir_delta=result.ir_size_after - size_before)
            return result


class PassStats:
    """Thread-safe aggregation of :class:`PassResult` streams.

    One accumulator typically lives on the normalization cache and collects
    the results of every pipeline run, powering the per-pass counters on
    ``Session.report()`` and the serving ``/v1/report`` endpoint.  Besides
    the built-in run/time/size statistics, each pass's named counters
    (``loops_split``, ``nests_permuted``, ...) are summed under a nested
    ``"counters"`` mapping, so each pass's work is visible end-to-end in
    the reports.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._stats: Dict[str, Dict[str, Any]] = {}

    def add(self, results: Iterable[PassResult]) -> None:
        with self._lock:
            for result in results:
                entry = self._stats.setdefault(result.pass_name, {
                    "runs": 0, "changed": 0, "wall_time_s": 0.0,
                    "ir_size_delta": 0})
                entry["runs"] += 1
                entry["changed"] += 1 if result.changed else 0
                entry["wall_time_s"] += result.wall_time_s
                entry["ir_size_delta"] += result.ir_size_delta
                if result.counters:
                    counters = entry.setdefault("counters", {})
                    for name, amount in result.counters.items():
                        counters[name] = counters.get(name, 0) + amount

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            out: Dict[str, Dict[str, Any]] = {}
            for name, entry in self._stats.items():
                copied = dict(entry)
                if "counters" in copied:
                    copied["counters"] = dict(copied["counters"])
                out[name] = copied
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._stats)
