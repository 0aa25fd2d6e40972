"""Shared infrastructure of the experiment harnesses.

Every experiment module produces plain data (lists of row dictionaries plus a
``format_table`` helper) so that the same code backs the pytest-benchmark
targets in ``benchmarks/``, the runnable examples, and EXPERIMENTS.md.

All pipeline wiring goes through :mod:`repro.api`: experiments create
:class:`~repro.api.Session` objects (one per pipeline configuration) and
resolve every scheduler by registry name, so they automatically share the
content-addressed normalization cache and the transfer-tuning database.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence

from ..api import (DEFAULT_MACHINE, BenchmarkSpec, MachineModel, MctsConfig,
                   Program, SearchConfig, Session, all_benchmarks,
                   polybench_benchmarks)

#: Thread count of the paper's evaluation machine (Xeon E5-2680v3).
DEFAULT_THREADS = 12


@dataclass
class ExperimentSettings:
    """Knobs controlling how expensive an experiment run is.

    The defaults correspond to the paper's configuration; tests use the
    ``fast()`` preset to keep runtimes in milliseconds.
    """

    threads: int = DEFAULT_THREADS
    size: str = "large"
    machine: MachineModel = field(default_factory=lambda: DEFAULT_MACHINE)
    search: SearchConfig = field(default_factory=SearchConfig)
    mcts: MctsConfig = field(default_factory=MctsConfig)
    benchmarks: Optional[Sequence[str]] = None

    @staticmethod
    def fast(benchmarks: Optional[Sequence[str]] = None,
             size: str = "large") -> "ExperimentSettings":
        return ExperimentSettings(
            size=size,
            search=SearchConfig(population_size=4, epochs=1, generations_per_epoch=1),
            mcts=MctsConfig(rollouts=6),
            benchmarks=benchmarks,
        )

    def selected_benchmarks(self) -> List[BenchmarkSpec]:
        # The paper's figures sweep PolyBench only; any registered benchmark
        # (e.g. the FEM-assembly kernels) can still be opted in by name.
        if self.benchmarks is None:
            return polybench_benchmarks()
        wanted = set(self.benchmarks)
        return [spec for spec in all_benchmarks() if spec.name in wanted]

    def session(self, pipeline: Optional[str] = None) -> Session:
        """A fresh Session configured like this experiment run.

        ``pipeline`` selects a registry-named normalization pipeline
        ("a-priori", "no-fission", ...).
        """
        return Session(machine=self.machine, threads=self.threads,
                       pipeline=pipeline, search=self.search,
                       mcts=self.mcts, size=self.size)


def make_session(settings: ExperimentSettings,
                 seed_specs: Optional[Sequence[BenchmarkSpec]] = None,
                 pipeline: Optional[str] = None) -> Session:
    """Create a session, optionally seeding its database from A variants."""
    session = settings.session(pipeline)
    if seed_specs:
        session.seed([spec.name for spec in seed_specs], variant="a")
    return session


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (ignores non-positive entries)."""
    positive = [v for v in values if v > 0]
    if not positive:
        return float("nan")
    import numpy as np
    return float(np.exp(np.mean(np.log(positive))))


def format_table(rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str]) -> str:
    """Render rows as a fixed-width text table (used by examples and logs)."""
    widths = {col: max(len(col), *(len(_fmt(row.get(col))) for row in rows))
              for col in columns} if rows else {col: len(col) for col in columns}
    header = "  ".join(col.ljust(widths[col]) for col in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)
