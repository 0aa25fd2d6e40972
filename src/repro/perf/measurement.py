"""Measurement protocol.

The paper measures "according to a standard framework [Hoefler & Belli,
SC'15], where measurements are taken until the variance drops below five
percent, and the resulting median is reported as the runtime".  This module
implements that protocol over an arbitrary measurement callable.  For the
analytical cost model the callable is deterministic, so the protocol
converges after the minimum number of repetitions; a noisy callable exercises
the full loop, which is how the test-suite verifies the stopping rule.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, List


@dataclass
class MeasurementResult:
    """Outcome of a variance-bounded measurement series."""

    samples: List[float]
    median: float
    mean: float
    coefficient_of_variation: float
    converged: bool

    @property
    def repetitions(self) -> int:
        return len(self.samples)


@dataclass
class MeasurementProtocol:
    """Repeat a measurement until its relative variation is below a bound."""

    max_relative_variation: float = 0.05
    min_repetitions: int = 3
    max_repetitions: int = 50

    def run(self, measure: Callable[[], float]) -> MeasurementResult:
        """Call ``measure`` until the coefficient of variation is low enough."""
        samples: List[float] = []
        converged = False
        while len(samples) < self.max_repetitions:
            samples.append(float(measure()))
            if len(samples) < self.min_repetitions:
                continue
            mean = statistics.fmean(samples)
            if mean == 0:
                converged = True
                break
            deviation = statistics.pstdev(samples)
            if deviation / mean <= self.max_relative_variation:
                converged = True
                break
        mean = statistics.fmean(samples)
        cov = statistics.pstdev(samples) / mean if mean else 0.0
        return MeasurementResult(
            samples=samples,
            median=statistics.median(samples),
            mean=mean,
            coefficient_of_variation=cov,
            converged=converged,
        )

