"""Measurement protocol.

The paper measures "according to a standard framework [Hoefler & Belli,
SC'15], where measurements are taken until the variance drops below five
percent, and the resulting median is reported as the runtime".  This module
implements that protocol over an arbitrary measurement callable.  For the
analytical cost model the callable is deterministic, so the protocol
converges after the minimum number of repetitions; experiments can inject a
noise model to exercise the full loop, which the test-suite uses to verify
the stopping rule.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, List, Optional


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


def measure_with_noise(base_runtime: float, noise: float = 0.02,
                       seed: Optional[int] = None,
                       protocol: Optional[MeasurementProtocol] = None
                       ) -> MeasurementResult:
    """Measure a deterministic runtime under multiplicative Gaussian noise.

    This mimics run-to-run variation of real measurements so that the
    experiment harness exercises the full variance-bounded protocol rather
    than short-circuiting on identical samples.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    protocol = protocol or MeasurementProtocol()

    def sample() -> float:
        return max(0.0, base_runtime * (1.0 + rng.normal(0.0, noise)))

    return protocol.run(sample)
