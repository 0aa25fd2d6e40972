"""Performance-model substrate: machine model, cache simulator, cost model."""

from .cache import CacheHierarchy, CacheLevelStats, CacheReport
from .machine import DEFAULT_MACHINE, CacheLevel, MachineModel
from .measurement import MeasurementProtocol, MeasurementResult
from .model import CostModel, NestCost, RuntimeEstimate
from .trace import TraceGenerator, TraceLayout, build_layout, generate_trace

__all__ = [
    "CacheHierarchy", "CacheLevelStats", "CacheReport",
    "DEFAULT_MACHINE", "CacheLevel", "MachineModel",
    "MeasurementProtocol", "MeasurementResult",
    "CostModel", "NestCost", "RuntimeEstimate",
    "TraceGenerator", "TraceLayout", "build_layout", "generate_trace",
]
