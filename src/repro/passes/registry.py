"""The named-pipeline registry: ``@register_pipeline`` / ``get_pipeline``.

Pipelines are registered as zero-argument factories and instantiated fresh
per lookup (pipelines are cheap to build, and fresh instances keep pass state
out of the sharing equation).  The shipped names — ``"a-priori"`` and its
ablations — are registered by :mod:`repro.passes.library`; consumers select
pipelines by name through ``Session``, ``ScheduleRequest``, the experiment
harnesses, and the serving CLI instead of assembling option-flag soup.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from .pipeline import Pipeline

PipelineFactory = Callable[[], Pipeline]


class PipelineRegistryError(KeyError):
    """Raised on unknown pipeline lookups or conflicting registrations."""


_PIPELINES: Dict[str, PipelineFactory] = {}
_LOCK = threading.RLock()


def register_pipeline(name: str, *, overwrite: bool = False
                      ) -> Callable[[PipelineFactory], PipelineFactory]:
    """Decorator registering a zero-argument pipeline factory under ``name``."""

    def decorator(factory: PipelineFactory) -> PipelineFactory:
        with _LOCK:
            if name in _PIPELINES and not overwrite:
                raise PipelineRegistryError(
                    f"pipeline {name!r} is already registered; "
                    f"pass overwrite=True to replace it")
            _PIPELINES[name] = factory
        return factory

    return decorator


def get_pipeline(name: str) -> Pipeline:
    """Instantiate the pipeline registered under ``name``."""
    with _LOCK:
        factory = _PIPELINES.get(name)
    if factory is None:
        raise PipelineRegistryError(
            f"unknown pipeline {name!r}; registered: {pipeline_names()}")
    return factory()


def has_pipeline(name: Optional[str]) -> bool:
    with _LOCK:
        return name in _PIPELINES


def pipeline_names() -> List[str]:
    with _LOCK:
        return sorted(_PIPELINES)


def unregister_pipeline(name: str) -> None:
    with _LOCK:
        if name not in _PIPELINES:
            raise PipelineRegistryError(f"unknown pipeline {name!r}")
        del _PIPELINES[name]
