"""Decorator-based plugin registries for schedulers and frontends.

Every scheduler the repo ships (daisy, the polyhedral/compiler/Tiramisu
baselines, the Python-framework models, and a pure evolutionary-search
configuration) registers itself here, and :class:`repro.api.Session` resolves
schedulers exclusively by name.  Third-party code extends the system the same
way::

    from repro.api import Scheduler, register_scheduler
    from repro.transforms import Parallelize, Recipe

    class OuterParallelScheduler(Scheduler):
        name = "outer-parallel"

        def recipe_for(self, pricer):
            index = pricer.nest_index
            return Recipe(f"{self.name}#{index}", [Parallelize(index)])

    @register_scheduler("outer-parallel", normalizes=True)
    def build_outer_parallel(machine=None, threads=1, **options):
        return OuterParallelScheduler(machine, threads)

(:class:`~repro.scheduler.base.Scheduler` owns the walk over the nests and
builds each nest's recipe on one ``NestPricer``; a subclass overrides
``recipe_for(pricer)`` — reading ``pricer.view`` of the nest, raising
``Unsupported`` for a nest it leaves alone — or ``schedule_nest`` /
``prepare`` / ``price`` for more control.)

Frontends translate non-IR inputs (e.g. C-like source text) into
:class:`~repro.ir.nodes.Program` objects and register under
:func:`register_frontend`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..ir.nodes import Program
from ..perf.machine import DEFAULT_MACHINE, MachineModel
from ..scheduler.base import Scheduler


class RegistryError(KeyError):
    """Raised on unknown lookups or conflicting registrations."""


@dataclass
class PluginInfo:
    """One registered plugin: its factory plus lookup metadata."""

    name: str
    factory: Callable[..., Any]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.factory(*args, **kwargs)


class Registry:
    """A named collection of factories with decorator registration."""

    def __init__(self, kind: str):
        self.kind = kind
        self._plugins: Dict[str, PluginInfo] = {}
        self._lock = threading.RLock()

    def register(self, name: Optional[str] = None, *, overwrite: bool = False,
                 **metadata: Any) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``factory`` under ``name``.

        Can also be called directly: ``registry.register("x")(factory)``.
        Registering an existing name raises :class:`RegistryError` unless
        ``overwrite=True`` (so typos do not silently shadow built-ins).
        """

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            key = name or getattr(factory, "name", None) or factory.__name__
            with self._lock:
                if key in self._plugins and not overwrite:
                    raise RegistryError(
                        f"{self.kind} {key!r} is already registered; "
                        f"pass overwrite=True to replace it")
                self._plugins[key] = PluginInfo(key, factory, dict(metadata))
            return factory

        return decorator

    def get(self, name: str) -> PluginInfo:
        with self._lock:
            if name not in self._plugins:
                raise RegistryError(
                    f"unknown {self.kind} {name!r}; registered: {self.names()}")
            return self._plugins[name]

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the plugin registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def metadata(self, name: str) -> Dict[str, Any]:
        return dict(self.get(name).metadata)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._plugins)

    def unregister(self, name: str) -> None:
        with self._lock:
            if name not in self._plugins:
                raise RegistryError(f"unknown {self.kind} {name!r}")
            del self._plugins[name]

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._plugins

    def __len__(self) -> int:
        with self._lock:
            return len(self._plugins)


#: The process-wide scheduler registry.
SCHEDULERS = Registry("scheduler")
#: The process-wide frontend registry.
FRONTENDS = Registry("frontend")


def register_scheduler(name: Optional[str] = None, *, overwrite: bool = False,
                       **metadata: Any):
    """Register a scheduler factory (decorator). See :data:`SCHEDULERS`.

    Recognized metadata: ``normalizes`` (bool — the session pre-normalizes
    programs through the cache before handing them over), ``tunes`` (bool —
    the scheduler supports database seeding via ``tune``).
    """
    return SCHEDULERS.register(name, overwrite=overwrite, **metadata)


def register_frontend(name: Optional[str] = None, *, overwrite: bool = False,
                      **metadata: Any):
    """Register a frontend factory (decorator). See :data:`FRONTENDS`."""
    return FRONTENDS.register(name, overwrite=overwrite, **metadata)


def create_scheduler(name: str, machine: Optional[MachineModel] = None,
                     threads: int = 1, **options: Any) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    return SCHEDULERS.create(name, machine=machine or DEFAULT_MACHINE,
                             threads=threads, **options)


def scheduler_normalizes(name: str) -> bool:
    """Whether the named scheduler expects a-priori-normalized input."""
    return bool(SCHEDULERS.metadata(name).get("normalizes", False))


def scheduler_tunes(name: str) -> bool:
    """Whether the named scheduler supports database seeding via ``tune``."""
    return bool(SCHEDULERS.metadata(name).get("tunes", False))


# ---------------------------------------------------------------------------
# Built-in registrations
# ---------------------------------------------------------------------------

@register_scheduler("daisy", normalizes=True, tunes=True)
def _make_daisy(machine=None, threads=1, search=None, database=None,
                **_ignored):
    from ..scheduler.daisy import DaisyConfig, DaisyScheduler
    from ..scheduler.evolutionary import SearchConfig

    config = DaisyConfig(threads=threads, search=search or SearchConfig())
    return DaisyScheduler(machine=machine, config=config, database=database)


@register_scheduler("evolutionary", normalizes=True, tunes=True)
def _make_evolutionary(machine=None, threads=1, search=None, database=None,
                       **_ignored):
    """Pure evolutionary search on normalized nests.

    ``max_database_distance=-1`` disables transfer tuning, so scheduling
    never reads the database — but ``tune()`` records into the session
    database when one is provided, like every ``tunes=True`` scheduler.
    """
    from ..scheduler.daisy import DaisyConfig, DaisyScheduler
    from ..scheduler.database import TuningDatabase
    from ..scheduler.evolutionary import SearchConfig

    config = DaisyConfig(threads=threads, search=search or SearchConfig(),
                         max_database_distance=-1.0)
    return DaisyScheduler(machine=machine, config=config,
                          database=database if database is not None
                          else TuningDatabase())


@register_scheduler("polly", normalizes=False)
def _make_polly(machine=None, threads=1, **_ignored):
    from ..scheduler.polyhedral import PollyScheduler

    return PollyScheduler(machine, threads=threads)


@register_scheduler("clang", normalizes=False)
def _make_clang(machine=None, threads=1, **_ignored):
    from ..scheduler.compiler_baseline import ClangScheduler

    return ClangScheduler(machine, threads=threads)


@register_scheduler("icc", normalizes=False)
def _make_icc(machine=None, threads=1, **_ignored):
    from ..scheduler.compiler_baseline import IccScheduler

    return IccScheduler(machine, threads=threads)


@register_scheduler("tiramisu", normalizes=False)
def _make_tiramisu(machine=None, threads=1, mcts=None, **_ignored):
    from ..scheduler.tiramisu import MctsConfig, TiramisuScheduler

    return TiramisuScheduler(machine, threads=threads,
                             config=mcts or MctsConfig())


@register_scheduler("numpy", normalizes=False)
def _make_numpy(machine=None, threads=1, **_ignored):
    from ..scheduler.frameworks import NumpyScheduler

    return NumpyScheduler(machine)


@register_scheduler("numba", normalizes=False)
def _make_numba(machine=None, threads=1, **_ignored):
    from ..scheduler.frameworks import NumbaScheduler

    return NumbaScheduler(machine, threads=threads)


@register_scheduler("dace", normalizes=False)
def _make_dace(machine=None, threads=1, **_ignored):
    from ..scheduler.frameworks import DaceScheduler

    return DaceScheduler(machine, threads=threads)


@register_frontend("clike", suffixes=(".c", ".clike"))
def _clike_frontend(source: str, name: str = "clike_program") -> Program:
    from ..frontend.clike import parse_clike_program

    return parse_clike_program(source, name)
