"""Execution models of the Python array frameworks (NumPy, Numba, DaCe).

Figure 9 compares daisy against performance-oriented Python frameworks.  All
three execute the same NumPy-level program very differently:

* **NumPy** dispatches each array operation to a pre-compiled, vectorized
  (but single-threaded) C loop, materializing temporaries, and calls BLAS
  for the operations that have custom operators.  Explicit Python-level
  loops around array operations pay interpreter dispatch overhead per
  iteration.
* **Numba** JIT-compiles explicit loops: innermost unit-stride loops are
  vectorized and provably parallel outer loops can run in parallel, but
  loop nests are neither reordered nor lifted to BLAS calls.
* **DaCe** turns the program into an SDFG: parallel maps are executed with
  OpenMP, producer/consumer maps are fused, and library nodes (BLAS) are
  used where the frontend created them — but, without a-priori
  normalization, loop nests keep the structure the developer wrote.

The pythonic frontend marks Python-level loops by giving their iterators a
``py_`` prefix; the NumPy model charges dispatch overhead for those.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..ir.nodes import LibraryCall, Loop, Program
from ..perf.machine import DEFAULT_MACHINE, MachineModel
from ..perf.model import NodePrices
from ..transforms.fusion import fuse_producer_consumer_chains
from ..transforms.idiom import match_blas3, build_library_call
from ..transforms.recipe import Recipe
from .base import NestPricer, NestScheduleInfo, ScheduleResult, Scheduler
from .compiler_baseline import compiler_recipe

#: Interpreter dispatch cost of one NumPy operator call, seconds.
PYTHON_DISPATCH_OVERHEAD = 2.0e-6
#: Prefix that the pythonic frontend gives to interpreter-level loops.
PYTHON_LOOP_PREFIX = "py_"


def _python_loop_iterations(program: Program, parameters: Mapping[str, int]) -> float:
    """Number of interpreter-level operator dispatches in the program."""
    total = 0.0
    for node in program.body:
        if isinstance(node, LibraryCall):
            total += 1.0
        elif isinstance(node, Loop):
            multiplier = 1.0
            env = dict(parameters)
            for loop in node.perfectly_nested_band():
                if loop.iterator.startswith(PYTHON_LOOP_PREFIX):
                    multiplier *= max(1, loop.trip_count(env))
                # The loops below see this one at its midpoint.
                env[loop.iterator] = (loop.start.evaluate(env)
                                      + loop.end.evaluate(env)) / 2.0
            total += multiplier
    return total


class NumpyScheduler(Scheduler):
    """NumPy: per-operator vectorized execution, single-threaded, BLAS where
    custom operators exist."""

    name = "numpy"
    detail = "numpy operator"

    def __init__(self, machine: MachineModel = DEFAULT_MACHINE, threads: int = 1):
        # NumPy element-wise operators are single threaded.
        super().__init__(machine, 1)

    def recipe_for(self, pricer: NestPricer) -> Recipe:
        return compiler_recipe(self.name, pricer, auto_parallel=False)

    def price(self, program: Program, parameters: Mapping[str, int],
              prices: Optional[NodePrices] = None) -> float:
        dispatches = _python_loop_iterations(program, parameters)
        return (super().price(program, parameters, prices)
                + dispatches * PYTHON_DISPATCH_OVERHEAD)


class NumbaScheduler(Scheduler):
    """Numba: JIT loops, auto-vectorization, auto-parallelization; no BLAS
    lifting and no loop reordering."""

    name = "numba"
    detail = "numba jit"

    def recipe_for(self, pricer: NestPricer) -> Recipe:
        return compiler_recipe(self.name, pricer, auto_parallel=True)


class DaceScheduler(Scheduler):
    """DaCe: SDFG map parallelization, map fusion, and BLAS library nodes —
    without a-priori normalization."""

    name = "dace"
    detail = "sdfg map"

    def prepare(self, program: Program) -> ScheduleResult:
        result = super().prepare(program)
        fused = fuse_producer_consumer_chains(result.program)
        result.notes = f"fused {fused} producer/consumer map pairs"
        return result

    def schedule_nest(self, program: Program, index: int,
                      parameters: Mapping[str, int],
                      prices: NodePrices) -> NestScheduleInfo:
        # Library nodes: DaCe replaces loop nests that literally match a
        # BLAS pattern, but it does not normalize first.
        nest = program.body[index]
        match = match_blas3(nest)
        if match is not None:
            program.body[index] = build_library_call(nest, match)
            return NestScheduleInfo(index, "optimized", None,
                                    f"library node {match.routine}")
        return super().schedule_nest(program, index, parameters, prices)

    def recipe_for(self, pricer: NestPricer) -> Recipe:
        return compiler_recipe(self.name, pricer, auto_parallel=True)
