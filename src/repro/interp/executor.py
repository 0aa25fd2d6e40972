"""Reference interpreter for loop-nest programs.

The interpreter executes a program directly on NumPy arrays.  It is the
ground truth for semantics: normalization and every transformation must
leave the observable outputs unchanged, and the A/B variants of each
benchmark must produce identical results.  It is intentionally simple and
slow — correctness tests use small problem sizes, while performance numbers
come from the analytical model in :mod:`repro.perf`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from ..ir.nodes import Computation, LibraryCall, Loop, Node, Program
from ..ir.serialization import node_from_dict
from ..ir.symbols import (INTRINSICS, Add, Call, Const, Expr, FloorDiv, Max,
                          Min, Mod, Mul, Read, Sym)

if TYPE_CHECKING:  # pragma: no cover - import only needed for annotations
    import numpy as np


class ExecutionError(Exception):
    """Raised when a program cannot be executed.

    Execution errors carry source context — the statement that was running
    and the loop-iterator bindings at the moment of failure — attached by
    the executor as the error propagates out of a computation.  The fuzz
    oracle relies on these typed errors to tell generator bugs (a program
    that cannot even run on the reference interpreter) apart from transform
    bugs (a pipeline or scheduler that broke a previously-running program).
    """

    def __init__(self, message: str, *,
                 statement: Optional[str] = None,
                 iterators: Optional[Mapping[str, int]] = None):
        super().__init__(message)
        self.message = message
        self.statement = statement
        self.iterators = dict(iterators) if iterators is not None else None

    def attach(self, statement: str, iterators: Mapping[str, int]) -> None:
        """Attach statement/loop context (first attachment wins)."""
        if self.statement is None:
            self.statement = statement
        if self.iterators is None:
            self.iterators = {name: int(value)
                              for name, value in iterators.items()}

    def __str__(self) -> str:
        parts = [self.message]
        if self.statement is not None:
            parts.append(f"in statement {self.statement}")
        if self.iterators:
            bindings = ", ".join(f"{name}={value}"
                                 for name, value in self.iterators.items())
            parts.append(f"at {bindings}")
        return " ".join(parts)


class OutOfBoundsError(ExecutionError):
    """An array access outside the container's allocated extent.

    Replaces the raw ``IndexError`` NumPy would raise (or, worse, the silent
    negative-index wraparound it would *not* raise): every index of every
    access is checked against ``[0, extent)`` before touching storage.
    """

    def __init__(self, array: str, indices: Sequence[int],
                 shape: Sequence[int], access: str = "read", **context):
        super().__init__(
            f"{access} of {array}[{', '.join(str(i) for i in indices)}] is out "
            f"of bounds for shape ({', '.join(str(s) for s in shape)})",
            **context)
        self.array = array
        self.indices = tuple(indices)
        self.shape = tuple(shape)
        self.access = access


class UninitializedReadError(ExecutionError):
    """A read of a transient element that was never written.

    Only raised in checked mode (``check_uninitialized=True``): transient
    containers are zero-filled scratch space, so reading one before writing
    it is well-defined numerically but almost always a generator or
    transform bug, and the fuzz oracle wants it surfaced as its own type.
    """

    def __init__(self, array: str, indices: Sequence[int], **context):
        index_text = ", ".join(str(i) for i in indices)
        super().__init__(
            f"read of transient {array}[{index_text}] before any write",
            **context)
        self.array = array
        self.indices = tuple(indices)


class Executor:
    """Executes a single program instance.

    With ``check_uninitialized=True`` every transient container tracks which
    elements have been written, and reading an unwritten element raises
    :class:`UninitializedReadError` (default off: legitimate kernels may
    accumulate into zero-initialized scratch).
    """

    def __init__(self, program: Program, parameters: Mapping[str, int],
                 storage: Dict[str, np.ndarray],
                 check_uninitialized: bool = False):
        self.program = program
        self.parameters = dict(parameters)
        self.storage = storage
        self.check_uninitialized = check_uninitialized
        self._written: Dict[str, set] = {}
        if check_uninitialized:
            self._written = {name: set() for name, arr in program.arrays.items()
                             if arr.transient}

    # -- expression evaluation ---------------------------------------------------

    def eval_expr(self, expr: Expr, env: Dict[str, float]) -> float:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, Sym):
            if expr.name in env:
                return env[expr.name]
            if expr.name in self.parameters:
                return self.parameters[expr.name]
            raise ExecutionError(f"unbound symbol {expr.name!r}")
        if isinstance(expr, Add):
            return sum(self.eval_expr(t, env) for t in expr.terms)
        if isinstance(expr, Mul):
            result = 1.0
            for factor in expr.factors:
                result *= self.eval_expr(factor, env)
            return result
        if isinstance(expr, FloorDiv):
            return self.eval_expr(expr.numerator, env) // self.eval_expr(expr.denominator, env)
        if isinstance(expr, Mod):
            return self.eval_expr(expr.numerator, env) % self.eval_expr(expr.denominator, env)
        if isinstance(expr, Min):
            return min(self.eval_expr(a, env) for a in expr.args)
        if isinstance(expr, Max):
            return max(self.eval_expr(a, env) for a in expr.args)
        if isinstance(expr, Read):
            return self.read_element(expr.array, expr.indices, env)
        if isinstance(expr, Call):
            intrinsic = INTRINSICS.get(expr.func)
            if intrinsic is None:
                raise ExecutionError(f"unknown intrinsic {expr.func!r}")
            return intrinsic.evaluate(*[self.eval_expr(a, env)
                                        for a in expr.args])
        raise ExecutionError(f"cannot evaluate expression of type {type(expr).__name__}")

    def _checked_index(self, array: str, data: np.ndarray, indices,
                       env: Dict[str, float], access: str) -> tuple:
        index = tuple(int(self.eval_expr(i, env)) for i in indices)
        if len(index) != data.ndim:
            raise ExecutionError(
                f"container {array!r} has rank {data.ndim} but is accessed "
                f"with {len(index)} indices")
        for position, extent in zip(index, data.shape):
            # NumPy would wrap negative indices silently and raise a raw
            # IndexError past the end; both become typed OutOfBoundsError.
            if position < 0 or position >= extent:
                raise OutOfBoundsError(array, index, data.shape, access)
        return index

    def read_element(self, array: str, indices, env: Dict[str, float]) -> float:
        if array not in self.storage:
            raise ExecutionError(f"container {array!r} is not allocated")
        data = self.storage[array]
        if not indices:
            if array in self._written and () not in self._written[array]:
                raise UninitializedReadError(array, ())
            return float(data[()]) if data.ndim == 0 else float(data)
        index = self._checked_index(array, data, indices, env, "read")
        if array in self._written and index not in self._written[array]:
            raise UninitializedReadError(array, index)
        return float(data[index])

    def write_element(self, array: str, indices, value: float,
                      env: Dict[str, float]) -> None:
        if array not in self.storage:
            raise ExecutionError(f"container {array!r} is not allocated")
        data = self.storage[array]
        if not indices:
            data[()] = value
            if array in self._written:
                self._written[array].add(())
            return
        index = self._checked_index(array, data, indices, env, "write")
        data[index] = value
        if array in self._written:
            self._written[array].add(index)

    # -- node execution -----------------------------------------------------------

    def run(self) -> None:
        env: Dict[str, float] = {}
        for node in self.program.body:
            self.execute_node(node, env)

    def execute_node(self, node: Node, env: Dict[str, float]) -> None:
        if isinstance(node, Loop):
            self.execute_loop(node, env)
        elif isinstance(node, Computation):
            self.execute_computation(node, env)
        elif isinstance(node, LibraryCall):
            self.execute_library_call(node, env)
        else:
            raise ExecutionError(f"cannot execute node of type {type(node).__name__}")

    def execute_loop(self, loop: Loop, env: Dict[str, float]) -> None:
        start = int(self.eval_expr(loop.start, env))
        end = int(self.eval_expr(loop.end, env))
        step = int(self.eval_expr(loop.step, env))
        if step <= 0:
            raise ExecutionError(f"loop {loop.iterator!r} has non-positive step")
        inner = dict(env)
        for value in range(start, end, step):
            inner[loop.iterator] = value
            for child in loop.body:
                self.execute_node(child, inner)
        # Loop iterators go out of scope after the loop; env is left untouched.

    def execute_computation(self, comp: Computation, env: Dict[str, float]) -> None:
        try:
            value = self.eval_expr(comp.value, env)
            self.write_element(comp.target.array, comp.target.indices, value, env)
        except ExecutionError as error:
            error.attach(comp.name, {name: int(value)
                                     for name, value in env.items()})
            raise

    def execute_library_call(self, call: LibraryCall, env: Dict[str, float]) -> None:
        # When idiom detection replaced a loop nest, the original nest is kept
        # in the call's metadata: semantics stay exact.
        original = call.metadata.get("original")
        if original is not None:
            self.execute_node(node_from_dict(original), env)
            return
        self._execute_builtin_routine(call)

    def _execute_builtin_routine(self, call: LibraryCall) -> None:
        routine = call.routine
        for name in list(call.outputs) + list(call.inputs):
            if name not in self.storage:
                raise ExecutionError(
                    f"library routine {routine!r}: container {name!r} "
                    "is not allocated")
        if routine == "gemm" and len(call.inputs) >= 2 and call.outputs:
            a = self.storage[call.inputs[0]]
            b = self.storage[call.inputs[1]]
            c = self.storage[call.outputs[0]]
            c += a @ b
            return
        if routine == "syrk" and call.inputs and call.outputs:
            a = self.storage[call.inputs[0]]
            c = self.storage[call.outputs[0]]
            c += a @ a.T
            return
        raise ExecutionError(
            f"library routine {routine!r} has no metadata and no builtin implementation")


def allocate_storage(program: Program, parameters: Mapping[str, int],
                     inputs: Optional[Mapping[str, np.ndarray]] = None,
                     seed: int = 0) -> Dict[str, np.ndarray]:
    """Allocate all containers of a program.

    Containers present in ``inputs`` are copied; all other non-transient
    containers are filled with reproducible random data and transients with
    zeros.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    storage: Dict[str, np.ndarray] = {}
    for name, arr in program.arrays.items():
        if inputs is not None and name in inputs:
            storage[name] = np.array(inputs[name], dtype=arr.dtype, copy=True)
            continue
        if arr.transient:
            storage[name] = arr.allocate(parameters)
        else:
            storage[name] = arr.allocate(parameters, rng=rng)
    return storage


def run_program(program: Program, parameters: Mapping[str, int],
                inputs: Optional[Mapping[str, np.ndarray]] = None,
                seed: int = 0,
                check_uninitialized: bool = False) -> Dict[str, np.ndarray]:
    """Execute a program and return its final storage."""
    storage = allocate_storage(program, parameters, inputs, seed)
    Executor(program, parameters, storage,
             check_uninitialized=check_uninitialized).run()
    return storage


def programs_equivalent(first: Program, second: Program,
                        parameters: Mapping[str, int],
                        rtol: float = 1e-9, atol: float = 1e-9,
                        seed: int = 0) -> bool:
    """Check observational equivalence of two programs on random inputs.

    Both programs are run on identical inputs (containers are matched by
    name); all non-transient containers present in both programs must agree.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    shared_inputs: Dict[str, np.ndarray] = {}
    for name, arr in first.arrays.items():
        if arr.transient or name not in second.arrays:
            continue
        bindings = dict(parameters)
        shared_inputs[name] = arr.allocate(bindings, rng=rng)

    result_first = run_program(first, parameters, shared_inputs, seed)
    result_second = run_program(second, parameters, shared_inputs, seed)

    for name, arr in first.arrays.items():
        if arr.transient or name not in second.arrays:
            continue
        if second.arrays[name].transient:
            continue
        if not np.allclose(result_first[name], result_second[name],
                           rtol=rtol, atol=atol):
            return False
    return True
