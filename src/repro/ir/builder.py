"""A small fluent builder API for constructing loop-nest programs.

The workload definitions (PolyBench kernels, the CLOUDSC proxy) and the
examples use this builder so that loop nests read similarly to the original
C sources.

Example::

    b = ProgramBuilder("gemm", parameters=["NI", "NJ", "NK"])
    b.add_array("C", ("NI", "NJ"))
    b.add_array("A", ("NI", "NK"))
    b.add_array("B", ("NK", "NJ"))
    with b.loop("i", 0, "NI"):
        with b.loop("j", 0, "NJ"):
            b.assign(("C", "i", "j"), b.read("C", "i", "j") * 0.5)
            with b.loop("k", 0, "NK"):
                b.assign(("C", "i", "j"),
                         b.read("C", "i", "j") + b.read("A", "i", "k") * b.read("B", "k", "j"))
    program = b.finish()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .arrays import Array, array, scalar
from .nodes import Computation, LibraryCall, Loop, Node, Program
from .symbols import Call, Expr, ExprLike, Read, Sym, as_expr, sym

AccessSpec = Union[Read, Tuple]


def _as_access(spec: AccessSpec) -> Read:
    if isinstance(spec, Read):
        return spec
    if isinstance(spec, tuple) and spec:
        name, *indices = spec
        return Read(str(name), indices)
    raise TypeError(f"cannot interpret {spec!r} as an array access")


class ProgramBuilder:
    """Builds a :class:`~repro.ir.nodes.Program` incrementally."""

    def __init__(self, name: str, parameters: Optional[Sequence[str]] = None):
        self._program = Program(name, arrays=[], parameters=list(parameters or []))
        # Stack of bodies; the innermost open loop body is the append target.
        self._body_stack: List[List[Node]] = [self._program.body]
        self._open_iterators: List[str] = []
        self._statement_counter = 0

    # -- containers -------------------------------------------------------------

    def add_array(self, name: str, shape: Sequence[ExprLike] = (),
                  dtype: str = "float64", transient: bool = False) -> Array:
        """Declare an array container and return its declaration."""
        arr = array(name, shape, dtype=dtype, transient=transient)
        self._program.add_array(arr)
        for dim in arr.shape:
            for symbol in dim.free_symbols():
                self._program.ensure_parameter(symbol)
        return arr

    def add_scalar(self, name: str, dtype: str = "float64",
                   transient: bool = False) -> Array:
        """Declare a scalar container."""
        arr = scalar(name, dtype=dtype, transient=transient)
        self._program.add_array(arr)
        return arr

    # -- expressions -------------------------------------------------------------

    @staticmethod
    def read(name: str, *indices: ExprLike) -> Read:
        """Reference an array element (or scalar) inside an expression."""
        return Read(name, tuple(as_expr(i) for i in indices))

    @staticmethod
    def sym(name: str) -> Sym:
        return sym(name)

    @staticmethod
    def call(func: str, *args: ExprLike) -> Call:
        return Call(func, tuple(as_expr(a) for a in args))

    # -- structure ---------------------------------------------------------------

    @contextmanager
    def loop(self, iterator: str, start: ExprLike, end: ExprLike,
             step: ExprLike = 1, parallel: bool = False) -> Iterator[Loop]:
        """Open a loop; statements added inside the ``with`` block nest in it."""
        loop_node = Loop(iterator, start, end, step, body=[], parallel=parallel)
        self._body_stack[-1].append(loop_node)
        self._body_stack.append(loop_node.body)
        self._open_iterators.append(iterator)
        bound_symbols = (loop_node.start.free_symbols()
                         | loop_node.end.free_symbols()
                         | loop_node.step.free_symbols())
        for symbol in bound_symbols:
            # Bounds may reference enclosing loop iterators (triangular
            # domains); those are not size parameters.
            if symbol not in self._open_iterators:
                self._program.ensure_parameter(symbol)
        try:
            yield loop_node
        finally:
            self._body_stack.pop()
            self._open_iterators.pop()

    def assign(self, target: AccessSpec, value: ExprLike,
               name: Optional[str] = None) -> Computation:
        """Append a computation writing ``target = value``."""
        comp = Computation(_as_access(target), as_expr(value),
                           name=name or f"S{self._statement_counter}")
        self._statement_counter += 1
        self._body_stack[-1].append(comp)
        return comp

    def accumulate(self, target: AccessSpec, value: ExprLike,
                   name: Optional[str] = None) -> Computation:
        """Append a computation ``target = target + value`` (a reduction)."""
        target_access = _as_access(target)
        return self.assign(target_access, target_access + value, name=name)

    def library_call(self, routine: str, outputs: Sequence[str],
                     inputs: Sequence[str], flop_expr: ExprLike = 0,
                     metadata=None) -> LibraryCall:
        """Append a library call node (used rarely in hand-written inputs)."""
        node = LibraryCall(routine, outputs, inputs, flop_expr, metadata)
        self._body_stack[-1].append(node)
        return node

    # -- finalisation -------------------------------------------------------------

    def finish(self) -> Program:
        """Return the constructed program.

        Raises ``RuntimeError`` if a loop context is still open, which would
        indicate a structurally broken build.
        """
        if len(self._body_stack) != 1:
            raise RuntimeError("finish() called while a loop context is still open")
        iterators = {loop.iterator for loop in self._program.iter_loops()}
        remaining = self._program.used_parameters() - iterators
        for symbol in sorted(remaining):
            self._program.ensure_parameter(symbol)
        # Loop iterators never double as size parameters.
        self._program.parameters = [name for name in self._program.parameters
                                    if name not in iterators]
        return self._program

    @property
    def program(self) -> Program:
        """The program under construction (useful for inspection in tests)."""
        return self._program
