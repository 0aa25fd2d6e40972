"""Memory address trace generation.

The cache simulator consumes a sequence of ``(address, is_write)`` events.
This module walks a program (or a single nest) under concrete parameter
bindings and emits that sequence in execution order, assigning each container
a distinct, line-aligned base address in a flat virtual address space.

Trace generation executes the loop structure but not the arithmetic, so it is
much faster than full interpretation; it is still linear in the number of
dynamic accesses, so callers use reduced problem sizes (the CLOUDSC erosion
kernel of Table 1 is small enough to trace exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..ir.arrays import Array
from ..ir.nodes import Computation, LibraryCall, Loop, Node, Program
from ..ir.serialization import node_from_dict
from ..ir.symbols import Expr

#: Containers are placed at line-aligned addresses with this alignment.
BASE_ALIGNMENT = 4096


@dataclass(frozen=True)
class TraceLayout:
    """Base addresses and strides of every container."""

    bases: Dict[str, int]
    strides: Dict[str, Tuple[int, ...]]
    element_sizes: Dict[str, int]

    def address(self, array: str, index: Tuple[int, ...]) -> int:
        base = self.bases[array]
        strides = self.strides[array]
        offset = 0
        for value, stride in zip(index, strides):
            offset += value * stride
        return base + offset * self.element_sizes[array]


def build_layout(program: Program, parameters: Mapping[str, int]) -> TraceLayout:
    """Assign every container a base address and row-major strides."""
    bases: Dict[str, int] = {}
    strides: Dict[str, Tuple[int, ...]] = {}
    element_sizes: Dict[str, int] = {}
    cursor = BASE_ALIGNMENT
    for name, arr in program.arrays.items():
        bases[name] = cursor
        strides[name] = arr.row_major_strides(parameters) if arr.rank else (1,)
        element_sizes[name] = arr.element_size
        size = max(arr.size_in_bytes(parameters), arr.element_size)
        cursor += ((size + BASE_ALIGNMENT - 1) // BASE_ALIGNMENT) * BASE_ALIGNMENT
    return TraceLayout(bases, strides, element_sizes)


class TraceGenerator:
    """Walks a program and yields ``(address, is_write)`` events.

    ``register_budget`` models register allocation: scalar temporaries
    (transient rank-0 containers) inside an innermost loop whose body fits the
    budget live entirely in registers and emit no memory traffic; bodies that
    exceed the budget spill, so their scalar accesses appear in the trace —
    this is what makes the original (heavily inlined) CLOUDSC erosion loop
    produce more L1 loads and evictions than the normalized version (Table 1).
    """

    def __init__(self, program: Program, parameters: Mapping[str, int],
                 layout: Optional[TraceLayout] = None,
                 register_budget: int = 16):
        self.program = program
        self.parameters = dict(parameters)
        self.layout = layout or build_layout(program, parameters)
        self.register_budget = register_budget

    def _loop_pressure(self, loop: Loop) -> int:
        operands = 0
        for child in loop.body:
            if isinstance(child, Computation):
                operands += len(child.reads()) + 1
        return operands

    def _is_register_scalar(self, array: str, enclosing: Optional[Loop]) -> bool:
        declared = self.program.arrays.get(array)
        if declared is None or not declared.transient or declared.rank != 0:
            return False
        if enclosing is None:
            return True
        return self._loop_pressure(enclosing) <= self.register_budget

    def _eval(self, expr: Expr, env: Dict[str, int]) -> int:
        return int(expr.evaluate({**self.parameters, **env}))

    def trace(self) -> Iterator[Tuple[int, bool]]:
        env: Dict[str, int] = {}
        for node in self.program.body:
            yield from self._trace_node(node, env, None)

    def _trace_node(self, node: Node, env: Dict[str, int],
                    enclosing: Optional[Loop]) -> Iterator[Tuple[int, bool]]:
        if isinstance(node, Loop):
            start = self._eval(node.start, env)
            end = self._eval(node.end, env)
            step = self._eval(node.step, env)
            for value in range(start, end, step):
                inner = dict(env)
                inner[node.iterator] = value
                for child in node.body:
                    yield from self._trace_node(child, inner, node)
        elif isinstance(node, Computation):
            for access in node.reads():
                if self._is_register_scalar(access.array, enclosing):
                    continue
                index = tuple(self._eval(i, env) for i in access.indices)
                yield self.layout.address(access.array, index), False
            target = node.target
            if not self._is_register_scalar(target.array, enclosing):
                index = tuple(self._eval(i, env) for i in target.indices)
                yield self.layout.address(target.array, index), True
        elif isinstance(node, LibraryCall):
            original = node.metadata.get("original")
            if original is not None:
                yield from self._trace_node(node_from_dict(original), env, enclosing)
            else:
                # Builtin routines touch each operand once, streaming.
                for name in list(node.inputs) + list(node.outputs):
                    arr = self.program.arrays[name]
                    elements = arr.size_in_elements(self.parameters)
                    for element in range(elements):
                        yield (self.layout.bases[name]
                               + element * arr.element_size), name in node.outputs


def generate_trace(program: Program, parameters: Mapping[str, int]
                   ) -> List[Tuple[int, bool]]:
    """Materialize the full trace of a program (small sizes only)."""
    return list(TraceGenerator(program, parameters).trace())
