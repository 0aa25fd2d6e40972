"""Loop-nest tree nodes.

The paper characterizes programs as trees of *loops* and *computations*
(Section 2, Figure 2):

* a **computation** is a unit of work with exactly one write of a scalar
  value to a data container;
* a **loop** has an iterator, initial value, update, termination condition,
  and a body that is an ordered sequence of computations and loops;
* a **loop nest** is a loop whose body may contain further loops.

This module defines those nodes plus :class:`LibraryCall`, which represents
a loop nest replaced by an optimized library routine after idiom detection
(Section 4, "Seeding a Scheduling Database").
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .arrays import Array
from .symbols import Expr, ExprLike, Read, as_expr, const, sym

_node_counter = itertools.count()


def _next_id() -> int:
    return next(_node_counter)


class FrozenNodeError(TypeError):
    """Raised when a frozen (cache-shared) IR node is mutated.

    Frozen subtrees are shared between program views (see
    :meth:`Program.snapshot`); mutate a private :meth:`Node.copy` /
    :meth:`Program.copy` instead.
    """


def _invalidate(node) -> None:
    """Clear memoized canonical fragments along the parent chain.

    Invariant: a node's ``_frag`` is only ever set after the fragments of
    its whole subtree were set (fragments are built bottom-up), and every
    mutation clears the chain up to the root.  A node with no memo
    therefore has no ancestor with one, so the walk can stop early —
    invalidation is O(1) amortized, not O(depth).
    """
    while node is not None:
        try:
            object.__delattr__(node, "_frag")
        except AttributeError:
            return
        parent = getattr(node, "_parent", None)
        node = parent() if parent is not None else None


def _adopt(owner_ref, child) -> None:
    # Frozen nodes are structurally shared between views and never mutate,
    # so they neither need nor can have a single parent pointer.
    if isinstance(child, Node) and not getattr(child, "_frozen", False):
        object.__setattr__(child, "_parent", owner_ref)


class _Body(list):
    """A loop body that keeps memoized fragments honest.

    Every mutation — item/slice assignment, append/extend/insert, removal,
    reordering — re-parents the inserted children and clears the owning
    loop's memoized canonical fragment along with its ancestors'.  These
    list operations are exactly the mutation seams the builder and the
    transformation passes use, so fragment invalidation rides on them
    instead of requiring ad-hoc notifications.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner, items=()):
        super().__init__(items)
        # Back-pointers (body -> owner, child -> parent) are weak: a tree
        # holds no reference cycle, so dropping its root frees it at once
        # instead of leaving it to the cycle collector.
        self._owner = weakref.ref(owner)
        for child in self:
            _adopt(self._owner, child)

    def _mutated(self, new_children=()) -> None:
        owner = self._owner()
        if getattr(owner, "_frozen", False):
            raise FrozenNodeError(
                f"cannot mutate the body of frozen node {owner!r}")
        for child in new_children:
            _adopt(self._owner, child)
        _invalidate(owner)

    def __setitem__(self, index, value):
        self._mutated(value if isinstance(index, slice) else (value,))
        super().__setitem__(index, value)

    def __delitem__(self, index):
        self._mutated()
        super().__delitem__(index)

    def __iadd__(self, items):
        items = list(items)
        self._mutated(items)
        super().extend(items)
        return self

    def append(self, item):
        self._mutated((item,))
        super().append(item)

    def extend(self, items):
        items = list(items)
        self._mutated(items)
        super().extend(items)

    def insert(self, index, item):
        self._mutated((item,))
        super().insert(index, item)

    def pop(self, index=-1):
        self._mutated()
        return super().pop(index)

    def remove(self, item):
        self._mutated()
        super().remove(item)

    def clear(self):
        self._mutated()
        super().clear()

    def sort(self, **kwargs):
        self._mutated()
        super().sort(**kwargs)

    def reverse(self):
        self._mutated()
        super().reverse()


#: Fresh nodes are initialised past the mutation seam (a node under
#: construction has no memo, no parent and no frozen flag to honour).
_set = object.__setattr__


def _with_fragment_of(source: "Node", copy: "Node") -> "Node":
    """``copy`` holding ``source``'s memoized canonical fragment, if any: a
    copy has the source's content, so it has its fragment.  Copies are made
    bottom-up, so a copied node gets a memo only once every node below it
    did — the invariant :func:`_invalidate` relies on."""
    frag = getattr(source, "_frag", None)
    if frag is not None:
        _set(copy, "_frag", frag)
    return copy


def read_accesses(expr: Expr) -> Tuple[Read, ...]:
    """All array reads appearing in ``expr``, in order.  Memoized on the
    expression asked about (a statement's value), not on its parts."""
    try:
        return expr._reads
    except AttributeError:
        pass
    found: List[Read] = []
    _gather_reads(expr, found)
    expr._reads = reads = tuple(found)
    return reads


def _gather_reads(expr: Expr, found: List[Read]) -> None:
    # Module-level, not a recursive closure (a function<->cell cycle).
    if isinstance(expr, Read):
        found.append(expr)
    for child in expr.children():
        _gather_reads(child, found)


class Node:
    """Base class of loop-tree nodes.

    Nodes memoize their canonical JSON fragment (``repro.ir.canonical``)
    and keep it honest through two seams: attribute assignment
    (``__setattr__``) and body-list mutation (:class:`_Body`).  A node can
    also be :meth:`frozen <freeze>`, after which mutation raises
    :class:`FrozenNodeError` and the node may be structurally shared
    between program views; :meth:`copy` always returns unfrozen nodes.
    """

    __slots__ = ("node_id", "_frag", "_parent", "_frozen", "__weakref__")

    def __setattr__(self, name, value):
        if name[0] == "_":
            # Internal bookkeeping (memo, parent pointer, frozen flag):
            # always allowed, never invalidates.
            object.__setattr__(self, name, value)
            return
        if getattr(self, "_frozen", False):
            raise FrozenNodeError(f"cannot mutate frozen node {self!r}")
        if name == "body":
            value = _Body(self, value)
        _invalidate(self)
        object.__setattr__(self, name, value)

    def freeze(self) -> "Node":
        """Freeze this subtree: further mutation raises, so its memoized
        fragments are trusted forever and the nodes can be shared."""
        # A frozen node's subtree is entirely frozen (freezing is the only
        # way to set the flag and it walks the whole subtree), so repeat
        # freezes — every snapshot of a cached program — are O(1).
        stack = [self]
        while stack:
            node = stack.pop()
            if getattr(node, "_frozen", False):
                continue
            object.__setattr__(node, "_frozen", True)
            stack.extend(getattr(node, "body", ()))
        return self

    @property
    def frozen(self) -> bool:
        return getattr(self, "_frozen", False)

    def copy(self) -> "Node":
        raise NotImplementedError

    def iter_computations(self) -> Iterator["Computation"]:
        """Yield all computations in this subtree, in program order."""
        raise NotImplementedError

    def iter_loops(self) -> Iterator["Loop"]:
        """Yield all loops in this subtree, in pre-order."""
        raise NotImplementedError


class Computation(Node):
    """A unit of work with exactly one write to a data container.

    Attributes:
        name: Statement label (``S0``, ``S1``, ...).
        target: The written array element, as the :class:`Read` the value
            reads it with (in ``C[i,j] = C[i,j] + ...`` one object).
        value: Right-hand-side expression; may contain :class:`Read` nodes.
    """

    __slots__ = ("name", "target", "value")

    def __init__(self, target: Read, value: ExprLike, name: Optional[str] = None):
        node_id = _next_id()
        _set(self, "node_id", node_id)
        _set(self, "name", name or f"S{node_id}")
        _set(self, "target", target)
        _set(self, "value", as_expr(value))

    def copy(self) -> "Computation":
        return _with_fragment_of(
            self, Computation(self.target, self.value, name=self.name))

    def iter_computations(self) -> Iterator["Computation"]:
        yield self

    def iter_loops(self) -> Iterator["Loop"]:
        return iter(())

    def reads(self) -> Tuple[Read, ...]:
        """All array reads appearing in the right-hand side, in order."""
        return read_accesses(self.value)

    def accessed_arrays(self) -> frozenset:
        return frozenset([self.target.array,
                          *(acc.array for acc in self.reads())])

    def is_reduction(self) -> bool:
        """True if the target element is also read (e.g. ``C[i,j] += ...``)."""
        return self.target in self.reads()

    def substitute(self, mapping) -> "Computation":
        return Computation(self.target.substitute(mapping),
                           self.value.substitute(mapping), name=self.name)

    def __repr__(self) -> str:
        return f"Computation({self.name}: {self.target} = {self.value})"


class Loop(Node):
    """A counted loop with symbolic bounds.

    The iteration domain is ``start <= iterator < end`` with increment
    ``step``.  Schedule annotations (``parallel``, ``vectorized``,
    ``unroll``) are attached by transformations and consumed by the
    performance model and code generator; they do not change semantics.
    """

    __slots__ = ("iterator", "start", "end", "step", "body",
                 "parallel", "vectorized", "unroll", "tile_of")

    def __init__(self, iterator: str, start: ExprLike, end: ExprLike,
                 step: ExprLike = 1, body: Optional[Sequence[Node]] = None,
                 parallel: bool = False, vectorized: bool = False,
                 unroll: int = 1, tile_of: Optional[str] = None):
        _set(self, "node_id", _next_id())
        _set(self, "iterator", iterator)
        _set(self, "start", as_expr(start))
        _set(self, "end", as_expr(end))
        _set(self, "step", as_expr(step))
        _set(self, "body", _Body(self, body or ()))
        _set(self, "parallel", parallel)
        _set(self, "vectorized", vectorized)
        _set(self, "unroll", unroll)
        _set(self, "tile_of", tile_of)

    def with_body(self, body: Sequence[Node]) -> "Loop":
        """A fresh loop with this loop's header and annotations over ``body``."""
        return Loop(self.iterator, self.start, self.end, self.step, body=body,
                    parallel=self.parallel, vectorized=self.vectorized,
                    unroll=self.unroll, tile_of=self.tile_of)

    def copy(self) -> "Loop":
        return _with_fragment_of(
            self, self.with_body([child.copy() for child in self.body]))

    def iter_computations(self) -> Iterator[Computation]:
        for child in self.body:
            yield from child.iter_computations()

    def iter_loops(self) -> Iterator["Loop"]:
        yield self
        for child in self.body:
            yield from child.iter_loops()

    def trip_count(self, parameters: Dict[str, int]) -> int:
        """Number of iterations under concrete parameter bindings."""
        start = self.start.evaluate(parameters)
        end = self.end.evaluate(parameters)
        step = self.step.evaluate(parameters)
        if step <= 0:
            raise ValueError(f"loop {self.iterator} has non-positive step {step}")
        return max(0, -(-(end - start) // step))

    def bound_symbols(self) -> frozenset:
        """Symbols the loop header (start, end, step) references."""
        return (self.start.free_symbols() | self.end.free_symbols()
                | self.step.free_symbols())

    def symbolic_trip_count(self) -> Expr:
        """Trip count as a symbolic expression (assumes step divides range)."""
        from .symbols import FloorDiv, Mul
        span = self.end - self.start
        return FloorDiv.make(span, self.step)

    def is_normalized(self) -> bool:
        """True if the loop starts at 0 with unit step."""
        return self.start == const(0) and self.step == const(1)

    def perfectly_nested_band(self) -> List["Loop"]:
        """Longest chain of singly-nested loops starting at this loop.

        Returns the band ``[self, child, grandchild, ...]`` where each loop's
        body contains exactly one node which is itself a loop.  The last loop
        in the band may contain any body.
        """
        band = [self]
        current = self
        while len(current.body) == 1 and isinstance(current.body[0], Loop):
            current = current.body[0]
            band.append(current)
        return band

    def is_perfect_nest(self) -> bool:
        """True if every body on the band except the innermost holds one loop."""
        band = self.perfectly_nested_band()
        return all(not isinstance(child, Loop) for child in band[-1].body)

    def depth(self) -> int:
        """Maximum loop-nesting depth of this subtree."""
        child_depths = [child.depth() for child in self.body if isinstance(child, Loop)]
        return 1 + (max(child_depths) if child_depths else 0)

    def __repr__(self) -> str:
        flags = []
        if self.parallel:
            flags.append("parallel")
        if self.vectorized:
            flags.append("vector")
        if self.unroll > 1:
            flags.append(f"unroll={self.unroll}")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (f"Loop({self.iterator}: {self.start}..{self.end} step {self.step}, "
                f"{len(self.body)} children{suffix})")


class LibraryCall(Node):
    """A loop nest replaced by an optimized library routine (idiom detection).

    Attributes:
        routine: Library routine name, e.g. ``"gemm"`` or ``"gemv"``.
        outputs / inputs: Container names passed to the routine.
        flop_expr: Symbolic count of floating-point operations performed,
            used by the performance model.
        metadata: Routine-specific parameters (e.g. transposition flags or
            scaling constants) used by the interpreter.
    """

    __slots__ = ("routine", "outputs", "inputs", "flop_expr", "metadata")

    def __init__(self, routine: str, outputs: Sequence[str], inputs: Sequence[str],
                 flop_expr: ExprLike = 0, metadata: Optional[Dict[str, object]] = None):
        _set(self, "node_id", _next_id())
        _set(self, "routine", routine)
        _set(self, "outputs", tuple(outputs))
        _set(self, "inputs", tuple(inputs))
        _set(self, "flop_expr", as_expr(flop_expr))
        _set(self, "metadata", dict(metadata or {}))

    def copy(self) -> "LibraryCall":
        return _with_fragment_of(
            self, LibraryCall(self.routine, self.outputs, self.inputs,
                              self.flop_expr, dict(self.metadata)))

    def iter_computations(self) -> Iterator[Computation]:
        return iter(())

    def iter_loops(self) -> Iterator[Loop]:
        return iter(())

    def accessed_arrays(self) -> frozenset:
        return frozenset(self.outputs) | frozenset(self.inputs)

    def __repr__(self) -> str:
        return (f"LibraryCall({self.routine}, outputs={list(self.outputs)}, "
                f"inputs={list(self.inputs)})")


NodeLike = Union[Loop, Computation, LibraryCall]


def substitute_symbols(node: Node, mapping: Mapping[str, ExprLike]) -> None:
    """Substitute symbols per ``mapping`` through a subtree, in place: loop
    headers, statements and library-call FLOP counts."""
    if isinstance(node, Loop):
        node.start = node.start.substitute(mapping)
        node.end = node.end.substitute(mapping)
        node.step = node.step.substitute(mapping)
        for child in node.body:
            substitute_symbols(child, mapping)
    elif isinstance(node, Computation):
        node.target = node.target.substitute(mapping)
        node.value = node.value.substitute(mapping)
    elif isinstance(node, LibraryCall):
        node.flop_expr = node.flop_expr.substitute(mapping)


def rename_iterators(node: Node, mapping: Mapping[str, str]) -> None:
    """Rename loop iterators per ``mapping`` through a subtree, in place:
    the loops that declare them and every use."""
    for loop in node.iter_loops():
        if loop.iterator in mapping:
            loop.iterator = mapping[loop.iterator]
    substitute_symbols(node, {old: sym(new) for old, new in mapping.items()})


def loop_sites(body: List[Node], owner: Optional[Loop] = None
               ) -> Iterator[Tuple[Optional[Loop], List[Node], int]]:
    """Where each loop under ``body`` sits, post-order: a loop's children
    before the loop.  Yields ``(owner, body, index)``, ``owner`` being the
    loop whose body holds the site (``None`` at the top); the caller may
    replace ``body[index]`` with any number of nodes, which the walk then
    steps over."""
    index = 0
    while index < len(body):
        node = body[index]
        if isinstance(node, Loop):
            yield from loop_sites(node.body, node)
            length = len(body)
            yield owner, body, index
            index += len(body) - length
        index += 1


def band_starts(body: List[Node]) -> Iterator[Tuple[List[Node], int]]:
    """Where each maximal band starts: every loop of ``body``, then every
    loop in the body of its band's innermost loop, recursively.  Yields
    ``(body, index)``; the caller may replace ``body[index]`` before the
    walk goes on below whatever it then holds."""
    for index, node in enumerate(body):
        if isinstance(node, Loop):
            yield body, index
            yield from band_starts(
                body[index].perfectly_nested_band()[-1].body)


class Program:
    """A complete program: container declarations plus a sequence of nodes.

    This plays the role of the lifted symbolic representation (an SDFG-like
    view) in the paper: the unit on which normalization passes and the
    auto-scheduler operate.
    """

    def __init__(self, name: str, arrays: Sequence[Array],
                 body: Optional[Sequence[Node]] = None,
                 parameters: Optional[Sequence[str]] = None):
        self.name = name
        self.arrays: Dict[str, Array] = {}
        for arr in arrays:
            self.add_array(arr)
        self.body: List[Node] = list(body or [])
        self.parameters: List[str] = list(parameters or [])

    # -- container management --------------------------------------------------

    def add_array(self, arr: Array) -> Array:
        if arr.name in self.arrays:
            raise ValueError(f"duplicate container name {arr.name!r}")
        self.arrays[arr.name] = arr
        return arr

    def ensure_parameter(self, name: str) -> None:
        if name not in self.parameters:
            self.parameters.append(name)

    # -- traversal ---------------------------------------------------------------

    def iter_computations(self) -> Iterator[Computation]:
        for node in self.body:
            yield from node.iter_computations()

    def iter_loops(self) -> Iterator[Loop]:
        for node in self.body:
            yield from node.iter_loops()

    def top_level_loops(self) -> List[Loop]:
        return [node for node in self.body if isinstance(node, Loop)]

    def library_calls(self) -> List[LibraryCall]:
        out: List[LibraryCall] = []

        def visit(node: Node) -> None:
            if isinstance(node, LibraryCall):
                out.append(node)
            elif isinstance(node, Loop):
                for child in node.body:
                    visit(child)

        for node in self.body:
            visit(node)
        return out

    def copy(self) -> "Program":
        clone = Program(self.name, list(self.arrays.values()),
                        [node.copy() for node in self.body],
                        list(self.parameters))
        return clone

    def freeze(self) -> "Program":
        """Freeze every body node (see :meth:`Node.freeze`); program-level
        containers (name, arrays, parameters) stay mutable."""
        for node in self.body:
            node.freeze()
        return self

    def snapshot(self) -> "Program":
        """A cheap copy-on-write view of this program.

        Body nodes are frozen and *shared* (mutating them raises
        :class:`FrozenNodeError`); the view's own name, body list, array
        dict, and parameter list are fresh, so callers may rename the
        view, splice its body, or add containers without affecting other
        views.  Use :meth:`copy` to materialize a fully mutable tree.
        """
        self.freeze()
        view = Program.__new__(Program)
        view.name = self.name
        view.arrays = dict(self.arrays)
        view.body = list(self.body)
        view.parameters = list(self.parameters)
        return view

    def used_parameters(self) -> frozenset:
        """Symbols referenced by the program that are not loop iterators:
        one walk, over the memoized symbols of each expression."""
        symbols = set()
        iterators = set()
        for arr in self.arrays.values():
            for dim in arr.shape:
                symbols.update(dim.free_symbols())
        stack = list(self.body)
        while stack:
            node = stack.pop()
            if isinstance(node, Loop):
                iterators.add(node.iterator)
                symbols.update(node.start.free_symbols(),
                               node.end.free_symbols(),
                               node.step.free_symbols())
                stack.extend(node.body)
            elif isinstance(node, Computation):
                symbols.update(node.target.free_symbols(),
                               node.value.free_symbols())
            elif isinstance(node, LibraryCall):
                symbols.update(node.flop_expr.free_symbols())
        return frozenset(symbols - iterators)

    def __repr__(self) -> str:
        return (f"Program({self.name!r}, {len(self.arrays)} containers, "
                f"{len(self.body)} top-level nodes)")
