"""The band view: one loop nest's schedule as data.

A schedule transforms the iteration space and leaves the access functions
alone: interchange, tiling, parallelization, vectorization and unrolling
reorder, split and annotate the loops of a nest's perfectly nested band and
never touch a statement.  A :class:`BandView` is that band as a list of
:class:`Frame` values over the subtree below it, which it shares and never
rewrites.  The schedule transformations edit the frames, legality is
answered from the statements and the frame order, the cost model walks the
frames — and a ``Loop`` is built only by :meth:`BandView.materialise`, for
the schedule that is kept.

What a view derives is a fact about the statements, the containers or an
order of iterators, never about one candidate, so it is kept for the view's
lifetime and shared by its :meth:`forks <BandView.fork>`.  It is the only
analysis memo there is: a search asks its pricer's view, whose legal orders
(``CandidateSpace.orders``) and schedules all read one derivation of the
direction vectors, and daisy asks one view of a nest for its embedding, the
recipe it transfers and that recipe's price.  Every dependence question is
a projection of the view's one
:class:`~repro.analysis.dependence.DependenceTable`, which the view of a
loop below the band asks too.

The program enters a classification only through its container facts
(:func:`~repro.analysis.parallelism.container_facts`), which the view's
maker hands it as :attr:`BandView.facts` — a schedule call derives them
once — and the view derives from its program only when it was handed none.
What a loop carries is a fact about the statements alone, so a view
:meth:`under <BandView.under>` other facts (the nest as a program of its
own, as an embedding classifies it) shares it.

===============================  =========================================
fact                             keyed by
===============================  =========================================
a pair test (the table's)        both accesses + the iterators private to
                                 each + the common iterators
accesses a pair test reads       the statement + the iterators known
direction vectors                the band's ``(iterator, tile_of)`` order
legality of a reordering         the band's order + the target order
what a band loop carries         its iterator + the iterators inside it
parallelism of a band loop       the facts + its iterator + the iterators
                                 inside it
what an iteration may privatize  the facts: one per view and facts
unit-stride share of a band loop its iterator
layout of a container            its name
legality of a tiling             the band's order + the tiled iterators
accesses of a statement          the statement
access plan of a statement       the statement + the loops enclosing it
                                 from the first one an access varies in +
                                 the cache line (the cost model's)
memory traffic of a schedule     the unannotated band + the names touched
                                 before the nest (the cost model's)
===============================  =========================================
"""

from __future__ import annotations

from dataclasses import replace
from typing import (Any, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from ..ir.nodes import (Computation, FrozenNodeError, Loop, Node, Program,
                        read_accesses)
from ..ir.symbols import Expr, Min, const, sym
from .affine import AffineAccess, computation_accesses, nest_statements
from .dependence import (EQ, DependenceTable, Statements,
                         _expand_directions, _lexicographically_non_negative)
from .flops import expr_flops
from .parallelism import (ParallelismInfo, classify_carried, container_facts,
                          privatizable)
from .strides import _array_strides, access_stride


class Frame(NamedTuple):
    """One loop of a band: its header and schedule annotations.

    With ``tile == 0`` the loop runs ``start <= iterator < end`` by ``step``
    as written.  ``tile > 0`` marks the point loop of a tiling made on the
    view: it runs from the origin its tile loop ``{iterator}_t`` binds to
    ``min(origin + tile, end)``, which :meth:`bounds` computes numerically
    and only :meth:`realised` spells out as expressions.
    """

    iterator: str
    start: Expr
    end: Expr
    step: Expr
    tile_of: Optional[str] = None
    tile: int = 0
    parallel: bool = False
    vectorized: bool = False
    unroll: int = 1

    @staticmethod
    def of(loop: Loop) -> "Frame":
        return Frame(loop.iterator, loop.start, loop.end, loop.step,
                     loop.tile_of, 0, loop.parallel, loop.vectorized,
                     loop.unroll)

    @property
    def origin(self) -> str:
        """The iterator of the tile loop a point loop starts from."""
        return f"{self.iterator}_t"

    def bound_symbols(self) -> frozenset:
        """Symbols the loop header references (as ``Loop.bound_symbols``)."""
        symbols = self.end.free_symbols() | self.step.free_symbols()
        if self.tile:
            return symbols | {self.origin}
        return symbols | self.start.free_symbols()

    def bounds(self, bindings: Mapping[str, float]) -> Tuple[float, float, float]:
        """``(start, end, step)`` under ``bindings``: the values evaluating
        the header expressions gives, and the same ``KeyError`` when a
        symbol (or the tile origin) is unbound."""
        if self.tile:
            start = bindings[self.origin]
            end = min(start + self.tile, self.end.evaluate(bindings))
        else:
            start = self.start.evaluate(bindings)
            end = self.end.evaluate(bindings)
        return start, end, self.step.evaluate(bindings)

    def realised(self) -> "Frame":
        """This frame with its bounds as expressions (``tile == 0``)."""
        if not self.tile:
            return self
        origin = sym(self.origin)
        return self._replace(start=origin, tile=0,
                             end=Min.make([origin + self.tile, self.end]))

    def loop(self, body: Sequence[Node]) -> Loop:
        frame = self.realised()
        return Loop(frame.iterator, frame.start, frame.end, frame.step,
                    body=body, parallel=frame.parallel,
                    vectorized=frame.vectorized, unroll=frame.unroll,
                    tile_of=frame.tile_of)


#: A frame field's position.
_FIELD = {name: position for position, name in enumerate(Frame._fields)}

#: What a schedule annotation aims at: a band position, or a loop below the
#: band (a node of the shared subtree).
Target = Union[int, Loop]

#: ``(element size, moves)`` of accesses: ``moves`` maps every enclosing
#: iterator the access varies in to the bytes between consecutive elements
#: (0.0 when unknown); ``None`` for a non-affine access, which may vary in
#: every loop.  Accesses that move alike (the reads of a stencil, the read
#: and write of an update) share one.
AccessMoves = Tuple[float, Optional[Dict[str, float]]]

#: What the cost model reads of the accesses that move alike, under one
#: order of the loops enclosing their statement: ``(element size, terms,
#: invariant)``.  ``terms`` holds, per loop level they vary in (outermost
#: first), ``(level, bytes per distinct element from that level inwards,
#: the levels they vary in from that level inwards)``; ``invariant`` holds
#: the levels they do not vary in.
MovesPlan = Tuple[float, Tuple[Tuple[int, float, Tuple[int, ...]], ...],
                  Tuple[int, ...]]

#: ``(flops per iteration, register pressure of its body, accesses,
#: moves, the levels whose footprint the charges read)`` of one statement
#: under one order of its enclosing loops: ``accesses`` holds ``(container,
#: element size, index into moves)`` per access, reads first, and ``moves``
#: a :data:`MovesPlan` per way its accesses move.
StatementPlan = Tuple[float, float, Tuple[Tuple[str, float, int], ...],
                      Tuple[MovesPlan, ...], Tuple[int, ...]]


class BandView:
    """The perfectly nested band of ``nest`` as frames over its inner body.

    ``program`` (``nest``'s, or a copy of it) and ``parameters`` bind the
    containers (a view made only to reorder or tile needs neither).  The
    view assumes they and the subtree below the band do not change while
    it lives.
    """

    def __init__(self, nest: Loop, program: Optional[Program] = None,
                 parameters: Optional[Mapping[str, float]] = None):
        band = nest.perfectly_nested_band()
        #: The nest the view was made of (its loops own ``inner``: a frozen
        #: nest guards the body only while they live).
        self.nest = nest
        self.frames: List[Frame] = [Frame.of(loop) for loop in band]
        #: The children of the innermost band loop, shared with ``nest``.
        self.inner: Sequence[Node] = band[-1].body
        self.program = program
        self.parameters: Dict[str, float] = dict(parameters or {})
        self._base: Tuple[Frame, ...] = tuple(self.frames)
        #: Whether :meth:`annotate` edited a loop below the band in place.
        self.edited_below = False
        #: Whether the view is a :meth:`fork`, which shares the subtree
        #: below the band and so may not annotate it.
        self.forked = False
        #: The :func:`~repro.analysis.parallelism.container_facts` of
        #: ``program``: set by a maker that holds them, else derived on the
        #: first parallelism question.
        self.facts: Optional[Mapping[str, int]] = None
        # The facts; forks share these dictionaries.  ``_classified`` holds
        # what depends on ``facts`` too, ``_memo`` what the statements give.
        self._memo: Dict[Tuple, Any] = {}
        self._classified: Dict[Tuple, Any] = {}
        self._layouts: Dict[str, Tuple[float, Tuple[int, ...]]] = {}
        self._moves: Dict[int, Tuple] = {}
        self._plans: Dict[Tuple, StatementPlan] = {}
        #: The cost model's memo (see :meth:`unannotated`).
        self.traffic: Dict[Tuple, Any] = {}

    def fork(self) -> "BandView":
        """A view of the same nest whose frames are edited separately; the
        facts stay shared."""
        twin = BandView.__new__(BandView)
        twin.__dict__.update(self.__dict__)
        twin.frames = list(self.frames)
        twin.forked = True
        return twin

    def under(self, facts: Mapping[str, int]) -> "BandView":
        """A fork that classifies under container ``facts``: it shares what
        the statements give, and the classifications too when ``facts``
        are the view's own."""
        twin = self.fork()
        if facts != self.facts:
            twin.facts = facts
            twin._classified = {}
        return twin

    # -- the band ---------------------------------------------------------------------

    def order(self) -> List[str]:
        return [frame.iterator for frame in self.frames]

    def state(self) -> Tuple[Frame, ...]:
        """The schedule as a hashable value."""
        return tuple(self.frames)

    def unannotated(self) -> Tuple[Tuple, ...]:
        """The band without its annotations (``parallel``, ``vectorized``,
        ``unroll``): the loops that decide what the nest reads and writes,
        and in which order."""
        return tuple(frame[:6] for frame in self.frames)

    def changed(self) -> bool:
        """Whether the schedule differs from the nest the view was made of."""
        return self.state() != self._base

    def find(self, iterator: str, below: int = 0) -> Optional[Target]:
        """The first loop with ``iterator``, in pre-order, from band
        position ``below`` inwards."""
        for position in range(below, len(self.frames)):
            if self.frames[position].iterator == iterator:
                return position
        for node in self.inner:
            for loop in node.iter_loops():
                if loop.iterator == iterator:
                    return loop
        return None

    def header(self, target: Target) -> Frame:
        return (self.frames[target] if isinstance(target, int)
                else Frame.of(target))

    def annotate(self, target: Target, **flags: Any) -> None:
        """Set schedule annotations on a band frame — or, in place, on a
        loop below the band, which a fork may not edit."""
        if isinstance(target, int):
            values = list(self.frames[target])
            for name, value in flags.items():
                values[_FIELD[name]] = value
            self.frames[target] = Frame(*values)
        else:
            for name, value in flags.items():
                if getattr(target, name) != value:
                    if self.forked:
                        raise FrozenNodeError(
                            f"a fork cannot annotate loop {target.iterator!r}"
                            f" below its band: the subtree is shared")
                    setattr(target, name, value)
                    self.edited_below = True

    def reorder(self, order: Sequence[str]) -> None:
        """Put the band in ``order``; the caller answers for legality."""
        by_iterator = {frame.iterator: frame for frame in self.frames}
        if sorted(order) != sorted(by_iterator):
            raise ValueError(f"order {list(order)} does not match band "
                             f"{self.order()}")
        self.frames = [by_iterator[iterator] for iterator in order]

    def tile(self, tile_sizes: Mapping[str, int]) -> None:
        """Strip-mine every band loop with a size above 1 into a tile loop
        (over tile origins, the size as step) and a point loop (within the
        tile), all tile loops outside all point loops, both groups in band
        order — rectangular tiling; the caller answers for legality."""
        tiles: List[Frame] = []
        points: List[Frame] = []
        for frame in self.frames:
            iterator, start, end, step, _, _, parallel, vectorized, unroll = \
                frame.realised()
            size = tile_sizes.get(iterator)
            if size is None or size <= 1:
                points.append(Frame(iterator, start, end, step, None, 0,
                                    parallel, vectorized, unroll))
                continue
            # An interned size: its hash is computed once, not per state.
            tiles.append(Frame(f"{iterator}_t", start, end, const(size),
                               iterator, 0, parallel))
            points.append(Frame(iterator, start, end, step, iterator, size,
                                False, vectorized, unroll))
        self.frames = tiles + points

    def materialise(self) -> Loop:
        """The nest this view describes, built over the shared inner body."""
        body: Sequence[Node] = self.inner
        for frame in reversed(self.frames):
            body = [frame.loop(body)]
        return body[0]

    # -- statements -------------------------------------------------------------------

    def _children(self) -> List[Statements]:
        """Per node of the inner body, its statements with the iterators
        that enclose them below the band."""
        children = self._memo.get(("children",))
        if children is None:
            children = self._memo[("children",)] = [
                nest_statements(node) for node in self.inner]
        return children

    def _table(self) -> DependenceTable:
        """The one dependence table of the view, its forks and the loops
        below its band."""
        table = self._memo.get(("table",))
        if table is None:
            table = self._memo[("table",)] = DependenceTable()
        return table

    def _statements(self, outer: Sequence[str]) -> Statements:
        """Every statement, enclosed by ``outer`` and then its loops below
        the band."""
        outer = tuple(outer)
        return [(statement, outer + enclosing)
                for child in self._children() for statement, enclosing in child]

    # -- legality ---------------------------------------------------------------------

    def vectors(self) -> Tuple[Tuple[str, ...], ...]:
        """Dependence direction vectors of the nest as scheduled (the
        table's :meth:`~repro.analysis.dependence.DependenceTable.vectors`
        of the materialised nest).

        Subscripts are tested iterator by iterator, so reordering the band
        permutes the band entries of every vector and changes nothing else:
        only the order the view was made with — and one with loops the view
        added — is analysed.
        """
        base = [frame.iterator for frame in self._base]
        order = self.order()
        if len(order) != len(base) or order == base:
            return self._analysed_vectors(self.frames)
        vectors = self._memo.get(("permuted", tuple(order)))
        if vectors is None:
            source = [base.index(iterator) for iterator in order]
            vectors = self._memo[("permuted", tuple(order))] = tuple(
                tuple(vector[index] for index in source) + vector[len(base):]
                for vector in self._analysed_vectors(self._base))
        return vectors

    def _analysed_vectors(self, frames: Sequence[Frame]
                          ) -> Tuple[Tuple[str, ...], ...]:
        headers = tuple((frame.iterator, frame.tile_of) for frame in frames)
        vectors = self._memo.get(("vectors", headers))
        if vectors is None:
            vectors = self._memo[("vectors", headers)] = self._table().vectors(
                self._statements([iterator for iterator, _ in headers]))
        return vectors

    def order_is_legal(self, order: Sequence[str]) -> bool:
        """Whether reordering the band to ``order`` is legal.

        Structurally, every loop bound must keep referencing only iterators
        outside it: triangular and other non-rectangular domains constrain
        which orders are expressible at all — moving ``j`` with bound
        ``N - i`` above ``i`` leaves ``i`` unbound in ``j``'s header
        regardless of dependences.  Semantically, the classical interchange
        condition: every direction vector that can occur in the current
        order (is lexicographically non-negative once its unknown ("*")
        entries are expanded) must stay lexicographically non-negative.
        The band's own order reverses no dependence, so only its bounds are
        checked and no direction vector is derived for it."""
        current, order = tuple(self.order()), tuple(order)
        key = ("legal", current, order)
        legal = self._memo.get(key)
        if legal is None:
            legal = self._memo[key] = self._legal(current, order)
        return legal

    def _legal(self, current: Tuple[str, ...], order: Tuple[str, ...]) -> bool:
        if sorted(current) != sorted(order):
            raise ValueError(
                f"permutation {list(order)} is not a reordering of "
                f"{list(current)}")
        position = {iterator: index for index, iterator in enumerate(order)}
        if any(position[other] >= position[frame.iterator]
               for frame in self.frames
               for other in frame.bound_symbols() & position.keys()):
            return False
        if order == current:
            return True
        index_of = {iterator: index for index, iterator in enumerate(current)}
        for vector in self.vectors():
            # A vector spans the loops common to both endpoints: the band
            # loops it does not reach are "=".
            directions = list(vector) + [EQ] * (len(current) - len(vector))
            for concrete in _expand_directions(directions):
                if not _lexicographically_non_negative(concrete):
                    continue  # cannot occur in the current order
                if not _lexicographically_non_negative(
                        [concrete[index_of[iterator]] for iterator in order]):
                    return False
        return True

    def tiling_is_legal(self, tiled: Sequence[str]) -> bool:
        """Whether the band loops ``tiled`` (in band order) may be tiled:
        rectangular tiling is strip-mining plus interchange, legal when the
        tiled loops form a fully permutable band, which is approximated by
        requiring that both their order and its reverse, moved outermost,
        are legal orders."""
        current, tiled = tuple(self.order()), tuple(tiled)
        key = ("tiling", current, tiled)
        legal = self._memo.get(key)
        if legal is None:
            others = tuple(it for it in current if it not in tiled)
            legal = self._memo[key] = (
                self.order_is_legal(tiled + others)
                and self.order_is_legal(tiled[::-1] + others))
        return legal

    def parallelism(self, target: Target) -> ParallelismInfo:
        """:func:`~repro.analysis.parallelism.classify_carried` of the loop
        at ``target`` under :attr:`facts` (a loop below the band asks a
        view of its own, handed the same facts and dependence table)."""
        if not isinstance(target, int):
            below = BandView(target, self.program)
            below.facts = self._facts()
            below._memo[("table",)] = self._table()
            return below.parallelism(0)
        frame = self.frames[target]
        inside = [inner.iterator for inner in self.frames[target + 1:]]
        # A classification reads which loops are inside, not their order; a
        # tile loop asks its point loop, which depends on where that is.
        key = ("parallelism", frame.iterator,
               frozenset(inside) if frame.tile_of in (None, frame.iterator)
               else tuple(inside))
        info = self._classified.get(key)
        if info is None:
            info = self._classified[key] = self._classify(target)
        return info

    def _facts(self) -> Mapping[str, int]:
        if self.facts is None:
            self.facts = container_facts(self.program)
        return self.facts

    def _classify(self, target: int) -> ParallelismInfo:
        frame = self.frames[target]
        if frame.tile_of is not None and frame.iterator != frame.tile_of:
            # A tile loop partitions the iterations of its point loop, the
            # first loop inside it that has the tiled iterator.
            point = self.find(frame.tile_of, below=target + 1)
            if point is not None:
                return replace(self.parallelism(point), iterator=frame.iterator)
        # Kept under one key whatever the order of the loops inside, so it
        # is derived in one order: theirs, sorted.
        inside = sorted(f.iterator for f in self.frames[target + 1:])
        children = [self._statements(inside)] if inside else self._children()
        key = ("carried", frame.iterator, tuple(inside))
        carried = self._memo.get(key)
        if carried is None:
            carried = self._memo[key] = self._table().carried(frame.iterator,
                                                              children)
        facts = self._facts()
        if not any(dep[0] in facts for dep in carried):
            # Only a transient container is ever private.
            return classify_carried(frame.iterator, children, carried,
                                    frozenset())
        # What an iteration may keep private is read off the inner body
        # alone: every band loop inside the target encloses all of it.
        private = self._classified.get(("private",))
        if private is None:
            private = self._classified[("private",)] = privatizable(
                self.inner, facts)
        return classify_carried(frame.iterator, children, carried, private)

    def mostly_unit_stride(self, target: Target) -> bool:
        """True when at least half of the affine accesses under the loop at
        ``target`` are unit-stride or invariant in its iterator, at the
        containers' nominal extents."""
        iterator = self.header(target).iterator
        if not isinstance(target, int):
            return self._unit_stride_share(iterator, (
                computation_accesses(statement, enclosing)
                for statement, enclosing in nest_statements(target)
                if isinstance(statement, Computation)))
        answer = self._memo.get(("unit-stride", iterator))
        if answer is None:
            answer = self._memo[("unit-stride", iterator)] = \
                self._unit_stride_share(iterator, (
                    computation_accesses(statement, enclosing)
                    for statement, enclosing in self._statements(self.order())
                    if isinstance(statement, Computation)))
        return answer

    def _unit_stride_share(self, iterator: str,
                           statements: Iterable[List[AffineAccess]]) -> bool:
        good = total = 0
        for accesses in statements:
            for access in accesses:
                if access.array not in self.program.arrays:
                    continue
                total += 1
                strides = self._memo.get(("nominal", access.array))
                if strides is None:
                    strides = self._memo[("nominal", access.array)] = \
                        _array_strides(self.program.arrays[access.array], {})
                stride = access_stride(access, iterator, strides)
                if stride is not None and abs(stride) <= 1:
                    good += 1
        return total == 0 or good * 2 >= total

    # -- what the cost model reads ------------------------------------------------------

    def layout(self, name: str) -> Tuple[float, Tuple[int, ...]]:
        """Element size and row-major strides of a container at the view's
        parameters, which bind its extents."""
        layout = self._layouts.get(name)
        if layout is None:
            array = self.program.arrays[name]
            layout = self._layouts[name] = (
                float(array.element_size),
                array.row_major_strides(self.parameters))
        return layout

    def _access_moves(self, comp: Computation, iterators: Sequence[str]
                      ) -> Tuple[Tuple[Tuple[str, float, int], ...],
                                 List[AccessMoves], Optional[frozenset]]:
        """``(accesses, moves, varying)`` of ``comp``, enclosed by
        ``iterators``: per access, reads first, its container, element size
        and index into ``moves``, the distinct :data:`AccessMoves`, and the
        iterators any access varies in (``None`` when one is not affine).
        Derived once per statement: the loops a view adds (tile loops)
        bring iterators no subscript mentions."""
        held = self._moves.get(id(comp))
        if held is None:
            accesses = []
            moves: List[AccessMoves] = []
            index: Dict[Tuple, int] = {}
            varying: Optional[set] = set()
            for access in computation_accesses(comp, iterators):
                elem, strides = self.layout(access.array)
                varies: Optional[Dict[str, float]] = None
                if access.affine:
                    varies = {}
                    for iterator in access.columns:
                        stride = access_stride(access, iterator, strides)
                        varies[iterator] = abs(stride) * elem if stride else 0.0
                    if varying is not None:
                        varying.update(varies)
                else:
                    varying = None
                key = (elem, None if varies is None
                       else tuple(sorted(varies.items())))
                if key not in index:
                    index[key] = len(moves)
                    moves.append((elem, varies))
                accesses.append((access.array, elem, index[key]))
            held = self._moves[id(comp)] = (
                tuple(accesses), moves,
                None if varying is None else frozenset(varying))
        return held

    def access_plan(self, comp: Computation, body: Sequence[Node],
                    iterators: Tuple[str, ...], line: float
                    ) -> Tuple[int, StatementPlan]:
        """``(lead, plan)`` of ``comp``, a statement directly in ``body``,
        enclosed by the loops ``iterators`` (outermost first), with cache
        lines of ``line`` bytes.  ``lead`` counts the outermost loops no
        access of it varies in (tile loops, say), and the
        :data:`StatementPlan` covers the loops inside them, level 0 being
        the first: everything the cost model charges the statement except
        the trip counts, the same for every schedule that keeps the order
        of those loops, whichever loops it tiles."""
        accesses, moves, varying = self._access_moves(comp, iterators)
        lead = 0
        if varying is not None:
            while lead < len(iterators) and iterators[lead] not in varying:
                lead += 1
        inside = iterators[lead:]
        key = (id(comp), inside, line)
        plan = self._plans.get(key)
        if plan is not None:
            return lead, plan
        depth = len(inside)
        plans = []
        read = {0}
        for elem, varies in moves:
            # The levels the accesses vary in and the bytes between two
            # consecutive elements there (unknown: a line per element).
            if varies is None:
                levels, strides = list(range(depth)), [line] * depth
            else:
                levels, strides = [], []
                for level, iterator in enumerate(inside):
                    stride = varies.get(iterator)
                    if stride is not None:
                        levels.append(level)
                        strides.append(stride or line)
            # If *any* loop from a level inwards walks the container with
            # (near-)unit stride, consecutive elements share cache lines
            # even when another loop strides across rows; only an access
            # with no dense dimension pulls a line per element.
            terms = []
            least = line
            for first in reversed(range(len(levels))):
                if first == len(levels) - 1 or strides[first] < least:
                    least = strides[first]
                terms.append((levels[first], min(max(least, elem), line),
                              tuple(levels[first:])))
            terms.reverse()
            invariant = tuple(level for level in range(depth)
                              if level not in levels)
            read.update(level + 1 for level in invariant)
            plans.append((elem, tuple(terms), invariant))
        # Distinct values live in one iteration of the statements directly
        # in ``body`` (operands plus temporaries), a spill predictor.
        pressure = float(sum(len(read_accesses(child.value)) + 1
                             for child in body
                             if isinstance(child, Computation)))
        plan = self._plans[key] = (float(expr_flops(comp.value)), pressure,
                                   accesses, tuple(plans), tuple(sorted(read)))
        return lead, plan
