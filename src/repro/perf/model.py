"""Analytical performance model.

The paper evaluates schedules by running the generated code on an Intel Xeon
E5-2680v3.  Offline, we substitute a roofline-with-locality model: per loop
nest the model estimates

* the floating-point work,
* the bytes moved from each memory-hierarchy level (based on per-access
  stride classes, reuse loops, and whether the reused footprint fits in a
  cache level),
* the effect of schedule annotations (parallel loops, SIMD loops, unrolling,
  atomic reductions, tiling — the latter implicitly through the footprint of
  the tile loops),

and reports the nest runtime as ``max(compute, memory) + overheads``.  The
absolute numbers are approximations, but the model preserves the *ordering*
effects the paper's claims rest on: strided variants are slower than
unit-stride variants, unparallelized code does not scale, BLAS calls beat
generic loop nests, and atomic reductions are expensive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, List, Mapping, NamedTuple, Optional,
                    Sequence, Set, Tuple, Union)

from ..analysis.band import BandView, Frame, Target
from ..analysis.flops import expr_flops
from ..ir.nodes import Computation, LibraryCall, Loop, Node, Program
from .machine import DEFAULT_MACHINE, MachineModel

MEMORY_LEVELS = ("L1", "L2", "L3", "DRAM")

#: Number of values that can be held in registers within one iteration of an
#: innermost loop before the compiler starts spilling (16 ymm registers).
REGISTER_BUDGET = 16

_UNBOUND = object()


@dataclass
class NestCost:
    """Cost break-down of one top-level node."""

    label: str
    flops: float = 0.0
    bytes_by_level: Dict[str, float] = field(default_factory=lambda: {lvl: 0.0 for lvl in MEMORY_LEVELS})
    compute_time: float = 0.0
    memory_time: float = 0.0
    overhead_time: float = 0.0
    atomic_time: float = 0.0
    active_threads: int = 1
    vectorized: bool = False
    time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        out = {"flops": self.flops, "compute_time": self.compute_time,
               "memory_time": self.memory_time, "overhead_time": self.overhead_time,
               "atomic_time": self.atomic_time, "time": self.time,
               "threads": self.active_threads}
        out.update({f"bytes_{lvl}": self.bytes_by_level[lvl] for lvl in MEMORY_LEVELS})
        return out


@dataclass
class RuntimeEstimate:
    """Estimated runtime of a whole program."""

    program: str
    total_time: float
    nests: List[NestCost]
    threads: int

    def as_dict(self) -> Dict[str, object]:
        return {"program": self.program, "total_time": self.total_time,
                "threads": self.threads,
                "nests": [nest.as_dict() for nest in self.nests]}


class CostModel:
    """Estimates program runtime on a :class:`MachineModel`."""

    def __init__(self, machine: MachineModel = DEFAULT_MACHINE, threads: int = 1):
        if threads < 1:
            raise ValueError("threads must be at least 1")
        self.machine = machine
        self.threads = min(threads, machine.cores)

    # -- public API ---------------------------------------------------------------

    def estimate(self, program: Program,
                 parameters: Mapping[str, int],
                 assume_warm_caches: bool = False) -> RuntimeEstimate:
        """Estimate the runtime of ``program`` under concrete parameters.

        With ``assume_warm_caches`` the program's containers are assumed to be
        resident from a previous execution (the repeated-measurement protocol
        of the paper); first touches are then served by the cache level the
        container fits in instead of DRAM.
        """
        nests: List[NestCost] = []
        total = 0.0
        # Containers already touched by an earlier nest of this program: later
        # nests re-read them from the cache level their footprint fits in
        # rather than from DRAM.
        touched: Set[str] = set(program.arrays) if assume_warm_caches else set()
        for index, node in enumerate(program.body):
            cost = self.estimate_node(node, program, parameters, index, touched)
            if cost is not None:
                nests.append(cost)
                total += cost.time
        return RuntimeEstimate(program.name, total, nests, self.threads)

    def estimate_node(self, node: Union[Node, BandView], program: Program,
                      parameters: Mapping[str, int], index: int,
                      touched: Set[str]) -> Optional[NestCost]:
        """Cost of the top-level ``node`` at ``index`` of ``program`` (None
        for node kinds the model does not price).  A loop nest may come as a
        :class:`~repro.analysis.band.BandView` of it — a schedule that was
        never built.

        ``touched`` is the only thing one top-level node's cost reads of
        the others: the names of the containers earlier nodes touched.
        Loop nests add theirs to it.
        """
        if isinstance(node, LibraryCall):
            return self._estimate_library_call(node, program, parameters, index)
        if isinstance(node, Loop):
            # A view of its own, which no fork will ask again.
            view = BandView(node, program, parameters)
            return self._estimate_nest(
                view, index, touched,
                _NestWalk(self.machine, view, touched).traffic())
        if isinstance(node, BandView):
            return self._estimate_nest(node, index, touched,
                                       self._traffic(node, touched))
        if isinstance(node, Computation):
            cost = NestCost(label=f"{index}:{node.name}",
                            flops=expr_flops(node.value))
            cost.compute_time = cost.flops / self.machine.scalar_flops(1)
            cost.time = cost.compute_time
            return cost
        return None

    def estimate_seconds(self, program: Program,
                         parameters: Mapping[str, int],
                         assume_warm_caches: bool = False) -> float:
        return self.estimate(program, parameters, assume_warm_caches).total_time

    # -- library calls -------------------------------------------------------------

    def _estimate_library_call(self, call: LibraryCall, program: Program,
                               parameters: Mapping[str, int], index: int) -> NestCost:
        cost = NestCost(label=f"{index}:call:{call.routine}")
        flops = cost.flops = float(call.flop_expr.evaluate(parameters))
        threads = self.threads
        peak = self.machine.peak_flops_per_core * threads * self.machine.blas_efficiency
        cost.compute_time = flops / peak if peak else 0.0

        operand_bytes = 0.0
        for name in set(call.inputs) | set(call.outputs):
            operand_bytes += program.arrays[name].size_in_bytes(parameters)
        cost.bytes_by_level["DRAM"] = operand_bytes
        cost.memory_time = operand_bytes / self.machine.bandwidth_of("DRAM", threads)
        cost.overhead_time = self.machine.parallel_overhead_s if threads > 1 else 0.0
        cost.active_threads = threads
        cost.vectorized = True
        cost.time = max(cost.compute_time, cost.memory_time) + cost.overhead_time
        return cost

    # -- loop nests -----------------------------------------------------------------

    def _traffic(self, view: BandView, touched: Set[str]) -> "_Traffic":
        """What the schedule ``view`` describes moves.  That depends on the
        loops' order, bounds and tiles and not on their annotations (a
        schedule changes the iteration space, never the accesses), so it is
        walked once per unannotated band and set of touched names, and kept
        on the view for its forks."""
        key = (view.unannotated(), frozenset(touched))
        memo = view.traffic.get(key)
        if memo is not None and memo[0] is self.machine:
            return memo[1]
        traffic = _NestWalk(self.machine, view, touched).traffic()
        view.traffic[key] = (self.machine, traffic)
        return traffic

    def _estimate_nest(self, view: BandView, index: int, touched: Set[str],
                       traffic: "_Traffic") -> NestCost:
        """A nest's cost from what its loops move, and what the annotations
        decide — threads, loop overhead, vector or scalar flops, atomics —
        added up from the walk's record, in the walk's order."""
        touched.update(traffic.touched)
        cost = NestCost(label=f"{index}:{view.frames[0].iterator}",
                        flops=traffic.flops,
                        bytes_by_level=dict(traffic.bytes_by_level))
        parallel_loop = self._outermost_parallel(view)
        if parallel_loop is not None:
            trip = (traffic.band_trips[parallel_loop]
                    if isinstance(parallel_loop, int)
                    else self._trip(view, parallel_loop))
            cost.active_threads = max(1, min(self.threads, int(trip) or 1))
        threads = cost.active_threads

        # Loop bookkeeping: a vectorized loop retires vector_width
        # iterations per issue, an unrolled one amortizes further.
        band_simd = False
        loop_iterations = 0.0
        for frame, iterations in zip(view.frames, traffic.band_iterations):
            effective_unroll = max(1, frame.unroll)
            if frame.vectorized:
                effective_unroll *= self.machine.vector_width
                band_simd = True
            loop_iterations += iterations / effective_unroll
        for iterations in traffic.inner_iterations:
            loop_iterations += iterations
        cost.vectorized = band_simd or traffic.inner_vectorized

        # Compute time: flops executed under an (effective) SIMD schedule run
        # at the vector rate, everything else at the scalar rate.  Register
        # pressure above the budget disables effective vectorization (see
        # _NestWalk).
        scalar_flops, vector_flops = (traffic.flops_band_simd if band_simd
                                       else traffic.flops_no_band_simd)
        scalar_rate = self.machine.frequency_hz * self.machine.scalar_flops_per_cycle * threads
        vector_rate = self.machine.frequency_hz * self.machine.vector_flops_per_cycle * threads
        cost.compute_time = 0.0
        if scalar_rate:
            cost.compute_time += scalar_flops / scalar_rate
        if vector_rate:
            cost.compute_time += vector_flops / vector_rate

        # Memory time: sum of per-level transfer times at the level bandwidths.
        memory_time = 0.0
        for level in MEMORY_LEVELS:
            volume = traffic.bytes_by_level[level]
            if volume <= 0:
                continue
            memory_time += volume / self.machine.bandwidth_of(level, threads)
        cost.memory_time = memory_time

        # Loop bookkeeping overhead.
        cost.overhead_time = (loop_iterations * self.machine.loop_overhead_cycles
                              / self.machine.frequency_hz / threads)
        if threads > 1:
            cost.overhead_time += self.machine.parallel_overhead_s

        # Atomic reductions: parallel loops that carry reduction dependences
        # serialize their updates through atomics.
        if parallel_loop is not None and threads > 1:
            if view.parallelism(parallel_loop).is_reduction:
                cost.atomic_time = traffic.write_iterations * self.machine.atomic_cost_s

        cost.time = (max(cost.compute_time, cost.memory_time)
                     + cost.overhead_time + cost.atomic_time)
        return cost

    def _outermost_parallel(self, view: BandView) -> Optional[Target]:
        for position, frame in enumerate(view.frames):
            if frame.parallel:
                return position
        for node in view.inner:
            for loop in node.iter_loops():
                if loop.parallel:
                    return loop
        return None

    def _trip(self, view: BandView, target: Loop) -> float:
        """Trip count of the loop ``target`` below the band, the loops
        around it bound at their midpoints, as the walk binds them (a band
        loop's is the walk's own record)."""
        # Every loop before it in pre-order binds its iterator; the last
        # binding of each name the target sees is its enclosing loop's.
        below = [loop for node in view.inner for loop in node.iter_loops()]
        frames = [*view.frames, *map(Frame.of, below[:below.index(target) + 1])]
        bindings = dict(view.parameters)
        for frame in frames:
            start, end, step = frame.bounds(bindings)
            bindings[frame.iterator] = start + (end - start) / 2.0
        return max(0.0, (end - start) / step)


#: What a :class:`NodePrices` table keeps of one pricing: the node's cost
#: and the container names touched once it ran.
Priced = Tuple[Optional[NestCost], FrozenSet[str]]


class NodePrices:
    """Costs of top-level nodes, each priced once.

    A top-level node's cost reads one thing of the program around it: the
    set of container names the nodes before it touched (see
    :meth:`CostModel.estimate_node`).  The table keeps a cost per node (by
    identity; it holds the node, so the identity is not reused), index and
    set of names touched before it, with the names touched after it.  A
    scheduler's walk holds one table for the whole call: its searches price
    each sibling nest once per set of names instead of once per search,
    record the nest they build, and :meth:`seconds` of the scheduled
    program — its costs summed in program order — is bit-identical to
    :meth:`CostModel.estimate_seconds`.

    A node must not change while the table holds its prices; a node edited
    in place is :meth:`forgotten <forget>`.

    The table also carries the call's
    :func:`~repro.analysis.parallelism.container_facts` of the program as
    :attr:`facts`, which every pricer of the call hands its view.
    """

    def __init__(self, model: CostModel, parameters: Mapping[str, int]):
        self.model = model
        self.parameters = parameters
        self._nodes: Dict[int, Tuple[Node, Dict[Tuple[int, FrozenSet[str]],
                                                Priced]]] = {}
        #: The program's container facts: derived by the call's first
        #: pricer, dropped (``None``) when a step changes what the program
        #: reads.
        self.facts: Optional[Dict[str, int]] = None

    def _entries(self, node: Node) -> Dict[Tuple[int, FrozenSet[str]], Priced]:
        held = self._nodes.get(id(node))
        if held is None:
            held = self._nodes[id(node)] = (node, {})
        return held[1]

    def cost(self, program: Program, index: int,
             before: FrozenSet[str]) -> Priced:
        """Cost of the top-level node at ``index`` of ``program`` after
        nodes that touched ``before``, and the names touched after it."""
        entries = self._entries(program.body[index])
        priced = entries.get((index, before))
        if priced is None:
            touched = set(before)
            cost = self.model.estimate_node(program.body[index], program,
                                            self.parameters, index, touched)
            priced = entries[(index, before)] = (cost, frozenset(touched))
        return priced

    def record(self, node: Node, index: int, before: FrozenSet[str],
               priced: Priced) -> None:
        """Keep what pricing ``node`` (as a view, before it was built) at
        ``index`` after ``before`` gave."""
        self._entries(node)[(index, before)] = priced

    def forget(self, node: Node) -> None:
        self._nodes.pop(id(node), None)

    def seconds(self, program: Program) -> float:
        """``CostModel.estimate_seconds(program, parameters)``."""
        total = 0.0
        touched: FrozenSet[str] = frozenset()
        for index in range(len(program.body)):
            cost, touched = self.cost(program, index, touched)
            if cost is not None:
                total += cost.time
        return total


class _Traffic(NamedTuple):
    """What one schedule of a loop nest moves, and a record of the walk for
    the parts the band's annotations decide."""

    flops: float
    write_iterations: float
    bytes_by_level: Dict[str, float]
    #: Per band loop, its trip count and its iterations (before unrolling
    #: and SIMD).
    band_trips: List[float]
    band_iterations: List[float]
    #: Per loop below the band, in the walk's order, its iterations over
    #: its own unrolling and SIMD width.
    inner_iterations: List[float]
    inner_vectorized: bool
    #: ``(scalar, vector)`` flops with a SIMD-marked band loop and without.
    flops_band_simd: Tuple[float, float]
    flops_no_band_simd: Tuple[float, float]
    #: The container names touched once the nest ran.
    touched: FrozenSet[str]


class _NestWalk:
    """Walks the frames of a loop nest's
    :class:`~repro.analysis.band.BandView` and the loops below them into
    its :class:`_Traffic`: the perfect band as one flat loop, then the body
    below it.  What does not depend on the schedule — accesses, layouts,
    strides, register pressure, and per order of the loops around a
    statement its :meth:`access plan <repro.analysis.band.BandView.access_plan>`
    — is the view's to remember; the walk adds the trip counts."""

    def __init__(self, machine: MachineModel, view: BandView,
                 touched: Set[str]):
        self.machine = machine
        self.view = view
        #: The caller's set: the walk adds the names it touches.
        self._touched = touched
        self.flops = 0.0
        self.write_iterations = 0.0
        self.bytes_by_level: Dict[str, float] = {lvl: 0.0 for lvl in MEMORY_LEVELS}
        self.band_trips: List[float] = []
        self.band_iterations: List[float] = []
        self.inner_iterations: List[float] = []
        self.inner_vectorized = False
        # Scalar and vector flops with a SIMD-marked band loop and without.
        self.flops_band_simd = [0.0, 0.0]
        self.flops_no_band_simd = [0.0, 0.0]
        # The enclosing loops, outermost first: iterators, trip counts (at
        # least 1), how many loops below the band are SIMD-marked, the
        # product of the trips outside each depth, and the parameters plus
        # every enclosing iterator at its midpoint.
        self._iterators: List[str] = []
        self._trips: List[float] = []
        self._simd_marked = 0
        self._iterations: List[float] = [1.0]
        self._bindings: Dict[str, float] = dict(view.parameters)
        #: Cold-miss volume already charged per container (the first touch of
        #: a container is charged once, not once per syntactic access).
        self._cold_charged: Dict[str, float] = {}
        self._line = float(machine.line_bytes)

    def traffic(self) -> _Traffic:
        bindings = self._bindings
        iterators, trips, iterations = (self._iterators, self._trips,
                                        self._iterations)
        for frame in self.view.frames:
            start, end, step = frame.bounds(bindings)
            trip = max(0.0, (end - start) / step)
            outside = iterations[-1]
            self.band_trips.append(trip)
            self.band_iterations.append(outside * trip)
            bindings[frame.iterator] = start + (end - start) / 2.0
            iterators.append(frame.iterator)
            trip = max(trip, 1.0)
            trips.append(trip)
            iterations.append(outside * trip)
        self._body(self.view.inner)
        return _Traffic(self.flops, self.write_iterations, self.bytes_by_level,
                        self.band_trips, self.band_iterations,
                        self.inner_iterations, self.inner_vectorized,
                        tuple(self.flops_band_simd),
                        tuple(self.flops_no_band_simd),
                        frozenset(self._touched))

    # -- below the band ---------------------------------------------------------------

    def _body(self, body: Sequence[Node]) -> None:
        for node in body:
            if isinstance(node, Loop):
                self._loop(node)
            elif isinstance(node, Computation):
                self._handle_computation(node, body)
            elif isinstance(node, LibraryCall):
                self._handle_library_call(node)

    def _loop(self, loop: Loop) -> None:
        """Walk a loop below the band, which binds its iterator for its
        body and no further."""
        bindings = self._bindings
        start = loop.start.evaluate(bindings)
        end = loop.end.evaluate(bindings)
        step = loop.step.evaluate(bindings)
        trip = max(0.0, (end - start) / step)
        iterations = self._iterations[-1]
        effective_unroll = max(1, loop.unroll)
        if loop.vectorized:
            effective_unroll *= self.machine.vector_width
            self.inner_vectorized = True
        self.inner_iterations.append(iterations * trip / effective_unroll)
        self._simd_marked += loop.vectorized

        shadowed = bindings.get(loop.iterator, _UNBOUND)
        bindings[loop.iterator] = start + (end - start) / 2.0
        self._iterators.append(loop.iterator)
        self._trips.append(max(trip, 1.0))
        self._iterations.append(iterations * max(trip, 1.0))
        self._body(loop.body)
        self._simd_marked -= loop.vectorized
        self._iterations.pop()
        self._trips.pop()
        self._iterators.pop()
        if shadowed is _UNBOUND:
            del bindings[loop.iterator]
        else:
            bindings[loop.iterator] = shadowed

    def _handle_library_call(self, call: LibraryCall) -> None:
        parameters = self.view.parameters
        flops = float(call.flop_expr.evaluate(parameters))
        multiplier = self._iterations[-1]
        self.flops += flops * multiplier
        # Library routines are hand-vectorized.
        self.flops_band_simd[1] += flops * multiplier
        self.flops_no_band_simd[1] += flops * multiplier
        arrays = self.view.program.arrays
        for name in set(call.inputs) | set(call.outputs):
            self.bytes_by_level["DRAM"] += (
                arrays[name].size_in_bytes(parameters) * multiplier)

    # -- per computation --------------------------------------------------------------

    def _handle_computation(self, comp: Computation,
                            body: Sequence[Node]) -> None:
        """Charge ``comp``, a statement directly in ``body``, the body of
        the innermost enclosing loop."""
        iterations = self._iterations[-1]
        lead, (flops, pressure, accesses, moves, read) = \
            self.view.access_plan(comp, body, tuple(self._iterators),
                                  self._line)
        comp_flops = flops * iterations
        self.flops += comp_flops
        self.write_iterations += iterations

        # Effective vectorization: an enclosing loop is marked SIMD and the
        # innermost loop body fits the register budget.  Oversized bodies
        # (heavily inlined/unrolled code such as the original CLOUDSC erosion
        # loop) fall back to scalar execution and pay spill traffic.
        fits = pressure <= REGISTER_BUDGET
        self.flops_band_simd[fits] += comp_flops
        self.flops_no_band_simd[fits and self._simd_marked > 0] += comp_flops
        bytes_by_level = self.bytes_by_level
        if not fits:
            spilled = pressure - REGISTER_BUDGET
            bytes_by_level["L1"] += iterations * spilled * 2.0 * 8.0

        # Per way the accesses move and loop level of the plan (the
        # ``lead`` outermost loops hold the same as its level 0), the
        # distinct bytes an access touches inside the loops from that level
        # inwards: only the levels it varies in start a new value, their
        # trips multiplied from the level inwards.
        trips = self._trips
        inner = trips[lead:]
        depth = len(inner)
        distincts = []
        for elem, terms, _invariant in moves:
            distinct = [elem] * (depth + 1)
            filled = 0
            for level, per_element, inwards in terms:
                product = 1.0
                for varying in inwards:
                    product *= inner[varying]
                if product > 1.0:
                    value = max(product * per_element, elem)
                    for covered in range(filled, level + 1):
                        distinct[covered] = value
                filled = level + 1
            distincts.append(distinct)

        # Per loop level the charges read, the cache level that holds the
        # footprint of one of its iterations (the distinct bytes all
        # accesses of this computation touch inside it) — it serves
        # temporal re-use.
        fitting = self.machine.smallest_level_fitting
        sources = {}
        for level in read:
            footprint = 0.0
            for _array, _elem, moved in accesses:
                footprint += distincts[moved][level]
            sources[level] = fitting(footprint)

        # Temporal re-use: for each loop an access is invariant to, the
        # data touched inside that loop is re-swept (trip - 1) times per
        # execution of the outer loops; the sweep is served by the smallest
        # cache level that holds the footprint of one iteration of that
        # loop.  L1 sweeps are already charged through the per-access L1
        # term.  Accesses that move alike charge alike.
        outside = self._iterations
        sweeps = []
        for (_elem, _terms, invariant), distinct in zip(moves, distincts):
            charges = []
            source = sources[0]
            if source != "L1":
                for level in range(lead):
                    resweeps = trips[level] - 1.0
                    if resweeps > 0:
                        charges.append(
                            (source, resweeps * outside[level] * distinct[0]))
            for level in invariant:
                resweeps = inner[level] - 1.0
                source = sources[level + 1]
                if resweeps > 0 and source != "L1":
                    charges.append((source, resweeps * outside[lead + level]
                                    * distinct[level + 1]))
            sweeps.append(charges)

        cold_charged = self._cold_charged
        touched = self._touched
        for array, elem, moved in accesses:
            # Every dynamic access touches L1 (or a register); charge L1
            # port traffic.
            bytes_by_level["L1"] += iterations * elem

            # Cold traffic: each distinct element is loaded at least once
            # per nest.  The first nest touching a container pays DRAM;
            # later nests (and later accesses within the same nest) re-read
            # it from the cache level its footprint fits in.
            cold = distincts[moved][0]
            volume = max(0.0, cold - cold_charged.get(array, 0.0))
            if volume > 0:
                if array in touched:
                    source = fitting(cold)
                    if source != "L1":
                        bytes_by_level[source] += volume
                else:
                    bytes_by_level["DRAM"] += volume
                cold_charged[array] = cold
            touched.add(array)

            for source, volume in sweeps[moved]:
                bytes_by_level[source] += volume
