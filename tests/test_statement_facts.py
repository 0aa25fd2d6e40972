"""Facts about statements are computed once and kept on immutable objects
(``Expr``, a statement's reads and write target included, and
``AffineAccess``); three oracles keep that honest:

* memoization soundness — after any sequence of IR edits, every memoized
  answer equals the answer on a fresh IR rebuilt through serialization;
* one-walk stride pricing — ``find_minimal_permutation`` equals a brute-force
  loop that walks the nest once per order, bit for bit;
* shared-statement pricing — ``NestPricer.price`` equals the cost model on a
  full copy with the recipe applied, for legal and illegal candidates alike,
  and leaves the priced program alone.
"""

import gc
import itertools
import math
import random
import weakref

import pytest

from dependence_spec import (legal_permutations, nest_direction_vectors,
                             permutation_is_legal)
from helpers import nest_accesses
from repro.analysis import (BandView, band_strides, computation_accesses,
                            expr_flops)
from repro.analysis.affine import AffineAccess, decompose_index
from repro.analysis.strides import LEVEL_WEIGHT_DECAY, _array_strides
from repro.api.hashing import program_content_hash
from repro.fuzz import generate_program
from repro.ir import ProgramBuilder
from repro.ir.canonical import node_fragment
from repro.ir.nodes import Computation, FrozenNodeError, Loop
from repro.ir.serialization import program_from_dict, program_to_dict
from repro.ir.symbols import Read, Sym
from repro.normalization import normalize_program
from repro.normalization.fission import maximal_loop_fission
from repro.normalization.stride_minimization import (EXHAUSTIVE_DEPTH_LIMIT,
                                                     find_minimal_permutation)
from repro.perf import CostModel
from repro.scheduler.base import NestPricer
from repro.scheduler.evolutionary import SEARCH_SPACE, Candidate
from repro.transforms import Interchange, Recipe, Tile, apply_recipe
from repro.workloads import registry as workloads


# -- memoization soundness -----------------------------------------------------------


def _reference_reads(expr):
    """Array reads of an expression in evaluation order, by a plain walk."""
    found = [expr] if isinstance(expr, Read) else []
    for child in expr.children():
        found += _reference_reads(child)
    return found


def _reference_accesses(comp, enclosing):
    """The decomposition of a statement's accesses from first principles:
    no access memo on the way.  Reads first, the write last."""
    accesses = [(access, False) for access in _reference_reads(comp.value)]
    accesses.append((comp.target, True))
    return [AffineAccess(access.array,
                         tuple(decompose_index(index, enclosing)
                               for index in access.indices), is_write)
            for access, is_write in accesses]


def _assert_memos_match_fresh_ir(program):
    fresh = program_from_dict(program_to_dict(program))
    assert program_content_hash(program) == program_content_hash(fresh)
    assert len(program.body) == len(fresh.body)
    for node, twin in zip(program.body, fresh.body):
        assert node_fragment(node) == node_fragment(twin)
        if not isinstance(node, Loop):
            continue
        # Every loop of the nest, not only the outermost: below it the same
        # access objects are decomposed over fewer iterators.
        for loop, other_loop in zip(node.iter_loops(), twin.iter_loops()):
            facts, twin_facts = (nest_accesses(loop),
                                 nest_accesses(other_loop))
            assert len(facts) == len(twin_facts)
            for (comp, enclosing, accesses), (other, other_enclosing, expected) in zip(
                    facts, twin_facts):
                assert enclosing == other_enclosing
                assert (comp.reads() == other.reads()
                        == tuple(_reference_reads(other.value)))
                assert comp.is_reduction() == other.is_reduction()
                assert expr_flops(comp.value) == expr_flops(other.value)
                assert accesses == expected == _reference_accesses(other, enclosing)
                assert computation_accesses(comp, enclosing) == accesses
        assert (nest_direction_vectors(node) == nest_direction_vectors(twin)
                == BandView(node, program).vectors()
                == BandView(twin, fresh).vectors())
        assert (band_strides(node, program.arrays)
                == band_strides(twin, fresh.arrays))
        for loop, other in zip(node.iter_loops(), twin.iter_loops()):
            assert (BandView(loop, program).parallelism(0)
                    == BandView(other, fresh).parallelism(0))


def _shifted(access, rng):
    """``access`` with one subscript moved by a constant (or unchanged for a
    scalar)."""
    if not access.indices:
        return access
    position = rng.randrange(len(access.indices))
    indices = list(access.indices)
    indices[position] = indices[position] + rng.choice((-1, 1, 2))
    return Read(access.array, indices)


def _edit(program, rng):
    """One random step; returns the program to continue with."""
    comps = list(program.iter_computations())
    loops = list(program.iter_loops())
    nests = [index for index, node in enumerate(program.body)
             if isinstance(node, Loop)]
    step = rng.choice(("target", "value", "reverse", "move", "duplicate",
                       "copy", "snapshot", "interchange", "tile", "fission"))
    if step == "target" and comps:
        comp = rng.choice(comps)
        comp.target = _shifted(comp.target, rng)
    elif step == "value" and comps:
        comp, donor = rng.choice(comps), rng.choice(comps)
        extra = _shifted(donor.target, rng)
        comp.value = comp.value * 2 + extra
    elif step == "reverse" and loops:
        rng.choice(loops).body.reverse()
    elif step == "move" and loops:
        body = rng.choice(loops).body
        body.insert(rng.randrange(len(body) + 1) - 1
                    if len(body) > 1 else 0, body.pop())
    elif step == "duplicate" and loops:
        body = rng.choice(loops).body
        body.append(rng.choice(body).copy())
    elif step == "copy":
        program = program.copy()
    elif step == "snapshot":
        view = program.snapshot()
        frozen = next(iter(view.iter_computations()), None)
        if frozen is not None:
            with pytest.raises(FrozenNodeError):
                frozen.value = frozen.value + 1
        # The frozen view answers like any other program; work goes on in a
        # mutable copy that shares every target and value with it.
        _assert_memos_match_fresh_ir(view)
        program = view.copy()
    elif step == "interchange" and nests:
        index = rng.choice(nests)
        band = [lp.iterator for lp in program.body[index].perfectly_nested_band()]
        rng.shuffle(band)
        apply_recipe(program, Recipe("r", [Interchange(index, band)]))
    elif step == "tile" and nests:
        index = rng.choice(nests)
        band = program.body[index].perfectly_nested_band()
        sizes = {lp.iterator: rng.choice((4, 8)) for lp in band
                 if lp.tile_of is None and rng.random() < 0.6}
        apply_recipe(program, Recipe("r", [Tile(index, sizes)]))
    elif step == "fission":
        maximal_loop_fission(program)
    return program


class TestMemoizationSoundness:
    @pytest.mark.parametrize("seed", range(24))
    def test_every_memo_survives_random_edit_sequences(self, seed):
        """Edits go through every seam there is (attribute assignment, body
        lists, copies, frozen views, transformations)."""
        rng = random.Random(f"memo-soundness:{seed}")
        program = generate_program(seed, "medium").program
        _assert_memos_match_fresh_ir(program)
        for _ in range(10):
            program = _edit(program, rng)
            _assert_memos_match_fresh_ir(program)

    def test_copies_share_statement_facts(self):
        """The memos hang off ``target``/``value``, which copies share: a
        copy's first question is already answered."""
        program = normalize_program(generate_program(5, "medium").program)
        nest = next(node for node in program.body if isinstance(node, Loop))
        comp, enclosing, accesses = nest_accesses(nest)[0]
        twin = next(nest.copy().iter_computations())
        assert twin is not comp and twin.value is comp.value
        for ours, theirs in zip(accesses,
                                computation_accesses(twin, enclosing)):
            assert ours is theirs
        assert all(a is b for a, b in zip(comp.reads(), twin.reads()))

    def test_dropping_a_tree_frees_it_without_the_cycle_collector(self):
        """Parent and owner back-pointers are weak, so IR garbage — one
        trial program per search candidate — never waits for a full
        collection (it did, and peak memory followed the collector's
        cadence)."""
        gc.collect()
        gc.disable()
        try:
            # A copy: whatever else holds the generated program (its
            # builder, a pass context) does not hold this tree.
            program = normalize_program(generate_program(7, "medium").program).copy()
            program.body[0].body.append(program.body[0].body[0].copy())
            node_fragment(program.body[0])
            probes = [weakref.ref(node) for node in program.iter_loops()]
            probes += [weakref.ref(node) for node in program.iter_computations()]
            assert probes and all(probe() is not None for probe in probes)
            del program
            assert all(probe() is None for probe in probes)
        finally:
            gc.enable()

    def test_affine_form_cannot_be_mutated(self):
        coefficients, _constant = (Sym("i") * 3 + Sym("N")).as_affine()
        with pytest.raises(TypeError):
            coefficients["i"] = 5
        assert (Sym("i") * 3 + Sym("N")).as_affine()[0] == {"i": 3, "N": 1}


# -- one-walk stride pricing ---------------------------------------------------------


def _reference_stride_cost(nest, arrays, parameters, order):
    """``stride(loop)`` for one loop order as it was computed before the
    order-independent part was split off: a walk of the nest per order."""
    parameters = dict(parameters or {})
    weights = {iterator: LEVEL_WEIGHT_DECAY ** position
               for position, iterator in enumerate(reversed(list(order)))}
    per_level = {iterator: 0.0 for iterator in order}
    penalty = 0.0

    def recurse(node, enclosing):
        nonlocal penalty
        if isinstance(node, Loop):
            for child in node.body:
                recurse(child, enclosing + [node.iterator])
        elif isinstance(node, Computation):
            for access in _reference_accesses(node, enclosing):
                if access.array not in arrays:
                    continue
                strides = _array_strides(arrays[access.array], parameters)
                if not access.affine:
                    penalty += max(strides) if strides else 1.0
                    continue
                for iterator in order:
                    if len(strides) != len(access.indices):
                        continue
                    movement = 0.0
                    for index, stride in zip(access.indices, strides):
                        movement += index.coefficient(iterator) * stride
                    per_level[iterator] += abs(movement)

    recurse(nest, [])
    total = penalty
    for iterator in order:
        total += weights[iterator] * per_level[iterator]
    return total


def _brute_force_minimal_permutation(nest, arrays):
    """``find_minimal_permutation`` as it was before the one-walk pricing:
    one full walk of the nest per order, at the nominal extents.  The
    search prices every order of the band, legal or not, so ``evaluated``
    is their number."""
    band = nest.perfectly_nested_band()
    iterators = tuple(loop.iterator for loop in band)
    current_cost = _reference_stride_cost(nest, arrays, None, iterators)
    if len(band) <= 1:
        return iterators, current_cost, 1, current_cost
    if len(band) > EXHAUSTIVE_DEPTH_LIMIT:
        def innermost_cost(iterator):
            order = [it for it in iterators if it != iterator] + [iterator]
            return _reference_stride_cost(nest, arrays, None, order)
        candidate = tuple(sorted(iterators, key=innermost_cost, reverse=True))
        evaluated = len(band) + 1
        if permutation_is_legal(nest, candidate):
            cost = _reference_stride_cost(nest, arrays, None, candidate)
            if cost < current_cost:
                return candidate, cost, evaluated, current_cost
        return iterators, current_cost, evaluated, current_cost
    best_order, best_cost = iterators, current_cost
    for order in legal_permutations(nest):
        cost = _reference_stride_cost(nest, arrays, None, order)
        if cost < best_cost - 1e-12:
            best_cost, best_order = cost, order
        elif abs(cost - best_cost) <= 1e-12 and order < best_order:
            best_order = order
    return best_order, best_cost, math.factorial(len(band)), current_cost


def _fissioned(program):
    program = program.copy()
    maximal_loop_fission(program)
    return program


def _deep_nest(depth=EXHAUSTIVE_DEPTH_LIMIT + 1):
    """A band deeper than the exhaustive limit whose subscripts run against
    the loop order, so the grouped sort has something to reorder."""
    iterators = [f"i{level}" for level in range(depth)]
    builder = ProgramBuilder("deep", parameters=["N"])
    builder.add_array("A", ("N",) * depth)
    builder.add_array("B", ("N",) * depth)

    def nest(level):
        if level == depth:
            builder.assign(("B", *reversed(iterators)),
                           builder.read("A", *reversed(iterators)) * 2)
            return
        with builder.loop(iterators[level], 0, "N"):
            nest(level + 1)

    nest(0)
    return builder.finish()


class TestOneWalkStridePricing:
    def _check(self, program, parameters):
        """The search at the nominal extents, and the price of the nest's
        own order both there and at ``parameters``."""
        checked = 0
        for form in (program, _fissioned(program)):
            for nest in form.top_level_loops():
                assert (find_minimal_permutation(nest, form.arrays)
                        == _brute_force_minimal_permutation(nest, form.arrays))
                order = [lp.iterator for lp in nest.perfectly_nested_band()]
                for sizes in (None, parameters):
                    assert (band_strides(nest, form.arrays, sizes).cost(order)
                            == _reference_stride_cost(nest, form.arrays,
                                                      sizes, order))
                checked += 1
        return checked

    def test_every_registry_nest(self):
        checked = 0
        for name in workloads.benchmark_names():
            spec = workloads.benchmark(name)
            for variant in ("a", "b"):
                checked += self._check(spec.variant(variant),
                                       spec.sizes("large"))
        assert checked > 200

    def test_fuzz_nests(self):
        checked = 0
        for seed in range(60):
            generated = generate_program(seed, "medium")
            checked += self._check(generated.program, generated.parameters)
        assert checked >= 100

    def test_deep_nests_take_the_grouped_sort(self):
        program = _deep_nest()
        nest = program.body[0]
        assert len(nest.perfectly_nested_band()) > EXHAUSTIVE_DEPTH_LIMIT
        found = find_minimal_permutation(nest, program.arrays)
        assert found == _brute_force_minimal_permutation(nest, program.arrays)
        order, cost, evaluated, current_cost = found
        assert order == tuple(reversed([lp.iterator for lp in
                                        nest.perfectly_nested_band()]))
        assert cost < current_cost
        assert evaluated == len(order) + 1


# -- shared-statement pricing --------------------------------------------------------


def _any_order_candidate(nest, rng):
    """A candidate over *any* permutation of the band, legal or not."""
    band = [lp.iterator for lp in nest.perfectly_nested_band()]
    order = tuple(rng.sample(band, len(band)))
    return Candidate(
        order=order,
        tile_sizes=tuple((iterator, rng.choice(SEARCH_SPACE.tile_sizes))
                         for iterator in order),
        parallelize=rng.random() < 0.8, vectorize=rng.random() < 0.8,
        unroll=rng.choice(SEARCH_SPACE.unroll_factors),
        require_unit_stride=rng.random() < 0.5)


class TestSharedStatementPricer:
    def test_prices_of_legal_and_illegal_candidates_equal_the_reference(self):
        """``price(recipe) == estimate_seconds(copy + apply_recipe)`` with
        ``==``, for candidates the search would never draw as well: orders
        that violate dependences, tilings of non-permutable bands,
        parallelized sequential loops.  The program being scheduled keeps its
        nodes, their content, and stays unfrozen."""
        model = CostModel(threads=4)
        rng = random.Random("shared-statements")
        priced = refused = nests = 0
        for seed in range(16):
            generated = generate_program(seed, "medium")
            for program in (generated.program,
                            normalize_program(generated.program)):
                nodes = list(program.body)
                fragments = [node_fragment(node) for node in nodes]
                for index, nest in enumerate(nodes):
                    if not isinstance(nest, Loop):
                        continue
                    nests += 1
                    pricer = NestPricer(model, program, index,
                                        generated.parameters)
                    for _ in range(6):
                        recipe = _any_order_candidate(nest, rng).to_recipe(index)
                        reference = program.copy()
                        outcome = apply_recipe(reference, recipe, strict=False)
                        refused += bool(outcome.failed)
                        assert pricer.price(recipe) == model.estimate_seconds(
                            reference, generated.parameters)
                        priced += 1
                assert all(now is before
                           for now, before in zip(program.body, nodes))
                assert [node_fragment(node) for node in nodes] == fragments
                assert not any(loop.frozen for loop in program.iter_loops())
                assert not any(comp.frozen
                               for comp in program.iter_computations())
        assert nests > 40 and priced == 6 * nests
        # The sample did contain candidates a transformation refused.
        assert refused > priced // 10

    def test_candidates_share_the_programs_statements(self):
        """What a candidate copies is the frames: the pricer views the
        program's own nest, and six interchanges priced on forks of the view
        leave the program, its statements and the view's frames alone."""
        program = normalize_program(generate_program(3, "medium").program)
        parameters = generate_program(3, "medium").parameters
        index = next(i for i, node in enumerate(program.body)
                     if isinstance(node, Loop))
        nodes = list(program.body)
        fragments = [node_fragment(node) for node in nodes]
        pricer = NestPricer(CostModel(threads=4), program, index, parameters)
        frames = pricer.view.state()
        orders = itertools.cycle(itertools.permutations(
            lp.iterator for lp in nodes[index].perfectly_nested_band()))
        for order in itertools.islice(orders, 6):
            pricer.price(Recipe("r", [Interchange(index, list(order))]))
        # The view's statements are the program's.
        shared = [comp for node in pricer.view.inner
                  for comp in node.iter_computations()]
        originals = list(nodes[index].iter_computations())
        assert shared and len(shared) == len(originals)
        assert all(mine is theirs for mine, theirs in zip(shared, originals))
        # The program: same objects, same content, nothing frozen.
        assert all(now is was for now, was in zip(program.body, nodes))
        assert [node_fragment(node) for node in nodes] == fragments
        assert not any(loop.frozen for loop in program.iter_loops())
        assert not any(comp.frozen for comp in program.iter_computations())
        # The pricer's own frames: untouched by the forks.
        assert pricer.view.state() == frames
