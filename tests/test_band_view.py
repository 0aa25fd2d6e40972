"""Exactness of the band view (``repro.analysis.band``).

A search prices schedules as frames and builds loops only for the winner,
so a view must agree — with ``==``, never approximately — with what the
tree it stands for would have said: loop trips and midpoints, legality
answers, the program a recipe yields and the messages of what it refuses,
and the price.  The reference throughout is the tree surgery the
transformations did before they acted on views, kept here as the
specification.
"""

import itertools
import random
from dataclasses import replace

import pytest

from dependence_spec import (band_order_is_legal, classify_iterations,
                             nest_direction_vectors, permutation_is_legal)
from helpers import build_gemm, nest_accesses
from repro.analysis.band import BandView, Frame
from repro.analysis.affine import nest_statements
from repro.analysis.parallelism import container_facts, privatizable
from repro.analysis.strides import _array_strides, access_stride
from repro.api import program_content_hash
from repro.fuzz import generate_program
from repro.interp import programs_equivalent
from repro.ir import ProgramBuilder
from repro.ir.canonical import node_fragment
from repro.ir.nodes import FrozenNodeError, Loop, Program
from repro.ir.symbols import Const, Min, Sym
from repro.normalization import normalize_program
from repro.perf import CostModel
from repro.scheduler.base import NestPricer
from repro.scheduler.evolutionary import SEARCH_SPACE
from repro.scheduler.tiramisu import ROLLOUT_SPACE
from repro.transforms import (Fuse, Interchange, Parallelize, Recipe,
                              RecipeApplication, ReplaceWithLibraryCall, Tile,
                              TransformationError, Unroll, Vectorize,
                              apply_recipe)
from repro.workloads import registry as workloads

from test_scheduler import GOLDEN_PATH


# -- the specification: schedule transformations as tree surgery --------------------


def _spec_tile_band(nest, tile_sizes):
    band = nest.perfectly_nested_band()
    tile_loops, point_loops = [], []
    for loop in band:
        size = tile_sizes.get(loop.iterator)
        if size is None or size <= 1:
            point_loops.append(Loop(loop.iterator, loop.start, loop.end,
                                    loop.step, body=[], parallel=loop.parallel,
                                    vectorized=loop.vectorized,
                                    unroll=loop.unroll))
            continue
        origin = f"{loop.iterator}_t"
        tile_loops.append(Loop(origin, loop.start, loop.end, Const(size),
                               body=[], parallel=loop.parallel,
                               tile_of=loop.iterator))
        point_loops.append(Loop(loop.iterator, Sym(origin),
                                Min.make([Sym(origin) + size, loop.end]),
                                loop.step, body=[], vectorized=loop.vectorized,
                                unroll=loop.unroll, tile_of=loop.iterator))
    ordered = tile_loops + point_loops
    for outer, inner in zip(ordered, ordered[1:]):
        outer.body = [inner]
    ordered[-1].body = band[-1].body
    return ordered[0]


def _spec_permute(nest, order):
    by_iterator = {loop.iterator: loop for loop in nest.perfectly_nested_band()}
    body = nest.perfectly_nested_band()[-1].body
    for iterator in reversed(list(order)):
        body = [by_iterator[iterator].with_body(body)]
    return body[0]


def _spec_find(nest, iterator, innermost):
    if iterator is None:
        return nest.perfectly_nested_band()[-1] if innermost else nest
    for loop in nest.iter_loops():
        if loop.iterator == iterator:
            return loop
    raise TransformationError(f"no loop with iterator {iterator!r} in nest")


def _spec_mostly_unit_stride(program, loop):
    good = total = 0
    for _comp, _enclosing, accesses in nest_accesses(loop):
        for access in accesses:
            if access.array not in program.arrays:
                continue
            total += 1
            stride = access_stride(access, loop.iterator, _array_strides(
                program.arrays[access.array], {}))
            if stride is not None and abs(stride) <= 1:
                good += 1
    return total == 0 or good * 2 >= total


def _spec_parallelism(loop, program):
    """The classification of a built loop, as before the view answered it:
    a tile loop asks the first loop inside it with the tiled iterator."""
    if loop.tile_of is not None and loop.iterator != loop.tile_of:
        for candidate in loop.iter_loops():
            if candidate is not loop and candidate.iterator == loop.tile_of:
                inner = _spec_parallelism(candidate, program)
                return replace(inner, iterator=loop.iterator)
    return classify_iterations(
        loop.iterator, [nest_statements(child) for child in loop.body],
        privatizable(loop.body, container_facts(program)))


def _spec_apply(program, t):
    """One band schedule applied to the tree, as before the view."""
    if not isinstance(t, (Interchange, Tile, Parallelize, Vectorize, Unroll)):
        t.apply(program)
        return
    index = t.nest_index
    if not 0 <= index < len(program.body):
        raise TransformationError(
            f"nest index {index} out of range for program {program.name!r} "
            f"with {len(program.body)} top-level nodes")
    nest = program.body[index]
    if not isinstance(nest, Loop):
        raise TransformationError(
            f"top-level node {index} of {program.name!r} is not a loop")
    band = nest.perfectly_nested_band()
    current = [loop.iterator for loop in band]
    if isinstance(t, Interchange):
        if sorted(current) != sorted(t.order):
            raise TransformationError(
                f"interchange order {t.order} does not match band {current}")
        if t.order == current:
            return
        if not permutation_is_legal(nest, t.order):
            raise TransformationError(
                f"interchange to {t.order} violates dependences in nest "
                f"{index} of {program.name!r}")
        program.body[index] = _spec_permute(nest, t.order)
    elif isinstance(t, Tile):
        unknown = set(t.tile_sizes) - set(current)
        if unknown:
            raise TransformationError(
                f"cannot tile unknown iterators {sorted(unknown)} in nest "
                f"{index} of {program.name!r}")
        tiled = [it for it in current if t.tile_sizes.get(it, 0) > 1]
        if not tiled:
            return
        others = [it for it in current if it not in tiled]
        vectors = nest_direction_vectors(nest)
        for candidate in (tiled + others, list(reversed(tiled)) + others):
            if not band_order_is_legal(band, vectors, candidate):
                raise TransformationError(
                    f"tiling {t.tile_sizes} is not legal for nest "
                    f"{index} of {program.name!r}")
        program.body[index] = _spec_tile_band(nest, t.tile_sizes)
    elif isinstance(t, Parallelize):
        loop = _spec_find(nest, t.iterator, innermost=False)
        info = _spec_parallelism(loop, program)
        if not (info.is_parallel or (info.is_reduction and t.allow_reductions)):
            raise TransformationError(
                f"loop {loop.iterator!r} in nest {index} carries "
                f"dependences and cannot be parallelized")
        loop.parallel = True
    elif isinstance(t, Vectorize):
        loop = _spec_find(nest, t.iterator, innermost=True)
        info = _spec_parallelism(loop, program)
        if not (info.is_parallel or info.is_reduction):
            raise TransformationError(
                f"loop {loop.iterator!r} cannot be vectorized: it carries "
                f"non-reduction dependences")
        if t.require_unit_stride and not _spec_mostly_unit_stride(program, loop):
            raise TransformationError(
                f"loop {loop.iterator!r} has predominantly strided accesses; "
                f"refusing to vectorize")
        loop.vectorized = True
    elif isinstance(t, Unroll):
        if t.factor < 1:
            raise TransformationError("unroll factor must be at least 1")
        _spec_find(nest, t.iterator, innermost=True).unroll = t.factor


def _spec_apply_recipe(program, recipe):
    """``apply_recipe(strict=False)`` over :func:`_spec_apply`; returns the
    messages of what was refused."""
    failed = []
    for transformation in recipe:
        try:
            _spec_apply(program, transformation)
        except TransformationError as error:
            failed.append((transformation.name, str(error)))
    return failed


def _spec_price(model, program, recipe, parameters):
    trial = program.copy()
    _spec_apply_recipe(trial, recipe)
    return model.estimate_seconds(trial, parameters)


def _any_candidate(nest, rng, space=SEARCH_SPACE):
    """A candidate over *any* order of the band, legal or not."""
    order = [loop.iterator for loop in nest.perfectly_nested_band()]
    rng.shuffle(order)
    return space.sample([tuple(order)], rng)


def _fuzz_nests(seeds, size="small"):
    for seed in seeds:
        generated = generate_program(seed, size)
        for program in (generated.program,
                        normalize_program(generated.program)):
            for index, nest in enumerate(program.body):
                if isinstance(nest, Loop):
                    yield program, index, generated.parameters


# -- (a) trips and midpoints ----------------------------------------------------------


def _shapes():
    """Nests whose tiled bounds are awkward: a shifted lower bound with a
    non-unit step, an extent no tile size divides, a triangular loop."""
    b = ProgramBuilder("shapes", parameters=["N", "M"])
    b.add_array("A", ("N", "M"))
    b.add_array("x", ("M",))
    with b.loop("i", 3, "N", 2):
        with b.loop("j", 1, b.sym("M") - 1):
            b.assign(("A", "i", "j"), b.read("A", "i", "j") + b.read("x", "j"))
    with b.loop("i", 0, "N"):
        with b.loop("j", b.sym("i"), "M"):
            with b.loop("k", 0, 5):
                b.assign(("A", "i", "j"), b.read("A", "i", "j") * 2.0)
    return b.finish()


def _recorded_bounds(monkeypatch, model, node, program, parameters):
    """Every ``(iterator, start, end, step)`` the cost model's walk
    evaluates on ``node`` (a view or a loop nest), in order."""
    seen = []
    bounds = Frame.bounds

    def recording(frame, bindings):
        try:
            result = bounds(frame, bindings)
        except (KeyError, ZeroDivisionError) as error:
            seen.append((frame.iterator, type(error)))
            raise
        seen.append((frame.iterator,) + tuple(result))
        return result

    monkeypatch.setattr(Frame, "bounds", recording)
    try:
        time = model.estimate_node(node, program, parameters, 0, set()).time
    except KeyError:
        # A bound naming an iterator that is bound only below it (the tiling
        # asked no legality) is not priced: the walk raises where it is.
        time = None
    monkeypatch.setattr(Frame, "bounds", bounds)
    return seen, time


class TestTripsAndMidpoints:
    @pytest.mark.parametrize("tile_sizes", [
        {"i": 7}, {"j": 48}, {"i": 7, "j": 48}, {"i": 4096, "j": 5},
        {"i": 16, "j": 16, "k": 2}, {"k": 3}, {}])
    def test_view_bounds_equal_the_built_nests(self, monkeypatch, tile_sizes):
        """The walk over frames (tile bounds computed numerically) evaluates
        exactly what it evaluates on the built nest (``min(i_t + size, end)``
        as an expression at the tile midpoint) — also where a tile loop's
        bound mentions an iterator that is not bound yet."""
        program = _shapes()
        parameters = {"N": 1000, "M": 333}
        model = CostModel(threads=4)
        for nest in program.body:
            sizes = {it: size for it, size in tile_sizes.items()
                     if any(loop.iterator == it for loop in nest.iter_loops())}
            view = BandView(nest, program, parameters)
            view.tile(sizes)  # no legality: the numbers are what is tested
            built = _spec_tile_band(nest.copy(), sizes)
            assert node_fragment(view.materialise()) == node_fragment(built)
            assert (_recorded_bounds(monkeypatch, model, view, program, parameters)
                    == _recorded_bounds(monkeypatch, model, built, program,
                                        parameters))

    def test_point_frame_bounds_are_the_expressions_values(self):
        frame = Frame("i", Const(3), Sym("N"), Const(2), tile_of="i", tile=7)
        loop = frame.loop([])
        assert str(loop.start) == "i_t" and "min" in str(loop.end)
        for origin in (3.0, 17.5, 996.0, 5000.0):
            bindings = {"N": 1000, "i_t": origin}
            assert frame.bounds(bindings) == (
                loop.start.evaluate(bindings), loop.end.evaluate(bindings),
                loop.step.evaluate(bindings))
        with pytest.raises(KeyError):
            frame.bounds({"N": 1000})
        assert frame.bound_symbols() == loop.bound_symbols()


# -- legality answers -------------------------------------------------------------------


class TestLegalityAnswers:
    def test_answers_equal_the_tree_derived_ones(self):
        """Direction vectors, parallelism of every band loop and the
        unit-stride share, asked of the view in every order of the band and
        after tiling, equal what the analyses say about the built nest."""
        orders = tiled = 0
        for program, index, _parameters in _fuzz_nests(range(10)):
            nest = program.body[index]
            base = BandView(nest.copy().freeze(), program)
            band = base.order()
            for order in itertools.islice(itertools.permutations(band), 24):
                for sizes in ({}, {order[0]: 16}, dict.fromkeys(order, 8)):
                    view = base.fork()
                    view.reorder(order)
                    if sizes:
                        view.tile(sizes)
                        tiled += 1
                    built = view.materialise()
                    assert (set(view.vectors())
                            == set(nest_direction_vectors(built)))
                    loops = built.perfectly_nested_band()
                    for position, loop in enumerate(loops):
                        assert (view.parallelism(position)
                                == _spec_parallelism(loop, program))
                        assert (view.mostly_unit_stride(position)
                                == _spec_mostly_unit_stride(program, loop))
                    for target in itertools.islice(
                            itertools.permutations(view.order()), 6):
                        assert view.order_is_legal(target) == \
                            band_order_is_legal(
                                loops, nest_direction_vectors(built), target)
                    orders += 1
        assert orders > 150 and tiled > 100


# -- (b) the program a recipe yields ------------------------------------------------------


def _golden_recipes():
    import json
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    for key in sorted(golden):
        name, _, workload = key.partition("/")
        for phase in ("tune", "schedule"):
            for info in golden[key].get(phase, {}).get("nests", []):
                if info["recipe"] is not None:
                    yield name, workload, info


class TestRecipesOnPrograms:
    def test_golden_recipes_yield_the_specified_programs(self):
        """Every recipe the golden file records, applied through views to
        the workload it was found on, yields the program tree surgery yields
        (same content hash) and refuses the same steps in the same words —
        the words the golden ``detail`` of the compiler baselines holds."""
        from repro.api.registry import scheduler_normalizes
        applied = refused = 0
        programs = {}
        for name, workload, info in _golden_recipes():
            benchmark, _, variant = workload.partition(":")
            key = (workload, scheduler_normalizes(name))
            if key not in programs:
                program = workloads.benchmark(benchmark).variant(variant)
                programs[key] = (normalize_program(program) if key[1]
                                 else program)
            recipe = Recipe.from_dict(info["recipe"])
            through_views, specified = programs[key].copy(), programs[key].copy()
            outcome = apply_recipe(through_views, recipe)
            failed = _spec_apply_recipe(specified, recipe)
            assert [(t.name, message) for t, message in outcome.failed] == failed
            assert (program_content_hash(through_views)
                    == program_content_hash(specified))
            if name in ("clang", "icc", "polly") and failed:
                assert info["detail"] == "; ".join(msg for _, msg in failed)
            applied += len(outcome.applied)
            refused += len(failed)
        assert applied > 150 and refused > 10

    def test_any_candidate_yields_the_specified_program(self):
        """Candidates over every order (so legality refusals occur), both
        search spaces, each transformation alone and as one recipe."""
        rng = random.Random("band-view")
        refused = checked = 0
        for program, index, _parameters in _fuzz_nests(range(12)):
            for space in (SEARCH_SPACE, ROLLOUT_SPACE):
                recipe = _any_candidate(program.body[index], rng,
                                        space).to_recipe(index)
                through_views, specified = program.copy(), program.copy()
                outcome = apply_recipe(through_views, recipe)
                failed = _spec_apply_recipe(specified, recipe)
                assert [(t.name, msg) for t, msg in outcome.failed] == failed
                assert (program_content_hash(through_views)
                        == program_content_hash(specified))
                one_by_one = program.copy()
                for transformation in recipe:
                    try:
                        transformation.apply(one_by_one)
                    except TransformationError:
                        pass
                assert (program_content_hash(one_by_one)
                        == program_content_hash(specified))
                refused += bool(failed)
                checked += 1
        assert checked > 80 and refused > checked // 10

    def test_messages_and_targets(self):
        program = build_gemm(with_scaling=False)
        cases = [
            (Interchange(0, ["i", "j"]), "does not match band"),
            (Interchange(0, ["k", "i", "j"]), None),
            (Tile(0, {"z": 8}), "cannot tile unknown iterators ['z'] in nest 0"),
            (Parallelize(0, "k"), "loop 'k' in nest 0 carries dependences"),
            (Parallelize(0, "nope"), "no loop with iterator 'nope' in nest"),
            (Parallelize(3), "nest index 3 out of range"),
            (Unroll(0, factor=0), "unroll factor must be at least 1"),
            (Vectorize(0, "i"), "predominantly strided"),
        ]
        for transformation, message in cases:
            trial, specified = program.copy(), program.copy()
            if message is None:
                transformation.apply(trial)
                _spec_apply(specified, transformation)
            else:
                with pytest.raises(TransformationError) as through_view:
                    transformation.apply(trial)
                with pytest.raises(TransformationError) as spec:
                    _spec_apply(specified, transformation)
                assert message in str(through_view.value)
                assert str(through_view.value) == str(spec.value)
            assert program_content_hash(trial) == program_content_hash(specified)

    def test_untouched_nest_keeps_its_loops(self):
        """A transformation that changes nothing (and one that is refused)
        leaves the very loop objects in place."""
        program = build_gemm(with_scaling=False)
        nest = program.body[0]
        Interchange(0, ["i", "j", "k"]).apply(program)
        Tile(0, {"i": 1}).apply(program)
        with pytest.raises(TransformationError):
            Parallelize(0, "k").apply(program)
        assert program.body[0] is nest

    def test_annotation_below_the_band(self):
        """An imperfect nest: the loop below the band is annotated in place,
        through the same ``schedule``."""
        program, index = _imperfect(), 1
        inner = next(loop for loop in program.body[index].iter_loops()
                     if loop.iterator == "l")
        recipe = Recipe("below", [Unroll(index, inner.iterator, 2),
                                  Vectorize(index, inner.iterator,
                                            require_unit_stride=False),
                                  Parallelize(index, inner.iterator)])
        specified = program.copy()
        failed = _spec_apply_recipe(specified, recipe)
        outcome = apply_recipe(program, recipe)
        assert [(t.name, msg) for t, msg in outcome.failed] == failed
        assert inner.unroll == 2
        assert program_content_hash(program) == program_content_hash(specified)
        view = BandView(program.body[index], program)
        assert not Unroll(index, inner.iterator).within_band(view)
        assert Unroll(index).within_band(view)


# -- (c) prices ---------------------------------------------------------------------------


def _imperfect():
    """A statement before the nest, an imperfect nest (a statement and two
    loops below the band), a second nest reading what the first wrote."""
    b = ProgramBuilder("imperfect", parameters=["N", "M"])
    b.add_array("A", ("N", "M"))
    b.add_array("r", ("N",))
    b.add_array("s", ("M",))
    b.add_scalar("alpha")
    b.assign(("alpha",), 2.0)
    with b.loop("i", 0, "N"):
        with b.loop("j", 0, "M"):
            b.assign(("A", "i", "j"), b.read("A", "i", "j") * b.read("alpha"))
            with b.loop("k", 0, 4):
                b.assign(("r", "i"), b.read("r", "i") + b.read("A", "i", "j"))
            with b.loop("l", 0, "M"):
                b.assign(("s", "l"), b.read("s", "l") + b.read("A", "i", "l"))
    with b.loop("i", 0, "N"):
        b.assign(("r", "i"), b.read("r", "i") + b.read("s", 0))
    return b.finish()


class TestPrices:
    def test_price_equals_the_specified_programs_cost(self):
        """``price == estimate_seconds(copy + tree surgery)`` with ``==`` on
        fuzz programs as generated (imperfect nests, loops below the band)
        and normalized, candidates over any order so refusals are included."""
        model = CostModel(threads=4)
        rng = random.Random("view-prices")
        priced = imperfect = 0
        for program, index, parameters in _fuzz_nests(range(10), "medium"):
            imperfect += not program.body[index].is_perfect_nest()
            pricer = NestPricer(model, program, index, parameters)
            for space in (SEARCH_SPACE, ROLLOUT_SPACE):
                for _ in range(3):
                    recipe = _any_candidate(program.body[index], rng,
                                            space).to_recipe(index)
                    assert pricer.price(recipe) == _spec_price(
                        model, program, recipe, parameters)
                    priced += 1
        assert priced > 200 and imperfect > 5

    def test_nest_below_an_outer_statement_and_seed_recipes(self):
        """A top-level statement before the searched nest, loops and a
        statement below its band, a later nest that re-reads its containers;
        seeds that are band schedules, and seeds that fall to the full copy:
        an annotation below the band, a fusion, an idiom replacement, a
        recipe for another nest."""
        model = CostModel(threads=4)
        program = _imperfect()
        parameters = {"N": 300, "M": 200}
        pricer = NestPricer(model, program, 1, parameters)
        band_seeds = [
            Recipe("identity"),
            Recipe("a", [Interchange(1, ["j", "i"]), Tile(1, {"i": 32, "j": 7}),
                         Parallelize(1), Vectorize(1), Unroll(1, factor=4)]),
            Recipe("b", [Tile(1, {"i": 4096}), Parallelize(1, "i_t"),
                         Parallelize(1, "i", allow_reductions=True)]),
            Recipe("c", [Tile(1, {"i": 16}), Tile(1, {"i": 4}),
                         Interchange(1, ["i_t", "i", "j"])]),
            Recipe("refused", [Interchange(1, ["j"]), Tile(1, {"q": 3}),
                               Parallelize(1, "j"), Unroll(1, factor=0)]),
        ]
        copied_seeds = [
            Recipe("below", [Vectorize(1, "l", require_unit_stride=False),
                             Unroll(1, "k", 4), Parallelize(1)]),
            Recipe("fuse", [Fuse(1, 2), Parallelize(1)]),
            Recipe("call", [ReplaceWithLibraryCall(1), Parallelize(1)]),
            Recipe("other", [Parallelize(2), Vectorize(1)]),
            Recipe("not a loop", [Parallelize(0)]),
        ]
        built = []
        view_of = NestPricer._price
        NestPricer._price = lambda self, view: (built.append(view),
                                                view_of(self, view))[1]
        try:
            for recipe in band_seeds + copied_seeds:
                assert pricer.price(recipe) == _spec_price(
                    model, program, recipe, parameters), recipe.name
        finally:
            NestPricer._price = view_of
        # Band schedules were priced as views: "identity" and "refused" end
        # in the same schedule, so one price serves both; "b" names a loop
        # the nest does not have before its own tiling, so it is copied.
        assert len(built) == len(band_seeds) - 2
        assert all(isinstance(view, BandView) for view in built)

    def test_same_schedule_same_price_object(self):
        """Recipes that end in one schedule share one pricing."""
        calls = []

        class Counting(CostModel):
            def estimate_node(self, *args, **kwargs):
                calls.append(1)
                return super().estimate_node(*args, **kwargs)

        program = normalize_program(build_gemm(with_scaling=False))
        parameters = {"NI": 120, "NJ": 140, "NK": 160}
        pricer = NestPricer(Counting(threads=4), program, 0, parameters)
        order = pricer.view.order()
        first = pricer.price(Recipe("one", [Parallelize(0)]))
        priced = len(calls)
        # The same schedule under another name, by naming the loop, after a
        # no-op interchange, and with a refused step in between.
        for recipe in (Recipe("other", [Parallelize(0)]),
                       Recipe("named", [Parallelize(0, order[0])]),
                       Recipe("noop", [Interchange(0, order), Parallelize(0)]),
                       Recipe("refused", [Tile(0, {"zz": 4}), Parallelize(0)])):
            assert pricer.price(recipe) == first
        assert len(calls) == priced


# -- (d) nothing shared is ever mutated -----------------------------------------------------


class TestNothingIsMutated:
    def test_program_and_shared_statements(self):
        program = normalize_program(generate_program(3, "medium").program)
        parameters = generate_program(3, "medium").parameters
        nodes = list(program.body)
        fragments = [node_fragment(node) for node in nodes]
        index = next(i for i, node in enumerate(nodes) if isinstance(node, Loop))
        pricer = NestPricer(CostModel(threads=4), program, index, parameters)
        before = pricer.view.state()
        rng = random.Random(7)
        for _ in range(60):
            pricer.price(_any_candidate(nodes[index], rng).to_recipe(index))
        # The program: same objects, same content, nothing frozen.
        assert all(now is was for now, was in zip(program.body, nodes))
        assert [node_fragment(node) for node in nodes] == fragments
        assert not any(loop.frozen for loop in program.iter_loops())
        assert not any(comp.frozen for comp in program.iter_computations())
        # The pricer's view: its own frames untouched by the forks, its
        # statements the program's.
        assert pricer.view.state() == before
        shared = [comp for node in pricer.view.inner
                  for comp in node.iter_computations()]
        originals = list(nodes[index].iter_computations())
        assert shared and len(shared) == len(originals)
        assert all(mine is theirs for mine, theirs in zip(shared, originals))

    def test_an_annotation_below_the_band_cannot_reach_the_shared_subtree(self):
        """Such a recipe is priced on a full copy; run on a fork of the
        pricer's view all the same, it raises — not as a refusal a recipe
        would skip — instead of editing the program's nest."""
        program = _imperfect()
        pricer = NestPricer(CostModel(threads=4), program, 1,
                            {"N": 30, "M": 20})
        below = Unroll(1, "k", 4)
        assert not below.within_band(pricer.view)
        fork = pricer.view.fork()
        with pytest.raises(FrozenNodeError):
            RecipeApplication(Recipe("below", [below])).attempt(
                lambda step: step.schedule(fork))
        assert not fork.edited_below
        assert all(loop.unroll == 1 for node in pricer.view.inner
                   for loop in node.iter_loops())
        assert all(loop.unroll == 1 for loop in program.iter_loops())
        # The pricer's own view is the program's nest, not a copy of it.
        assert pricer.view.nest is program.body[1]


# -- priced candidates are executed ---------------------------------------------------------


def _priced_views(program, index, parameters, every):
    """Every ``every``-th schedule a search of the nest priced as a view."""
    from repro.scheduler import EvolutionarySearch, SearchConfig
    views = []
    price = NestPricer._price

    def collecting(self, view):
        views.append(view)
        return price(self, view)

    NestPricer._price = collecting
    try:
        EvolutionarySearch(CostModel(threads=4), SearchConfig(
            population_size=8, epochs=1, generations_per_epoch=2)).search(
                program, index, parameters)
    finally:
        NestPricer._price = price
    return views[::every]


def _with_nest(program, index, nest):
    body = list(program.body)
    body[index] = nest
    return Program(program.name, list(program.arrays.values()), body,
                   program.parameters)


class TestPricedCandidatesExecute:
    """A candidate that is priced and never built is where a legality hole
    would hide: build a sample of them and run them against the input."""

    def test_fuzz_candidates_compute_what_the_input_computes(self):
        executed = 0
        for seed in range(24):
            generated = generate_program(seed, "small")
            normalized = normalize_program(generated.program)
            for index, nest in enumerate(normalized.body):
                if not isinstance(nest, Loop):
                    continue
                for view in _priced_views(normalized, index,
                                          generated.parameters, every=5):
                    candidate = _with_nest(normalized, index,
                                           view.materialise())
                    assert programs_equivalent(
                        generated.program, candidate, generated.parameters), \
                        (seed, index, view.state())
                    executed += 1
        assert executed > 150

    @pytest.mark.parametrize("name", ["syrk", "syr2k", "correlation",
                                      "covariance"])
    def test_triangular_registry_nests(self, name):
        spec = workloads.benchmark(name)
        normalized = normalize_program(spec.variant("a"))
        executed = 0
        for index, nest in enumerate(normalized.body):
            if not isinstance(nest, Loop):
                continue
            iterators = {loop.iterator for loop in nest.iter_loops()}
            if not any(loop.bound_symbols() & iterators
                       for loop in nest.iter_loops()):
                continue
            for view in _priced_views(normalized, index, spec.sizes("large"),
                                      every=2):
                candidate = _with_nest(normalized, index, view.materialise())
                assert programs_equivalent(spec.variant("a"), candidate,
                                           spec.sizes("mini"))
                executed += 1
        assert executed >= 4
