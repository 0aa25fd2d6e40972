"""Tests for embeddings, the tuning database, the evolutionary search, the
per-search nest pricer, the daisy scheduler, the baseline schedulers, the
pricing seam, and the golden recipes of every registered scheduler."""

import json
import os
import random

import pytest

from helpers import build_gemm, build_stencil, build_vector_add
from repro.api import Session, create_scheduler
from repro.api.registry import scheduler_normalizes, scheduler_tunes
from repro.normalization import normalize_program
from repro.perf import CostModel
from repro.scheduler import (ClangScheduler, DaceScheduler, DaisyConfig,
                             DaisyScheduler, EvolutionarySearch, IccScheduler,
                             MctsConfig, NumbaScheduler, NumpyScheduler,
                             PollyScheduler, SearchConfig, TiramisuScheduler,
                             TuningDatabase, embed_nest, embed_program,
                             nest_is_scop, retarget_recipe)
from repro.fuzz import generate_program
from repro.ir.canonical import node_fragment
from repro.analysis.band import BandView
from repro.ir.nodes import Loop
from repro.scheduler.base import NestPricer
from repro.scheduler.embedding import EMBEDDING_SIZE
from repro.scheduler.evolutionary import SEARCH_SPACE, Candidate
from repro.scheduler.tiramisu import ROLLOUT_SPACE
from repro.transforms import (Fuse, Interchange, Parallelize, Recipe,
                              ReplaceWithLibraryCall, apply_recipe)
from repro.workloads import registry as workloads
from repro.workloads.polybench import (build_gemm_a, build_gemm_b,
                                       build_jacobi2d_a, build_jacobi2d_b)

PARAMS = {"NI": 120, "NJ": 140, "NK": 160}
FAST_SEARCH = SearchConfig(population_size=4, epochs=1, generations_per_epoch=1)
#: Every scheduler the registry ships.
SCHEDULER_NAMES = ("clang", "dace", "daisy", "evolutionary", "icc", "numba",
                   "numpy", "polly", "tiramisu")


class TestEmbeddings:
    def test_embedding_has_fixed_size(self, gemm_program, gemm_params):
        embedding = embed_nest(gemm_program.body[1], gemm_program.arrays, gemm_params)
        assert len(embedding.vector) == EMBEDDING_SIZE

    def test_normalized_variants_have_close_embeddings(self):
        params = {"NI": 64, "NJ": 64, "NK": 64}
        norm_a = normalize_program(build_gemm_a())
        norm_b = normalize_program(build_gemm_b())
        embeddings_a = embed_program(norm_a, params)
        embeddings_b = embed_program(norm_b, params)
        assert len(embeddings_a) == len(embeddings_b)
        for left, right in zip(embeddings_a, embeddings_b):
            assert left.distance(right) < 1e-6

    def test_different_kernels_have_distant_embeddings(self, gemm_params):
        gemm = normalize_program(build_gemm_a())
        stencil = normalize_program(build_jacobi2d_a())
        gemm_embedding = embed_program(gemm, gemm_params)[-1]
        stencil_embedding = embed_program(stencil, {"TSTEPS": 10, "N": 64})[0]
        assert gemm_embedding.distance(stencil_embedding) > 1.0


class TestDatabase:
    def test_add_and_query_nearest(self, gemm_program, gemm_params):
        database = TuningDatabase()
        embedding = embed_nest(gemm_program.body[1], gemm_program.arrays, gemm_params)
        recipe = Recipe("opt", [Parallelize(0)])
        database.add(embedding, recipe)
        match = database.best_match(embedding)
        assert match is not None and match.recipe.name == "opt"

    def test_distance_bound_rejects_far_matches(self, gemm_program, gemm_params):
        database = TuningDatabase()
        embedding = embed_nest(gemm_program.body[1], gemm_program.arrays, gemm_params)
        database.add(embedding, Recipe("opt"))
        stencil = normalize_program(build_jacobi2d_a())
        other = embed_program(stencil, {"TSTEPS": 10, "N": 64})[0]
        assert database.best_match(other, max_distance=0.5) is None

    def test_persistence_round_trip(self, tmp_path, gemm_program, gemm_params):
        database = TuningDatabase()
        embedding = embed_nest(gemm_program.body[1], gemm_program.arrays, gemm_params)
        database.add(embedding, Recipe("opt", [Interchange(0, ["i", "k", "j"])]))
        path = tmp_path / "db.json"
        database.save(str(path))
        restored = TuningDatabase.load(str(path))
        assert len(restored) == 1
        assert restored.entries[0].recipe.transformations[0].name == "interchange"

    def test_retarget_recipe(self):
        recipe = Recipe("opt", [Interchange(0, ["i", "k", "j"]), Parallelize(0)])
        moved = retarget_recipe(recipe, 3)
        assert all(t.params()["nest_index"] == 3 for t in moved)


class TestEvolutionarySearch:
    def test_search_does_not_worsen_runtime(self):
        program = normalize_program(build_gemm(with_scaling=False))
        model = CostModel(threads=4)
        search = EvolutionarySearch(model, FAST_SEARCH)
        baseline = model.estimate_seconds(program, PARAMS)
        outcome = search.search(program, 0, PARAMS)
        assert outcome.runtime <= baseline + 1e-12
        assert outcome.evaluated > 0

    def test_seed_recipes_considered(self):
        program = normalize_program(build_gemm(with_scaling=False))
        model = CostModel(threads=4)
        search = EvolutionarySearch(model, FAST_SEARCH)
        seed = Recipe("seed", [Parallelize(0)])
        outcome = search.search(program, 0, PARAMS, seed_recipes=[seed])
        assert outcome.runtime <= model.estimate_seconds(program, PARAMS)


def _reference_price(model, program, recipe, parameters):
    """What a price is defined as: the cost model on a full copy of the
    program with the recipe applied (no memo, no sharing)."""
    trial = program.copy()
    apply_recipe(trial, recipe, strict=False)
    return model.estimate_seconds(trial, parameters)


def _fuzz_programs(seeds):
    """Fuzz programs as generated and after a-priori normalization (the
    form daisy searches on), with their size bindings."""
    for seed in seeds:
        generated = generate_program(seed, "small")
        yield generated.program, generated.parameters
        yield normalize_program(generated.program), generated.parameters


class TestNestPricer:
    def test_price_equals_cost_of_a_full_copy(self):
        """Incremental price == (not approx) the whole-program estimate of
        a full copy with the recipe applied: every nest index of multi-nest
        fuzz programs, candidates of both search spaces."""
        model = CostModel(threads=4)
        rng = random.Random("nest-pricer")
        priced = nests = 0
        for program, parameters in _fuzz_programs(range(12)):
            for index, nest in enumerate(program.body):
                if not isinstance(nest, Loop):
                    continue
                nests += 1
                pricer = NestPricer(model, program, index, parameters)
                for space in (SEARCH_SPACE, ROLLOUT_SPACE):
                    orders = space.orders(pricer.view)
                    for _ in range(4):
                        recipe = space.sample(orders, rng).to_recipe(index)
                        assert pricer.price(recipe) == _reference_price(
                            model, program, recipe, parameters)
                        priced += 1
                assert pricer.price(Recipe("identity")) == \
                    model.estimate_seconds(program, parameters)
        assert nests > 24 and priced == 8 * nests

    def test_library_call_and_non_local_recipes(self):
        """A seed that replaces the nest by a BLAS call changes which
        containers later nests find touched; a recipe naming another nest
        (``Fuse``) is priced on a full copy.  Both equal the reference."""
        model = CostModel(threads=4)
        spec = workloads.benchmark("2mm")
        program = normalize_program(spec.variant("a"))
        parameters = spec.sizes("large")
        loops = [index for index, node in enumerate(program.body)
                 if isinstance(node, Loop)]
        assert len(loops) > 2
        replaced = 0
        for index in loops:
            pricer = NestPricer(model, program, index, parameters)
            blas = Recipe("seed", [ReplaceWithLibraryCall(index),
                                   Parallelize(index)])
            reference = _reference_price(model, program, blas, parameters)
            assert pricer.price(blas) == reference
            replaced += reference != model.estimate_seconds(program, parameters)
            for other in loops:
                fuse = Recipe("fuse", [Fuse(index, other)])
                assert pricer.price(fuse) == _reference_price(
                    model, program, fuse, parameters)
        assert replaced  # some nest did match the idiom
        # The later nest re-reads what the earlier one touched — unless the
        # earlier one became a library call: one pricer, both suffixes.
        program = normalize_program(build_gemm())
        program.body.reverse()  # the contraction first, then the scaling
        pricer = NestPricer(model, program, 0, PARAMS)
        blas = Recipe("seed", [ReplaceWithLibraryCall(0)])
        for recipe in (Recipe("identity"), blas, Recipe("p", [Parallelize(0)])):
            assert pricer.price(recipe) == _reference_price(
                model, program, recipe, PARAMS)
        called = program.copy()
        apply_recipe(called, blas)
        assert (model.estimate(called, PARAMS).nests[1].time
                != model.estimate(program, PARAMS).nests[1].time)
        # A fusion that applies: two adjacent nests over the same domain.
        program = build_vector_add()
        program.body.append(program.body[0].copy())
        fuse = Recipe("fuse", [Fuse(0, 1)])
        assert apply_recipe(program.copy(), fuse).fully_applied
        assert NestPricer(model, program, 0, {"N": 4096}).price(fuse) == \
            _reference_price(model, program, fuse, {"N": 4096})

    def test_program_being_scheduled_is_never_touched(self):
        """100 prices leave every node of the program the same object,
        unfrozen, with the same content."""
        model = CostModel(threads=4)
        program = normalize_program(generate_program(3, "medium").program)
        parameters = generate_program(3, "medium").parameters
        nodes = list(program.body)
        fragments = [node_fragment(node) for node in nodes]
        index = next(i for i, node in enumerate(nodes)
                     if isinstance(node, Loop))
        pricer = NestPricer(model, program, index, parameters)
        orders = SEARCH_SPACE.orders(pricer.view)
        rng = random.Random(0)
        for _ in range(100):
            pricer.price(SEARCH_SPACE.sample(orders, rng).to_recipe(index))
        assert all(now is before for now, before in zip(program.body, nodes))
        assert len(program.body) == len(nodes)
        assert [node_fragment(node) for node in nodes] == fragments
        assert not any(loop.frozen for loop in program.iter_loops())
        assert not any(comp.frozen for comp in program.iter_computations())

    def test_repeated_recipes_are_answered_from_the_memo(self):
        calls = []

        class Counting(CostModel):
            def estimate_node(self, *args, **kwargs):
                calls.append(1)
                return super().estimate_node(*args, **kwargs)

        program = normalize_program(build_gemm(with_scaling=False))
        pricer = NestPricer(Counting(threads=4), program, 0, PARAMS)
        first = pricer.price(Recipe("one", [Parallelize(0)]))
        priced = len(calls)
        assert pricer.price(Recipe("other name", [Parallelize(0)])) == first
        assert len(calls) == priced

    def test_tiramisu_measures_its_top_rollouts_from_the_memo(self, monkeypatch):
        asked, priced = [], []
        price, _price = NestPricer.price, NestPricer._price
        monkeypatch.setattr(NestPricer, "price", lambda self, recipe: (
            asked.append(recipe), price(self, recipe))[1])
        monkeypatch.setattr(NestPricer, "_price", lambda self, recipe: (
            priced.append(recipe), _price(self, recipe))[1])
        config = MctsConfig(rollouts=6, top_candidates=3)
        program = build_gemm(with_scaling=False)
        TiramisuScheduler(threads=4, config=config).schedule(program, PARAMS)
        assert len(asked) == 6 + 1 + 3
        assert len(priced) <= 6 + 1

    def test_candidates_are_hashable_values(self):
        rng = random.Random(1)
        nest = normalize_program(build_gemm(with_scaling=False)).body[0]
        orders = SEARCH_SPACE.orders(BandView(nest))
        candidate = SEARCH_SPACE.sample(orders, rng)
        assert isinstance(candidate, Candidate)
        assert candidate in {candidate}
        assert [name for name, _ in candidate.tile_sizes] == list(candidate.order)
        assert len({candidate, SEARCH_SPACE.mutate(candidate, orders, rng)}) <= 2
        # The name is provenance: the same candidate is the same schedule.
        assert (candidate.to_recipe(0).to_dict()["transformations"]
                == candidate.to_recipe(0, "x").to_dict()["transformations"])


class TestDaisy:
    def _daisy(self):
        return DaisyScheduler(config=DaisyConfig(threads=4, search=FAST_SEARCH))

    def test_ab_variants_get_equal_runtimes(self):
        daisy = self._daisy()
        gemm_a = normalize_program(build_gemm_a())
        daisy.tune(gemm_a, PARAMS, label="gemm")
        runtime_a = daisy.estimate(gemm_a, PARAMS)
        runtime_b = daisy.estimate(normalize_program(build_gemm_b()), PARAMS)
        assert runtime_b == pytest.approx(runtime_a, rel=0.15)

    def test_blas_idiom_used(self):
        daisy = self._daisy()
        result = daisy.tune(normalize_program(build_gemm_a()), PARAMS,
                            label="gemm")
        assert any("blas" in (info.detail or "") for info in result.nests)
        assert result.program.library_calls()

    def test_database_populated_by_tuning(self):
        daisy = self._daisy()
        daisy.tune(build_gemm_a(), PARAMS, label="gemm")
        assert len(daisy.database) >= 1

    def test_schedule_without_database_still_runs(self):
        daisy = self._daisy()
        result = daisy.schedule(build_jacobi2d_a(), {"TSTEPS": 10, "N": 64})
        assert result.nests

    def test_a_nest_is_embedded_only_when_the_database_reads_it(
            self, monkeypatch):
        """The database is the embedding's only reader: no embedding on an
        empty database, one per seeded nest when tuning (the BLAS nest's
        included), none for a nest the database was tuned on (it transfers
        by identity), and a BLAS nest is never embedded to be looked up."""
        from repro.scheduler import daisy as daisy_module

        from repro.scheduler.embedding import embed_view

        embedded = []

        def counted(nest, *args, **kwargs):
            embedded.append(kwargs["label"])
            return embed_nest(nest, *args, **kwargs)

        def counted_view(view, label):
            embedded.append(label)
            return embed_view(view, label)
        monkeypatch.setattr(daisy_module, "embed_nest", counted)
        monkeypatch.setattr(daisy_module, "embed_view", counted_view)
        daisy = self._daisy()
        stencil = {"TSTEPS": 10, "N": 64}
        jacobi2d_a = normalize_program(build_jacobi2d_a())
        assert daisy.schedule(jacobi2d_a, stencil).nests
        assert embedded == []
        tuned = daisy.tune(normalize_program(build_gemm_a()), PARAMS,
                           label="gemm")
        assert [info.detail for info in tuned.nests][1] == "blas idiom"
        assert embedded == [entry.label for entry in daisy.database.entries] \
            == ["gemm#0", "gemm#1"]
        embedded.clear()
        transferred = daisy.schedule(normalize_program(build_gemm_b()), PARAMS)
        assert [info.detail for info in transferred.nests] \
            == ["transfer from gemm#0", "blas idiom"]
        assert embedded == []
        embedded.clear()
        daisy.schedule(jacobi2d_a, stencil)
        assert embedded == ["jacobi2d_a#0"]


class TestBaselines:
    def test_polly_optimizes_scop(self, gemm_program):
        assert nest_is_scop(gemm_program.body[1])
        polly = PollyScheduler(threads=4)
        result = polly.schedule(gemm_program, PARAMS)
        assert any(info.status == "optimized" for info in result.nests)

    def test_polly_is_sensitive_to_loop_order(self):
        polly = PollyScheduler(threads=4)
        fast = polly.estimate(build_gemm(order=("i", "k", "j"), with_scaling=False), PARAMS)
        slow = polly.estimate(build_gemm(order=("j", "k", "i"), with_scaling=False), PARAMS)
        assert slow >= fast

    def test_icc_parallelizes_clang_does_not(self, vector_add_program):
        icc_result = IccScheduler(threads=4).schedule(vector_add_program, {"N": 4096})
        clang_result = ClangScheduler(threads=4).schedule(vector_add_program, {"N": 4096})
        assert icc_result.program.body[0].parallel
        assert not clang_result.program.body[0].parallel

    def test_tiramisu_marks_unsupported(self):
        tiramisu = TiramisuScheduler(threads=4, config=MctsConfig(rollouts=4))
        stencil = build_stencil()
        result = tiramisu.schedule(stencil, {"T": 10, "N": 128})
        assert result.unsupported

    def test_tiramisu_handles_parallel_nest(self):
        tiramisu = TiramisuScheduler(threads=4, config=MctsConfig(rollouts=4))
        result = tiramisu.schedule(build_gemm(with_scaling=False), PARAMS)
        assert not result.unsupported

    def test_frameworks_schedule_npbench_programs(self):
        from repro.workloads.polybench import build_gemm_npbench
        program = build_gemm_npbench()
        for scheduler in (NumpyScheduler(), NumbaScheduler(threads=4),
                          DaceScheduler(threads=4)):
            runtime = scheduler.estimate(program, PARAMS)
            assert runtime > 0

    def test_dace_uses_library_nodes_on_clean_matmul(self):
        program = normalize_program(build_gemm_a())
        result = DaceScheduler(threads=4).schedule(program, PARAMS)
        assert result.program.library_calls()

    def test_numpy_charges_python_dispatch(self):
        from repro.workloads.polybench import build_syrk_npbench
        program = build_syrk_npbench()
        params = {"N": 60, "M": 50}
        numpy_runtime = NumpyScheduler().estimate(program, params)
        numba_runtime = NumbaScheduler(threads=1).estimate(program, params)
        assert numpy_runtime > numba_runtime


class TestPricingSeam:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_session_prices_like_the_scheduler_itself(self, name):
        """``Session`` must report what ``scheduler.estimate`` reports — for
        NumPy that includes the interpreter-dispatch term of its ``py_``
        loops."""
        from repro.workloads.polybench import build_syrk_npbench
        program = build_syrk_npbench()
        params = {"N": 60, "M": 50}
        direct = create_scheduler(name, threads=2, search=FAST_SEARCH,
                                  mcts=MctsConfig(rollouts=4))
        session = Session(threads=2, search=FAST_SEARCH,
                          mcts=MctsConfig(rollouts=4))
        # normalize=False: both sides schedule the program exactly as given.
        assert (session.estimate(program, params, scheduler=name,
                                 normalize=False)
                == direct.estimate(program, params))


# -- golden recipes ---------------------------------------------------------------
#
# ``tests/data/scheduler_golden.json`` records what every registered scheduler
# chose for a fixed set of workloads; a scheduler refactor (or a cheaper
# search) must reproduce it exactly.  Regenerate it only for an intended
# behaviour change: ``PYTHONPATH=src:tests python -c "import test_scheduler;
# test_scheduler.record_golden()"``.

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "scheduler_golden.json")
GOLDEN_WORKLOADS = ("gemm:a", "gemm:b", "syrk:npbench", "jacobi-2d:a",
                    "atax:b", "2mm:a")
GOLDEN_THREADS = 4
GOLDEN_SEARCH = SearchConfig(population_size=4, epochs=1,
                             generations_per_epoch=2)
GOLDEN_MCTS = MctsConfig(rollouts=6)


def _result_dict(result):
    return {"nests": [info.to_dict() for info in result.nests],
            "unsupported": result.unsupported, "notes": result.notes}


def golden_case(name, workload):
    """What scheduler ``name`` does to ``workload``, as plain JSON data."""
    benchmark, _, variant = workload.partition(":")
    spec = workloads.benchmark(benchmark)
    program, parameters = spec.variant(variant), spec.sizes("large")
    if scheduler_normalizes(name):
        program = normalize_program(program)
    scheduler = create_scheduler(name, threads=GOLDEN_THREADS,
                                 search=GOLDEN_SEARCH, mcts=GOLDEN_MCTS)
    case = {}
    if scheduler_tunes(name):
        # Tuning searches every non-BLAS nest; the schedule() after it takes
        # the transfer path against the entries tuning recorded.
        case["tune"] = _result_dict(scheduler.tune(program, parameters))
    case["schedule"] = _result_dict(scheduler.schedule(program, parameters))
    case["runtime"] = scheduler.estimate(program, parameters)
    return case


def record_golden():
    golden = {f"{name}/{workload}": golden_case(name, workload)
              for name in SCHEDULER_NAMES for workload in GOLDEN_WORKLOADS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenRecipes:
    @pytest.mark.parametrize("workload", GOLDEN_WORKLOADS)
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_matches_golden(self, golden, name, workload):
        expected = dict(golden[f"{name}/{workload}"])
        # Round-trip through JSON so tuples compare as the lists they are
        # stored as.
        case = json.loads(json.dumps(golden_case(name, workload)))
        assert case.pop("runtime") == pytest.approx(expected.pop("runtime"),
                                                    rel=1e-12)
        assert case == expected
