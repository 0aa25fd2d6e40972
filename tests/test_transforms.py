"""Tests for loop transformations, idiom detection, and recipes."""

import contextlib

import numpy as np
import pytest

from helpers import build_gemm, build_stencil, build_vector_add
from repro.api import ScheduleRequest, Session
from repro.interp import programs_equivalent, run_program
from repro.ir import Loop, ProgramBuilder
from repro.normalization import normalize_program
from repro.transforms import (Fuse, Interchange, Parallelize, Recipe,
                              ReplaceWithLibraryCall, Tile, Transformation,
                              TransformationError, Unroll, Vectorize,
                              apply_recipe, detect_blas3_nests, fuse,
                              fuse_adjacent_loops, fuse_chains_in_body,
                              fuse_producer_consumer_chains,
                              match_blas3)
from repro.workloads import registry as workloads

PARAMS = {"NI": 8, "NJ": 9, "NK": 10}


class TestInterchange:
    def test_legal_interchange_applies_and_preserves_semantics(self):
        program = build_gemm(with_scaling=False)
        reference = program.copy()
        Interchange(0, ["i", "k", "j"]).apply(program)
        band = program.body[0].perfectly_nested_band()
        assert [loop.iterator for loop in band] == ["i", "k", "j"]
        assert programs_equivalent(reference, program, PARAMS)

    def test_wrong_iterators_rejected(self):
        program = build_gemm(with_scaling=False)
        with pytest.raises(TransformationError):
            Interchange(0, ["i", "j", "z"]).apply(program)

    def test_illegal_interchange_rejected(self):
        b = ProgramBuilder("p", parameters=["T", "N"])
        b.add_array("A", ("T", "N"))
        with b.loop("t", 1, "T"):
            with b.loop("i", 1, b.sym("N") - 1):
                b.assign(("A", "t", "i"),
                         b.read("A", b.sym("t") - 1, b.sym("i") + 1))
        program = b.finish()
        with pytest.raises(TransformationError):
            Interchange(0, ["i", "t"]).apply(program)

    def test_identity_interchange_is_noop(self):
        program = build_gemm(with_scaling=False)
        Interchange(0, ["i", "j", "k"]).apply(program)
        assert [l.iterator for l in program.body[0].perfectly_nested_band()] == ["i", "j", "k"]


class TestTiling:
    def test_tiling_structure(self):
        program = build_gemm(with_scaling=False)
        Tile(0, {"i": 4, "j": 4}).apply(program)
        band = program.body[0].perfectly_nested_band()
        iterators = [loop.iterator for loop in band]
        assert iterators == ["i_t", "j_t", "i", "j", "k"]
        assert band[0].tile_of == "i"

    def test_tiling_preserves_semantics(self):
        program = build_gemm(with_scaling=False)
        reference = program.copy()
        Tile(0, {"i": 3, "j": 5, "k": 4}).apply(program)
        assert programs_equivalent(reference, program, PARAMS)

    def test_tiling_handles_non_divisible_sizes(self):
        program = build_vector_add()
        reference = program.copy()
        Tile(0, {"i": 7}).apply(program)
        assert programs_equivalent(reference, program, {"N": 20})

    def test_a_step_that_does_not_divide_the_size_is_refused(self):
        """Tile origins ``1, 17, …`` are not iterations of a loop by 3, so
        tiling it by 16 is refused — by ``apply_recipe`` and inside a
        search — while a size the step divides applies.  The interpreter
        is the oracle."""
        source = ("double A[N];\ndouble B[N];\n"
                  "for (i = 1; i < N; i += 3) { B[i] = A[i] + 1.0; }")
        session = Session()
        program = session.load(source)
        refused = program.copy()
        application = apply_recipe(refused, Recipe("r", [Tile(0, {"i": 16})]))
        assert not application.applied and len(application.failed) == 1
        assert programs_equivalent(program, refused, {"N": 400})
        divided = program.copy()
        assert apply_recipe(divided,
                            Recipe("r", [Tile(0, {"i": 6})])).fully_applied
        assert divided.body[0].perfectly_nested_band()[0].iterator == "i_t"
        assert programs_equivalent(program, divided, {"N": 400})
        response = session.schedule(ScheduleRequest(
            program=source, parameters={"N": 4096}, normalize=False))
        assert programs_equivalent(program, response.program, {"N": 400})

    def test_tile_size_one_is_noop(self):
        program = build_gemm(with_scaling=False)
        Tile(0, {"i": 1}).apply(program)
        assert [l.iterator for l in program.body[0].perfectly_nested_band()] == ["i", "j", "k"]

    def test_unknown_iterator_rejected(self):
        program = build_gemm(with_scaling=False)
        with pytest.raises(TransformationError):
            Tile(0, {"z": 8}).apply(program)


class TestParallelizeVectorizeUnroll:
    def test_parallelize_outer_gemm_loop(self):
        program = build_gemm(with_scaling=False)
        Parallelize(0).apply(program)
        assert program.body[0].parallel

    def test_parallelize_sequential_loop_rejected(self):
        program = build_stencil()
        with pytest.raises(TransformationError):
            Parallelize(0).apply(program)

    def test_parallelize_reduction_requires_flag(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("s", ())
        b.add_array("x", ("N",))
        with b.loop("i", 0, "N"):
            b.accumulate(("s",), b.read("x", "i"))
        program = b.finish()
        with pytest.raises(TransformationError):
            Parallelize(0).apply(program.copy())
        Parallelize(0, allow_reductions=True).apply(program)
        assert program.body[0].parallel

    def test_vectorize_requires_unit_stride(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("A", ("N", "N"))
        b.add_array("B", ("N", "N"))
        with b.loop("i", 0, "N"):
            with b.loop("j", 0, "N"):
                b.assign(("A", "j", "i"), b.read("B", "j", "i") + 1.0)
        program = b.finish()
        with pytest.raises(TransformationError):
            Vectorize(0).apply(program.copy())
        Vectorize(0, require_unit_stride=False).apply(program)
        assert program.body[0].perfectly_nested_band()[-1].vectorized

    def test_vectorize_unit_stride_accepts(self, vector_add_program):
        Vectorize(0).apply(vector_add_program)
        assert vector_add_program.body[0].vectorized

    def test_unroll_annotation(self, vector_add_program):
        Unroll(0, factor=8).apply(vector_add_program)
        assert vector_add_program.body[0].unroll == 8
        with pytest.raises(TransformationError):
            Unroll(0, factor=0).apply(vector_add_program)


class TestFusion:
    def _two_maps(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("t", ("N",), transient=True)
        b.add_array("y", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("t", "i"), b.read("x", "i") * 2)
        with b.loop("i", 0, "N"):
            b.assign(("y", "i"), b.read("t", "i") + 1)
        return b.finish()

    def test_can_fuse_producer_consumer(self):
        program = self._two_maps()
        assert fuse(program.body[0], program.body[1]) is not None

    def test_fuse_transformation(self):
        program = self._two_maps()
        reference = self._two_maps()
        Fuse(0, 1).apply(program)
        assert len(program.body) == 1
        assert programs_equivalent(reference, program, {"N": 16})

    def test_fusion_with_offset_dependence_rejected(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("t", ("N",), transient=True)
        b.add_array("y", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("t", "i"), b.read("x", "i") * 2)
        with b.loop("i", 1, "N"):
            b.assign(("y", "i"), b.read("t", b.sym("i") - 1))
        program = b.finish()
        # The consumer reads the previous iteration's producer value: the
        # matching band differs (bounds) and the dependence is not
        # loop-independent, so fusion must be refused.
        assert fuse(program.body[0], program.body[1]) is None

    def test_fuse_chains_in_body(self):
        program = self._two_maps()
        fused = fuse_chains_in_body(program.body)
        assert fused == 1 and len(program.body) == 1

    def test_fuse_adjacent_respects_min_depth(self):
        program = self._two_maps()
        assert fuse_adjacent_loops(program.body) == 0

    def test_fuse_refuses_a_nest_that_is_not_the_next_one(self):
        """``Fuse(1, 0)`` used to apply and put the consumer first."""
        program = self._two_maps()
        for first, second in ((1, 0), (0, 0), (0, 2)):
            with pytest.raises(TransformationError, match="next one"):
                Fuse(first, second).apply(program)
        assert len(program.body) == 2
        assert programs_equivalent(self._two_maps(), program, {"N": 16})

    @staticmethod
    def _map_then_nest(inner):
        """``t[j] = 2 x[j]``, then an independent nest ``for i {for
        <inner>}``: the two share one level, ``i`` renamed to ``j``."""
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("t", ("N",))
        b.add_array("y", ("N", "N"))
        with b.loop("j", 0, "N"):
            b.assign(("t", "j"), b.read("x", "j") * 2)
        with b.loop("i", 0, "N"):
            with b.loop(inner, 0, "N"):
                b.assign(("y", "i", inner), b.read("x", "i") + b.sym(inner))
        return b.finish()

    def test_fusion_refuses_to_capture_an_inner_iterator(self):
        captured = self._map_then_nest("j")
        assert fuse(captured.body[0], captured.body[1]) is None
        with pytest.raises(TransformationError):
            Fuse(0, 1).apply(captured)
        # The same nest with a fresh inner name fuses, and soundly.
        program = self._map_then_nest("k")
        Fuse(0, 1).apply(program)
        assert len(program.body) == 1
        assert programs_equivalent(self._map_then_nest("k"), program, {"N": 9})

    @pytest.mark.parametrize("variant", ["b", "npbench"])
    def test_covariance_zeroing_nest_is_not_captured(self, variant):
        """Nests 3 and 4 as written: ``for j {for i}`` then ``for i {for j
        in i..M}``; renaming ``i`` to ``j`` made ``for (j = j; ...)``."""
        with contextlib.closing(Session()) as session:
            program = session.load(f"covariance:{variant}").copy()
        first, second = program.body[3], program.body[4]
        assert [first.iterator, second.iterator, second.body[0].iterator] == \
            ["j", "i", "j"]
        assert fuse(first, second) is None
        with pytest.raises(TransformationError):
            Fuse(3, 4).apply(program)


#: Fusion's soundness corpus: every registry variant and ``fuzz:small-0..39``.
FUSION_CORPUS = ([f"{name}:{variant}" for name in workloads.benchmark_names()
                  for variant in ("a", "b", "npbench")]
                 + [f"fuzz:small-{seed}" for seed in range(40)])


def _mini_sizes(name):
    workload, _, key = name.partition(":")
    if workload == "fuzz":
        return workloads.fuzz_program(key)[1]
    return dict(workloads.benchmark(workload).sizes("mini"))


@pytest.mark.parametrize("form, pairs, accepted", [
    ("as-written", 124, 36), ("a-priori-keep-names", 204, 111)])
def test_every_fusion_fuse_accepts_is_sound(form, pairs, accepted):
    """Each adjacent pair of top-level loops of the corpus: a nest
    :func:`fuse` accepts, spliced in for the pair, leaves every non-transient
    container as it was at mini sizes (the ``programs_equivalent`` check,
    with the inputs and the unfused run shared by a program's pairs).

    ``a-priori`` is left out: it is ``a-priori-keep-names`` with iterators
    renamed by depth, the same nests and the same verdicts on the registry,
    and source names are where a rename can capture."""
    seen = fused = 0
    with contextlib.closing(Session()) as session:
        for name in FUSION_CORPUS:
            program = (session.load(name) if form == "as-written"
                       else session.normalize(name, form).program)
            parameters = _mini_sizes(name)
            inputs = {array: spec.allocate(parameters, rng=np.random.default_rng(0))
                      for array, spec in program.arrays.items() if not spec.transient}
            expected = None
            for index in range(len(program.body) - 1):
                first, second = program.body[index:index + 2]
                if not (isinstance(first, Loop) and isinstance(second, Loop)):
                    continue
                seen += 1
                nest = fuse(first, second)
                if nest is None:
                    continue
                fused += 1
                candidate = program.copy()
                candidate.body[index:index + 2] = [nest]
                if expected is None:
                    expected = run_program(program, parameters, inputs)
                actual = run_program(candidate, parameters, inputs)
                assert all(np.allclose(expected[array], actual[array],
                                       rtol=1e-9, atol=1e-9)
                           for array in inputs), (name, index)
    assert (seen, fused) == (pairs, accepted)


class TestFusionRules:
    """The CLOUDSC rule (``fuse_chains_in_body``) lets the consumer write, and
    the producer read, what flows between them; the ``dace`` rule
    (``fuse_producer_consumer_chains``) is one-to-one and refuses both."""

    @staticmethod
    def _both(program):
        cloudsc, dace = program.copy(), program.copy()
        return (fuse_chains_in_body(cloudsc.body), cloudsc,
                fuse_producer_consumer_chains(dace), dace)

    def test_gemm_scaling_nest_fuses_only_under_the_cloudsc_rule(self):
        # ``C *= beta`` flows into ``C += alpha * A * B``, which writes C too.
        with contextlib.closing(Session()) as session:
            program = session.normalize("gemm:a", "a-priori").program
        fused, cloudsc, refused, dace = self._both(program)
        assert (fused, refused) == (1, 0)
        assert len(cloudsc.body) == len(program.body) - 1
        assert len(dace.body) == len(program.body)

    def test_the_rules_split_where_they_did(self):
        names = [f"{name}:{variant}" for name in workloads.benchmark_names()
                 for variant in ("a", "b", "npbench")]
        names += ["cloudsc", "erosion"] + [f"fuzz:small-{seed}" for seed in range(60)]
        counts = []
        with contextlib.closing(Session()) as session:
            for pipeline in ("identity", "a-priori", "a-priori-keep-names"):
                for name in names:
                    program = session.normalize(name, pipeline).program
                    fused, _cloudsc, strict, _dace = self._both(program)
                    counts.append((fused, strict))
        assert len(counts) == 348
        # The stricter rule never fuses more; it fuses less in 71 cases.
        assert sum(1 for fused, strict in counts if fused != strict) == 71
        assert all(fused >= strict for fused, strict in counts)
        assert [sum(column) for column in zip(*counts)] == [101, 14]


class TestIdiomDetection:
    def test_gemm_detected_after_normalization(self):
        program = normalize_program(build_gemm())
        matches = detect_blas3_nests(program)
        assert any(match.routine == "gemm" for _, match in matches)

    def test_fused_form_not_detected(self):
        program = build_gemm()  # scaling statement still fused with the nest
        assert match_blas3(program.body[1]) is not None  # contraction nest alone is clean
        assert match_blas3(program.body[0]) is None

    def test_syrk_classified(self):
        from repro.workloads.polybench import build_syrk_b
        program = normalize_program(build_syrk_b())
        matches = detect_blas3_nests(program)
        assert any(match.routine == "syrk" for _, match in matches)

    def test_replacement_preserves_semantics(self):
        program = normalize_program(build_gemm())
        reference = program.copy()
        index, match = detect_blas3_nests(program)[0]
        ReplaceWithLibraryCall(index).apply(program)
        assert program.library_calls()
        assert programs_equivalent(reference, program, PARAMS)

    def test_replacement_of_non_idiom_raises(self, vector_add_program):
        with pytest.raises(TransformationError):
            ReplaceWithLibraryCall(0).apply(vector_add_program)

    def test_flop_expression_positive(self):
        program = normalize_program(build_gemm())
        index, match = detect_blas3_nests(program)[0]
        ReplaceWithLibraryCall(index).apply(program)
        call = program.library_calls()[0]
        assert call.flop_expr.evaluate(PARAMS) > 0


class TestRecipes:
    def test_round_trip_serialization(self):
        recipe = Recipe("opt", [Interchange(0, ["i", "k", "j"]),
                                Tile(0, {"i": 32}), Parallelize(0), Vectorize(0),
                                Unroll(0, factor=4)])
        restored = Recipe.from_dict(recipe.to_dict())
        assert [t.name for t in restored] == [t.name for t in recipe]
        assert restored.transformations[1].params()["tile_sizes"] == {"i": 32}

    def test_unknown_transformation_rejected(self):
        with pytest.raises(ValueError):
            Transformation.from_dict({"name": "does-not-exist", "params": {}})

    def test_apply_recipe_skips_illegal_steps(self, stencil_program):
        recipe = Recipe("bad", [Parallelize(0), Unroll(0, factor=2)])
        result = apply_recipe(stencil_program, recipe, strict=False)
        assert len(result.failed) == 1 and len(result.applied) == 1
        assert not result.fully_applied

    def test_apply_recipe_strict_raises(self, stencil_program):
        recipe = Recipe("bad", [Parallelize(0)])
        with pytest.raises(TransformationError):
            apply_recipe(stencil_program, recipe, strict=True)

    def test_recipe_application_preserves_semantics(self):
        program = build_gemm(with_scaling=False)
        reference = program.copy()
        recipe = Recipe("opt", [Interchange(0, ["i", "k", "j"]),
                                Tile(0, {"i": 4, "k": 4}),
                                Parallelize(0), Vectorize(0)])
        result = apply_recipe(program, recipe, strict=False)
        assert result.fully_applied
        assert programs_equivalent(reference, program, PARAMS)
