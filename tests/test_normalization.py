"""Tests for the normalization passes: loop normal form, maximal fission,
stride minimization, scalar expansion, and the combined pipeline."""

import contextlib
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_gemm, build_stencil, build_vector_add
from repro.api import Session
from repro.api.hashing import program_content_hash
from repro.experiments.cloudsc_pipeline import PIPELINE, daisy_optimize
from repro.fuzz.generator import SIZE_CLASSES
from repro.interp import programs_equivalent, run_program
from repro.ir import ProgramBuilder, program_to_dict, to_pseudocode
from repro.ir.nodes import loop_sites
from repro.normalization import (canonicalize_iterator_names, contract_arrays,
                                 expand_scalars, find_minimal_permutation,
                                 is_maximally_fissioned, maximal_loop_fission,
                                 normalize, normalize_program,
                                 normalize_program_bounds)
from repro.passes import (LoopNormalFormPass, Pipeline, ScalarExpansionPass,
                          ValidatePass)
from repro.workloads import registry as workloads
from repro.workloads.polybench import build_gemm_a, build_gemm_b

PARAMS = {"NI": 8, "NJ": 9, "NK": 10}


class TestLoopNormalForm:
    def test_bounds_rewritten_to_zero_base(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 2, "N", 3):
            b.assign(("x", "i"), 1.0)
        program = b.finish()
        reference = program.copy()
        normalize_program_bounds(program)
        loop = program.body[0]
        assert str(loop.start) == "0" and str(loop.step) == "1"
        assert programs_equivalent(reference, program, {"N": 20})

    def test_already_normal_loops_untouched(self, vector_add_program):
        before = to_pseudocode(vector_add_program)
        normalize_program_bounds(vector_add_program)
        assert to_pseudocode(vector_add_program) == before

    def test_library_call_flops_are_reindexed(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        with b.loop("i", 2, "N"):
            b.library_call("axpy", ["y"], ["x"], flop_expr=b.sym("i") * 2)
        program = b.finish()
        assert normalize_program_bounds(program)
        call = program.body[0].body[0]
        assert call.flop_expr == ((b.sym("i") + 2) * 2)

    def test_canonical_iterator_names(self, gemm_program):
        canonicalize_iterator_names(gemm_program)
        iterators = [loop.iterator for loop in gemm_program.body[1].iter_loops()]
        assert iterators == ["i0", "i1", "i2"]

    def test_canonicalization_preserves_semantics(self):
        program = build_gemm()
        renamed = program.copy()
        canonicalize_iterator_names(renamed)
        assert programs_equivalent(program, renamed, PARAMS)


class TestMaximalFission:
    def test_independent_statements_split(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        b.add_array("src", ("N",))
        with b.loop("i", 0, "N"):
            b.assign(("x", "i"), b.read("src", "i"))
            b.assign(("y", "i"), b.read("src", "i") * 2)
        program = b.finish()
        assert maximal_loop_fission(program) == 1
        assert len(program.body) == 2
        assert is_maximally_fissioned(program)

    def test_dependent_statements_stay_together(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 1, "N"):
            b.assign(("x", "i"), b.read("x", b.sym("i") - 1) + 1.0)
            b.assign(("x", b.sym("i") - 1), b.read("x", "i") * 0.5)
        program = b.finish()
        maximal_loop_fission(program)
        assert len(program.body) == 1

    def test_gemm_scaling_split_from_contraction(self):
        program = build_gemm_a()
        maximal_loop_fission(program)
        assert len(program.body) == 2
        assert programs_equivalent(build_gemm_a(), program, PARAMS)

    def test_fission_preserves_semantics(self, stencil_program):
        original = stencil_program.copy()
        maximal_loop_fission(stencil_program)
        assert programs_equivalent(original, stencil_program, {"T": 3, "N": 12})


#: Where one fission sweep is checked to be maximal: every registry variant,
#: CLOUDSC, erosion, and seeds 0-99 of every fuzz size class.
ONE_SWEEP_CORPORA = {
    "registry": [f"{name}:{variant}" for name in workloads.benchmark_names()
                 for variant in ("a", "b", "npbench")] + ["cloudsc", "erosion"],
    **{size: [f"fuzz:{size}-{seed}" for seed in range(100)]
       for size in SIZE_CLASSES},
}


@pytest.mark.parametrize("corpus", sorted(ONE_SWEEP_CORPORA))
def test_one_fission_sweep_is_maximal(corpus):
    """Why fission has no fixed point of its own: on what ``a-priori``
    hands it (loop normal form, then scalar expansion), one bottom-up sweep
    leaves no loop that can be split."""
    prepare = Pipeline("fission-input",
                       [LoopNormalFormPass(), ScalarExpansionPass()])
    split = 0
    with contextlib.closing(Session()) as session:
        for name in ONE_SWEEP_CORPORA[corpus]:
            program, _report = normalize(session.load(name), pipeline=prepare)
            split += maximal_loop_fission(program)
            assert is_maximally_fissioned(program), name
    assert split > 0


#: Where the post-order loop walk is checked: every registry variant and
#: ``fuzz:small-0..79``.
LOOP_SITE_PROGRAMS = (
    [f"{name}:{variant}" for name in workloads.benchmark_names()
     for variant in ("a", "b", "npbench")]
    + [f"fuzz:small-{seed}" for seed in range(80)])


@pytest.mark.parametrize("replacement", [0, 1, 3])
def test_loop_sites_visit_every_loop_once_children_first(replacement):
    """``loop_sites`` visits each loop once, after every loop inside it, and
    steps over the nodes a caller puts in a site's place: here ``replacement``
    copies of the loop, which hold loops of their own."""
    visits = 0
    with contextlib.closing(Session()) as session:
        for name in LOOP_SITE_PROGRAMS:
            program = session.load(name).copy()
            loops = list(program.iter_loops())    # alive: ids stay unique
            inside = {id(loop): {id(inner) for inner in loop.iter_loops()}
                      - {id(loop)} for loop in loops}
            visited = []
            for owner, body, index in loop_sites(program.body):
                loop = body[index]
                assert body is (program.body if owner is None else owner.body)
                assert inside[id(loop)] <= set(visited), name
                visited.append(id(loop))
                body[index:index + 1] = [loop.copy() for _ in range(replacement)]
            assert sorted(visited) == sorted(inside), name
            visits += len(visited)
    assert visits > len(LOOP_SITE_PROGRAMS)


class TestStrideMinimization:
    def test_gemm_normalizes_to_ikj(self):
        program = build_gemm_b()
        normalized = normalize_program(program)
        contraction = normalized.body[-1]
        # After normalization the innermost loop walks the contiguous (j)
        # dimension of both C and B.
        comp = list(contraction.iter_computations())[0]
        innermost = contraction.perfectly_nested_band()[-1].iterator
        assert comp.target.indices[-1].free_symbols() == {innermost}

    def test_triangular_bounds_respected(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("A", ("N", "N"))
        with b.loop("i", 0, "N"):
            with b.loop("j", 0, b.sym("i") + 1):
                b.assign(("A", "j", "i"), 1.0)
        program = b.finish()
        nest = program.body[0]
        order, *_ = find_minimal_permutation(nest, program.arrays)
        # j's bound references i, so i must stay outermost regardless of cost.
        assert order[0] == "i"

    #: Every parameter distinct, at least two time steps.  jacobi-2d and
    #: heat-3d declare one spatial extent; fdtd-2d's arrays are non-square.
    STENCIL_SIZES = {"jacobi-2d": {"TSTEPS": 3, "N": 11},
                     "fdtd-2d": {"TMAX": 3, "NX": 7, "NY": 11},
                     "heat-3d": {"TSTEPS": 2, "N": 7}}

    @pytest.mark.parametrize("variant", ["a", "b"])
    @pytest.mark.parametrize("name", sorted(STENCIL_SIZES))
    def test_sweeps_below_the_time_loop_keep_the_results(self, name, variant):
        """The bands below a sequential time loop are permuted on their own
        (``jacobi-2d:b`` has two, written column-major), and the program
        computes what it computed as written."""
        program = workloads.benchmark(name).variant(variant)
        normalized = normalize_program(program)
        assert programs_equivalent(program, normalized,
                                   self.STENCIL_SIZES[name])

    def test_an_inner_band_keeps_a_dependence_its_own_loops_carry(self):
        """The stride-optimal order of the inner band (``i`` outside ``j``)
        would reverse the ``(<, >)`` dependence ``j`` carries; the time loop
        around the band does not make that legal."""
        b = ProgramBuilder("skewed", parameters=["T", "N", "M"])
        b.add_array("A", ("N", "M"))
        b.add_array("B", ("N", "M"))
        with b.loop("t", 0, "T"):
            with b.loop("j", 0, b.sym("M") - 1):
                with b.loop("i", 1, "N"):
                    b.assign(("A", "i", "j"),
                             b.read("A", "i", "j") + b.read("A", b.sym("i") - 1,
                                                             b.sym("j") + 1))
            with b.loop("i", 0, "N"):
                with b.loop("j", 0, "M"):
                    b.assign(("B", "i", "j"), b.read("A", "i", "j"))
        program = b.finish()
        normalized, report = normalize(program)
        sweep = normalized.body[0].body[0]
        assert len(sweep.perfectly_nested_band()) == 2
        counters = report.counters()
        assert (counters["nests_considered"], counters["nests_permuted"]) == (3, 0)
        assert programs_equivalent(program, normalized, {"T": 2, "N": 7, "M": 9})

    def test_minimization_never_increases_cost(self, gemm_program, gemm_params):
        from repro.analysis import program_stride_cost
        before = program_stride_cost(gemm_program, gemm_params)
        normalized = normalize_program(gemm_program)
        after = program_stride_cost(normalized, gemm_params)
        assert after <= before + 1e-9


class TestScalarExpansion:
    def _program_with_scalar(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        b.add_scalar("tmp", transient=True)
        with b.loop("i", 0, "N"):
            b.assign(("tmp",), b.read("x", "i") * 2)
            b.assign(("y", "i"), b.read("tmp") + 1)
        return b.finish()

    def test_expansion_creates_indexed_temporary(self):
        program = self._program_with_scalar()
        assert expand_scalars(program) == [("tmp", "i")]
        assert any(name.startswith("tmp__x") for name in program.arrays)

    def test_expansion_preserves_semantics(self):
        program = self._program_with_scalar()
        reference = self._program_with_scalar()
        expand_scalars(program)
        assert programs_equivalent(reference, program, {"N": 16})

    def test_non_transient_scalars_not_expanded(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("y", ("N",))
        b.add_scalar("alpha")
        with b.loop("i", 0, "N"):
            b.assign(("y", "i"), b.read("alpha") * 2)
        program = b.finish()
        assert expand_scalars(program) == []

    def test_contraction_inverts_expansion(self):
        program = self._program_with_scalar()
        reference = self._program_with_scalar()
        expand_scalars(program)
        contracted = contract_arrays(program)
        assert contracted == 1
        assert programs_equivalent(reference, program, {"N": 16})

    def test_contraction_keeps_an_array_a_library_call_reads(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        b.add_array("t", ("N",), transient=True)
        with b.loop("i", 0, "N"):
            b.assign(("t", "i"), b.read("x", "i") * 2)
        b.library_call("copy", ["y"], ["t"], flop_expr="N")
        program = b.finish()
        assert contract_arrays(program) == 0
        assert program.arrays["t"].rank == 1


class TestPipeline:
    def test_gemm_variants_reach_same_canonical_form(self):
        normalized_a, _ = normalize(build_gemm_a())
        normalized_b, _ = normalize(build_gemm_b())
        # Identical canonical form, up to the program name in the header line.
        body_a = to_pseudocode(normalized_a).split("\n", 1)[1]
        body_b = to_pseudocode(normalized_b).split("\n", 1)[1]
        assert body_a == body_b

    def test_pipeline_is_semantics_preserving(self):
        for builder in (build_gemm_a, build_gemm_b, build_stencil, build_vector_add):
            program = builder()
            normalized, report = normalize(program)
            params = PARAMS if "gemm" in program.name else {"T": 3, "N": 12}
            assert programs_equivalent(program, normalized, params)
            assert report.counters()["validation_errors"] == 0

    def test_disabling_passes(self):
        pipeline = Pipeline("no-fission-no-stride", [
            LoopNormalFormPass(), ScalarExpansionPass(), ValidatePass()])
        program = build_gemm_a()
        normalized, report = normalize(program, pipeline=pipeline)
        assert len(normalized.body) == len(program.body)
        assert not report.changed

    def test_report_summary_mentions_fission(self):
        _, report = normalize(build_gemm_a())
        assert "fission" in report.summary()

    def test_pipeline_idempotent(self):
        once, _ = normalize(build_gemm_b())
        twice, report = normalize(once)
        assert to_pseudocode(once) == to_pseudocode(twice)


@given(st.permutations(["i", "j", "k"]))
@settings(max_examples=6, deadline=None)
def test_all_gemm_loop_orders_normalize_equivalently(order):
    """Property: every GEMM loop order normalizes to a semantically equivalent
    program (the normalization pipeline never changes observable results)."""
    program = build_gemm(order=order)
    normalized, _ = normalize(program)
    assert programs_equivalent(program, normalized, {"NI": 6, "NJ": 7, "NK": 5})


# -- pinned normalization outputs ---------------------------------------------
#
# ``tests/data/normalization_golden.json`` holds one digest per corpus
# program: what every registered pipeline makes of it (content hash, full IR
# and summed pass counters), plus daisy's CLOUDSC/erosion optimization.  A
# rewrite of the IR walkers must reproduce it exactly.  Regenerate it only for
# an intended behaviour change: ``PYTHONPATH=src:tests python -c "import
# test_normalization; test_normalization.record_golden()"``.

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "normalization_golden.json")
GOLDEN_PIPELINES = ("a-priori", "a-priori-keep-names", "identity",
                    "no-fission", "no-scalar-expansion", "no-stride")
GOLDEN_PROGRAMS = tuple(
    [f"{name}:{variant}" for name in workloads.benchmark_names()
     for variant in ("a", "b", "npbench")]
    + ["cloudsc", "erosion"] + [f"fuzz:small-{seed}" for seed in range(80)])


def _program_data(program):
    """``program_to_dict`` with statements relabelled by first appearance:
    an unnamed statement's label counts every node the process built."""
    data = program_to_dict(program)
    labels = {}

    def relabel(nodes):
        for node in nodes:
            if node["kind"] == "computation":
                node["name"] = labels.setdefault(node["name"], f"S{len(labels)}")
            relabel(node.get("body", ()))

    relabel(data["body"])
    return data


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_digests():
    """``{case: digest}`` for every corpus program and both daisy runs."""
    digests = {}
    with contextlib.closing(Session()) as session:
        for name in GOLDEN_PROGRAMS:
            outputs = {}
            for pipeline in GOLDEN_PIPELINES:
                result = session.normalize(name, pipeline)
                outputs[pipeline] = [program_content_hash(result.program),
                                     _program_data(result.program),
                                     result.report.counters()]
            digests[name] = _digest(outputs)
    for name in ("cloudsc", "erosion"):
        with contextlib.closing(Session(pipeline=PIPELINE)) as session:
            program, info = daisy_optimize(session.load(name), session=session)
        digests[f"daisy_optimize/{name}"] = _digest(
            [_program_data(program), info])
    return digests


def record_golden():
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")


def test_normalization_outputs_match_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert golden_digests() == golden
