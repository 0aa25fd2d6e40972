"""Tests for the unified pass framework (repro.passes) and its integration:
pipelines, fixed points, the pipeline registry, the change flag
transformations return, pipeline-identity cache keys, and normalization
idempotence across every registered pipeline."""

import importlib
import itertools
import json
import os
import subprocess
import sys

import pytest
from helpers import SHIPPED_PIPELINES, build_gemm, build_vector_add

import repro
from repro.api import (MemoryCacheBackend, NormalizationCache,
                       NormalizationOptions, ScheduleRequest, Session,
                       SQLiteCacheBackend, TuningDatabase,
                       program_content_hash)
from repro.interp import programs_equivalent
from repro.ir import ProgramBuilder
from repro.normalization import normalize
from repro.passes import (DEFAULT_MAX_ITERATIONS, FixedPoint,
                          LoopNormalFormPass, Pass, PassResult, PassStats,
                          Pipeline,
                          PipelineRegistryError, ScalarExpansionPass,
                          ValidatePass, get_pipeline, pipeline_names,
                          program_ir_size, register_pipeline,
                          unregister_pipeline)
from repro.transforms import Interchange, Recipe, apply_recipe
from repro.workloads.polybench import build_gemm_a, build_gemm_b

PARAMS = {"NI": 8, "NJ": 9, "NK": 10}

#: Every registered pipeline's ``identity()``: the normalization cache keys
#: its entries with these strings, so changing one orphans every persisted
#: entry of that pipeline.
PIPELINE_IDENTITIES = {
    "a-priori": "a-priori[loop-normal-form,scalar-expansion,"
                "fp(maximal-fission),stride-minimization,"
                "canonicalize-iterators,validate]",
    "a-priori-keep-names": "a-priori-keep-names[loop-normal-form,"
                           "scalar-expansion,fp(maximal-fission),"
                           "stride-minimization,validate]",
    "identity": "identity[]",
    "no-fission": "no-fission[loop-normal-form,stride-minimization,"
                  "canonicalize-iterators,validate]",
    "no-scalar-expansion": "no-scalar-expansion[loop-normal-form,"
                           "fp(maximal-fission),stride-minimization,"
                           "canonicalize-iterators,validate]",
    "no-stride": "no-stride[loop-normal-form,scalar-expansion,"
                 "fp(maximal-fission),canonicalize-iterators,validate]",
}

#: The pipelines and passes of the expression-rewrite family, which
#: re-associated arithmetic and were deleted with it.
DELETED_PIPELINES = ["a-priori+rewrite", "rewrite", "rewrite-cse-only",
                     "rewrite-expand", "rewrite-licm-only"]
DELETED_PASSES = ["CommonSubexpressionEliminationPass",
                  "ConstantPreEvaluationPass", "ExpansionPass",
                  "FactorizationPass", "LoopInvariantCodeMotionPass"]


class _CountingPass(Pass):
    name = "counting"

    def __init__(self, changes=0):
        self.remaining = changes
        self.applications = 0

    def apply(self, program):
        self.applications += 1
        if self.remaining > 0:
            self.remaining -= 1
            return True, {"budget": self.remaining}
        return False, {}


class TestPassProtocol:
    def test_run_produces_instrumented_result(self):
        result = _CountingPass(changes=1).run(build_vector_add())
        assert isinstance(result, PassResult)
        assert result.pass_name == "counting"
        assert result.changed
        assert result.wall_time_s >= 0.0
        assert result.counters == {"budget": 0}

    def test_change_is_what_the_pass_reports(self):
        """One way to report change: ``apply`` returns ``(changed,
        counters)``.  Nothing is derived by serialising the program."""

        class Renamer(Pass):
            name = "renamer"

            def apply(self, program):
                changed = program.body[0].iterator != "renamed"
                program.body[0].iterator = "renamed"
                return changed, {}

        program = build_vector_add()
        assert Renamer().run(program).changed
        # Second application leaves the (already renamed) program unchanged.
        assert not Renamer().run(program).changed

    def test_ir_size_accounting(self):
        program = build_gemm_a()
        size = program_ir_size(program)
        assert size > 0
        result = _CountingPass().run(program)
        assert result.ir_size_before == result.ir_size_after == size
        assert result.ir_size_delta == 0

    def test_result_dict_round_trip(self):
        result = PassResult(pass_name="p", changed=True, wall_time_s=0.25,
                            counters={"k": 2}, ir_size_before=3,
                            ir_size_after=5)
        back = PassResult.from_dict(result.to_dict())
        assert back == result


class TestPipeline:
    def test_ordered_stages_and_results(self):
        pipeline = Pipeline("two", [_CountingPass(changes=1), _CountingPass()])
        results = pipeline.run(build_vector_add())
        assert [r.pass_name for r in results] == ["counting", "counting"]
        assert [r.changed for r in results] == [True, False]
        assert [r.counters for r in results] == [{"budget": 0}, {}]
        assert all(r.wall_time_s >= 0.0 for r in results)

    def test_fixed_point_iterates_until_stable(self):
        stage = _CountingPass(changes=2)
        group = FixedPoint([stage])
        results = group.run(build_vector_add())
        # Two changing iterations plus the stabilizing one.
        assert stage.applications == 3
        assert [r.changed for r in results] == [True, True, False]

    def test_fixed_point_respects_iteration_bound(self):
        group = FixedPoint([_CountingPass(changes=100)])
        results = group.run(build_vector_add())
        assert DEFAULT_MAX_ITERATIONS == 16
        assert [r.changed for r in results] == [True] * 16

    def test_identity_names_structure(self):
        pipeline = get_pipeline("a-priori")
        identity = pipeline.identity()
        assert identity.startswith("a-priori[")
        assert "fp(maximal-fission)" in identity
        assert "stride-minimization" in identity
        # Ablations have distinct identities.
        assert identity != get_pipeline("no-fission").identity()

    def test_pass_stats_aggregation(self):
        stats = PassStats()
        stats.add([PassResult("a", changed=True, wall_time_s=0.5),
                   PassResult("a", changed=False, wall_time_s=0.25),
                   PassResult("b", changed=False, wall_time_s=0.125)])
        data = stats.to_dict()
        assert data["a"]["runs"] == 2 and data["a"]["changed"] == 1
        assert data["a"]["wall_time_s"] == pytest.approx(0.75)
        assert data["b"]["runs"] == 1

    def test_pass_stats_sums_counters(self):
        stats = PassStats()
        stats.add([PassResult("maximal-fission", changed=True,
                              counters={"loops_split": 2, "atomic_nests": 3})])
        stats.add([PassResult("maximal-fission", changed=True,
                              counters={"loops_split": 1})])
        stats.add([PassResult("stride-minimization", changed=True,
                              counters={"nests_permuted": 1,
                                        "cost_before": 12.5})])
        data = stats.to_dict()
        assert data["maximal-fission"]["runs"] == 2
        assert data["maximal-fission"]["counters"] == {"loops_split": 3,
                                                       "atomic_nests": 3}
        assert data["stride-minimization"]["counters"] == {
            "nests_permuted": 1, "cost_before": 12.5}

    def test_to_dict_snapshot_is_isolated(self):
        stats = PassStats()
        stats.add([PassResult("maximal-fission", changed=True,
                              counters={"loops_split": 1})])
        snapshot = stats.to_dict()
        snapshot["maximal-fission"]["counters"]["loops_split"] = 99
        assert stats.to_dict()["maximal-fission"]["counters"] == \
            {"loops_split": 1}


class TestRegistry:
    def test_shipped_pipelines_registered(self):
        assert set(SHIPPED_PIPELINES) <= set(pipeline_names())
        for name in SHIPPED_PIPELINES:
            assert get_pipeline(name).name == name

    def test_registered_pipelines_are_the_shipped_six(self):
        """What the package registers, read in a fresh interpreter: a test
        or a docs snippet may have registered more in this one."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import json; from repro.passes import pipeline_names; "
                "print(json.dumps(pipeline_names()))")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True, timeout=120)
        assert json.loads(out.stdout) == SHIPPED_PIPELINES

    def test_unknown_name_raises(self):
        with pytest.raises(PipelineRegistryError):
            get_pipeline("definitely-not-registered")

    def test_registration_conflicts_and_custom_names(self):
        @register_pipeline("test-custom-pipeline")
        def factory():
            return Pipeline("test-custom-pipeline", [_CountingPass()])

        try:
            assert get_pipeline("test-custom-pipeline").name == \
                "test-custom-pipeline"
            with pytest.raises(PipelineRegistryError):
                register_pipeline("test-custom-pipeline")(factory)
            # Options resolve third-party names too.
            options = NormalizationOptions("test-custom-pipeline")
            assert options.to_pipeline().name == "test-custom-pipeline"
        finally:
            unregister_pipeline("test-custom-pipeline")

    def test_identity_pipeline_is_empty_noop(self):
        pipeline = get_pipeline("identity")
        assert len(pipeline) == 0
        program = build_gemm_a()
        before = program_content_hash(program)
        normalized, report = normalize(program,
                                       NormalizationOptions("identity"))
        assert program_content_hash(normalized) == before
        assert not report.changed and not report.passes

    def test_identities_are_pinned(self):
        """Cache-key material: each registered pipeline's identity string."""
        assert set(PIPELINE_IDENTITIES) <= set(pipeline_names())
        for name, identity in PIPELINE_IDENTITIES.items():
            assert get_pipeline(name).identity() == identity, name
            assert NormalizationOptions(name).to_pipeline().identity() == \
                identity, name


class TestUnknownPipelineFailsEarly:
    """An unknown name raises at construction, before any program is
    touched, on every path that accepts one."""

    def test_options(self):
        with pytest.raises(PipelineRegistryError):
            NormalizationOptions("typo")

    @pytest.mark.parametrize("name", DELETED_PIPELINES)
    def test_deleted_pipeline(self, name):
        """No alias keeps a deleted pipeline's name alive."""
        with pytest.raises(PipelineRegistryError):
            NormalizationOptions(name)
        with pytest.raises(PipelineRegistryError):
            Session().normalize(build_gemm_a(), pipeline=name)

    def test_session(self):
        with pytest.raises(PipelineRegistryError):
            Session(pipeline="typo")

    def test_session_normalize(self):
        session = Session()
        with pytest.raises(PipelineRegistryError):
            # An unloadable source: the name is checked before loading.
            session.normalize(object(), pipeline="typo")
        assert session.report().normalization_misses == 0


def _removed_spellings():
    program = build_gemm_a()
    return {
        "options-flag": lambda: NormalizationOptions(apply_fission=False),
        "options-named": lambda: NormalizationOptions.named("no-fission"),
        "session-normalization": lambda: Session(
            pipeline="a-priori", normalization=NormalizationOptions()),
        "normalize-options": lambda: Session().normalize(
            program, options=NormalizationOptions()),
        "recipe-instrument": lambda: apply_recipe(
            program, Recipe("r", []), instrument=True),
        # One memo, on the view: no analysis manager, and nothing that
        # keyed or carried one.
        **_no_analysis_manager(program),
        # One answer per expression question: ``Expr.evaluate`` takes only
        # ``env``; statement values and intrinsics are the interpreter's.
        **_no_statement_evaluation(),
        # Every pipeline is bit-exact: no rewrite family, no per-pipeline
        # flag, no comparison tolerance.
        **_no_rewrite_family(),
        # Every dependence question is a projection of one table.
        **_no_second_dependence_api(),
        # No entry ever leaves a tuning database.
        "database-checkpoint": lambda: TuningDatabase().checkpoint,
        "database-rewind": lambda: TuningDatabase().rewind,
    }


#: What the dependence table replaced, per module: each function gathered
#: its accesses and tested its pairs again.
DELETED_DEPENDENCE_API = {
    "repro.analysis.dependence": (
        "dependences_between", "carried_between", "self_dependences",
        "body_dependences", "child_edges", "nest_dependences",
        "statement_dependences", "direction_vectors",
        "nest_direction_vectors", "band_order_is_legal",
        "band_bounds_respect_order", "permutation_is_legal", "Dependence",
        "_pair_tests", "_access_dependences"),
    "repro.analysis.parallelism": ("carried_dependences",
                                   "classify_iterations"),
    "repro.analysis": ("Dependence", "body_dependences",
                       "dependences_between", "nest_dependences",
                       "permutation_is_legal", "self_dependences"),
}


def _no_second_dependence_api():
    """One row per deleted name: looking it up raises ``AttributeError``,
    importing it from the package ``ImportError``."""
    def lookup(module, name):
        return lambda: getattr(importlib.import_module(module), name)

    def import_name(module, name):
        return lambda: exec(f"from {module} import {name}", {})

    rows = {}
    for module, names in DELETED_DEPENDENCE_API.items():
        for name in names:
            where = module.rsplit(".", 1)[-1]
            rows[f"{where}-{name}"] = (import_name(module, name)
                                       if module == "repro.analysis"
                                       else lookup(module, name))
    return rows


def _no_rewrite_family():
    import repro.analysis
    import repro.api
    import repro.passes
    from repro.fuzz.generator import GeneratorConfig, generate_program
    from repro.fuzz.minimize import minimize_program
    from repro.fuzz.oracle import FailureSpec, OracleConfig, reproduces_failure

    def import_pass(name):
        return lambda: exec(f"from repro.passes import {name}", {})

    spec = FailureSpec("normalize", "mismatch", "a-priori")
    return {
        **{f"import-{name}": import_pass(name) for name in DELETED_PASSES},
        "rewrite-module": lambda: importlib.import_module(
            "repro.passes.rewrite"),
        "pipeline-bit-exact": lambda: repro.passes.pipeline_bit_exact,
        "api-pipeline-bit-exact": lambda: repro.api.pipeline_bit_exact,
        "register-pipeline-bit-exact": lambda: register_pipeline(
            "test-not-bit-exact", bit_exact=False),
        "oracle-tolerance": lambda: OracleConfig(tolerance=1e-6),
        "oracle-rewrite-tolerance": lambda: OracleConfig(
            rewrite_tolerance=1e-6),
        "minimize-tolerance": lambda: minimize_program(
            generate_program(0, "tiny"), spec, tolerance=1e-6),
        "reproduces-failure-tolerance": lambda: reproduces_failure(
            Session(), build_gemm_a(), PARAMS, spec, tolerance=1e-6),
        "generator-expression-profile": lambda: GeneratorConfig(
            "g", loops=(1, 1), max_depth=1, statements=(1, 1),
            arrays=(1, 1), max_rank=1, params=(1, 1), param_values=(3, 3),
            expr_depth=1, irregular=0.0, temporaries=0.0, reductions=0.0,
            expression_profile=True),
        "fixed-point-max-iterations": lambda: FixedPoint(
            [LoopNormalFormPass()], max_iterations=4),
        "expr-reads": lambda: repro.analysis.expr_reads,
    }


def _no_statement_evaluation():
    import numpy

    import repro.ir.symbols as symbols

    return {
        "evaluate-functions": lambda: symbols.Sym("i").evaluate(
            {"i": 1}, functions={}),
        "evaluate-arrays": lambda: symbols.read("A", 0).evaluate(
            {}, arrays={"A": numpy.zeros(1)}),
        "default-functions": lambda: symbols.DEFAULT_FUNCTIONS,
        "expr-is-constant": lambda: symbols.Const(1).is_constant(),
    }


def _no_analysis_manager(program):
    """What went with the analysis manager: each ``analysis`` keyword
    (TypeError) and each deleted name (ImportError, AttributeError)."""
    import repro.analysis.dependence as dependence
    import repro.api
    import repro.passes
    from repro.analysis import legal_permutations
    from repro.analysis.band import BandView
    from repro.api.types import SessionReport
    from repro.perf.model import CostModel, NodePrices
    from repro.scheduler.base import NestPricer
    from repro.scheduler.daisy import DaisyScheduler
    from repro.scheduler.embedding import embed_nest
    from repro.scheduler.evolutionary import EvolutionarySearch

    program, _ = normalize(program)
    nest = program.body[1]
    model = CostModel(threads=4)
    return {
        "pass-run-analysis": lambda: LoopNormalFormPass().run(
            program.copy(), analysis=None),
        "pass-apply-analysis": lambda: LoopNormalFormPass().apply(
            program.copy(), None),
        "fixed-point-run-analysis": lambda: FixedPoint(
            [LoopNormalFormPass()]).run(program.copy(), analysis=None),
        "pipeline-run-analysis": lambda: get_pipeline("a-priori").run(
            program.copy(), analysis=None),
        "normalize-analysis": lambda: normalize(program, None, analysis=None),
        "nest-pricer-analysis": lambda: NestPricer(
            model, program, 1, PARAMS, analysis=None),
        "search-analysis": lambda: EvolutionarySearch(model).search(
            program, 1, PARAMS, [], analysis=None),
        "apply-recipe-analysis": lambda: apply_recipe(
            program.copy(), Recipe("r", []), analysis=None),
        "transformation-apply-analysis": lambda: Interchange(
            1, ("i1", "i0", "i2")).apply(program.copy(), analysis=None),
        "band-schedule-view-analysis": lambda: Interchange(
            1, ("i1", "i0", "i2")).view(program, analysis=None),
        "band-view-analysis": lambda: BandView(nest, analysis=None),
        "estimate-node-analysis": lambda: model.estimate_node(
            nest, program, PARAMS, 1, set(), analysis=None),
        "node-prices-cost-analysis": lambda: NodePrices(model, PARAMS).cost(
            program, 1, frozenset(), analysis=None),
        "embed-nest-analysis": lambda: embed_nest(
            nest, program.arrays, PARAMS, analysis=None),
        "loop-parallelism-analysis": lambda: BandView(
            nest, program).parallelism(0, analysis=None),
        # Both functions went with the second dependence API (below).
        "nest-direction-vectors-analysis": lambda: (
            dependence.nest_direction_vectors(nest, analysis=None)),
        "permutation-is-legal-analysis": lambda: (
            dependence.permutation_is_legal(nest, ("i0", "i1", "i2"),
                                            analysis=None)),
        "legal-permutations-analysis": lambda: legal_permutations(
            nest, analysis=None),
        "session-report-analysis-hits": lambda: SessionReport(
            analysis_hits=0),
        "session-report-analysis-misses": lambda: SessionReport(
            analysis_misses=0),
        "analysis-module": lambda: importlib.import_module(
            "repro.passes.analysis"),
        "analysis-manager": lambda: repro.passes.AnalysisManager,
        "api-analysis-manager": lambda: repro.api.AnalysisManager,
        "node-fingerprint": lambda: repro.passes.node_fingerprint,
        "dependence-skeleton": lambda: dependence.dependence_skeleton,
        "chain-skeleton": lambda: dependence.chain_skeleton,
        "skeleton-text": lambda: dependence.skeleton_text,
        "loop-header": lambda: dependence._loop_header,
        "band-view-skeleton": lambda: BandView._skeleton,
        "band-view-shared": lambda: BandView._shared,
        "cache-analysis": lambda: NormalizationCache().analysis,
        "daisy-analysis": lambda: DaisyScheduler()._analysis,
    }


@pytest.mark.parametrize("spelling", sorted(_removed_spellings()))
def test_removed_spellings_raise(spelling):
    """A pipeline is a registered name: flag soup, a second options knob
    and an instrumented recipe path are no longer accepted; nor is an
    analysis manager, anywhere."""
    with pytest.raises((TypeError, AttributeError, ImportError)):
        _removed_spellings()[spelling]()


class TestOneCanonicalForm:
    def test_every_gemm_loop_order_shares_one_canonical_form(self):
        """Six loop orders share one canonical form."""
        forms = {program_content_hash(normalize(build_gemm(order=order))[0])
                 for order in itertools.permutations("ijk")}
        assert len(forms) == 1


class TestTransformationsReportChange:
    """A transformation is a recipe step, not a pass: ``apply`` returns
    whether it rewrote the program."""

    def test_transformation_apply_reports_change(self):
        program = build_gemm_a()
        normalized, _ = normalize(program)
        assert Interchange(1, ("i1", "i0", "i2")).apply(normalized) is True
        band = normalized.body[1].perfectly_nested_band()
        assert [loop.iterator for loop in band] == ["i1", "i0", "i2"]

    def test_noop_transformation_reports_unchanged(self):
        normalized, _ = normalize(build_gemm_a())
        band = normalized.body[1].perfectly_nested_band()
        current = tuple(loop.iterator for loop in band)
        assert Interchange(1, current).apply(normalized) is False


class TestChangedFlag:
    """Satellite: ``NormalizationReport.changed`` must see every pass."""

    def test_scalar_expansion_alone_reports_changed(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        b.add_array("y", ("N",))
        b.add_scalar("tmp", transient=True)
        with b.loop("i", 0, "N"):
            b.assign(("tmp",), b.read("x", "i") * 2)
            b.assign(("y", "i"), b.read("tmp") + 1)
        program = b.finish()
        # No fission/strides stages: scalar expansion is the only rewrite.
        _, report = normalize(program, pipeline=Pipeline("expand-only", [
            LoopNormalFormPass(), ScalarExpansionPass(), ValidatePass()]))
        assert report.counters()["scalars_expanded"] == 1
        assert report.counters()["loops_split"] == 0
        assert report.counters()["nests_permuted"] == 0
        assert report.changed

    def test_bound_normalization_alone_reports_changed(self):
        b = ProgramBuilder("p", parameters=["N"])
        b.add_array("x", ("N",))
        with b.loop("i", 2, "N", 3):
            b.assign(("x", "i"), 1.0)
        program = b.finish()
        _, report = normalize(program, pipeline=Pipeline("bounds-only", [
            LoopNormalFormPass(), ValidatePass()]))
        assert report.counters()["loops_split"] == 0
        assert report.counters()["nests_permuted"] == 0
        assert report.changed

    def test_fully_normal_program_reports_unchanged(self):
        normalized, _ = normalize(build_gemm_a())
        _, report = normalize(normalized)
        assert not report.changed


class TestPipelineCacheKeys:
    """Satellite: pipeline identity is part of normalization-cache keys, so
    each shipped pipeline keys its own entry."""

    def _distinct_entries(self, cache):
        program = build_gemm_a()
        entries = {}
        for pipeline in SHIPPED_PIPELINES:
            entries[pipeline] = cache.normalized(
                program, NormalizationOptions(pipeline))
            # Every first request is a miss: no pipeline is served from
            # another's entry.
            assert not entries[pipeline].hit, pipeline
        assert len({entry.input_hash for entry in entries.values()}) == \
            len(SHIPPED_PIPELINES)
        assert len(entries["a-priori"].program.body) > \
            len(entries["no-fission"].program.body)  # fissioned
        # Repeats hit their own entries.
        for pipeline in SHIPPED_PIPELINES:
            assert cache.normalized(
                program, NormalizationOptions(pipeline)).hit, pipeline
        assert cache.stats.normalization_misses == len(SHIPPED_PIPELINES)

    def test_memory_backend(self):
        self._distinct_entries(NormalizationCache(backend=MemoryCacheBackend()))

    def test_sqlite_backend(self, tmp_path):
        backend = SQLiteCacheBackend(str(tmp_path / "cache.sqlite"))
        cache = NormalizationCache(backend=backend)
        try:
            self._distinct_entries(cache)
        finally:
            cache.close()

    @pytest.mark.parametrize("stored", SHIPPED_PIPELINES)
    def test_sqlite_distinct_across_restart(self, tmp_path, stored):
        path = str(tmp_path / "cache.sqlite")
        program = build_gemm_a()
        cache = NormalizationCache(backend=SQLiteCacheBackend(path))
        cache.normalized(program, NormalizationOptions(stored))
        cache.close()
        # A fresh process-equivalent cache must hit the stored entry but
        # miss for every other pipeline.
        cache = NormalizationCache(backend=SQLiteCacheBackend(path))
        try:
            for pipeline in SHIPPED_PIPELINES:
                assert cache.normalized(
                    program, NormalizationOptions(pipeline)).hit == \
                    (pipeline == stored), pipeline
        finally:
            cache.close()


class TestSessionPipelines:
    def test_session_accepts_pipeline_name(self):
        session = Session(pipeline="no-fission")
        response = session.normalize(build_gemm_a())
        assert response.report.pipeline == "no-fission"
        assert response.report.counters()["loops_split"] == 0

    def test_request_pipeline_round_trip_and_selection(self):
        request = ScheduleRequest(program="gemm:a", pipeline="no-stride")
        back = ScheduleRequest.from_dict(request.to_dict())
        assert back.pipeline == "no-stride"

        session = Session()
        response = session.normalize(build_gemm_b(), pipeline="no-stride")
        assert response.report.pipeline == "no-stride"
        assert response.report.counters()["nests_considered"] == 0

    def test_report_exposes_pass_timings(self):
        session = Session()
        session.normalize(build_gemm_a())
        session.normalize(build_gemm_b())
        report = session.report()
        passes = report.normalization_passes
        assert "stride-minimization" in passes
        assert passes["stride-minimization"]["runs"] == 2
        assert passes["stride-minimization"]["wall_time_s"] > 0.0
        assert "maximal-fission" in passes
        data = report.to_dict()
        assert data["normalization_passes"] == passes

    def test_report_carries_pass_counters(self):
        """Each pass's counters are summed over the session's runs: gemm:a
        splits 2 loops and permutes 1 of its 2 nests, gemm:b (already
        split) permutes both of its nests."""
        session = Session()
        session.normalize(build_gemm_a())
        session.normalize(build_gemm_b())
        passes = session.report().normalization_passes
        assert passes["maximal-fission"]["counters"] == {"loops_split": 2,
                                                         "atomic_nests": 4}
        assert passes["stride-minimization"]["counters"][
            "nests_permuted"] == 3
        assert passes["validate"]["counters"]["validation_errors"] == 0


class TestIdempotence:
    """Satellite: normalization is a projection — normalizing twice is a no-op
    for every registered pipeline over a sample of registry workloads."""

    WORKLOADS = ["gemm:a", "gemm:b", "atax:a", "mvt:b", "jacobi-2d:a",
                 "syrk:b"]

    @pytest.mark.parametrize("pipeline", SHIPPED_PIPELINES)
    def test_normalize_twice_is_noop(self, pipeline):
        session = Session()
        options = NormalizationOptions(pipeline)
        for workload in self.WORKLOADS:
            program = session.load(workload)
            once, _ = normalize(program, options)
            twice, report = normalize(once, options)
            assert not report.changed, (pipeline, workload)
            assert program_content_hash(once) == program_content_hash(twice), \
                (pipeline, workload)

    def test_idempotent_runs_preserve_semantics(self):
        program = build_gemm(order=("k", "j", "i"))
        once, _ = normalize(program)
        twice, _ = normalize(once)
        assert programs_equivalent(program, twice, PARAMS)
