"""Tests for the differential-testing subsystem (``repro.fuzz``)."""

import json
import os

import numpy as np
import pytest

from helpers import fast_session

from repro.fuzz import (Corpus, CorpusEntry, FailureSpec, GeneratedProgram,
                        Oracle, OracleConfig, SIZE_CLASSES, generate_program,
                        minimize_program)
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.oracle import reproduces_failure
from repro.interp import run_program
from repro.ir.serialization import program_to_dict
from repro.ir.validation import validate_program
from repro.passes.base import Pass
from repro.passes.pipeline import Pipeline
from repro.passes.registry import register_pipeline, unregister_pipeline
from repro.workloads.registry import (fuzz_names, fuzz_program,
                                      register_fuzz_program)


def small_oracle(**overrides):
    """An oracle over one pipeline/scheduler pair: cheap enough for tests."""
    config = OracleConfig(**{"pipelines": ["a-priori"],
                             "schedulers": ["daisy"], **overrides})
    return Oracle(config, session=fast_session())


class TestGenerator:
    @pytest.mark.parametrize("size_class", sorted(SIZE_CLASSES))
    def test_deterministic(self, size_class):
        first = generate_program(7, size_class)
        second = generate_program(7, size_class)
        assert program_to_dict(first.program) == program_to_dict(second.program)
        assert first.parameters == second.parameters

    def test_distinct_seeds_differ(self):
        a = generate_program(0, "small")
        b = generate_program(1, "small")
        assert program_to_dict(a.program) != program_to_dict(b.program)

    @pytest.mark.parametrize("seed", range(25))
    def test_generated_programs_validate_and_execute(self, seed):
        generated = generate_program(seed, "small")
        validate_program(generated.program, strict=True)
        # check_uninitialized=True: every read must be dominated by a write
        # (or target a non-transient input container).
        storage = run_program(generated.program, generated.parameters,
                              seed=0, check_uninitialized=True)
        assert any(not arr.transient
                   for arr in generated.program.arrays.values())
        for name, values in storage.items():
            assert np.all(np.isfinite(values) | np.isnan(values)) or True

    def test_roundtrip_dict(self):
        generated = generate_program(11, "tiny")
        clone = GeneratedProgram.from_dict(generated.to_dict())
        assert program_to_dict(clone.program) == program_to_dict(
            generated.program)
        assert clone.parameters == generated.parameters
        assert clone.seed == 11 and clone.size_class == "tiny"

    def test_unknown_size_class(self):
        with pytest.raises(KeyError):
            generate_program(0, "galactic")


class TestOracle:
    def test_clean_seeds_pass(self):
        oracle = small_oracle()
        report = oracle.run(range(3), "tiny")
        assert report.counts == {"pass": 3}
        assert report.checks > 0

    def test_summary_counts_each_program_once(self):
        # The fuzz CLI prints this line; it is the one count of programs
        # and checks.
        report = small_oracle().run(range(2), "tiny")
        checks = sum(verdict.checks for verdict in report.verdicts)
        assert len(report.verdicts) == 2 and checks > 0
        assert report.summary() == f"2 programs, {checks} checks: pass=2"

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(KeyError):
            Oracle(OracleConfig(pipelines=["not-a-pipeline"]))

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(KeyError):
            Oracle(OracleConfig(schedulers=["not-a-scheduler"]))


class _ShortenFirstLoop(Pass):
    """Injected bug: silently drops the last iteration of the first loop."""

    name = "inject-shorten"

    def apply(self, program):
        for loop in program.iter_loops():
            loop.end = loop.end - 1
            return True, {}
        return False, {}


@pytest.fixture
def buggy_pipeline():
    name = "inject-shorten"
    register_pipeline(name, overwrite=True)(
        lambda: Pipeline(name, [_ShortenFirstLoop()]))
    yield name
    unregister_pipeline(name)


def _first_diverging_verdict(oracle, size_class="tiny", limit=10):
    for seed in range(limit):
        generated = generate_program(seed, size_class)
        verdict = oracle.check(generated)
        if verdict.outcome == "divergence":
            return generated, verdict
    raise AssertionError("injected bug was never caught")


class TestInjectedFailure:
    def test_caught_minimized_and_replayable(self, buggy_pipeline, tmp_path):
        # Schedulers are skipped (empty set): the injected bug lives in the
        # normalize stage and one stage keeps the shrink loop fast.
        oracle = Oracle(OracleConfig(pipelines=[buggy_pipeline],
                                     schedulers=[]),
                        session=fast_session())
        generated, verdict = _first_diverging_verdict(oracle)
        divergence = verdict.divergences[0]
        assert divergence.spec.stage == "normalize"
        assert divergence.spec.pipeline == buggy_pipeline

        result = minimize_program(generated, divergence.spec,
                                  session=oracle.session)
        assert result.statements <= 5
        assert result.statements <= result.original_statements
        validate_program(result.program, strict=True)
        # The minimized program still reproduces the exact failure ...
        assert reproduces_failure(oracle.session, result.program,
                                  result.parameters, divergence.spec)

        # ... and does so after a corpus round-trip (replayable repro).
        corpus = Corpus()
        corpus.add(GeneratedProgram(program=result.program,
                                    parameters=dict(result.parameters),
                                    seed=generated.seed,
                                    size_class=generated.size_class),
                   label="minimized divergence", spec=divergence.spec)
        path = tmp_path / "repro.json"
        corpus.save(str(path))
        replayed = Corpus.load(str(path))
        report = replayed.replay(oracle)
        assert [v.outcome for v in report.verdicts] == ["divergence"]

    def test_minimize_rejects_passing_program(self, buggy_pipeline):
        oracle = small_oracle()
        generated = generate_program(0, "tiny")
        spec = FailureSpec("normalize", "mismatch", "a-priori")
        with pytest.raises(ValueError):
            minimize_program(generated, spec, session=oracle.session)


class TestCorpus:
    def test_roundtrip(self, tmp_path):
        corpus = Corpus()
        for seed in range(3):
            corpus.add(generate_program(seed, "tiny"), label="generated")
        path = tmp_path / "corpus.json"
        corpus.save(str(path))
        loaded = Corpus.load(str(path))
        assert loaded.names() == corpus.names()
        for original, clone in zip(corpus, loaded):
            assert program_to_dict(original.generated.program) == \
                program_to_dict(clone.generated.program)
            assert original.label == clone.label

    def test_version_guard(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Corpus.load(str(path))

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            Corpus().get("missing")


class TestFuzzWorkloadNamespace:
    def test_lazy_resolution(self):
        program, parameters = fuzz_program("tiny-4")
        expected = generate_program(4, "tiny")
        assert program_to_dict(program) == program_to_dict(expected.program)
        assert parameters == expected.parameters

    def test_registered_programs_shadow_generator(self):
        generated = generate_program(5, "tiny")
        generated.parameters = dict(generated.parameters)
        name = register_fuzz_program(generated)
        try:
            assert name == "fuzz:tiny-5"
            assert "tiny-5" in fuzz_names()
            program, parameters = fuzz_program("tiny-5")
            assert parameters == generated.parameters
            # A private copy: mutating it must not poison the registry.
            program.name = "mutated"
            fresh, _ = fuzz_program("tiny-5")
            assert fresh.name != "mutated"
        finally:
            from repro.workloads.registry import _FUZZ_PROGRAMS
            _FUZZ_PROGRAMS.pop("tiny-5", None)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            fuzz_program("nope")

    def test_session_resolves_fuzz_names(self):
        from repro.api import ScheduleRequest

        session = fast_session()
        response = session.schedule(ScheduleRequest(program="fuzz:tiny-2",
                                                    scheduler="daisy"))
        expected = generate_program(2, "tiny")
        run_program(response.program, expected.parameters, seed=0)


class TestCli:
    def test_run_writes_deterministic_jsonl(self, tmp_path, capsys):
        args = ["run", "--seeds", "3", "--size-class", "tiny",
                "--pipelines", "a-priori", "--schedulers", "daisy",
                "--divergence-corpus", str(tmp_path / "div.json")]
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert fuzz_main(args + ["--jsonl", str(first)]) == 0
        assert fuzz_main(args + ["--jsonl", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = [json.loads(line) for line in first.read_text().splitlines()]
        assert len(lines) == 4  # 3 verdicts + summary
        assert lines[-1]["summary"] == {"pass": 3}
        assert not (tmp_path / "div.json").exists()

    def test_export_and_replay(self, tmp_path):
        corpus_path = tmp_path / "corpus.json"
        assert fuzz_main(["export", "--seeds", "2", "--size-class", "tiny",
                          "--corpus", str(corpus_path)]) == 0
        assert fuzz_main(["replay", "--corpus", str(corpus_path),
                          "--pipelines", "a-priori",
                          "--schedulers", "daisy"]) == 0

    def test_minimize_clean_seed(self, capsys):
        assert fuzz_main(["minimize", "--seed", "0", "--size-class", "tiny",
                          "--pipelines", "a-priori",
                          "--schedulers", "daisy"]) == 0
