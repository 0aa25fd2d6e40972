"""Tests for the C-like frontend: lexer, parser, lowering, and end-to-end
equivalence with builder-constructed programs."""

import numpy as np
import pytest

from helpers import build_gemm
from repro.frontend import parse_clike_program
from repro.frontend.clike import (LexerError, LoweringError, ParseError,
                                  parse_source, tokenize)
from repro.interp import programs_equivalent, run_program
from repro.normalization import normalize
from repro.ir import to_pseudocode

GEMM_SOURCE = """
// C = beta*C + alpha*A*B
double C[NI][NJ];
double A[NI][NK];
double B[NK][NJ];
double alpha;
double beta;

for (i = 0; i < NI; i++) {
  for (j = 0; j < NJ; j++) {
    C[i][j] *= beta;
    for (k = 0; k < NK; k++) {
      C[i][j] += alpha * A[i][k] * B[k][j];
    }
  }
}
"""

STENCIL_SOURCE = """
double A[N];
double B[N];
for (t = 0; t < T; t++) {
  for (i = 1; i < N - 1; i++) {
    B[i] = 0.5 * (A[i - 1] + A[i + 1]);
  }
  for (i = 1; i < N - 1; i++) {
    A[i] = B[i];
  }
}
"""


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("for (i = 0; i < N; i++) { A[i] = 2.5; }")
        kinds = [token.kind for token in tokens]
        assert kinds[0] == "keyword" and kinds[-1] == "eof"
        assert any(token.kind == "number" and token.text == "2.5" for token in tokens)

    def test_comments_are_skipped(self):
        tokens = tokenize("// a comment\nx = 1; /* block */ y = 2;")
        assert all(token.kind != "COMMENT" for token in tokens)
        assert sum(1 for token in tokens if token.text == "=") == 2

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("x = @;")


class TestParser:
    def test_gemm_parses(self):
        program = parse_source(GEMM_SOURCE, "gemm")
        assert len(program.declarations) == 5
        assert len(program.statements) == 1

    def test_compound_assignment_ops(self):
        source = "double x[N];\nfor (i = 0; i < N; i++) { x[i] += 1; x[i] *= 2; }"
        parsed = parse_source(source)
        loop = parsed.statements[0]
        assert [stmt.op for stmt in loop.body] == ["+", "*"]

    def test_strided_loop(self):
        parsed = parse_source("double x[N];\nfor (i = 0; i < N; i += 4) { x[i] = 0; }")
        assert parsed.statements[0].step.value == 4

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError):
            parse_source("double x[N]\n")

    def test_wrong_condition_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_source("double x[N];\nfor (i = 0; j < N; i++) { x[i] = 0; }")


class TestLowering:
    def test_gemm_structure(self):
        program = parse_clike_program(GEMM_SOURCE, "gemm_from_c")
        assert set(program.arrays) == {"C", "A", "B", "alpha", "beta"}
        assert {"NI", "NJ", "NK"} <= set(program.parameters)
        text = to_pseudocode(program)
        assert "for (k = 0; k < NK; k++)" in text

    def test_gemm_equivalent_to_builder_version(self):
        parsed = parse_clike_program(GEMM_SOURCE, "gemm_from_c")
        built = build_gemm()
        assert programs_equivalent(parsed, built, {"NI": 8, "NJ": 9, "NK": 10})

    def test_division_and_intrinsics(self):
        source = """
        double x[N];
        double y[N];
        for (i = 0; i < N; i++) {
          y[i] = sqrt(x[i]) / 2.0 + fmax(x[i], 0.5);
        }
        """
        program = parse_clike_program(source)
        result = run_program(program, {"N": 4}, {"x": np.array([1.0, 4.0, 9.0, 16.0])})
        expected = np.sqrt([1.0, 4.0, 9.0, 16.0]) / 2.0 + np.maximum([1, 4, 9, 16], 0.5)
        assert np.allclose(result["y"], expected)

    def test_undeclared_target_rejected(self):
        with pytest.raises(LoweringError):
            parse_clike_program("for (i = 0; i < N; i++) { ghost[i] = 1; }")

    def test_unknown_function_rejected(self):
        with pytest.raises(LoweringError):
            parse_clike_program(
                "double x[N];\nfor (i = 0; i < N; i++) { x[i] = frob(1); }")

    def test_stencil_round_trip_semantics(self):
        program = parse_clike_program(STENCIL_SOURCE, "stencil_from_c")
        normalized, _ = normalize(program)
        assert programs_equivalent(program, normalized, {"T": 3, "N": 16})


class TestEndToEndPipeline:
    def test_parsed_gemm_normalizes_and_matches_blas(self):
        from repro.transforms import detect_blas3_nests
        program = parse_clike_program(GEMM_SOURCE, "gemm_from_c")
        normalized, report = normalize(program)
        assert report.counters()["loops_split"] >= 1
        assert any(match.routine == "gemm" for _, match in detect_blas3_nests(normalized))

    def test_parsed_program_schedulable_by_daisy(self):
        from repro.scheduler import DaisyConfig, DaisyScheduler
        from repro.scheduler.evolutionary import SearchConfig
        program = parse_clike_program(GEMM_SOURCE, "gemm_from_c")
        daisy = DaisyScheduler(config=DaisyConfig(
            threads=4, search=SearchConfig(population_size=4, epochs=1,
                                           generations_per_epoch=1)))
        result = daisy.tune(program, {"NI": 200, "NJ": 210, "NK": 220})
        assert any(info.status == "optimized" for info in result.nests)
