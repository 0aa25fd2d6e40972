"""Property-based tests of cross-cutting invariants.

These complement the per-module unit tests with randomized checks of the
invariants the whole system relies on:

* normalization preserves the number of computations and the observable
  results for arbitrary (generated) parallel loop programs;
* the stride-minimization objective never increases under normalization;
* serialization round-trips arbitrary generated programs;
* the cost model is deterministic and positive.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import programs_equivalent
from repro.ir import ProgramBuilder, program_from_json, program_to_json, to_pseudocode
from repro.normalization import normalize
from repro.analysis import program_stride_cost
from repro.perf import CostModel

#: Small pool of array names used by the generated programs.
_ARRAYS = ["A", "B", "C"]


@st.composite
def elementwise_programs(draw):
    """Random two-level parallel loop programs over 2-D arrays.

    Each statement writes one array at (i, j) or (j, i) reading from one or
    two arrays with small constant offsets — the class of programs maximal
    fission and stride minimization are designed to canonicalize.
    """
    builder = ProgramBuilder("generated", parameters=["N"])
    for name in _ARRAYS:
        builder.add_array(name, ("N", "N"))
    num_statements = draw(st.integers(1, 3))
    statement_specs = draw(st.lists(
        st.tuples(
            st.sampled_from(_ARRAYS),                 # destination
            st.sampled_from(_ARRAYS),                 # source
            st.booleans(),                            # transpose destination
            st.booleans(),                            # transpose source
            st.floats(0.5, 2.0),                      # scale factor
        ),
        min_size=num_statements, max_size=num_statements))
    # Avoid read/write overlap on the same array within one nest so the
    # generated program is trivially race-free (and fission is legal in any
    # grouping): destination must differ from source.
    with builder.loop("i", 1, builder.sym("N") - 1):
        with builder.loop("j", 1, builder.sym("N") - 1):
            for dst, src, transpose_dst, transpose_src, scale in statement_specs:
                if dst == src:
                    src = _ARRAYS[(_ARRAYS.index(src) + 1) % len(_ARRAYS)]
                dst_idx = ("j", "i") if transpose_dst else ("i", "j")
                src_idx = ("j", "i") if transpose_src else ("i", "j")
                builder.assign((dst, *dst_idx),
                               builder.read(src, *src_idx) * scale)
    return builder.finish()


@given(elementwise_programs())
@settings(max_examples=25, deadline=None)
def test_normalization_preserves_semantics_and_statement_count(program):
    normalized, report = normalize(program)
    assert report.counters()["validation_errors"] == 0
    assert (len(list(normalized.iter_computations()))
            == len(list(program.iter_computations())))
    assert programs_equivalent(program, normalized, {"N": 7})


@given(elementwise_programs())
@settings(max_examples=25, deadline=None)
def test_normalization_never_increases_stride_cost(program):
    params = {"N": 64}
    normalized, _ = normalize(program)
    assert (program_stride_cost(normalized, params)
            <= program_stride_cost(program, params) + 1e-9)


@given(elementwise_programs())
@settings(max_examples=25, deadline=None)
def test_normalization_is_idempotent(program):
    once, _ = normalize(program)
    twice, _ = normalize(once)
    assert to_pseudocode(once).split("\n", 1)[1] == to_pseudocode(twice).split("\n", 1)[1]


@given(elementwise_programs())
@settings(max_examples=25, deadline=None)
def test_program_serialization_round_trip(program):
    restored = program_from_json(program_to_json(program))
    assert to_pseudocode(restored) == to_pseudocode(program)


@given(elementwise_programs(), st.integers(1, 12))
@settings(max_examples=20, deadline=None)
def test_cost_model_is_deterministic_and_positive(program, threads):
    model = CostModel(threads=threads)
    first = model.estimate_seconds(program, {"N": 256})
    second = model.estimate_seconds(program, {"N": 256})
    assert first == second
    assert first > 0
