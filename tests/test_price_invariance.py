"""The cost model prices an iteration space, not its spelling (ROADMAP 13).

Loop normal form (``normalize_program_bounds``) rewrites only how each
loop's iteration space is spelled, and renaming iterators only their names,
so the model must give ``P``, its loop normal form and a renamed ``P`` one
price: over the 54 registry variants at ``large`` sizes and
``fuzz:small-0..79`` at their own parameters.  The share of programs for
which loop normal form keeps the price is ``lnf_invariant_share`` (48/54
and 70/80).  Each case left is a strict xfail naming the term that moves.
"""

import pytest

from repro.ir.nodes import rename_iterators
from repro.normalization.loop_normal_form import normalize_program_bounds
from repro.perf import CostModel
from repro.workloads import registry as workloads

_FOOTPRINT = ("ROADMAP 13(b): the footprint term reads the region of a "
              "shifted or strided subscript differently, so its {} move")
_TRIANGLE = _FOOTPRINT.format(
    "bytes (the triangular nest's, L3 -> DRAM)")
_TRIP = ("the model's trip count of a step-2 loop is the fraction "
         "(end - start) / step, its loop normal form's (span + 1) // 2 a "
         "whole number")
_VALUE = ("loop normal form writes an iterator used as a value as "
          "`step*i + start`, arithmetic the normalized statement does")

#: The cases loop normal form still moves, with the cause of each.
LNF_MOVES = {
    **{f"{name}:{variant}": _TRIANGLE
       for name in ("correlation", "covariance")
       for variant in ("a", "b", "npbench")},
    **{f"fuzz:small-{seed}": _FOOTPRINT.format("DRAM bytes")
       for seed in (3, 4, 35, 71)},
    **{f"fuzz:small-{seed}": _TRIP for seed in (36, 38, 40)},
    **{f"fuzz:small-{seed}": _VALUE for seed in (9, 43, 72)},
}

CORPUS = ([f"{name}:{variant}" for name in workloads.benchmark_names()
           for variant in ("a", "b", "npbench")]
          + [f"fuzz:small-{seed}" for seed in range(80)])

MODEL = CostModel(threads=1)


def _program(key):
    """``(program, parameters)`` of a corpus entry, a private copy."""
    if key.startswith("fuzz:"):
        return workloads.fuzz_program(key[len("fuzz:"):])
    name, variant = key.split(":")
    spec = workloads.benchmark(name)
    return spec.variant(variant).copy(), spec.sizes("large")


def _renamed(program):
    renamed = program.copy()
    for top in renamed.body:
        rename_iterators(top, {loop.iterator: f"renamed_{loop.iterator}"
                               for loop in top.iter_loops()})
    return renamed


def test_the_corpus_is_54_variants_and_80_fuzz_programs():
    assert len(CORPUS) == 54 + 80
    assert set(LNF_MOVES) <= set(CORPUS)
    assert sum(key.startswith("fuzz:") for key in LNF_MOVES) == 10


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.xfail(reason=LNF_MOVES[key],
                                              strict=True))
    if key in LNF_MOVES else key for key in CORPUS])
def test_loop_normal_form_keeps_the_price(key):
    program, parameters = _program(key)
    normalized = program.copy()
    normalize_program_bounds(normalized)
    assert (MODEL.estimate_seconds(normalized, parameters)
            == MODEL.estimate_seconds(program, parameters))


@pytest.mark.parametrize("key", CORPUS)
def test_renaming_iterators_keeps_the_price(key):
    program, parameters = _program(key)
    normalized = program.copy()
    normalize_program_bounds(normalized)
    for spelled in (program, normalized):
        assert (MODEL.estimate_seconds(_renamed(spelled), parameters)
                == MODEL.estimate_seconds(spelled, parameters))
