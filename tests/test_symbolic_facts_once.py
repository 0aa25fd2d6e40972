"""Each symbolic fact is derived once and kept on the immutable object it is
a fact of: an expression's free symbols (``Expr._free``), a subscript's
split into iterator and offset terms (``Expr._split``, keyed by which of
its own symbols are iterators) and an access's decomposition
(``Expr._decomposed`` on the ``Read``, a statement's write target
included).  Stride pricing reads the subscripts' affine forms and splits
nothing.

The oracles: every memoized answer equals a fresh derivation
(``tests/helpers.py``: a recursive walk, an unmemoized split, and the
``band_strides`` that decomposed every access) over the 54 registry
variants, as written and under ``a-priori``, and ``fuzz:small-0..39``; a
second pass over that corpus splits nothing; and the memos on interned
leaves and composites do not grow with traffic.
"""

import contextlib

import pytest
from dependence_spec import nest_direction_vectors
from helpers import (fast_session, spec_band_strides, spec_free_symbols,
                     spec_split)

from repro.analysis import affine
from repro.analysis.band import BandView
from repro.analysis.strides import band_strides
from repro.api import Session
from repro.experiments.figure1 import LOOP_ORDERS, build_gemm_order
from repro.ir import symbols
from repro.ir.canonical import expr_fragment
from repro.ir.nodes import Computation, LibraryCall, Loop, band_starts
from repro.scheduler.embedding import embed_program
from repro.workloads import registry as workloads

#: The corpus: every registry variant and ``fuzz:small-0..39``.
CORPUS = ([f"{name}:{variant}" for name in workloads.benchmark_names()
           for variant in ("a", "b", "npbench")]
          + [f"fuzz:small-{seed}" for seed in range(40)])


def _parameters(name):
    workload, _, key = name.partition(":")
    if workload == "fuzz":
        return workloads.fuzz_program(key)[1]
    return dict(workloads.benchmark(workload).sizes("small"))


def _expressions(program):
    """Every expression of a program and every part of each."""
    roots = [extent for array in program.arrays.values()
             for extent in array.shape]
    for node in program.body:
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, Loop):
                roots += (current.start, current.end, current.step)
                stack.extend(current.body)
            elif isinstance(current, Computation):
                roots += (current.target, current.value)
            elif isinstance(current, LibraryCall):
                roots.append(current.flop_expr)
    while roots:
        expr = roots.pop()
        yield expr
        roots.extend(expr.children())


@pytest.fixture(scope="module")
def corpus():
    """``(name, form, program, parameters)`` for both forms of the corpus."""
    with contextlib.closing(Session()) as session:
        return [(name, form, program, _parameters(name))
                for name in CORPUS
                for form, program in (
                    ("as-written", session.load(name).copy()),
                    ("a-priori", session.normalize(name, "a-priori").program))]


def test_free_symbols_equal_a_recursive_walk(corpus):
    seen = 0
    for _name, _form, program, _parameters in corpus:
        for expr in _expressions(program):
            assert expr.free_symbols() == spec_free_symbols(expr)
            seen += 1
    assert seen > 10000


def test_an_interned_symbol_answers_with_one_set():
    i = symbols.sym("i")
    assert i.free_symbols() is i.free_symbols() == {"i"}
    expr = i + symbols.sym("N")
    assert expr.free_symbols() is expr.free_symbols()


def test_every_split_the_analyses_ask_for_equals_a_fresh_split(monkeypatch):
    """Normalization under ``a-priori`` (fission at every loop level,
    scalar expansion, stride minimization's legality), then direction
    vectors, per-loop parallelism and the embedding of both forms: every
    split returned, memoized or not, equals one derived from scratch over
    the whole iterator context the analysis passed, and so does every
    access decomposition (the access memo sits on top of the splits).

    Expressions are hash-consed, so how many splits are *computed* depends
    on what the process built before; the corpus's questions do not.  A
    question is a subscript's structure (its canonical fragment) and which
    of its own symbols are iterators, the key its split is kept under."""
    asked, accesses, questions = [], [], set()
    decompose_index = affine.decompose_index
    decompose_access = affine.decompose_access

    def recording(expr, iterators):
        iterators = frozenset(iterators)
        split = decompose_index(expr, iterators)
        asked.append((expr, iterators, split))
        return split

    def recording_access(access, iterators, is_write):
        iterators = frozenset(iterators)
        found = decompose_access(access, iterators, is_write)
        assert (found.array, found.is_write) == (access.array, is_write)
        assert found.indices == tuple(spec_split(index, iterators)
                                      for index in access.indices)
        accesses.append(found)
        questions.update((expr_fragment(index), iterators & index.free_symbols())
                         for index in access.indices)
        return found

    monkeypatch.setattr(affine, "decompose_index", recording)
    monkeypatch.setattr(affine, "decompose_access", recording_access)
    _ask_the_corpus()
    assert len(questions) == 157 and len(accesses) > 10000
    for expr, iterators, split in asked:
        assert split == spec_split(expr, iterators)
    # Subscripts were asked about in more than one context and share one
    # split per key.
    contexts = {}
    for fragment, used in questions:
        contexts.setdefault(fragment, set()).add(used)
    assert any(len(found) > 1 for found in contexts.values())
    leaf = symbols.sym("i")
    assert 0 < len(leaf._split) <= 2


def _ask_the_corpus():
    """The split questions of the corpus: normalization under ``a-priori``,
    then direction vectors, per-loop parallelism and the embedding of both
    forms of every program, in a fresh session."""
    with contextlib.closing(Session()) as session:
        for name in CORPUS:
            parameters = _parameters(name)
            for program in (session.load(name).copy(),
                            session.normalize(name, "a-priori").program):
                for node in program.body:
                    if isinstance(node, Loop):
                        nest_direction_vectors(node)
                        BandView(node, program).vectors()
                        for loop in node.iter_loops():
                            BandView(loop, program).parallelism(0)
                embed_program(program, parameters)


def test_a_second_pass_over_the_corpus_splits_nothing(monkeypatch):
    """A statement's write target is the hash-consed ``Read`` its reads
    are, so every access of the corpus, written or read, keeps its
    decompositions: asking the same questions again in the same process
    calls ``decompose_index`` not once (1,851 times while each build of a
    statement made a fresh target access)."""
    _ask_the_corpus()
    calls = []
    decompose_index = affine.decompose_index

    def counting(expr, iterators):
        calls.append(expr)
        return decompose_index(expr, iterators)

    monkeypatch.setattr(affine, "decompose_index", counting)
    _ask_the_corpus()
    assert calls == []


def test_band_strides_equal_the_decomposing_reference(corpus):
    """Every band at every depth, at the nominal extents and at the
    program's sizes."""
    bands = 0
    for _name, _form, program, parameters in corpus:
        for body, index in band_starts(program.body):
            for sizes in (None, parameters):
                assert (band_strides(body[index], program.arrays, sizes)
                        == spec_band_strides(body[index], program.arrays,
                                             sizes))
            bands += 1
    assert bands > 500


# -- the memos do not grow with traffic -----------------------------------------------


def _memo_entries(expressions):
    """Memo entries held by ``expressions`` (a split or decomposition memo
    counts one per key)."""
    entries = 0
    for expr in expressions:
        for slot in symbols.Expr.__slots__:
            memo = getattr(expr, slot, None)
            if memo is not None:
                entries += (len(memo) if slot in ("_split", "_decomposed")
                            else 1)
    return entries


def _interned_memo_entries():
    """Memo entries held by interned leaves and by interned composites, and
    the sizes of the three tables."""
    leaves = (*symbols._SYM_INTERN.values(), *symbols._CONST_INTERN.values())
    return {"leaf memos": _memo_entries(leaves),
            "composite memos": _memo_entries(symbols._COMPOSITES.values()),
            "symbols": len(symbols._SYM_INTERN),
            "constants": len(symbols._CONST_INTERN),
            "composites": len(symbols._COMPOSITES)}


def _transfer_pass(database):
    """One pass of the transfer traffic: a fresh session per pass, every
    registry ``:a``/``:b``/``:npbench`` by name and the six GEMM loop
    orders as IR, against a seeded database."""
    session = fast_session(database=database)
    try:
        for name in workloads.benchmark_names():
            for variant in ("a", "b", "npbench"):
                session.schedule(f"{name}:{variant}")
        spec = workloads.benchmark("gemm")
        for order in LOOP_ORDERS:
            session.schedule(build_gemm_order(order), spec.sizes("small"))
    finally:
        session.close()


def test_interned_memos_do_not_grow_with_traffic():
    """Every expression of the traffic is one interned instance, so after
    the first pass the tables and every memo on their entries stay put."""
    with contextlib.closing(fast_session(size="small")) as seeder:
        seeder.seed(workloads.benchmark_names())
        database = seeder.database
    _transfer_pass(database)
    after_one = _interned_memo_entries()
    for _ in range(3):
        _transfer_pass(database)
    assert _interned_memo_entries() == after_one
    assert after_one["leaf memos"] > 0 and after_one["composite memos"] > 0
    assert 0 < after_one["composites"] < symbols._COMPOSITE_LIMIT
    # A split is keyed by the subscript's own symbols, not by the context:
    # a bare symbol holds at most two (iterator or not).
    assert all(len(getattr(leaf, "_split", ())) <= 2
               for leaf in symbols._SYM_INTERN.values())
