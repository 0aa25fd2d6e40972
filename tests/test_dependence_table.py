"""One dependence table: every dependence question is a lookup.

The :class:`~repro.analysis.dependence.DependenceTable` answers four
questions as projections of one test per pair of accesses.  Each must
answer exactly what the function it replaced answered — the same tuples in
the same order — so the replaced functions are kept in
``dependence_spec`` and compared with ``==``:

* what a loop carries and fission's child edges, on the 1,430 loops of
  ``test_normalization_cost._scan_programs`` (``TestOneBodyScan`` there);
* a band's direction vectors and the legality of every order of every band
  up to 4 deep, on every band of the registry variants and
  ``fuzz:small-0..79``, as written and normalized;
* whether two bodies carry a dependence either way, on every adjacent
  top-level pair :func:`~repro.transforms.fusion.fuse` asks about.

And a count: one fresh-session cold search pass over the 18 registry
``:a`` programs tests no pair twice within one table, 778 pair tests in
all (929 when each question tested its pairs again).
"""

import contextlib
import itertools
import sys
from collections import Counter

import pytest

import dependence_spec as spec
from repro.analysis import dependence
from repro.analysis.affine import nest_statements
from repro.analysis.band import BandView
from repro.analysis.dependence import DependenceTable, legal_permutations
from repro.api import SearchConfig, Session, TuningDatabase
from repro.ir import ProgramBuilder
from repro.ir.nodes import Loop, band_starts
from repro.ir.symbols import Sym
from repro.transforms.fusion import fuse
from repro.workloads import registry as workloads

from test_transforms import FUSION_CORPUS

VARIANTS = ("a", "b", "npbench")
#: Bands up to this deep have every order asked about.
PERMUTED_DEPTH = 4


def _band_programs():
    names = [f"{name}:{variant}" for name in workloads.benchmark_names()
             for variant in VARIANTS]
    names += [f"fuzz:small-{seed}" for seed in range(80)]
    with contextlib.closing(Session()) as session:
        for name in names:
            yield name, session.load(name)
            yield name, session.normalize(name, "a-priori").program


def test_band_vectors_and_legality_equal_the_spec():
    bands, orders = Counter(), 0
    for name, program in _band_programs():
        for body, index in band_starts(program.body):
            nest = body[index]
            band = nest.perfectly_nested_band()
            view = BandView(nest, program)
            vectors = spec.nest_direction_vectors(nest)
            assert view.vectors() == vectors, name
            bands[len(band)] += 1
            if len(band) > PERMUTED_DEPTH:
                continue
            for order in itertools.permutations(view.order()):
                assert view.order_is_legal(order) == spec.band_order_is_legal(
                    band, vectors, order), (name, order)
                orders += 1
            assert legal_permutations(nest) == spec.legal_permutations(nest)
    assert bands == {1: 515, 2: 310, 3: 70, 4: 8} and orders == 1747


@pytest.mark.parametrize("form, asks, carried", [
    ("as-written", 45, 9), ("a-priori-keep-names", 126, 15)])
def test_fusion_asks_what_carried_between_answered(form, asks, carried,
                                                   monkeypatch):
    """The pairs of ``test_transforms``' fusion corpus whose headers match
    and whose rename captures nothing: the table's answer for each."""
    asked = []
    carried_either_way = DependenceTable.carried_either_way

    def checked(table, first, second, common):
        answer = carried_either_way(table, first, second, common)
        assert answer == spec.carried_between(first, second, common)
        asked.append(answer)
        return answer

    monkeypatch.setattr(DependenceTable, "carried_either_way", checked)
    with contextlib.closing(Session()) as session:
        for name in FUSION_CORPUS:
            program = (session.load(name) if form == "as-written"
                       else session.normalize(name, form).program)
            for first, second in zip(program.body, program.body[1:]):
                if isinstance(first, Loop) and isinstance(second, Loop):
                    fuse(first, second)
    assert (len(asked), sum(asked)) == (asks, carried)


def test_a_table_answers_whatever_it_was_asked_before():
    """A band's vectors, a loop's carried dependences and fission's edges
    from one table asked in a shuffled order equal a fresh table's."""
    b = ProgramBuilder("p", parameters=["N"])
    b.add_array("A", ("N", "N"))
    b.add_array("x", ("N",))
    with b.loop("i", 1, "N"):
        with b.loop("j", 1, "N"):
            b.assign(("A", "i", "j"), b.read("A", Sym("i") - 1, "j") + 1.0)
        b.assign(("x", "i"), b.read("x", Sym("i") - 1) + b.read("A", "i", 0))
    nest = b.finish().body[0]
    children = [nest_statements(child) for child in nest.body]
    statements = nest_statements(nest)
    questions = [lambda table: table.vectors(statements),
                 lambda table: table.carried("i", children),
                 lambda table: table.edges("i", children)]
    fresh = [question(DependenceTable()) for question in questions]
    assert fresh == [spec.direction_vectors(statements),
                     spec.carried_dependences("i", children),
                     spec.child_edges("i", children)]
    for order in itertools.permutations(range(len(questions))):
        table = DependenceTable()
        assert [questions[index](table) for index in order] \
            == [fresh[index] for index in order]


def test_a_cold_pass_tests_each_pair_once_per_table(monkeypatch):
    """Every ``_test_access_pair`` call of a cold search pass — the
    ``cold_search`` benchmark's session and requests — comes from a table
    that had not tested that key before."""
    keys = Counter()
    tables = {}  # held, so their ids stay unique while counted
    test_pair = dependence._test_access_pair

    def counted(a, private_a, b, private_b, common):
        table = sys._getframe(1).f_locals["self"]
        tables[id(table)] = table
        keys[(id(table), a, private_a, b, private_b, common)] += 1
        return test_pair(a, private_a, b, private_b, common)

    monkeypatch.setattr(dependence, "_test_access_pair", counted)
    with contextlib.closing(Session(
            threads=4, database=TuningDatabase(), search=SearchConfig(
                population_size=8, epochs=1,
                generations_per_epoch=2))) as session:
        for name in workloads.benchmark_names():
            session.schedule(f"{name}:a")
    assert [key for key, count in keys.items() if count > 1] == []
    assert sum(keys.values()) == 778 <= 830
