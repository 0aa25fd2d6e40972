"""Normalization and transfer at the cost of their analyses — the oracles.

What a cold normalization + database transfer stopped doing (serialising the
program to learn a changed-flag, walking a nest twice per criterion, building
a graph library's objects for five vertices, three NumPy calls per database
entry, two dicts and a set per subscript pair) must not change a single
answer.  The replaced code is kept here as the specification and compared
with ``==``, never approximately, over all 54 registry variants and 40 fuzz
programs.
"""

import ast
import collections
import contextlib
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from math import gcd

import networkx as nx
import pytest

from dependence_spec import (_access_dependences, _gather_accesses,
                             body_dependences, carried_dependences,
                             child_edges, classify_iterations,
                             dependences_between, legal_permutations,
                             nest_dependences, self_dependences)
from repro.analysis import dependence
from repro.analysis.affine import nest_statements
from repro.analysis.dependence import (EQ, DependenceTable,
                                       _directions_from_constraints,
                                       is_carried)
from repro.analysis.parallelism import container_facts, privatizable
from repro.analysis.strides import band_strides, program_stride_cost
from repro.api import Session
from repro.fuzz import generate_program
from repro.interp import programs_equivalent
from repro.ir import ProgramBuilder
from repro.ir.nodes import Loop, band_starts
from repro.normalization import (minimize_strides, normalize,
                                 stride_minimization)
from repro.normalization.fission import _dependence_edges, scc_groups
from repro.passes import (FissionSweepPass, FixedPoint, LoopNormalFormPass,
                          Pass, Pipeline, ScalarExpansionPass, get_pipeline,
                          program_fingerprint)
from repro.passes.base import program_ir_size
from repro.scheduler import (PerformanceEmbedding, TuningDatabase, embed_nest,
                             pairwise_distance)
from repro.transforms import (Interchange, Parallelize, Recipe, Tile,
                              TransformationError, Unroll, Vectorize)
from repro.workloads import registry as workloads

VARIANTS = ("a", "b", "npbench")
FUZZ_SEEDS = range(40)


def _programs():
    """``(label, program as written, parameters)`` of every registry variant
    and fuzz program — fresh IR on every call."""
    for name in workloads.benchmark_names():
        spec = workloads.benchmark(name)
        for variant in VARIANTS:
            yield f"{name}:{variant}", spec.variant(variant), spec.sizes("large")
    for seed in FUZZ_SEEDS:
        generated = generate_program(seed, "medium")
        yield f"fuzz:{seed}", generated.program, dict(generated.parameters)


def _fissioned(program):
    """``program`` as stride minimization receives it (fission reads no
    sizes)."""
    pipeline = Pipeline("fissioned", [
        LoopNormalFormPass(), ScalarExpansionPass(),
        FixedPoint([FissionSweepPass()])])
    return normalize(program, pipeline=pipeline)[0]


# -- passes report their changes ------------------------------------------------------


class _Witnessed(Pass):
    """The replaced protocol, kept as the specification: the changed-flag is
    whether the program's serialisation differs around ``apply``, and the IR
    sizes are walked before and after every application."""

    def __init__(self, inner, log):
        self.inner, self.name, self.log = inner, inner.name, log

    def apply(self, program):
        before = program_fingerprint(program)
        size_before = program_ir_size(program)
        outcome = self.inner.apply(program)
        self.log.append((self.name, program_fingerprint(program) != before,
                         size_before, program_ir_size(program)))
        return outcome


def _witnessed_pipeline(log):
    pipeline = get_pipeline("a-priori")
    for position, stage in enumerate(pipeline.stages):
        if isinstance(stage, FixedPoint):
            stage.passes = [_Witnessed(inner, log) for inner in stage.passes]
        else:
            pipeline.stages[position] = _Witnessed(stage, log)
    return pipeline


class TestPassesReportTheirChanges:
    def test_reported_change_is_fingerprint_change(self):
        applications = changed = 0
        for label, program, _parameters in _programs():
            log = []
            results = _witnessed_pipeline(log).run(program)
            reported = [(result.pass_name, result.changed,
                         result.ir_size_before, result.ir_size_after)
                        for result in results]
            assert reported == log, label
            applications += len(log)
            changed += sum(1 for entry in log if entry[1])
        # Both outcomes are exercised, by every rewriting pass.
        assert applications > 6 * 94 and 94 < changed < applications

    def test_canonical_nest_is_not_rewritten(self):
        program = normalize(workloads.benchmark("gemm").variant("a"))[0]
        nests = list(program.body)
        fragments = [id(loop) for loop in program.iter_loops()]
        from repro.normalization import canonicalize_iterator_names
        assert canonicalize_iterator_names(program) is False
        assert list(program.body) == nests
        assert [id(loop) for loop in program.iter_loops()] == fragments

    def test_instrumented_transformations_report_fingerprint_change(self):
        """``Transformation.apply`` derives its flag from the view it edited
        (or the in-place edit below the band), not from a program dump."""
        rng = random.Random(17)
        checked = unchanged = 0
        for seed in range(12):
            generated = generate_program(seed, "medium")
            program = normalize(generated.program)[0]
            for index, nest in enumerate(program.body):
                if not isinstance(nest, Loop):
                    continue
                iterators = [loop.iterator for loop in nest.iter_loops()]
                band = [loop.iterator for loop in nest.perfectly_nested_band()]
                candidates = [
                    Interchange(index, band),
                    Interchange(index, list(reversed(band))),
                    Tile(index, {band[0]: 8}),
                    Parallelize(index, rng.choice(iterators)),
                    Parallelize(index, rng.choice(iterators)),
                    Vectorize(index, rng.choice(iterators),
                              require_unit_stride=False),
                    Unroll(index, rng.choice(iterators), 4),
                    Unroll(index, iterators[-1], 4),
                ]
                for transformation in candidates:
                    before = program_fingerprint(program)
                    try:
                        changed = transformation.apply(program)
                    except TransformationError:
                        assert program_fingerprint(program) == before
                        continue
                    differs = program_fingerprint(program) != before
                    assert changed == differs, (seed, transformation)
                    checked += 1
                    unchanged += not differs
        assert checked > 60 and 0 < unchanged < checked


class TestWideNests:
    """A nest's loop *count* is not its depth: seventeen sibling recurrences
    under one time loop used to exhaust the sixteen canonical names."""

    @staticmethod
    def _wide():
        b = ProgramBuilder("wide", parameters=["T", "N"])
        b.add_array("A", ("N",))
        b.add_array("B", ("T",))
        with b.loop("t", 0, "T"):
            for _ in range(17):
                with b.loop("a", 1, "N"):
                    b.assign(("A", "a"),
                             b.read("A", b.sym("a") - 1) + b.read("B", "t"))
        return b.finish()

    def test_wide_nest_normalizes(self):
        with contextlib.closing(Session()) as session:
            normalized = session.normalize(self._wide())
            nest, = normalized.program.body
            assert len(list(nest.iter_loops())) == 18
            assert len(nest.perfectly_nested_band()) == 1
            assert all(loop.iterator.startswith("i")
                       for loop in nest.iter_loops())
            assert programs_equivalent(self._wide(), normalized.program,
                                       {"T": 3, "N": 6})
            again = session.normalize(normalized.program)
            assert again.canonical_hash == normalized.canonical_hash
            assert not again.report.changed


# -- fission without a graph library --------------------------------------------------


def _spec_partition(count, edges):
    """Fission's SCC partition as it was: networkx condensation, then the
    lexicographical topological sort keyed by each component's first member."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(count))
    graph.add_edges_from(edges)
    condensation = nx.condensation(graph)
    order = nx.lexicographical_topological_sort(
        condensation, key=lambda scc: min(condensation.nodes[scc]["members"]))
    return [sorted(condensation.nodes[scc]["members"]) for scc in order]


class TestLocalScc:
    def test_every_loop_body(self):
        bodies = split = 0
        for label, program, parameters in _programs():
            for form in (program, _fissioned(program.copy())):
                for loop in form.iter_loops():
                    edges = _dependence_edges(loop)
                    groups = scc_groups(len(loop.body), edges)
                    assert groups == _spec_partition(len(loop.body), edges), label
                    bodies += 1
                    split += len(groups) > 1
        assert bodies > 500 and split > 20

    def test_random_digraphs(self):
        rng = random.Random(2025)
        for _ in range(500):
            count = rng.randint(0, 8)
            pairs = [pair for pair in itertools.permutations(range(count), 2)
                     if rng.random() < rng.choice((0.1, 0.3, 0.6))]
            rng.shuffle(pairs)
            assert scc_groups(count, pairs) == _spec_partition(count, pairs), pairs


# -- fission and parallelism: one scan of a loop body -------------------------------


def _spec_body_dependence_pairs(loop: Loop):
    """Dependences among the direct children of ``loop``'s body.

    Children are identified by index; dependences from child ``i`` to child
    ``j >= i`` are reported (including ``i == j`` self dependences carried by
    the loop itself).
    """
    common = [loop.iterator]
    pairs = []
    for i, child_a in enumerate(loop.body):
        for j in range(i, len(loop.body)):
            child_b = loop.body[j]
            if i == j:
                for dep in self_dependences(child_a, common):
                    pairs.append((i, j, dep))
                continue
            for dep in dependences_between(child_a, child_b, common):
                pairs.append((i, j, dep))
            # Backward dependences (from the later to the earlier child) can
            # only be carried by the surrounding loop.
            for dep in dependences_between(child_b, child_a, common):
                if not dep.loop_independent:
                    pairs.append((j, i, dep))
    return pairs


def _spec_carried_dependences(iterator, children):
    """What a loop over ``iterator`` carries, read from the statements of
    its body alone: ``(source child, sink child, (array, kind, directions,
    distance))`` of every dependence between two different iterations.
    ``children`` holds, per direct child of the body, its
    :func:`~repro.analysis.affine.nest_statements`."""
    common = [iterator]
    gathered = [_gather_accesses(child, common) for child in children]
    carried = []
    for i in range(len(gathered)):
        for j in range(i, len(gathered)):
            # Forward, then (between two children) backward.
            for source, sink in ((i, j), (j, i))[:1 + (i != j)]:
                for found in _access_dependences(gathered[source],
                                                 gathered[sink], common):
                    if any(direction != EQ for direction in found[2]):
                        carried.append((source, sink, found))
    return carried


def _scan_programs():
    """Every registry variant, CLOUDSC, erosion and 80 small fuzz programs,
    each under the ``identity`` and the ``a-priori`` pipeline."""
    names = [f"{name}:{variant}" for name in workloads.benchmark_names()
             for variant in VARIANTS]
    names += ["cloudsc", "erosion"] + [f"fuzz:small-{seed}" for seed in range(80)]
    with contextlib.closing(Session()) as session:
        for pipeline in ("identity", "a-priori"):
            for name in names:
                yield f"{name} ({pipeline})", session.normalize(name, pipeline).program


class TestOneBodyScan:
    """What a loop carries and fission's edges are projections of one
    dependence table, which must answer exactly — the same tuples in the
    same order — what the one body scan it replaced answered
    (``dependence_spec``), and that scan what the two scans before it
    answered; fission's edges, tested for existence only, are the distinct
    pairs of two children the scan reports.  One table asked about every
    loop of a program answers as a fresh table per loop."""

    def test_every_loop_body(self):
        loops = split = carrying = 0
        for label, program in _scan_programs():
            facts = container_facts(program)
            shared = DependenceTable()
            for loop in program.iter_loops():
                children = [nest_statements(child) for child in loop.body]
                scan = body_dependences(loop.iterator, children)
                spec = _spec_body_dependence_pairs(loop)
                assert scan == [(source, sink, (dep.array, dep.kind,
                                                dep.directions, dep.distance))
                                for source, sink, dep in spec], label
                # Fission asks only whether a pair has a dependence.
                edges = dict.fromkeys((source, sink) for source, sink, _dep
                                      in spec if source != sink)
                assert child_edges(loop.iterator, children) == list(edges)
                assert _dependence_edges(loop) == list(edges), label
                assert shared.edges(loop.iterator, children) == list(edges)
                carried = _spec_carried_dependences(loop.iterator, children)
                assert [entry for entry in scan if is_carried(entry[2][2])] \
                    == carried, label
                expected = tuple(found[:3] for *_, found in carried)
                assert carried_dependences(loop.iterator, children) \
                    == expected, label
                assert DependenceTable().carried(loop.iterator, children) \
                    == expected, label
                assert shared.carried(loop.iterator, children) == expected
                private = privatizable(loop.body, facts)
                assert classify_iterations(loop.iterator, children,
                                           private).carried == expected
                # A band view asks with everything inside as one child.
                whole = [[entry for child in children for entry in child]]
                expected = tuple(
                    found[:3] for *_, found
                    in _spec_carried_dependences(loop.iterator, whole))
                assert carried_dependences(loop.iterator, whole) == expected
                assert shared.carried(loop.iterator, whole) == expected, label
                loops += 1
                split += bool(edges)
                carrying += bool(carried)
        assert loops == 1430 and 0 < split < loops and 0 < carrying < loops


# -- stride minimization: one walk, legality only for a winner -----------------------


def _spec_minimal_order(nest, arrays):
    """``find_minimal_permutation``'s exhaustive search as it was: the legal
    orders first (``legal_permutations``), then the replacement rule over
    them — cheaper by more than 1e-12, or tied within 1e-12 and
    lexicographically smaller."""
    band = nest.perfectly_nested_band()
    strides = band_strides(nest, arrays)
    best_order = tuple(loop.iterator for loop in band)
    best_cost = strides.cost(best_order)
    for order in legal_permutations(nest):
        cost = strides.cost(order)
        if cost < best_cost - 1e-12:
            best_cost, best_order = cost, order
        elif abs(cost - best_cost) <= 1e-12 and order < best_order:
            best_order = order
    return best_order, best_cost


def _stride_corpus():
    """``(name, pipeline)``: the registry variants under ``a-priori`` and
    ``no-fission``, then small and medium fuzz programs, CLOUDSC and
    erosion under ``a-priori``."""
    names = [f"{name}:{variant}" for name in workloads.benchmark_names()
             for variant in VARIANTS]
    for pipeline in ("a-priori", "no-fission"):
        for name in names:
            yield name, pipeline
    for name in ([f"fuzz:small-{seed}" for seed in range(40)]
                 + [f"fuzz:medium-{seed}" for seed in range(20)]
                 + ["cloudsc", "erosion"]):
        yield name, "a-priori"


class TestStrideMinimizationOnce:
    def test_report_costs_are_program_stride_costs(self):
        for label, program, _parameters in _programs():
            form = _fissioned(program)
            before = program_stride_cost(form)
            twin = form.copy()
            counters = minimize_strides(form)
            assert counters["cost_before"] == before, label
            assert counters["cost_after"] == program_stride_cost(form), label
            again = minimize_strides(twin)
            assert again == counters, label
            assert program_fingerprint(twin) == program_fingerprint(form)

    def test_every_band_matches_the_legal_orders_first_search(self, monkeypatch):
        """Pricing every order and asking legality only of a would-be winner
        picks what filtering the legal orders first picked, ``==``, for
        every band stride minimization meets."""
        search = stride_minimization.find_minimal_permutation
        bands, permuted = [], []

        def checked(nest, arrays):
            found = search(nest, arrays)
            depth = len(nest.perfectly_nested_band())
            assert found[:2] == _spec_minimal_order(nest, arrays), nest
            assert found[2] == math.factorial(depth)
            bands.append(depth)
            permuted.append(found[0] != tuple(
                loop.iterator for loop in nest.perfectly_nested_band()))
            return found

        monkeypatch.setattr(stride_minimization, "find_minimal_permutation",
                            checked)
        with contextlib.closing(Session()) as session:
            for name, pipeline in _stride_corpus():
                session.normalize(name, pipeline)
        assert max(bands) <= stride_minimization.EXHAUSTIVE_DEPTH_LIMIT
        # 615 bands by depth; 104 of them are permuted.
        assert collections.Counter(bands) == {1: 331, 2: 217, 3: 59, 4: 8}
        assert sum(permuted) == 104

    def test_legality_is_asked_only_of_a_winner(self, monkeypatch):
        """One walk per band, and at most one dependence question: none for
        a band already in its minimal order."""
        walks, questions = [], []
        walk = stride_minimization.band_strides
        vectors = DependenceTable.vectors
        monkeypatch.setattr(
            stride_minimization, "band_strides",
            lambda *args: walks.append(1) or walk(*args))
        monkeypatch.setattr(
            DependenceTable, "vectors",
            lambda table, found: questions.append(found) or vectors(
                table, found))
        normalized = normalize(workloads.benchmark("gemm").variant("a"))[0]
        del walks[:], questions[:]
        counters = minimize_strides(normalized)
        assert counters["nests_permuted"] == 0
        assert len(walks) == counters["nests_considered"] == 2
        assert questions == []

        asked, deeper = [], 0
        for name in workloads.benchmark_names():
            form = _fissioned(workloads.benchmark(name).variant("b"))
            for body, index in band_starts(form.body):
                del questions[:]
                stride_minimization.find_minimal_permutation(body[index],
                                                             form.arrays)
                assert len(questions) <= 1, name
                asked.append(len(questions))
                deeper += len(body[index].perfectly_nested_band()) > 1
        # Filtering the legal orders first asked of every band deeper than
        # one loop.
        assert (sum(asked), deeper, len(asked)) == (28, 51, 70)


# -- dependence tests read index facts --------------------------------------------------


def _spec_dimension_testable(index_a, index_b, private_a, private_b):
    if not index_a.affine or not index_b.affine:
        return False
    if any(name in private_a for name, coeff in index_a.coefficients if coeff != 0):
        return False
    if any(name in private_b for name, coeff in index_b.coefficients if coeff != 0):
        return False
    return True


def _spec_offsets_match(index_a, index_b):
    return dict(index_a.offset_coefficients) == dict(index_b.offset_coefficients)


def _spec_test_dimension(index_a, index_b, common_iterators):
    """``_test_dimension`` as it was: two dicts and a set built per call."""
    coeffs_a = dict(index_a.coefficients)
    coeffs_b = dict(index_b.coefficients)
    involved = {name for name in list(coeffs_a) + list(coeffs_b)
                if coeffs_a.get(name, 0) != 0 or coeffs_b.get(name, 0) != 0}
    involved &= set(common_iterators)

    if not involved:
        if _spec_offsets_match(index_a, index_b):
            return (index_a.constant == index_b.constant), {}
        return True, {}

    if len(involved) == 1:
        iterator = next(iter(involved))
        a = coeffs_a.get(iterator, 0.0)
        b = coeffs_b.get(iterator, 0.0)
        if not _spec_offsets_match(index_a, index_b):
            return True, {}
        delta = index_a.constant - index_b.constant
        if a == b and a != 0:
            distance = delta / a
            if abs(distance - round(distance)) > 1e-9:
                return False, {}
            return True, {iterator: int(round(distance))}
        if a != 0 and b != 0:
            g = (gcd(int(abs(a)), int(abs(b)))
                 if float(a).is_integer() and float(b).is_integer() else 1)
            if g != 0 and float(delta).is_integer() and int(delta) % g != 0:
                return False, {}
            return True, {}
        return True, {}

    all_coeffs = []
    integral = True
    for name in involved:
        for value in (coeffs_a.get(name, 0.0), -coeffs_b.get(name, 0.0)):
            if value == 0:
                continue
            if not float(value).is_integer():
                integral = False
            all_coeffs.append(int(abs(value)) if float(value).is_integer() else 0)
    delta = index_b.constant - index_a.constant
    if (integral and all_coeffs and float(delta).is_integer()
            and _spec_offsets_match(index_a, index_b)):
        g = 0
        for value in all_coeffs:
            g = gcd(g, value)
        if g != 0 and int(delta) % g != 0:
            return False, {}
    return True, {}


def _spec_test_access_pair(affine_a, private_a, affine_b, private_b,
                           common_iterators):
    if len(affine_a.indices) != len(affine_b.indices):
        return (tuple("*" for _ in common_iterators),
                tuple(None for _ in common_iterators))
    constraints = {}
    for index_a, index_b in zip(affine_a.indices, affine_b.indices):
        if not _spec_dimension_testable(index_a, index_b, private_a, private_b):
            continue
        may_depend, dim_constraints = _spec_test_dimension(
            index_a, index_b, common_iterators)
        if not may_depend:
            return None
        for iterator, distance in dim_constraints.items():
            if iterator in constraints and constraints[iterator] != distance:
                return None
            constraints[iterator] = distance
    return _directions_from_constraints(constraints, common_iterators)


class TestIndexFacts:
    def test_every_access_pair_the_analyses_visit(self, monkeypatch):
        tested = []
        current = dependence._test_access_pair

        def both(*args):
            result = current(*args)
            assert result == _spec_test_access_pair(*args), args
            tested.append(result is None)
            return result

        monkeypatch.setattr(dependence, "_test_access_pair", both)
        for label, program, parameters in _programs():
            for form in (program, _fissioned(program.copy())):
                for loop in form.iter_loops():
                    body_dependences(loop.iterator, [
                        nest_statements(child) for child in loop.body])
                for node in form.body:
                    if isinstance(node, Loop):
                        nest_dependences(node)
        assert len(tested) > 10000 and 0 < sum(tested) < len(tested)

    def test_facts_mirror_the_coefficient_tuples(self):
        from helpers import nest_accesses
        seen = 0
        for label, program, _parameters in itertools.islice(_programs(), 0, None, 5):
            for node in program.body:
                for _comp, _enclosing, accesses in nest_accesses(node):
                    for access in accesses:
                        for index in access.indices:
                            assert index.coefficient_of == dict(index.coefficients)
                            assert index.offsets == dict(index.offset_coefficients)
                            assert index.iterators == frozenset(index.iterator_names())
                            seen += 1
        assert seen > 200


# -- the database scores a query against one matrix ---------------------------------


def _spec_query(entries, vector, k):
    ranked = [(pairwise_distance(vector, entry.embedding), entry)
              for entry in entries]
    ranked.sort(key=lambda pair: pair[0])
    return ranked[:k]


def _spec_best_match(entries, vector, max_distance):
    best = None
    for entry in entries:
        distance = pairwise_distance(vector, entry.embedding)
        if max_distance is not None and distance > max_distance:
            continue
        if best is None or distance < best[0]:
            best = (distance, entry)
    return best[1] if best is not None else None


def _embeddings(variant):
    """The embedding of every normalized nest of every benchmark."""
    found = []
    for name in workloads.benchmark_names():
        spec = workloads.benchmark(name)
        program = normalize(spec.variant(variant))[0]
        for index, nest in enumerate(program.body):
            if isinstance(nest, Loop):
                found.append(embed_nest(nest, program.arrays, spec.sizes("large"),
                                        label=f"{name}:{variant}#{index}"))
    return found


@pytest.fixture(scope="module")
def seeded():
    """Entries as seeding leaves them, recipes cycling through a few
    identities; and queries: other variants' nests, the entries themselves
    (distance 0, ties) and scaled copies at every magnitude."""
    recipes = [Recipe(f"r{n}", [Unroll(0, None, 2 + n)]) for n in range(5)]
    entries = [(embedding, recipes[position % len(recipes)],
                1e-3 * (1 + position % 7))
               for position, embedding in enumerate(_embeddings("a"))]
    rng = random.Random(5)
    queries = _embeddings("b") + _embeddings("npbench")
    queries += [embedding for embedding, _recipe, _runtime in entries[::3]]
    queries += [PerformanceEmbedding("scaled", tuple(
        value * rng.choice((0.5, 1.0, 1.0 + 2 ** -40, 3.0)) for value in query.vector))
        for query in queries[::2]]
    return entries, queries


def _filled(entries):
    database = TuningDatabase()
    for embedding, recipe, runtime in entries:
        database.add(embedding, recipe, runtime=runtime)
    return database


class TestDatabaseMatrix:
    def test_scores_are_the_pairwise_spec(self, seeded):
        entries, queries = seeded
        database = _filled(entries)
        assert len(database) >= 25
        tied = 0
        for query in queries:
            for k in (1, 10, len(database) + 5):
                assert (database.query(query, k)
                        == _spec_query(database.entries, query.vector, k))
            for bound in (None, 0.0, 0.35, 2.0):
                assert (database.best_match(query, bound)
                        == _spec_best_match(database.entries, query.vector, bound))
            nearest = database.query(query, 2)
            tied += nearest[0][0] == nearest[1][0]
        # Equal nearest distances, so the insertion-order tie-break counts.
        assert tied > 0

    def test_matrix_follows_every_way_entries_arrive(self, seeded):
        entries, queries = seeded
        database = _filled(entries)
        copies = [TuningDatabase(list(database.entries)),
                  TuningDatabase.from_json(database.to_json())]
        for copy in copies:
            assert len(copy) == len(database)
            assert copy.version == database.version
            for query in queries[::4]:
                assert (copy.query(query, len(copy))
                        == _spec_query(copy.entries, query.vector, len(copy)))


def test_vectorised_norms_are_not_the_pairwise_distance(seeded):
    """Why the database takes ``sqrt(row . row)`` row by row: the one-call
    norms sum in another order and differ in the last place on real rows."""
    import numpy as np
    entries, queries = seeded
    matrix = np.array([embedding.vector for embedding, _r, _t in entries])
    differing = 0
    for query in queries:
        difference = matrix - np.asarray(query.vector)
        exact = [pairwise_distance(query.vector, row) for row in matrix]
        assert [math.sqrt(row.dot(row)) for row in difference] == exact
        differing += sum(1 for a, b in zip(exact, np.linalg.norm(difference, axis=1))
                         if a != float(b))
    assert differing > 0


# -- counted, not only timed ------------------------------------------------------------


class TestCounted:
    def test_a_transfer_pass_serialises_no_program_and_walks_each_nest_once(
            self, monkeypatch):
        import repro.passes
        import repro.passes.base
        fingerprints, walks, computed = [], [], []

        def counting(log, function):
            return lambda *args, **kwargs: log.append(1) or function(*args, **kwargs)

        for module in (repro.passes, repro.passes.base):
            monkeypatch.setattr(module, "program_fingerprint",
                                counting(fingerprints, program_fingerprint))
        monkeypatch.setattr(
            stride_minimization, "band_strides",
            counting(walks, stride_minimization.band_strides))
        monkeypatch.setattr(
            stride_minimization, "find_minimal_permutation",
            counting(computed, stride_minimization.find_minimal_permutation))
        names = ("gemm", "atax", "jacobi-2d")
        database = TuningDatabase()
        with contextlib.closing(Session(database=database)) as seeder:
            seeder.seed(names)
        with contextlib.closing(Session(database=database)) as session:
            for name in names:
                for variant in VARIANTS:
                    assert session.schedule(f"{name}:{variant}").program.body
        assert fingerprints == []
        assert len(walks) == len(computed) > 0

    def test_no_module_imports_networkx(self):
        """networkx is a test dependency only: the SCC spec above uses it."""
        root = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        importers = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(module.split(".")[0] == "networkx" for module in modules):
                    importers.append(path.name)
        assert len(list(root.rglob("*.py"))) > 100 and importers == []

    def test_serving_a_request_does_not_import_networkx(self):
        source = os.path.join(os.path.dirname(__file__), "..", "src")
        code = ("import sys, repro.api\n"
                "assert 'networkx' not in sys.modules, 'import repro.api'\n"
                "session = repro.api.Session()\n"
                "assert session.schedule('gemm:a').program.body\n"
                "session.close()\n"
                "assert 'networkx' not in sys.modules, 'schedule'\n")
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(source), environment.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", code], env=environment,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
