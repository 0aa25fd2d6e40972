"""Property tests for memoized content hashes and interned IR.

``program_content_hash`` joins canonical JSON fragments memoized on the IR
nodes; ``program_content_hash_reference`` is the original implementation,
kept as the executable specification.  These tests fuzz the one invariant
everything above the IR relies on: the memoized digest equals a
from-scratch recomputation — on freshly built programs, and again after
every registered normalization pipeline has mutated them in place (the
mutation seams must have invalidated exactly the right fragments).

Expressions are hash-consed where they are built: one object per structure
however it was made (a builder, ``substitute``, a decode, pickle, deepcopy),
leaves that compare equal but print differently (``Const(True)`` and
``const(1)``) stay apart under a composite, and a full table still builds
correct, merely un-interned, expressions.
"""

import copy
import hashlib
import json
import pickle

import pytest

from repro.api.hashing import (_stable_value, canonical_program_dict,
                               program_content_hash)
from repro.fuzz import generate_program
from repro.ir.arrays import Array
from repro.ir.canonical import (canonical_program_json, expr_fragment,
                                node_fragment)
from repro.ir.nodes import Computation, LibraryCall, Loop, Program
from repro.ir import symbols
from repro.ir.serialization import expr_from_dict, expr_to_dict
from repro.ir.symbols import (Add, Call, Const, FloorDiv, Max, Min, Mod, Mul,
                              Read, Sym, const, sym)
from repro.passes import get_pipeline, pipeline_names
from repro.workloads import registry as workloads
from repro.workloads.polybench import build_gemm_a


def program_content_hash_reference(program, extra=None) -> str:
    """The reference implementation of ``program_content_hash``.

    Re-serializes the whole program per call (``program_to_dict`` +
    ``json.dumps``): the executable specification the memoized fast path
    is fuzz-tested against.
    """
    payload = {"program": canonical_program_dict(program)}
    if extra is not None:
        payload["extra"] = _stable_value(extra)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: 100 deterministic fuzz programs (the satellite bar for this property).
SEEDS = range(100)


def assert_digest_fresh(program, context: str) -> None:
    """The memoized views agree with a from-scratch recomputation."""
    assert canonical_program_json(program) == json.dumps(
        canonical_program_dict(program), sort_keys=True), context
    assert program_content_hash(program) == \
        program_content_hash_reference(program), context
    # ``extra`` exercises the second key-ordering branch of the fast path.
    assert program_content_hash(program, extra={"threads": 4}) == \
        program_content_hash_reference(program, extra={"threads": 4}), context


def test_fuzz_programs_hash_identically():
    """Freshly generated programs: memoized digest == reference digest."""
    for seed in SEEDS:
        program = generate_program(seed).program
        assert_digest_fresh(program, f"seed {seed}")
        # A second hash must come from the memo and still agree.
        assert program_content_hash(program) == \
            program_content_hash_reference(program), f"seed {seed} (repeat)"


@pytest.mark.parametrize("pipeline_name", pipeline_names())
def test_digests_stay_fresh_after_pipeline_mutation(pipeline_name):
    """Every registered pipeline mutates programs in place; the mutation
    seams must invalidate the memoized fragments so the cached digest never
    goes stale."""
    for seed in SEEDS:
        program = generate_program(seed).program
        before = program_content_hash(program)  # prime the memos
        pipeline = get_pipeline(pipeline_name)
        pipeline.run(program)
        context = f"pipeline {pipeline_name!r}, seed {seed}"
        assert_digest_fresh(program, context)
        after = program_content_hash(program)
        # Sanity on the direction of the test: when the pipeline changed
        # the program, the memoized digest must have moved with it.
        changed = canonical_program_dict(program) != \
            canonical_program_dict(generate_program(seed).program)
        assert (after != before) == changed, context


def test_interned_subtrees_share_digest_memos():
    """Two identical fuzz programs hash equal and stay independent."""
    for seed in (0, 7, 42):
        first = generate_program(seed).program
        second = generate_program(seed).program
        assert first is not second
        assert program_content_hash(first) == program_content_hash(second)
        pipeline = get_pipeline(pipeline_names()[0])
        pipeline.run(first)
        # Mutating one copy never leaks into the other's digest.
        assert program_content_hash(second) == \
            program_content_hash_reference(second), f"seed {seed}"


# -- a copy keeps its fragment ------------------------------------------------------


def _fresh_fragment(node, program):
    """``node_fragment(node)`` computed by the reference serializer."""
    data = canonical_program_dict(Program("", list(program.arrays.values()),
                                          [node]))
    return json.dumps(data["body"][0], sort_keys=True)


def _normalized(seed):
    program = generate_program(seed).program
    get_pipeline("a-priori").run(program)
    canonical_program_json(program)  # the canonical hash memoizes fragments
    return program


def test_a_copy_keeps_the_fragment_of_its_source():
    """A copied loop and a copied computation hold their source's memoized
    fragment, which is the one the reference serializer computes."""
    loops = computations = 0
    for seed in range(20):
        program = _normalized(seed)
        for nest in program.body:
            nodes = [nest, *nest.iter_loops(), *nest.iter_computations()]
            for node in nodes:
                copy = node.copy()
                assert copy._frag is node._frag
                assert node_fragment(copy) == _fresh_fragment(node, program)
                loops += isinstance(node, Loop)
                computations += isinstance(node, Computation)
    assert loops > 20 and computations > 20


def _ancestors(node):
    while node is not None:
        yield node
        node = node._parent() if getattr(node, "_parent", None) else None


@pytest.mark.parametrize("mutate", ["assign", "body"])
def test_mutating_a_copy_clears_its_fragments_not_the_sources(mutate):
    """A mutation of a copy clears the fragments of the mutated node and of
    every loop around it, and leaves the source's fragments alone."""
    for seed in range(20):
        program = _normalized(seed)
        before = canonical_program_json(program)
        copy = program.copy()
        deepest = max((loop for nest in copy.body
                       for loop in nest.iter_loops()),
                      key=lambda loop: len(list(_ancestors(loop))))
        if mutate == "assign":
            deepest.end = deepest.end + 1
        else:
            deepest.body.append(deepest.body[0].copy())
        assert not any(hasattr(node, "_frag") for node in _ancestors(deepest))
        assert all(hasattr(node, "_frag") for nest in program.body
                   for node in nest.iter_loops())
        assert canonical_program_json(program) == before
        assert_digest_fresh(program, f"source of seed {seed}")
        assert canonical_program_json(copy) != before
        assert_digest_fresh(copy, f"copy of seed {seed}")


#: Names a JSON encoder has to escape: quotes, backslashes, control
#: characters, non-ASCII (including a character outside the BMP).
AWKWARD_NAMES = ('q"uote', "back\\slash", "tab\tnew\nline\x01\x1f",
                 "café", "snow☃man", "astral\U0001d518")


def _awkward_program():
    """Every scalar kind a fragment formats: bools, ``None``, negative ints,
    ints past 2**53, floats, and awkward names in every name slot."""
    big = 2 ** 53 + 1
    values = [Const(-7), Const(big), Const(-(2 ** 70)), Const(0.1),
              Const(-2.5e-300), Const(True), Const(False), Const(None)]
    syms = [Sym(name) for name in AWKWARD_NAMES]
    arrays = [Array(name, (Sym(AWKWARD_NAMES[0]), big), dtype,
                    transient=transient)
              for name, dtype, transient in zip(
                  AWKWARD_NAMES, ("float64", "int32", "float32") * 2,
                  (True, False) * 3)]
    body = []
    for index, name in enumerate(AWKWARD_NAMES):
        value = Add((Read(name, (syms[index],)),
                     Call(AWKWARD_NAMES[-1 - index], (values[index],)),
                     values[(index + 3) % len(values)]))
        body.append(Loop(name, Const(-3), Const(big), Const(1), [
            Computation(Read(name, (syms[index],)), value)],
            parallel=index % 2 == 0, vectorized=index % 3 == 0,
            unroll=big if index == 1 else index + 1,
            tile_of=None if index % 2 else AWKWARD_NAMES[index - 1]))
    body.append(LibraryCall(
        AWKWARD_NAMES[3], AWKWARD_NAMES[:2], AWKWARD_NAMES[2:], Const(big),
        metadata={"trans": True, "beta": None, "alpha": 0.5, "k": -2,
                  "n": 2 ** 64, AWKWARD_NAMES[0]: AWKWARD_NAMES[1],
                  "shape": [1, "two", None]}))
    return Program("", arrays, body, parameters=list(AWKWARD_NAMES)), \
        values + syms


def test_fragments_format_scalars_as_json_dumps():
    """Fragments format bools, ``None``, ints and strings themselves: each
    expression, node and array fragment equals ``json.dumps`` of its
    reference dict."""
    program, exprs = _awkward_program()
    for expr in exprs:
        assert expr_fragment(expr) == json.dumps(expr_to_dict(expr),
                                                 sort_keys=True), expr
    reference = canonical_program_dict(program)
    for node, data in zip(program.body, reference["body"]):
        assert node_fragment(node) == json.dumps(data, sort_keys=True)
    assert canonical_program_json(program) == json.dumps(reference,
                                                         sort_keys=True)
    assert_digest_fresh(program, "awkward scalars")


# -- one expression per structure -------------------------------------------------


def _program_expressions(program):
    """Every expression of a program and every part of each, in a fixed
    order (so two builds of one program line up)."""
    roots = [extent for array in program.arrays.values()
             for extent in array.shape]
    stack = list(reversed(program.body))
    while stack:
        node = stack.pop()
        if isinstance(node, Loop):
            roots += (node.start, node.end, node.step)
            stack.extend(reversed(node.body))
        elif isinstance(node, Computation):
            roots += (node.target, node.value)
        else:
            roots.append(node.flop_expr)
    found = []
    while roots:
        expr = roots.pop()
        found.append(expr)
        roots.extend(expr.children())
    return found


def _corpus():
    """Every registry variant and 40 fuzz programs, each built twice, as
    written and normalized (loop normal form substitutes, iterator
    canonicalization renames)."""
    pairs = [(f"{spec.name}:{variant}", spec.variant(variant),
              spec.variant(variant))
             for spec in workloads.all_benchmarks()
             for variant in ("a", "b", "npbench")]
    pairs += [(seed, generate_program(seed).program,
               generate_program(seed).program) for seed in range(40)]
    for label, first, second in pairs:
        yield label, first, second
        for program in (first, second):
            get_pipeline("a-priori").run(program)
        yield f"{label} under a-priori", first, second


def test_one_object_per_structure():
    """Built twice, substituted, decoded, pickled or deep-copied: every
    expression of the corpus comes back as the very same object."""
    seen = 0
    for label, first, second in _corpus():
        firsts = _program_expressions(first)
        assert len(firsts) == len(_program_expressions(second))
        for expr, twin in zip(firsts, _program_expressions(second)):
            assert twin is expr, (label, str(expr))
            assert expr.substitute({"not-a-symbol": 1}) is expr
            assert expr_from_dict(expr_to_dict(expr)) is expr
            assert pickle.loads(pickle.dumps(expr)) is expr
            assert copy.deepcopy(expr) is copy.copy(expr) is expr
            seen += 1
    assert seen > 10000


def test_every_constructor_returns_the_one_instance():
    i, j, n = sym("i"), sym("j"), sym("N")
    shapes = [
        (i + 1, Add.make([sym("i"), const(1)]), Add([i, const(1)]),
         (j + 1).substitute({"j": "i"})),
        (n - 1, Add([n, const(-1)]), (n - 1).substitute({"M": 2})),
        (i * 4, Mul([const(4), i]), (j * 4).substitute({"j": i})),
        (i // 4, FloorDiv.make(i, 4), FloorDiv(i, const(4))),
        (i % n, Mod.make("i", "N"), Mod(i, n)),
        (symbols.minimum(i + 32, n), Min([i + 32, n]),
         Min.make([Min.make([i + 32]), n])),
        (symbols.maximum(i, 0), Max([i, const(0)])),
        (symbols.read("A", i, j + 1), Read("A", ("i", j + 1)),
         Read("A", (i, j)).substitute({"j": j + 1})),
        (symbols.call("sqrt", i), Call("sqrt", [i]), Call("sqrt", ["i"])),
    ]
    for built in shapes:
        assert all(other is built[0] for other in built[1:]), built
    # The payload is part of the structure.
    assert symbols.read("A", i) is not symbols.read("B", i)
    assert symbols.call("sqrt", i) is not symbols.call("exp", i)
    assert (i + n) is not Add([n, i])  # order is structure: no re-sorting


def test_a_reduction_writes_the_read_it_reads(monkeypatch):
    """A statement's write target is a ``Read``, hash-consed like the reads
    of its value: ``gemm:a``'s ``C[i,j] = C[i,j] + ...`` writes the very
    object it reads while the table has room.  Once the table is full the
    two are equal, not one, and the statement is still a reduction."""
    update = list(build_gemm_a().iter_computations())[1]
    (read_c,) = [read for read in update.reads() if read.array == "C"]
    assert update.target == read_c and update.is_reduction()
    assert len(symbols._COMPOSITES) < symbols._COMPOSITE_LIMIT
    assert update.target is read_c
    monkeypatch.setattr(symbols, "_COMPOSITE_LIMIT", len(symbols._COMPOSITES))
    i, j = sym("i"), sym("j")
    fresh = Computation(Read("fresh_C", (i, j)), Read("fresh_C", (i, j)) + 1)
    assert fresh.target == fresh.reads()[0]
    assert fresh.target is not fresh.reads()[0]
    assert fresh.is_reduction()


def test_a_true_constant_keeps_its_fragment_under_a_composite():
    """``Const(True) == const(1)``, but a composite over one is not the
    composite over the other: each keeps its own canonical fragment."""
    i = sym("i")
    one = Add([i, const(1)])
    flag = Add([i, Const(True)])
    assert flag == one and flag is not one
    assert expr_fragment(one) == json.dumps(expr_to_dict(one),
                                            sort_keys=True)
    assert expr_fragment(flag) == json.dumps(expr_to_dict(flag),
                                             sort_keys=True)
    assert expr_fragment(flag).endswith('{"kind": "const", "value": true}]}')
    for value, text in ((1, "1"), (True, "true"), (0, "0"), (False, "false")):
        data = {"kind": "read", "array": "A",
                "indices": [{"kind": "sym", "name": "i"},
                            {"kind": "const", "value": value}]}
        decoded = expr_from_dict(data)
        assert expr_to_dict(decoded) == data
        assert expr_fragment(decoded).endswith(
            '{"kind": "const", "value": %s}], "kind": "read"}' % text)


def test_a_full_table_still_builds_correct_expressions(monkeypatch):
    """Once the table is full nothing new is kept, interned structures still
    come back as themselves, and every fresh expression is correct: equal to
    and printed like the interned one, and programs built, hashed and
    normalized through un-interned expressions give the bytes they give
    with room in the table."""
    held = symbols.sym("held") + 1
    fresh = {"kind": "add", "terms": [{"kind": "sym", "name": "fresh"},
                                       {"kind": "const", "value": 3}]}
    size = len(symbols._COMPOSITES)
    monkeypatch.setattr(symbols, "_COMPOSITE_LIMIT", size)
    assert symbols.sym("held") + 1 is held
    first, second = expr_from_dict(fresh), sym("fresh") + 3
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert expr_fragment(first) == expr_fragment(second) == json.dumps(
        fresh, sort_keys=True)
    assert first.evaluate({"fresh": 4}) == 7
    assert pickle.loads(pickle.dumps(first)) == first
    normalized = {}
    for seed in range(1000, 1020):  # seeds no other test builds
        program = generate_program(seed).program
        assert_digest_fresh(program, f"full table, seed {seed}")
        get_pipeline("a-priori").run(program)
        assert_digest_fresh(program, f"full table, seed {seed}, a-priori")
        normalized[seed] = canonical_program_json(program)
    assert len(symbols._COMPOSITES) == size
    monkeypatch.undo()
    for seed, text in normalized.items():
        program = generate_program(seed).program
        get_pipeline("a-priori").run(program)
        assert canonical_program_json(program) == text, seed
