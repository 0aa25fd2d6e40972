"""Property tests for memoized content hashes and interned IR.

``program_content_hash`` joins canonical JSON fragments memoized on the IR
nodes; ``program_content_hash_reference`` is the original implementation,
kept as the executable specification.  These tests fuzz the one invariant
everything above the IR relies on: the memoized digest equals a
from-scratch recomputation — on freshly built programs, and again after
every registered normalization pipeline has mutated them in place (the
mutation seams must have invalidated exactly the right fragments).
"""

import hashlib
import json

import pytest

from repro.api.hashing import (_stable_value, canonical_program_dict,
                               program_content_hash)
from repro.fuzz import generate_program
from repro.ir.arrays import Array
from repro.ir.canonical import (canonical_program_json, expr_fragment,
                                node_fragment)
from repro.ir.nodes import (ArrayAccess, Computation, LibraryCall, Loop,
                            Program)
from repro.ir.serialization import expr_to_dict
from repro.ir.symbols import Add, Call, Const, Read, Sym
from repro.passes import get_pipeline, pipeline_names


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
            Computation(ArrayAccess(name, (syms[index],)), value)],
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
