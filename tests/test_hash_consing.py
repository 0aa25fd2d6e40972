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
from repro.ir.canonical import canonical_program_json
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
