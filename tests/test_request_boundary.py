"""The request boundary: ``Session`` resolves, applies default sizes and
validates every request once, before anything is hashed or priced, so no
malformed request ever gets a price."""

import pytest
from helpers import GEMM_PARAMS as PARAMS
from helpers import MALFORMED, build_gemm, fast_session, malformed_gemm

import repro.api.session as session_module
from repro.api import Session
from repro.api.registry import SCHEDULERS
from repro.ir import Read, ValidationError, validate_program


@pytest.fixture(scope="module")
def session():
    return fast_session(size="small")


@pytest.mark.parametrize("scheduler", SCHEDULERS.names())
@pytest.mark.parametrize("kind", MALFORMED)
def test_every_scheduler_refuses_every_malformed_kind(session, kind,
                                                      scheduler):
    program, parameters = malformed_gemm(kind)
    calls = session.report().schedule_calls
    with pytest.raises(ValidationError) as refused:
        session.schedule(program, parameters, scheduler)
    assert refused.value.errors
    assert session.report().schedule_calls == calls


#: The full refusal of each malformed kind, in order; the last three keys
#: combine kinds, so the order across checks and across the kinds of
#: expression (extents, then bounds, then indices) is pinned too.
REFUSALS = {
    ("rank-mismatch",): [
        "computation S1: container 'C' has rank 2 but is accessed with 1 indices"],
    ("undeclared-container",): [
        "computation S1: access to undeclared container 'ghost'"],
    ("unbound-parameter",): ["no parameters given for ['NK'] of 'gemm_ijk'"],
    ("read-in-bound",): [
        "loop 'i' bound: A[0, 0] is a Read, not an index expression"],
    ("read-in-index",): [
        "computation S1 index of 'C': A[0, 0] is a Read, not an index expression"],
    ("read-in-shape",): [
        "container 'B' extent: A[0, 0] is a Read, not an index expression"],
    ("constant-zero-divisor",): ["loop 'i' bound: (8)//(0) divides by zero"],
    ("parameter-zero-divisor",): ["loop 'i' bound: (NI)//(M) divides by zero"],
    ("zero-step",): ["loop 'i': step 0 is not positive"],
    ("negative-step",): ["loop 'i': step -1 is not positive"],
    ("parameter-negative-step",): ["loop 'i': step S is -1, not positive"],
    ("unknown-intrinsic",): [
        "computation S1: foo(A[i, k]) calls the unknown intrinsic 'foo'"],
    ("zero-step", "read-in-index", "read-in-shape", "undeclared-container",
     "read-in-bound"): [
        "loop 'i': step 0 is not positive",
        "computation S1: access to undeclared container 'ghost'",
        "container 'B' extent: A[0, 0] is a Read, not an index expression",
        "loop 'i' bound: A[0, 0] is a Read, not an index expression",
        "computation S1 index of 'C': A[0, 0] is a Read, not an index expression"],
    ("unknown-intrinsic", "rank-mismatch", "zero-step"): [
        "loop 'i': step 0 is not positive",
        "computation S1: container 'C' has rank 2 but is accessed with 1 indices",
        "computation S1: foo(A[i, k]) calls the unknown intrinsic 'foo'"],
    ("parameter-negative-step", "parameter-zero-divisor", "unbound-parameter"): [
        "no parameters given for ['NK'] of 'gemm_ijk'",
        "loop 'i' bound: (NI)//(M) divides by zero",
        "loop 'i': step S is -1, not positive"],
}


def test_every_malformed_kind_has_its_refusal_pinned():
    assert {kinds[0] for kinds in REFUSALS if len(kinds) == 1} == set(MALFORMED)


@pytest.mark.parametrize("entry", ["evaluate", "execute", "cache_report"])
@pytest.mark.parametrize("kinds", REFUSALS, ids="+".join)
def test_every_entry_point_refuses_every_malformed_kind(session, kinds, entry):
    program, parameters = malformed_gemm(*kinds)
    with pytest.raises(ValidationError) as refused:
        getattr(session, entry)(program, parameters)
    assert refused.value.errors == REFUSALS[kinds]
    # The structure check refuses first and alone, or finds nothing.
    assert validate_program(malformed_gemm(*kinds)[0], strict=False) in (
        [], REFUSALS[kinds])


def test_the_error_lists_every_problem(session):
    program, parameters = malformed_gemm("rank-mismatch")
    program.body[0].body[0].body[0].target = Read("ghost", ())
    with pytest.raises(ValueError) as refused:
        session.schedule(program, parameters)
    errors = refused.value.errors
    assert len(errors) == 2
    assert "'ghost'" in errors[0] and "rank 2" in errors[1]
    assert str(refused.value) == "; ".join(errors)

    program, parameters = malformed_gemm("parameter-zero-divisor")
    del parameters["NK"]
    with pytest.raises(ValidationError) as refused:
        session.evaluate(program, parameters)
    unbound, zero = refused.value.errors
    assert unbound.startswith("no parameters given for ['NK']")
    assert zero == "loop 'i' bound: (NI)//(M) divides by zero"


def test_a_rank_mismatched_registry_gemm_gets_no_price():
    """Before the boundary, daisy, icc and polly priced it at 1.32 s."""
    session = fast_session()
    program = session.load("gemm:a").copy()
    for statement in program.iter_computations():
        statement.target = Read("C", statement.target.indices[:1])
    for scheduler in ("daisy", "icc", "polly"):
        with pytest.raises(ValidationError, match="rank 2"):
            session.schedule(program, {"NI": 1000, "NJ": 1100, "NK": 1200},
                             scheduler)


def test_a_gemm_without_nk_gets_no_price():
    """Before the boundary, icc priced it with ``NK`` taken as 256."""
    session = fast_session()
    with pytest.raises(ValidationError, match=r"\['NK'\]"):
        session.schedule(session.load("gemm:a"), {"NI": 1000, "NJ": 1100},
                         "icc")


def test_a_registry_name_without_sizes_is_refused():
    """CLOUDSC has no registry sizes: its symbols must come with the request."""
    with pytest.raises(ValidationError, match="no parameters given"):
        fast_session().evaluate("cloudsc")


def test_validate_program_runs_once_per_ir_request_and_per_master(
        monkeypatch):
    checked = []
    validate = session_module.validate_program
    monkeypatch.setattr(session_module, "validate_program",
                        lambda program: (checked.append(program.name),
                                         validate(program)))
    session = fast_session(size="small")
    for scheduler in ("daisy", "daisy", "icc"):
        session.schedule(build_gemm(), PARAMS, scheduler)
    assert checked == ["gemm_ijk"] * 3

    checked.clear()
    for scheduler in ("daisy", "daisy", "icc", "polly"):
        session.schedule("gemm:a", scheduler=scheduler)
    session.evaluate("gemm:a")
    session.normalize("gemm:a")
    session.schedule("gemm:b")
    assert checked == ["gemm_a", "gemm_b"]

    checked.clear()
    Session(size="small").evaluate("gemm:a")
    assert checked == ["gemm_a"]
