"""Which hand-written variants a-priori normalization lands on one form.

The paper's claim is that equivalent loop nests normalize to *one* canonical
form, so a recipe tuned for one transfers to the other.  These tests pin
today's sets exactly: every pair that converges must keep converging, and
every pair that does not is a strict ``xfail`` naming its cause, so a fix
turns it into an unexpected pass that has to be recorded on purpose.
"""

import pytest

from repro.api import Session
from repro.workloads.registry import benchmark_names

#: ``:a`` vs ``:b`` (the C variants of Figure 6) that normalize apart,
#: with their causes.
_PHANTOM_CYCLE = ("the dependence table reports a `*` cycle between "
                  "`corr[i0, i1+i0+1]` and `corr[i1+i0+1, i0]` that cannot "
                  "exist, because the test ignores the zero-based bounds "
                  "loop normal form guarantees (ROADMAP item 10), so the "
                  "body stays fused; not fission")
AB_APART = {
    "correlation": _PHANTOM_CYCLE,
    "covariance": _PHANTOM_CYCLE,
}

#: ``:a`` vs ``:npbench`` (the Python variants of Figure 9) that normalize
#: apart.  The NumPy versions of gemm and 2mm re-associate, those of the FEM
#: kernels materialise temporaries in nests of their own, and correlation and
#: covariance miss for the same reason as against ``:b``.
NPBENCH_APART = dict(
    {name: "the NumPy variant re-associates `alpha*(A.B) + beta*C` through "
           f"{tmp}; only a re-associating pipeline could converge it, and "
           "none is registered since ROADMAP item 26"
     for name, tmp in (("gemm", "`tmp`"), ("2mm", "`tmp2`"))},
    **{name: f"the NumPy variant computes {arrays} in a nest of its own; "
             "sibling order, transient names and hoisting have no normal "
             "form yet (ROADMAP item 3 (a)-(c)); not contraction of "
             "single-use transients"
       for name, arrays in (("fem-mass", "`detJ`"),
                            ("fem-stiffness", "`gpx`, `gpy`"),
                            ("fem-rhs", "`detJ`, `fq`"))},
    correlation=AB_APART["correlation"], covariance=AB_APART["covariance"])


def _pairs(apart):
    return [pytest.param(name, marks=pytest.mark.xfail(
                reason=apart[name], strict=True)) if name in apart else name
            for name in benchmark_names()]


@pytest.fixture(scope="module")
def session():
    session = Session()
    yield session
    session.close()


def _canonical_hash(session, name):
    return session.normalize(name).canonical_hash


def test_the_sets_cover_the_registry():
    names = set(benchmark_names())
    assert len(names) == 18
    assert set(AB_APART) <= names and set(NPBENCH_APART) <= names
    assert len(names - set(AB_APART)) == 16
    assert len(names - set(NPBENCH_APART)) == 11


@pytest.mark.parametrize("name", _pairs(AB_APART))
def test_a_and_b_share_a_canonical_form(session, name):
    assert _canonical_hash(session, f"{name}:a") == \
        _canonical_hash(session, f"{name}:b")


@pytest.mark.parametrize("name", _pairs(NPBENCH_APART))
def test_a_and_npbench_share_a_canonical_form(session, name):
    assert _canonical_hash(session, f"{name}:a") == \
        _canonical_hash(session, f"{name}:npbench")
