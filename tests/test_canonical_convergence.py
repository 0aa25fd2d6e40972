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
#: with their causes (ROADMAP item 1).
AB_APART = {
    "correlation": "cause (iii): `corr[i,j] = 0; for k: ...; corr[j,i] = "
                   "corr[i,j]` stays fused in :a while the other variant is "
                   "written fissioned, so fission is not maximal or not "
                   "confluent",
    "covariance": "cause (iii): the same fused initialise/accumulate/mirror "
                  "body as correlation",
    "jacobi-2d": "causes (i) and (ii): sibling sweeps reuse `i, j`, and the "
                 "per-nest rename map lets one overwrite the other; the "
                 "sweeps sit under a sequential time loop that stride "
                 "minimization and fission never enter",
    "fdtd-2d": "cause (ii): the sweeps under the time loop keep the order "
               "they were written in",
    "heat-3d": "cause (ii): the sweeps under the time loop keep the order "
               "they were written in",
}

#: ``:a`` vs ``:npbench`` (the Python variants of Figure 9) that normalize
#: apart.  Five NumPy versions carry array temporaries the C versions do not
#: (ROADMAP item 3, contracting single-use transients); in the other two the
#: NumPy version is written fissioned and ``:a`` stays fused, as against
#: ``:b``.
NPBENCH_APART = dict(
    {name: f"only the NumPy variant carries {arrays}; no pass contracts a "
           "single-use transient array back to a scalar (ROADMAP item 3)"
     for name, arrays in (("gemm", "`tmp`"), ("2mm", "`tmp2`"),
                          ("fem-mass", "`detJ`"),
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
    assert len(names - set(AB_APART)) == 13
    assert len(names - set(NPBENCH_APART)) == 11


@pytest.mark.parametrize("name", _pairs(AB_APART))
def test_a_and_b_share_a_canonical_form(session, name):
    assert _canonical_hash(session, f"{name}:a") == \
        _canonical_hash(session, f"{name}:b")


@pytest.mark.parametrize("name", _pairs(NPBENCH_APART))
def test_a_and_npbench_share_a_canonical_form(session, name):
    assert _canonical_hash(session, f"{name}:a") == \
        _canonical_hash(session, f"{name}:npbench")
