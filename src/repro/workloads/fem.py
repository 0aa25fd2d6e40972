"""FEM-assembly-style workloads: expression-heavy quadrature loop nests.

Finite-element local-assembly kernels: their innermost statements multiply
quadrature weights, inline Jacobian determinants, and basis-function tables,
so large subexpressions are invariant with respect to one or two of the
surrounding loops.  FEM code generators such as COFFEE hoist the
per-element geometry factors and the per-quadrature-point coefficient
polynomials out of the basis-function loops by hand.

Three kernels, each with the registry's usual three variants:

* ``fem-mass``      — mass matrix ``Ae[e,i,j] += w[q] * detJ(e) * phi[q,i]
  * phi[q,j]`` with the Jacobian determinant inlined (hoistable to the
  element loop),
* ``fem-stiffness`` — Helmholtz stiffness matrix with inline
  inverse-Jacobian gradient transforms (the per-test-function transformed
  gradients hoist out of the trial-function loop),
* ``fem-rhs``       — load vector with an inline coefficient polynomial
  evaluated at quadrature points (factorizable and hoistable).

The A variants are written the "natural" way with everything inline; the B
variants permute loops but accumulate in the same order per output element;
the NPBench-style variants materialize the geometry factors into transient
temporaries operator by operator — the hoisted form of the A variants.
"""

from __future__ import annotations

from .ir_helpers import Program, ProgramBuilder

#: Coefficients of the inline source polynomial in ``fem-rhs`` (dyadic, so
#: exactly representable).
_C0, _C1, _C2 = 0.5, 0.25, 0.125


def _mass_builder(name: str) -> ProgramBuilder:
    b = ProgramBuilder(name, parameters=["NE", "NB", "NQ"])
    b.add_array("Ae", ("NE", "NB", "NB"))
    b.add_array("phi", ("NQ", "NB"))
    b.add_array("w", ("NQ",))
    for entry in ("J00", "J01", "J10", "J11"):
        b.add_array(entry, ("NE",))
    return b


def _det_j(b: ProgramBuilder):
    """The inline Jacobian determinant ``J00*J11 - J01*J10`` of element e."""
    return (b.read("J00", "e") * b.read("J11", "e")
            - b.read("J01", "e") * b.read("J10", "e"))


def build_fem_mass_a() -> Program:
    """Mass matrix, natural loop order, determinant inlined per statement."""
    b = _mass_builder("fem_mass_a")
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            with b.loop("j", 0, "NB"):
                b.assign(("Ae", "e", "i", "j"), 0.0)
                with b.loop("q", 0, "NQ"):
                    b.accumulate(("Ae", "e", "i", "j"),
                                 b.read("w", "q") * _det_j(b)
                                 * b.read("phi", "q", "i")
                                 * b.read("phi", "q", "j"))
    return b.finish()


def build_fem_mass_b() -> Program:
    """Mass matrix, quadrature loop hoisted outward, init fissioned."""
    b = _mass_builder("fem_mass_b")
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            with b.loop("j", 0, "NB"):
                b.assign(("Ae", "e", "i", "j"), 0.0)
    with b.loop("e", 0, "NE"):
        with b.loop("q", 0, "NQ"):
            with b.loop("i", 0, "NB"):
                with b.loop("j", 0, "NB"):
                    b.accumulate(("Ae", "e", "i", "j"),
                                 b.read("w", "q") * _det_j(b)
                                 * b.read("phi", "q", "i")
                                 * b.read("phi", "q", "j"))
    return b.finish()


def build_fem_mass_npbench() -> Program:
    """Mass matrix with the determinant precomputed operator-style."""
    b = _mass_builder("fem_mass_npbench")
    b.add_array("detJ", ("NE",), transient=True)
    with b.loop("e", 0, "NE"):
        b.assign(("detJ", "e"), _det_j(b))
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            with b.loop("j", 0, "NB"):
                b.assign(("Ae", "e", "i", "j"), 0.0)
                with b.loop("q", 0, "NQ"):
                    b.accumulate(("Ae", "e", "i", "j"),
                                 b.read("w", "q") * b.read("detJ", "e")
                                 * b.read("phi", "q", "i")
                                 * b.read("phi", "q", "j"))
    return b.finish()


def _stiffness_builder(name: str) -> ProgramBuilder:
    b = ProgramBuilder(name, parameters=["NE", "NB", "NQ"])
    b.add_array("Ke", ("NE", "NB", "NB"))
    b.add_array("phi", ("NQ", "NB"))
    b.add_array("gx", ("NQ", "NB"))
    b.add_array("gy", ("NQ", "NB"))
    b.add_array("w", ("NQ",))
    b.add_array("detJ", ("NE",))
    for entry in ("Ji00", "Ji01", "Ji10", "Ji11"):
        b.add_array(entry, ("NE",))
    b.add_scalar("kappa")
    return b


def _grad_dot(b: ProgramBuilder, row: str, column: str):
    """One physical-gradient factor: row of Jinv applied to basis ``column``."""
    first, second = ("Ji00", "Ji10") if row == "x" else ("Ji01", "Ji11")
    return (b.read(first, "e") * b.read("gx", "q", column)
            + b.read(second, "e") * b.read("gy", "q", column))


def _stiffness_value(b: ProgramBuilder):
    return (b.read("w", "q") * b.read("detJ", "e")
            * (_grad_dot(b, "x", "i") * _grad_dot(b, "x", "j")
               + _grad_dot(b, "y", "i") * _grad_dot(b, "y", "j")
               + b.read("kappa") * b.read("phi", "q", "i")
               * b.read("phi", "q", "j")))


def build_fem_stiffness_a() -> Program:
    """Helmholtz stiffness, gradient transform inlined in the (i, j) body."""
    b = _stiffness_builder("fem_stiffness_a")
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            with b.loop("j", 0, "NB"):
                b.assign(("Ke", "e", "i", "j"), 0.0)
        with b.loop("q", 0, "NQ"):
            with b.loop("i", 0, "NB"):
                with b.loop("j", 0, "NB"):
                    b.accumulate(("Ke", "e", "i", "j"), _stiffness_value(b))
    return b.finish()


def build_fem_stiffness_b() -> Program:
    """Same sums with the quadrature loop innermost."""
    b = _stiffness_builder("fem_stiffness_b")
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            with b.loop("j", 0, "NB"):
                b.assign(("Ke", "e", "i", "j"), 0.0)
                with b.loop("q", 0, "NQ"):
                    b.accumulate(("Ke", "e", "i", "j"), _stiffness_value(b))
    return b.finish()


def build_fem_stiffness_npbench() -> Program:
    """Stiffness with physical gradients materialized per (e, q, i)."""
    b = _stiffness_builder("fem_stiffness_npbench")
    b.add_array("gpx", ("NE", "NQ", "NB"), transient=True)
    b.add_array("gpy", ("NE", "NQ", "NB"), transient=True)
    with b.loop("e", 0, "NE"):
        with b.loop("q", 0, "NQ"):
            with b.loop("i", 0, "NB"):
                b.assign(("gpx", "e", "q", "i"), _grad_dot(b, "x", "i"))
                b.assign(("gpy", "e", "q", "i"), _grad_dot(b, "y", "i"))
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            with b.loop("j", 0, "NB"):
                b.assign(("Ke", "e", "i", "j"), 0.0)
    with b.loop("e", 0, "NE"):
        with b.loop("q", 0, "NQ"):
            with b.loop("i", 0, "NB"):
                with b.loop("j", 0, "NB"):
                    b.accumulate(
                        ("Ke", "e", "i", "j"),
                        b.read("w", "q") * b.read("detJ", "e")
                        * (b.read("gpx", "e", "q", "i")
                           * b.read("gpx", "e", "q", "j")
                           + b.read("gpy", "e", "q", "i")
                           * b.read("gpy", "e", "q", "j")
                           + b.read("kappa") * b.read("phi", "q", "i")
                           * b.read("phi", "q", "j")))
    return b.finish()


def _rhs_builder(name: str) -> ProgramBuilder:
    b = ProgramBuilder(name, parameters=["NE", "NB", "NQ"])
    b.add_array("be", ("NE", "NB"))
    b.add_array("phi", ("NQ", "NB"))
    b.add_array("w", ("NQ",))
    b.add_array("xq", ("NE", "NQ"))
    for entry in ("J00", "J01", "J10", "J11"):
        b.add_array(entry, ("NE",))
    return b


def _source_poly(b: ProgramBuilder):
    """The inline source coefficient ``c0 + c1*x + c2*x*x`` at point (e, q)."""
    x = b.read("xq", "e", "q")
    return _C0 + _C1 * x + _C2 * x * x


def build_fem_rhs_a() -> Program:
    """Load vector: determinant and source polynomial inlined per statement."""
    b = _rhs_builder("fem_rhs_a")
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            b.assign(("be", "e", "i"), 0.0)
        with b.loop("q", 0, "NQ"):
            with b.loop("i", 0, "NB"):
                b.accumulate(("be", "e", "i"),
                             b.read("w", "q") * _det_j(b)
                             * b.read("phi", "q", "i") * _source_poly(b))
    return b.finish()


def build_fem_rhs_b() -> Program:
    """Same sums with the quadrature loop innermost."""
    b = _rhs_builder("fem_rhs_b")
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            b.assign(("be", "e", "i"), 0.0)
            with b.loop("q", 0, "NQ"):
                b.accumulate(("be", "e", "i"),
                             b.read("w", "q") * _det_j(b)
                             * b.read("phi", "q", "i") * _source_poly(b))
    return b.finish()


def build_fem_rhs_npbench() -> Program:
    """Load vector with determinant and source values precomputed."""
    b = _rhs_builder("fem_rhs_npbench")
    b.add_array("detJ", ("NE",), transient=True)
    b.add_array("fq", ("NE", "NQ"), transient=True)
    with b.loop("e", 0, "NE"):
        b.assign(("detJ", "e"), _det_j(b))
        with b.loop("q", 0, "NQ"):
            b.assign(("fq", "e", "q"), _source_poly(b))
    with b.loop("e", 0, "NE"):
        with b.loop("i", 0, "NB"):
            b.assign(("be", "e", "i"), 0.0)
        with b.loop("q", 0, "NQ"):
            with b.loop("i", 0, "NB"):
                b.accumulate(("be", "e", "i"),
                             b.read("w", "q") * b.read("detJ", "e")
                             * b.read("phi", "q", "i") * b.read("fq", "e", "q"))
    return b.finish()
