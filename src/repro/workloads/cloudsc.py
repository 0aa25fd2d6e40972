"""CLOUDSC proxy: a synthetic cloud-microphysics scheme (Section 5).

The real CLOUDSC is ECMWF's cloud and precipitation parametrization inside
the Integrated Forecasting System; it is proprietary-adjacent Fortran that we
cannot ship.  This module builds a structurally faithful proxy:

* the simulated volume is split into ``NBLOCKS`` independent blocks of
  ``NPROMA`` columns (``num_columns = NBLOCKS * NPROMA``),
* the vertical loop over ``KLEV`` levels is sequential (each level depends on
  the previous one),
* each vertical step runs several physics updates, each an ``NPROMA``-wide
  ``JL`` loop with inlined saturation/latent-heat formulas (the FOEEWM /
  FOELDCPM functions of Figure 10a) and per-iteration intermediate scalars.

The proxy preserves exactly the properties the case study exercises: the
fused JL loops with live-range-limited scalars (so that scalar expansion +
maximal fission + producer/consumer fusion reproduce the Figure 10b shape),
the NPROMA/NBLOCKS blocking trade-off, and a fully parallel block loop for
the scaling experiments (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.builder import ProgramBuilder
from ..ir.nodes import Program

#: Physical constants used by the inlined thermodynamic functions (values are
#: representative, not meteorologically exact).
RTT = 273.16        # triple point of water [K]
R2ES = 611.21       # saturation pressure scale [Pa]
R3LES = 17.502      # saturation exponent (liquid)
R4LES = 32.19       # saturation offset (liquid)
RLVTT = 2.5008e6    # latent heat of vaporization [J/kg]
RCPD = 1004.7       # specific heat of dry air [J/(kg K)]
RAMIN = 1e-8        # minimum cloud fraction
RLMIN = 1e-8        # minimum cloud liquid

#: Damped latent-heat factor used by the proxy's temperature updates.  The
#: physical value (RLVTT / RCPD ~ 2490 K) makes the *proxy* numerically
#: unstable because its inputs are generic random fields rather than a real
#: atmospheric state; the damping keeps all intermediate values bounded while
#: preserving the loop/data-access structure the case study exercises.
LATENT_FACTOR = RLVTT / RCPD * 1.0e-3


def _erosion_body(b: ProgramBuilder, level_expr, jl: str,
                  block_expr=None, suffix: str = "") -> None:
    """One column update of the cloud-erosion physics (Figure 10a).

    Writes the temperature ``ZTP1`` and the saturation mixing ratio
    ``ZQSMIX`` using several intermediate scalars whose live range is a
    single ``JL`` iteration.
    """
    def field(name, *idx):
        if block_expr is not None:
            return b.read(name, block_expr, level_expr, *idx)
        return b.read(name, level_expr, *idx)

    def target(name, *idx):
        if block_expr is not None:
            return (name, block_expr, level_expr, *idx)
        return (name, level_expr, *idx)

    t = field("ZTP1", jl)
    # FOEEWM(T): saturation vapour pressure (simplified Magnus form with the
    # exponent clamped so that the proxy stays numerically bounded).
    b.assign((f"ZFOEEWM{suffix}",),
             R2ES * b.call("exp", R3LES * b.call(
                 "fmin", 1.0, b.call("fmax", -1.0,
                                     b.call("div", t - RTT, t - R4LES)))))
    # Saturation specific humidity from the pressure.
    b.assign((f"ZQSAT{suffix}",),
             b.call("div", b.read(f"ZFOEEWM{suffix}"), field("PAP", jl)))
    # Sub-saturation of the environmental air.
    b.assign((f"ZQE{suffix}",),
             b.call("fmax", 0.0, b.call("fmin", field("ZQX", jl),
                                        b.read(f"ZQSAT{suffix}"))))
    # Erosion of cloud by turbulent mixing.
    b.assign((f"ZLNEG{suffix}",),
             b.call("fmax", 0.0, b.read(f"ZQSAT{suffix}") - b.read(f"ZQE{suffix}")))
    b.assign((f"ZCOND{suffix}",),
             b.call("fmin", field("ZLIQ", jl),
                    field("ZA", jl) * b.read(f"ZLNEG{suffix}")))
    # FOELDCPM(T): latent heat over heat capacity (damped, see LATENT_FACTOR).
    b.assign((f"ZLDCP{suffix}",), LATENT_FACTOR + 0.0 * t)
    # State updates (the two writes of the original loop nest).
    b.assign(target("ZTP1", jl),
             field("ZTP1", jl) - b.read(f"ZLDCP{suffix}") * b.read(f"ZCOND{suffix}"))
    b.assign(target("ZQSMIX", jl),
             field("ZQSMIX", jl) + b.read(f"ZCOND{suffix}"))


def _declare_erosion_scalars(b: ProgramBuilder, suffix: str = "") -> None:
    for name in ("ZFOEEWM", "ZQSAT", "ZQE", "ZLNEG", "ZCOND", "ZLDCP"):
        b.add_scalar(f"{name}{suffix}", transient=True)


def build_erosion_kernel() -> Program:
    """The single cloud-erosion loop nest of Table 1 (one vertical level).

    The kernel updates one vertical level for all ``NPROMA`` columns — this
    is the loop nest Figure 10a shows; Table 1 reports its runtime for a
    single iteration and for ``KLEV`` repetitions (one per vertical level).
    """
    b = ProgramBuilder("cloudsc_erosion", parameters=["NPROMA"])
    for name in ("ZTP1", "ZQSMIX", "ZQX", "ZA", "ZLIQ", "PAP"):
        b.add_array(name, ("NPROMA",))
    _declare_erosion_scalars(b)
    with b.loop("JL", 0, "NPROMA"):
        _erosion_body_1d(b, "JL")
    return b.finish()


def _erosion_body_1d(b: ProgramBuilder, jl: str) -> None:
    """Single-level variant of :func:`_erosion_body` over 1-D column slices."""
    t = b.read("ZTP1", jl)
    b.assign(("ZFOEEWM",),
             R2ES * b.call("exp", R3LES * b.call(
                 "fmin", 1.0, b.call("fmax", -1.0,
                                     b.call("div", t - RTT, t - R4LES)))))
    b.assign(("ZQSAT",), b.call("div", b.read("ZFOEEWM"), b.read("PAP", jl)))
    b.assign(("ZQE",), b.call("fmax", 0.0, b.call("fmin", b.read("ZQX", jl),
                                                  b.read("ZQSAT"))))
    b.assign(("ZLNEG",), b.call("fmax", 0.0, b.read("ZQSAT") - b.read("ZQE")))
    b.assign(("ZCOND",), b.call("fmin", b.read("ZLIQ", jl),
                                b.read("ZA", jl) * b.read("ZLNEG")))
    b.assign(("ZLDCP",), LATENT_FACTOR + 0.0 * t)
    b.assign(("ZTP1", jl), b.read("ZTP1", jl) - b.read("ZLDCP") * b.read("ZCOND"))
    b.assign(("ZQSMIX", jl), b.read("ZQSMIX", jl) + b.read("ZCOND"))


#: The physics steps of the proxy model; each becomes one JL loop per level.
_PHYSICS_STEPS = ("erosion", "condensation", "evaporation", "autoconversion")


def _condensation_body(b: ProgramBuilder, blk, lvl, jl: str) -> None:
    t = b.read("ZTP1", blk, lvl, jl)
    b.assign(("ZDQS",),
             1.0e-3 * R2ES * b.call("exp", R3LES * b.call(
                 "fmin", 1.0, b.call("fmax", -1.0,
                                     b.call("div", t - RTT, t - R4LES))))
             - b.read("ZQSMIX", blk, lvl, jl))
    b.assign(("ZCND",),
             b.call("fmax", 0.0, b.call("fmin", b.read("ZDQS"),
                                        b.read("ZQX", blk, lvl, jl)))
             * b.read("ZA", blk, lvl, jl))
    b.assign(("ZTP1", blk, lvl, jl), t + LATENT_FACTOR * b.read("ZCND"))
    b.assign(("ZQX", blk, lvl, jl),
             b.call("fmax", RLMIN, b.read("ZQX", blk, lvl, jl) - b.read("ZCND")))


def _evaporation_body(b: ProgramBuilder, blk, lvl, jl: str) -> None:
    b.assign(("ZEVAP_LIM",),
             b.call("fmax", 0.0, b.read("ZQSMIX", blk, lvl, jl)
                    - b.read("ZQX", blk, lvl, jl)))
    b.assign(("ZEVAP",), b.call("fmin", b.read("ZLIQ", blk, lvl, jl),
                                0.5 * b.read("ZEVAP_LIM")))
    b.assign(("ZLIQ", blk, lvl, jl), b.read("ZLIQ", blk, lvl, jl) - b.read("ZEVAP"))
    b.assign(("ZQX", blk, lvl, jl), b.read("ZQX", blk, lvl, jl) + b.read("ZEVAP"))


def _autoconversion_body(b: ProgramBuilder, blk, lvl, jl: str) -> None:
    b.assign(("ZRAIN_SRC",),
             b.call("fmax", 0.0, b.read("ZLIQ", blk, lvl, jl) - RLMIN)
             * b.read("ZA", blk, lvl, jl) * 1.0e-3)
    b.assign(("ZLIQ", blk, lvl, jl),
             b.read("ZLIQ", blk, lvl, jl) - b.read("ZRAIN_SRC"))
    b.assign(("ZRAIN", blk, lvl, jl),
             b.read("ZRAIN", blk, lvl, jl) + b.read("ZRAIN_SRC"))


def _bulk_microphysics_body(b: ProgramBuilder, blk, lvl, jl: str, phase: int) -> None:
    """One sweep of the implicit microphysics solver (bulk of the scheme).

    These sweeps stand in for the sources/sinks of the remaining water
    species of the real scheme: they carry most of the floating-point work
    but have small, register-friendly loop bodies, so the normalization
    pipeline neither helps nor hurts them — which is what keeps the
    whole-model speedup of daisy in the ~10% range (Section 5.2) rather than
    the several-fold speedup seen on the erosion kernel in isolation.
    """
    rate = 0.004 * (phase + 1)
    t = b.read("ZTP1", blk, lvl, jl)
    delta = b.call("fmin", 50.0, b.call("fmax", -50.0, t - RTT))
    b.assign(("ZSOLVER",),
             b.call("exp", rate * delta)
             + b.call("exp", -2.0 * rate * delta)
             + b.call("sqrt", b.call("fmax", 1e-12, b.read("ZQX", blk, lvl, jl)))
             * b.call("exp", 0.5 * rate * delta))
    b.assign(("ZSINK",),
             b.call("fmin", b.read("ZQX", blk, lvl, jl),
                    1.0e-4 * b.read("ZSOLVER") * b.read("ZA", blk, lvl, jl)))
    b.assign(("ZQX", blk, lvl, jl), b.read("ZQX", blk, lvl, jl) - b.read("ZSINK"))
    b.assign(("ZRAIN", blk, lvl, jl),
             b.read("ZRAIN", blk, lvl, jl) + b.read("ZSINK"))


def build_cloudsc_model() -> Program:
    """The full CLOUDSC proxy: block loop x vertical loop x physics steps.

    The block loop ``JKGLO`` is fully data parallel (columns are
    independent); the vertical loop ``JK`` is sequential because each level's
    update reads the state written by the previous level (the `+1` coupling
    below).  Every physics step is one ``JL`` loop with its own intermediate
    scalars, matching the structure of the production code after inlining.
    """
    b = ProgramBuilder("cloudsc_proxy", parameters=["NBLOCKS", "KLEV", "NPROMA"])
    for name in ("ZTP1", "ZQSMIX", "ZQX", "ZA", "ZLIQ", "PAP", "ZRAIN"):
        b.add_array(name, ("NBLOCKS", "KLEV", "NPROMA"))
    _declare_erosion_scalars(b)
    for name in ("ZDQS", "ZCND", "ZEVAP_LIM", "ZEVAP", "ZRAIN_SRC", "ZVCOUP",
                 "ZSOLVER", "ZSINK"):
        b.add_scalar(name, transient=True)

    blk = b.sym("JKGLO")
    with b.loop("JKGLO", 0, "NBLOCKS"):
        with b.loop("JK", 1, "KLEV"):
            lvl = b.sym("JK")
            # Vertical coupling: each level starts from the level above.
            with b.loop("JL", 0, "NPROMA"):
                b.assign(("ZVCOUP",),
                         0.1 * (b.read("ZTP1", blk, lvl - 1, "JL")
                                - b.read("ZTP1", blk, lvl, "JL")))
                b.assign(("ZTP1", blk, lvl, "JL"),
                         b.read("ZTP1", blk, lvl, "JL") + b.read("ZVCOUP"))
            with b.loop("JL", 0, "NPROMA"):
                _erosion_body(b, lvl, "JL", block_expr=blk)
            with b.loop("JL", 0, "NPROMA"):
                _condensation_body(b, blk, lvl, "JL")
            with b.loop("JL", 0, "NPROMA"):
                _evaporation_body(b, blk, lvl, "JL")
            with b.loop("JL", 0, "NPROMA"):
                _autoconversion_body(b, blk, lvl, "JL")
            # The bulk of the scheme: three implicit-solver sweeps per level.
            for phase in range(3):
                with b.loop("JL", 0, "NPROMA"):
                    _bulk_microphysics_body(b, blk, lvl, "JL", phase)
    return b.finish()


@dataclass(frozen=True)
class CloudscConfiguration:
    """Problem configuration of the case study."""

    nproma: int = 128
    nblocks: int = 512
    klev: int = 137

    @property
    def num_columns(self) -> int:
        return self.nproma * self.nblocks

    def parameters(self) -> Dict[str, int]:
        return {"NPROMA": self.nproma, "NBLOCKS": self.nblocks, "KLEV": self.klev}


#: The configuration used in Section 5.2 (NPROMA=128, NBLOCKS=512).
DEFAULT_CONFIGURATION = CloudscConfiguration()

#: Workload sizes of the weak-scaling experiment (Figure 12b):
#: total columns / threads, with NPROMA fixed at 128.
WEAK_SCALING_POINTS = (
    (65536, 1),
    (131072, 2),
    (262144, 4),
    (524288, 8),
)
