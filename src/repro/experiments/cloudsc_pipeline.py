"""Shared pipeline helpers for the CLOUDSC case study (Section 5).

Two program versions are compared throughout the case study:

* the **baseline** — the structure the production code has (fused physics
  loops with per-iteration scalars), compiled like the tuned Fortran build:
  innermost ``NPROMA`` loops vectorized, the block loop parallelized;
* the **daisy** version — the same program run through a-priori
  normalization (scalar expansion, maximal fission, stride minimization),
  then re-fused along producer/consumer relations, array
  contraction, and the same vectorization/parallelization annotations.

The C and DaCe versions of the paper are modeled as calibrated factors on
the baseline (see EXPERIMENTS.md): they share the Fortran loop structure and
differ only by code-generation quality, which is outside the scope of the
loop-nest model.

Normalization runs through a :class:`repro.api.Session`: each harness passes
its settings-scoped session, and callers that pass no session (the examples)
share the module-level :func:`pipeline_session`.  Figures 11 and 12 read
their runtimes from :func:`model_runtimes`, which builds and optimizes the
model once per run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..api import (BandView, CloudscConfiguration, Loop, Program, Session,
                   build_cloudsc_model, contract_arrays, fuse_adjacent_loops,
                   fuse_chains_in_body)

#: The versions of the model Figures 11 and 12 compare.
VERSIONS = ("fortran", "c", "dace", "daisy")

#: Runtime factors of the C and DaCe code generators relative to the tuned
#: Fortran build, taken from the paper's Figure 11 (both versions share the
#: Fortran loop structure; the gap is code-generation quality, which the
#: loop-nest performance model does not capture).
C_CODEGEN_FACTOR = 1.06
DACE_CODEGEN_FACTOR = 1.18

#: CLOUDSC keeps source iterator names: recipes are not transferred across
#: nests here, and the pseudocode listings of Figure 10 stay readable.
PIPELINE = "a-priori-keep-names"

_shared_session: Optional[Session] = None


def pipeline_session() -> Session:
    """The session shared by the CLOUDSC harnesses (one normalization cache)."""
    global _shared_session
    if _shared_session is None:
        _shared_session = Session(pipeline=PIPELINE)
    return _shared_session


def annotate_baseline(program: Program) -> Program:
    """Annotate a CLOUDSC-structured program the way the tuned build runs it.

    Innermost loops are marked SIMD (the compiler vectorizes the NPROMA loops,
    privatizing per-iteration scalars); the outermost block loop is marked
    parallel when legal (at one thread that prices the same as unmarked).
    """
    annotated = program.copy()
    for top in annotated.top_level_loops():
        if BandView(top, annotated).parallelism(0).is_parallel:
            top.parallel = True
        for loop in top.iter_loops():
            if not any(isinstance(child, Loop) for child in loop.body):
                loop.vectorized = True
    return annotated


def daisy_optimize(program: Program, session: Optional[Session] = None
                   ) -> Tuple[Program, dict]:
    """Run the daisy normalization-plus-fusion pipeline on a CLOUDSC program.

    Returns the optimized program and a small report dictionary.
    """
    session = session or pipeline_session()
    normalization = session.normalize(program, PIPELINE)
    normalized = normalization.program
    counters = normalization.report.counters()

    fused = 0
    # Re-join outer (block/vertical) loops that maximal fission separated —
    # splitting those only multiplies cold memory traffic and loop overhead.
    fused += fuse_adjacent_loops(normalized.body)
    # Inside, fuse producer/consumer chains no other nest touches (Figure
    # 10b) and demote temporaries that no longer cross loop boundaries back
    # to scalars.
    fused += fuse_chains_in_body(normalized.body)
    for loop in list(normalized.iter_loops()):
        fused += fuse_chains_in_body(loop.body)
    contracted = contract_arrays(normalized)

    annotated = annotate_baseline(normalized)
    info = {
        "scalars_expanded": counters["scalars_expanded"],
        "loops_split": counters["loops_split"],
        "chains_fused": fused,
        "arrays_contracted": contracted,
        "normalization_cache_hit": normalization.cache_hit,
    }
    return annotated, info


def model_runtimes(session: Session,
                   points: Sequence[Tuple[CloudscConfiguration, int]]
                   ) -> Tuple[List[Dict[str, float]], dict]:
    """Runtime of each of :data:`VERSIONS` of the full model at each
    ``(configuration, threads)`` point, and :func:`daisy_optimize`'s report.
    The model is built and optimized once, for all points."""
    program = build_cloudsc_model()
    baseline = annotate_baseline(program)
    optimized, info = daisy_optimize(program, session=session)
    runtimes = []
    for configuration, threads in points:
        parameters = configuration.parameters()
        fortran = session.evaluate(baseline, parameters, threads=threads)
        runtimes.append({
            "fortran": fortran,
            "c": fortran * C_CODEGEN_FACTOR,
            "dace": fortran * DACE_CODEGEN_FACTOR,
            "daisy": session.evaluate(optimized, parameters, threads=threads),
        })
    return runtimes, info
