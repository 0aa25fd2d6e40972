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
its settings-scoped session (so repeated ``daisy_optimize`` calls within a
figure — e.g. Figure 12's seven scaling points — hit one content-addressed
cache), and callers that pass no session (the examples) share the
module-level :func:`pipeline_session`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..api import (Loop, Program, Session, analyze_loop_parallelism,
                   contract_arrays, fuse_adjacent_loops, fuse_chains_in_body)

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


def annotate_baseline(program: Program, parallel_blocks: bool = True) -> Program:
    """Annotate a CLOUDSC-structured program the way the tuned build runs it.

    Innermost loops are marked SIMD (the compiler vectorizes the NPROMA loops,
    privatizing per-iteration scalars); the outermost block loop is marked
    parallel when requested and legal.
    """
    annotated = program.copy()
    for top in annotated.top_level_loops():
        if parallel_blocks:
            info = analyze_loop_parallelism(top, annotated.arrays)
            if info.is_parallel:
                top.parallel = True
        for loop in top.iter_loops():
            if not any(isinstance(child, Loop) for child in loop.body):
                loop.vectorized = True
    return annotated


def daisy_optimize(program: Program, parallel_blocks: bool = True,
                   session: Optional[Session] = None) -> Tuple[Program, dict]:
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
    fused += fuse_adjacent_loops(normalized.body, min_depth=2)
    # Inside, fuse producer/consumer chains no other nest touches (Figure
    # 10b) and demote temporaries that no longer cross loop boundaries back
    # to scalars.
    fused += fuse_chains_in_body(normalized.body)
    for loop in list(normalized.iter_loops()):
        fused += fuse_chains_in_body(loop.body)
    contracted = contract_arrays(normalized)

    annotated = annotate_baseline(normalized, parallel_blocks=parallel_blocks)
    info = {
        "scalars_expanded": counters["scalars_expanded"],
        "loops_split": counters["loops_split"],
        "chains_fused": fused,
        "arrays_contracted": contracted,
        "normalization_cache_hit": normalization.cache_hit,
    }
    return annotated, info
