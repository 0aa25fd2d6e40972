"""A Polly-like polyhedral baseline scheduler.

Polly detects static control parts (SCoPs), tiles permutable bands, runs
loops in parallel, and strip-mine-vectorizes innermost loops — but it does
not perform the a-priori normalization this paper proposes: it neither
maximally fissions fused computations nor reorders loops to minimize strides
up front, and it does not replace idioms with BLAS calls.  That is exactly
the behavior the paper contrasts daisy with (Section 4.1): good on loop
orders its cost function models well, and unable to repair the strided B
variants.

This baseline reproduces that behavior on our IR:

* a top-level nest is a SCoP when all of its accesses and bounds are affine;
* SCoPs get rectangular tiling of the permutable outer band, OpenMP-style
  parallelization of the outermost parallel loop, and vectorization of the
  innermost loop when it is unit-stride;
* non-SCoPs are left untouched.
"""

from __future__ import annotations

from ..analysis.affine import computation_accesses, nest_statements
from ..ir.nodes import Computation, Loop
from ..transforms.parallelize import Parallelize, Vectorize
from ..transforms.recipe import Recipe
from ..transforms.tiling import Tile
from .base import NestPricer, Scheduler, Unsupported

#: Default tile size used by Polly's isl scheduler.
POLLY_TILE_SIZE = 32


def nest_is_scop(nest: Loop) -> bool:
    """True when every statement of the nest is a computation whose accesses
    are all affine.  (Bounds may reference parameters and outer iterators
    only; any Read/Call inside bounds would have produced non-affine symbols
    at construction time, so checking affinity of accesses suffices.)"""
    return all(isinstance(node, Computation)
               and all(access.affine
                       for access in computation_accesses(node, enclosing))
               for node, enclosing in nest_statements(nest))


class PollyScheduler(Scheduler):
    """Tiling + parallelization + strip-mine vectorization, no normalization."""

    name = "polly"

    def recipe_for(self, pricer: NestPricer) -> Recipe:
        index, view = pricer.nest_index, pricer.view
        if not nest_is_scop(view.nest):
            raise Unsupported("not a SCoP")
        recipe = Recipe(f"polly#{index}")

        # Tile the parallel loops of the band (Polly tiles permutable bands).
        tile_sizes = {}
        for position, frame in enumerate(view.frames):
            if len(view.frames) >= 2 and view.parallelism(position).is_parallel:
                tile_sizes[frame.iterator] = POLLY_TILE_SIZE
        if tile_sizes:
            recipe.add(Tile(index, tile_sizes))

        # -polly-parallel: outermost parallel loop runs with OpenMP.
        recipe.add(Parallelize(index))
        # -polly-vectorizer=stripmine: innermost loop, profitable only when
        # the accesses are contiguous.
        recipe.add(Vectorize(index, require_unit_stride=True))
        return recipe
