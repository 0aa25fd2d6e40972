"""Classical loop transformations, idiom detection, and optimization recipes."""

from .base import Transformation, TransformationError, get_nest, set_nest
from .fusion import (Fuse, fuse, fuse_adjacent_loops, fuse_chains_in_body,
                     fuse_producer_consumer_chains)
from .idiom import (BlasMatch, ReplaceWithLibraryCall, blas_flop_expr,
                    build_library_call, detect_blas3_nests, match_blas3)
from .interchange import Interchange
from .parallelize import Parallelize, Unroll, Vectorize
from .recipe import Recipe, RecipeApplication, apply_recipe
from .tiling import Tile

__all__ = [
    "Transformation", "TransformationError", "get_nest", "set_nest",
    "Fuse", "fuse", "fuse_adjacent_loops", "fuse_chains_in_body",
    "fuse_producer_consumer_chains",
    "BlasMatch", "ReplaceWithLibraryCall", "blas_flop_expr",
    "build_library_call", "detect_blas3_nests", "match_blas3",
    "Interchange",
    "Parallelize", "Unroll", "Vectorize",
    "Recipe", "RecipeApplication", "apply_recipe",
    "Tile",
]
