"""Performance embeddings of loop nests.

The daisy scheduler retrieves optimization recipes by *similarity-based
transfer tuning*: each loop nest is mapped to a fixed-length feature vector
("performance embedding"), and the Euclidean distance between embeddings
determines the most similar loop nests (Section 4).  The embedding captures
the properties that performance depends on after normalization: iteration
counts, arithmetic intensity, stride classes, reductions, parallelism, and
footprint.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from ..analysis.affine import computation_accesses, nest_statements
from ..analysis.band import BandView
from ..analysis.flops import expr_flops
from ..analysis.parallelism import container_facts
from ..analysis.strides import _array_strides, access_stride
from ..ir.arrays import Array
from ..ir.canonical import array_fragment, node_fragment
from ..ir.nodes import Computation, LibraryCall, Loop, Program

#: Names of the embedding dimensions, in order.
FEATURE_NAMES: Tuple[str, ...] = (
    "log_total_iterations",
    "loop_depth",
    "band_depth",
    "num_computations",
    "num_accesses",
    "flops_per_iteration",
    "frac_zero_stride",
    "frac_unit_stride",
    "frac_strided",
    "frac_non_affine",
    "has_reduction",
    "num_parallel_loops",
    "log_footprint_bytes",
    "is_perfect_nest",
)

EMBEDDING_SIZE = len(FEATURE_NAMES)


@dataclass(frozen=True)
class PerformanceEmbedding:
    """A loop nest's feature vector plus a human-readable label."""

    label: str
    vector: Tuple[float, ...]

    def distance(self, other: "PerformanceEmbedding") -> float:
        return pairwise_distance(self.vector, other.vector)

    def as_dict(self) -> Dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.vector))


def _loop_trips(nest: Loop, parameters: Mapping[str, int]) -> Dict[str, float]:
    """Trip count of every loop of ``nest``, each evaluated with the loops
    around it at their midpoints."""
    env = dict(parameters)
    trips: Dict[str, float] = {}
    for loop in nest.iter_loops():
        start = loop.start.evaluate(env)
        end = loop.end.evaluate(env)
        step = loop.step.evaluate(env)
        trips[loop.iterator] = max(0.0, (end - start) / step)
        env[loop.iterator] = start + (end - start) / 2.0
    return trips


def embed_nest(nest: Loop, arrays: Mapping[str, Array],
               parameters: Mapping[str, int],
               label: str = "") -> PerformanceEmbedding:
    """Compute the performance embedding of one loop nest (its parallel
    loops classified with the nest as a program of its own)."""
    return embed_view(BandView(nest, Program(label, list(arrays.values()),
                                             [nest]), parameters), label)


def embed_view(view: BandView, label: str = "") -> PerformanceEmbedding:
    """:func:`embed_nest` of the nest ``view`` was made of, at its
    parameters, from what the view derives: the band loops are asked by
    position, and what a loop carries is the view's one derivation."""
    nest, arrays, parameters = view.nest, view.program.arrays, view.parameters
    trips = _loop_trips(nest, parameters)
    #: Container name -> (size in bytes, element strides), looked up once.
    layouts: Dict[str, Tuple[float, Tuple[int, ...]]] = {}

    total_iterations = 1.0
    num_computations = 0
    zero = unit = strided = non_affine = 0
    flops = 0.0
    footprint = 0.0
    has_reduction = 0.0

    for node, enclosing in nest_statements(nest):
        if isinstance(node, Computation):
            num_computations += 1
            iterations = 1.0
            for iterator in enclosing:
                iterations *= max(trips.get(iterator, 1.0), 1.0)
            flops += expr_flops(node.value) * iterations
            if node.is_reduction():
                has_reduction = 1.0
            innermost = enclosing[-1] if enclosing else None
            for access in computation_accesses(node, enclosing):
                layout = layouts.get(access.array)
                if layout is None:
                    arr = arrays[access.array]
                    layout = layouts[access.array] = (
                        arr.size_in_bytes(parameters),
                        _array_strides(arr, parameters))
                size_in_bytes, strides = layout
                footprint += size_in_bytes
                if not access.affine:
                    non_affine += 1
                    continue
                if innermost is None:
                    zero += 1
                    continue
                stride = access_stride(access, innermost, strides)
                if stride is None:
                    non_affine += 1
                elif stride == 0:
                    zero += 1
                elif abs(stride) == 1:
                    unit += 1
                else:
                    strided += 1
        elif isinstance(node, LibraryCall):
            flops += float(node.flop_expr.evaluate(parameters))

    band = nest.perfectly_nested_band()
    for loop in band:
        total_iterations *= max(trips.get(loop.iterator, 1.0), 1.0)

    num_accesses = zero + unit + strided + non_affine
    denominator = max(num_accesses, 1)
    # An embedding is compared across programs: its loops are classified
    # with the nest as a program of its own.
    own = view.under(container_facts(Program(label, list(arrays.values()),
                                             [nest])))
    below = [loop for node in own.inner for loop in node.iter_loops()]
    num_parallel = sum(1 for target in (*range(len(own.frames)), *below)
                       if own.parallelism(target).is_parallel)
    flops_per_iter = flops / max(total_iterations, 1.0)

    # np.log1p, not math.log1p: the two differ in the last bit on some
    # inputs, and an embedding moves only when a feature of the nest does.
    import numpy as np
    vector = (
        float(np.log1p(total_iterations)),
        float(nest.depth()),
        float(len(band)),
        float(num_computations),
        float(num_accesses),
        float(min(flops_per_iter, 64.0)),
        zero / denominator,
        unit / denominator,
        strided / denominator,
        non_affine / denominator,
        has_reduction,
        float(num_parallel),
        float(np.log1p(footprint)),
        1.0 if nest.is_perfect_nest() else 0.0,
    )
    return PerformanceEmbedding(label=label or nest.iterator, vector=vector)


#: The name of every container an access in a canonical fragment reads or
#: writes, as the fragment spells it (JSON-escaped).  A library call's
#: operands are not among them: the embedding reads no declaration for
#: them.
_ACCESSED = re.compile(r'"array": "((?:[^"\\]|\\.)*)"')


def nest_identity(nest: Loop, arrays: Mapping[str, Array],
                  parameters: Mapping[str, int]) -> str:
    """A digest of exactly what :func:`embed_nest` reads: the nest's
    canonical fragment (statement labels stripped), the declarations of the
    containers it accesses, by name, and the parameter bindings.  Two nests
    with one identity have one embedding.

    The fragment is the one the canonical hash memoized (copies keep it),
    and the accessed containers are read off it, so the tree is not walked.
    """
    fragment = node_fragment(nest)
    # Only a name with an escape in it needs decoding.
    names = sorted(json.loads(f'"{name}"') if "\\" in name else name
                   for name in set(_ACCESSED.findall(fragment)))
    text = "\n".join((
        fragment,
        # A name no container declares is a library call's metadata.
        ", ".join(array_fragment(arrays[name]) for name in names
                  if name in arrays),
        repr(sorted(parameters.items()))))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def embed_program(program: Program, parameters: Mapping[str, int]
                  ) -> List[PerformanceEmbedding]:
    """Embeddings of every top-level loop nest of a program."""
    embeddings = []
    for index, node in enumerate(program.body):
        if isinstance(node, Loop):
            embeddings.append(embed_nest(node, program.arrays, parameters,
                                         label=f"{program.name}#{index}"))
    return embeddings


def pairwise_distance(first: Sequence[float], second: Sequence[float]) -> float:
    """Euclidean distance between two raw embedding vectors."""
    import numpy as np
    return float(np.linalg.norm(np.asarray(first) - np.asarray(second)))

