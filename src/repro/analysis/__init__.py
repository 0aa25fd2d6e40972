"""Static analyses over the symbolic loop-nest IR.

* :mod:`repro.analysis.affine` — affine access-function extraction.
* :mod:`repro.analysis.dependence` — dependence testing: one
  :class:`~repro.analysis.dependence.DependenceTable` tests each pair of
  accesses once and answers fission, parallelism, permutation and fusion
  as projections of those answers.
* :mod:`repro.analysis.dataflow` — per-body read/write summary: which node
  of a body produces what a later node consumes.
* :mod:`repro.analysis.parallelism` — DOALL and reduction-loop detection.
* :mod:`repro.analysis.band` — a nest's schedule as data: the view the
  schedule transformations edit, legality is asked of and the cost model
  walks.
* :mod:`repro.analysis.strides` — the ``stride(loop)`` normalization criterion.
* :mod:`repro.analysis.flops` — flop counting for the cost model and the
  embedding.
"""

from .affine import (AffineAccess, AffineIndex, computation_accesses,
                     decompose_access, decompose_index, nest_statements)
from .band import BandView, Frame
from .dataflow import adjacent_flows, body_dataflow, node_reads_writes
from .flops import computation_flops, expr_flops, program_flops
from .dependence import (ANY, EQ, GT, LT, DependenceTable,
                         legal_permutations)
from .parallelism import ParallelismInfo
from .strides import (BandStrides, access_stride, band_strides,
                      program_stride_cost)

__all__ = [
    "AffineAccess", "AffineIndex", "computation_accesses",
    "decompose_access", "decompose_index", "nest_statements",
    "BandView", "Frame",
    "adjacent_flows", "body_dataflow", "node_reads_writes",
    "ANY", "EQ", "GT", "LT", "DependenceTable", "legal_permutations",
    "ParallelismInfo",
    "computation_flops", "expr_flops", "program_flops",
    "BandStrides", "access_stride", "band_strides", "program_stride_cost",
]
