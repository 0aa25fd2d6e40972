"""A-priori loop nest normalization — the paper's primary contribution.

The two normalization criteria of Section 2, one function each:

* :func:`maximal_loop_fission` — split loop bodies into atomic nests, in
  one bottom-up sweep,
* :func:`minimize_strides` — for every band, at every depth, pick the
  legal loop order with the minimal stride cost, priced at the nominal
  extents (:func:`find_minimal_permutation` is the one search),

plus loop normal form and canonical iterator renaming, combined in
:func:`normalize` (the pipeline of Figure 5).  The stages run as
instrumented :mod:`repro.passes` pipelines selected by registered name
(``"a-priori"`` and its ablations — see ``docs/pipelines.md``);
:class:`NormalizationOptions` is that name.  Each stage function returns
what it did: :func:`maximal_loop_fission` its split count,
:func:`expand_scalars` its expanded pairs, :func:`minimize_strides` its
counters.
"""

from .fission import fission_loop, is_maximally_fissioned, maximal_loop_fission
from .loop_normal_form import (canonicalize_iterator_names,
                               normalize_program_bounds)
from .pipeline import (NormalizationOptions, NormalizationReport, normalize,
                       normalize_program)
from .scalar_expansion import contract_arrays, expand_scalars
from .stride_minimization import (EXHAUSTIVE_DEPTH_LIMIT,
                                  find_minimal_permutation, minimize_strides)

__all__ = [
    "fission_loop", "is_maximally_fissioned", "maximal_loop_fission",
    "canonicalize_iterator_names", "normalize_program_bounds",
    "NormalizationOptions", "NormalizationReport", "normalize",
    "normalize_program",
    "EXHAUSTIVE_DEPTH_LIMIT", "find_minimal_permutation", "minimize_strides",
    "expand_scalars",
]
