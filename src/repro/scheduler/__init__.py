"""Auto-schedulers: daisy plus every baseline the paper compares against,
and the transfer-tuning database they share (:class:`TuningDatabase`)."""

from .base import (NestScheduleInfo, ScheduleResult, Scheduler, Unsupported,
                   retarget_recipe)
from .compiler_baseline import ClangScheduler, IccScheduler
from .daisy import DaisyConfig, DaisyScheduler
from .database import DatabaseEntry, TuningDatabase
from .embedding import (EMBEDDING_SIZE, FEATURE_NAMES, PerformanceEmbedding,
                        embed_nest, embed_program, pairwise_distance)
from .evolutionary import EvolutionarySearch, SearchConfig, SearchOutcome
from .frameworks import DaceScheduler, NumbaScheduler, NumpyScheduler
from .polyhedral import PollyScheduler, nest_is_scop
from .tiramisu import MctsConfig, TiramisuScheduler

__all__ = [
    "NestScheduleInfo", "ScheduleResult", "Scheduler", "Unsupported",
    "retarget_recipe",
    "ClangScheduler", "IccScheduler",
    "DaisyConfig", "DaisyScheduler",
    "DatabaseEntry", "TuningDatabase",
    "EMBEDDING_SIZE", "FEATURE_NAMES", "PerformanceEmbedding",
    "embed_nest", "embed_program", "pairwise_distance",
    "EvolutionarySearch", "SearchConfig", "SearchOutcome",
    "DaceScheduler", "NumbaScheduler", "NumpyScheduler",
    "PollyScheduler", "nest_is_scop",
    "MctsConfig", "TiramisuScheduler",
]
