"""The numpy boundary: the request spine runs without numpy.

Resolve, hash, normalize, search, encode and serve compute in pure Python,
so a fresh process that imports what the benchmark harness imports and
serves a cold schedule never loads numpy.  The interpreter, the tuning
database's embedding matrix and the embedding features do compute with
numpy, and load it on first use.  Each case runs in a fresh interpreter,
because ``sys.modules`` only ever grows.
"""

import os
import subprocess
import sys

import pytest

import repro

#: The request spine, cold: the modules ``benchmarks/perf/workloads.py``
#: imports, then one call into each layer it drives.
SPINE = """
import sys
import repro.api, repro.serving, repro.experiments.figure1
import repro.workloads.registry
from repro.api import Session
from repro.scheduler.database import TuningDatabase
from repro.workloads.registry import fuzz_program

session = Session()
session.schedule("gemm:a")
session.normalize("atax:b")
fuzz_program("small-0")
TuningDatabase()
assert "numpy" not in sys.modules, "the request spine loaded numpy"
"""

#: Each check must still work, and must be what loads numpy.
CHECKS = {
    "programs_equivalent": """
from repro.interp import programs_equivalent
assert programs_equivalent(session.load("gemm:a"), session.load("gemm:b"),
                           {"NI": 4, "NJ": 5, "NK": 6})
""",
    "tuning_database": """
from repro.scheduler.embedding import EMBEDDING_SIZE, PerformanceEmbedding
from repro.transforms.recipe import Recipe
database = TuningDatabase()
near = PerformanceEmbedding("near", (1.0,) * EMBEDDING_SIZE)
far = PerformanceEmbedding("far", (9.0,) * EMBEDDING_SIZE)
database.add(near, Recipe(name="near"))
database.add(far, Recipe(name="far"))
probe = PerformanceEmbedding("probe", (2.0,) * EMBEDDING_SIZE)
assert database.best_match(probe).recipe.name == "near"
""",
    "embed_nest": """
from repro.ir.nodes import Loop
from repro.scheduler.embedding import EMBEDDING_SIZE, embed_nest
program = session.load("gemm:a")
nest = next(node for node in program.body if isinstance(node, Loop))
embedding = embed_nest(nest, program.arrays, {"NI": 64, "NJ": 64, "NK": 64})
assert len(embedding.vector) == EMBEDDING_SIZE
assert embedding.vector[0] > 0.0
""",
    "execute": """
response = session.execute("gemm:a", {"NI": 4, "NJ": 5, "NK": 6})
assert response.outputs["C"].shape == (4, 5)
""",
}


def _run(code: str) -> None:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_the_cold_request_spine_loads_no_numpy():
    _run(SPINE)


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_numpy_loads_where_it_computes(check):
    _run(SPINE + CHECKS[check]
         + '\nassert "numpy" in sys.modules, "numpy was not loaded"\n')
