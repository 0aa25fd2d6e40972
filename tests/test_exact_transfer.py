"""Transfer by identity: a normalized nest the tuning database was seeded
with is transferred by one dictionary probe, without its embedding or a
distance scan.

* The identity is the embedding's: two nests of the corpus with one
  :func:`~repro.scheduler.embedding.nest_identity` have one embedding.
* ``TuningDatabase.exact(identity)`` is the entry ``best_match`` returns
  for every seeded nest, at a bound of 0 and at daisy's default bound.
* The ``variant_transfer`` traffic (the 54 registry variants and the six
  gemm loop orders, two fresh sessions on one seeded database) replies
  byte for byte as it does with the probe always missing, and embeds only
  the nests no entry was tuned on.
* A database file written before entries carried their identity loads
  with the version it had and transfers through the embedding, with the
  same replies.
"""

import contextlib
import dataclasses
import json
from collections import defaultdict

import pytest

from repro.analysis.band import BandView
from repro.api import ScheduleRequest, SearchConfig, Session, TuningDatabase
from repro.experiments.figure1 import LOOP_ORDERS, build_gemm_order
from repro.ir.arrays import Array
from repro.ir.nodes import Computation, LibraryCall, Loop
from repro.ir.symbols import Read, sym
from repro.scheduler import daisy as daisy_module
from repro.scheduler.daisy import DEFAULT_MAX_DISTANCE
from repro.scheduler.embedding import (PerformanceEmbedding, embed_view,
                                       nest_identity)
from repro.workloads import registry as workloads

FAST_SEARCH = SearchConfig(population_size=4, epochs=1, generations_per_epoch=1)
THREADS = 4
REGISTRY = [f"{name}:{variant}" for name in workloads.benchmark_names()
            for variant in ("a", "b", "npbench")]
FUZZ = [f"fuzz:small-{seed}" for seed in range(80)]
#: The version of the database the 18 ``:a`` variants seed with the fast
#: search, as it read before entries carried their identity
#: (``tests/test_derived_once.py::SEEDED_VERSION``).
PARENT_VERSION = "58:182ba104d0757b9e"
#: Over two fresh sessions of ``variant_transfer`` traffic: the nests daisy
#: probes the database for, and those of them no entry was tuned on.
PROBED_NESTS = 160
EMBEDDED_NESTS = 30


def _parameters(name):
    workload, _, suffix = name.partition(":")
    if workload == "fuzz":
        return workloads.fuzz_program(suffix)[1]
    return workloads.benchmark(workload).sizes("large")


def test_one_identity_is_one_embedding():
    """Every top-level nest of the normalized corpus: nests that share an
    identity share an embedding, and identities are shared (the :a and :b
    variants normalize onto each other's nests)."""
    embeddings = defaultdict(set)
    nests = 0
    with contextlib.closing(Session()) as session:
        for name in REGISTRY + FUZZ:
            parameters = _parameters(name)
            program = session.normalize(name).program
            for index, nest in enumerate(program.body):
                if not isinstance(nest, Loop):
                    continue
                identity = nest_identity(nest, program.arrays, parameters)
                embedding = embed_view(
                    BandView(nest, program, parameters), name)
                embeddings[identity].add(embedding.vector)
                nests += 1
    assert nests > 300
    assert all(len(vectors) == 1 for vectors in embeddings.values())
    assert len(embeddings) < nests - 50


#: Container names a JSON encoder escapes, and one the nest never accesses.
WRITTEN, READ, ALSO_READ, UNUSED = 'q"uote', "back\\slash", "café", "unused"


def _awkward_nest(label="S"):
    i = sym("i")
    return Loop("i", 0, sym("N"), body=[Computation(
        Read(WRITTEN, (i,)),
        Read(READ, (i,)) + Read(ALSO_READ, (i,)), name=label)])


def test_the_identity_covers_what_the_embedding_reads():
    """It moves with the declaration of every container the nest accesses
    (names the fragment escapes included) and with the parameters, and
    not with a statement label or a container the nest never accesses."""
    arrays = {name: Array(name, (sym("N"),))
              for name in (WRITTEN, READ, ALSO_READ, UNUSED)}
    parameters = {"N": 8}
    nest = _awkward_nest()
    identity = nest_identity(nest, arrays, parameters)
    assert nest_identity(_awkward_nest("T"), arrays, parameters) == identity
    assert nest_identity(nest.copy(), arrays, parameters) == identity
    assert nest_identity(nest, {**arrays, UNUSED: Array(UNUSED, ())},
                         parameters) == identity
    for name in (WRITTEN, READ, ALSO_READ):
        for change in ({"dtype": "float32"}, {"transient": True},
                       {"shape": (sym("N"), 2)}):
            moved = {**arrays, name: dataclasses.replace(arrays[name],
                                                         **change)}
            assert nest_identity(nest, moved, parameters) != identity, \
                (name, change)
    assert nest_identity(nest, arrays, {"N": 9}) != identity
    assert nest_identity(nest, arrays, {"N": 8, "M": 1}) != identity


def test_a_library_calls_metadata_names_no_container():
    """A program from outside may put an ``"array"`` key in a library
    call's metadata; a name no container declares is no declaration."""
    nest = _awkward_nest()
    nest.body.append(LibraryCall("gemm", [WRITTEN], [READ],
                                 metadata={"array": "undeclared"}))
    arrays = {name: Array(name, (sym("N"),))
              for name in (WRITTEN, READ, ALSO_READ)}
    assert nest_identity(nest, arrays, {"N": 8}) \
        != nest_identity(_awkward_nest(), arrays, {"N": 8})


@pytest.fixture(scope="module")
def seeded():
    database = TuningDatabase()
    with contextlib.closing(Session(threads=THREADS, search=FAST_SEARCH,
                                    database=database)) as session:
        session.seed(workloads.benchmark_names())
    return database


def test_exact_is_the_best_match_of_every_seeded_nest(seeded):
    assert len(seeded) == 58
    assert all(entry.nest is not None for entry in seeded.entries)
    for entry in seeded.entries:
        exact = seeded.exact(entry.nest)
        assert exact is not None, entry.label
        probe = PerformanceEmbedding(entry.label, entry.embedding)
        for bound in (0.0, DEFAULT_MAX_DISTANCE):
            assert exact is seeded.best_match(probe, bound), (entry.label,
                                                              bound)
    assert seeded.exact("no nest has this identity") is None


def _requests():
    """The ``variant_transfer`` inputs, in its order."""
    requests = [ScheduleRequest(program=name) for name in REGISTRY]
    sizes = workloads.benchmark("gemm").sizes("large")
    requests += [ScheduleRequest(program=build_gemm_order(order),
                                 parameters=dict(sizes))
                 for order in LOOP_ORDERS]
    return requests


def _replies(database, monkeypatch, exact=None):
    """Replies of two fresh sessions on ``database`` to the traffic, and
    how many nests were probed and embedded."""
    counts = {"probed": 0, "embedded": 0}
    lookup = exact or database.exact

    def counted_exact(identity):
        counts["probed"] += 1
        return lookup(identity)

    def counted_embed(*args, **kwargs):
        counts["embedded"] += 1
        return embed_view(*args, **kwargs)

    monkeypatch.setattr(database, "exact", counted_exact)
    monkeypatch.setattr(daisy_module, "embed_view", counted_embed)
    replies = []
    for _ in range(2):
        with contextlib.closing(Session(threads=THREADS, search=FAST_SEARCH,
                                        database=database)) as session:
            for request in _requests():
                data = session.schedule(request).to_dict()
                data.pop("trace_id", None)
                replies.append(json.dumps(data))
    monkeypatch.undo()
    return replies, counts


def test_identity_transfer_replies_as_the_distance_scan(seeded,
                                                         monkeypatch):
    """The shipped probe and a probe that always misses give the same
    bytes; only the nests no entry was tuned on are embedded."""
    scanned, scan_counts = _replies(seeded, monkeypatch,
                                    exact=lambda identity: None)
    shipped, counts = _replies(seeded, monkeypatch)
    assert shipped == scanned
    assert len(shipped) == 120
    assert scan_counts == {"probed": PROBED_NESTS, "embedded": PROBED_NESTS}
    assert counts == {"probed": PROBED_NESTS, "embedded": EMBEDDED_NESTS}


def test_a_file_without_identities_loads_as_it_did_and_transfers_by_embedding(
        seeded, monkeypatch, tmp_path):
    path = tmp_path / "tuned.json"
    seeded.save(str(path))
    entries = json.loads(path.read_text())
    for entry in entries:
        del entry["nest"]
    path.write_text(json.dumps(entries, indent=2))
    old = TuningDatabase.load(str(path))
    assert old.version == seeded.version == PARENT_VERSION
    assert all(entry.nest is None for entry in old.entries)
    assert old.to_json() == path.read_text()
    replies, counts = _replies(old, monkeypatch)
    assert counts == {"probed": PROBED_NESTS, "embedded": PROBED_NESTS}
    assert replies == _replies(seeded, monkeypatch)[0]
