"""Tests for content addressing and the two-level normalization cache."""

from dataclasses import replace

from helpers import build_gemm, build_vector_add

import pytest

from repro.api import (MctsConfig, MemoryCacheBackend, NormalizationCache,
                       NormalizationOptions, ScheduleRequest, SearchConfig,
                       Session, canonical_program_dict, fingerprint,
                       program_content_hash)
from repro.perf.machine import DEFAULT_MACHINE

TINY_SEARCH = SearchConfig(population_size=2, epochs=1, generations_per_epoch=1)


class TestContentHash:
    def test_same_structure_same_hash(self):
        assert program_content_hash(build_gemm()) == program_content_hash(build_gemm())

    def test_name_does_not_affect_hash(self):
        assert (program_content_hash(build_gemm(name="one"))
                == program_content_hash(build_gemm(name="two")))

    def test_structure_affects_hash(self):
        assert (program_content_hash(build_gemm(("i", "j", "k")))
                != program_content_hash(build_gemm(("k", "j", "i"))))
        assert (program_content_hash(build_gemm())
                != program_content_hash(build_vector_add()))

    def test_extra_key_material_affects_hash(self):
        program = build_vector_add()
        assert (program_content_hash(program)
                != program_content_hash(program, extra={"options": "x"}))

    def test_canonical_dict_strips_names(self):
        data = canonical_program_dict(build_gemm(name="whatever"))
        assert data["name"] == ""
        names = [entry["name"] for entry in data["arrays"]]
        assert names == sorted(names)

    def test_options_fingerprint_stable(self):
        assert (fingerprint(NormalizationOptions())
                == fingerprint(NormalizationOptions()))
        assert (fingerprint(NormalizationOptions())
                != fingerprint(NormalizationOptions("no-fission")))


class TestNormalizationLevel:
    def test_second_normalization_hits(self):
        cache = NormalizationCache()
        first = cache.normalized(build_gemm())
        second = cache.normalized(build_gemm())
        assert not first.hit and second.hit
        assert cache.stats.normalization_hits == 1
        assert cache.stats.normalization_misses == 1
        assert first.canonical_hash == second.canonical_hash

    def test_different_options_miss(self):
        cache = NormalizationCache()
        cache.normalized(build_gemm())
        other = cache.normalized(build_gemm(),
                                 NormalizationOptions("no-fission"))
        assert not other.hit
        assert cache.stats.normalization_misses == 2

    def test_served_programs_are_independent_copies(self):
        cache = NormalizationCache()
        first = cache.normalized(build_gemm())
        first.program.name = "mutated"
        first.program.body.clear()
        second = cache.normalized(build_gemm())
        assert second.program.body  # the cached master was not mutated

    def test_normalized_equivalent_variants_share_canonical_hash(self):
        """The paper's claim, content-addressed: all six GEMM loop orders
        normalize to one canonical form."""
        cache = NormalizationCache()
        hashes = {cache.normalized(build_gemm(order)).canonical_hash
                  for order in (("i", "j", "k"), ("i", "k", "j"), ("k", "i", "j"),
                                ("k", "j", "i"), ("j", "i", "k"), ("j", "k", "i"))}
        assert len(hashes) == 1
        # ... but each order is its own normalization-level entry.
        assert cache.stats.normalization_misses == 6


class TestScheduleLevel:
    def test_store_and_lookup_roundtrip(self):
        from repro.scheduler.base import ScheduleResult

        cache = NormalizationCache()
        entry = cache.normalized(build_gemm())
        key = cache.schedule_key(entry.canonical_hash, "daisy", 4, {"NI": 8})
        assert cache.lookup_schedule(key) is None
        cache.store_schedule(key, ScheduleResult("daisy", entry.program), 1.5)
        served = cache.lookup_schedule(key)
        assert served is not None
        result, runtime = served
        assert runtime == 1.5 and result.scheduler == "daisy"
        assert cache.stats.schedule_hits == 1

    def test_key_distinguishes_scheduler_threads_parameters(self):
        cache = NormalizationCache()
        base = cache.schedule_key("h", "daisy", 4, {"N": 8})
        assert base != cache.schedule_key("h", "polly", 4, {"N": 8})
        assert base != cache.schedule_key("h", "daisy", 8, {"N": 8})
        assert base != cache.schedule_key("h", "daisy", 4, {"N": 16})
        assert base == cache.schedule_key("h", "daisy", 4, {"N": 8})

    def test_lru_eviction(self):
        cache = NormalizationCache(max_entries=2)
        cache.normalized(build_gemm(("i", "j", "k")))
        cache.normalized(build_gemm(("i", "k", "j")))
        cache.normalized(build_gemm(("k", "i", "j")))
        assert cache.stats.evictions == 1
        # The oldest entry was evicted: normalizing it again misses.
        entry = cache.normalized(build_gemm(("i", "j", "k")))
        assert not entry.hit


class TestPersistedKeyMaterial:
    """Persisted cache keys and every reply's ``input_hash`` are made of
    these bytes: a refactor of the options, the cache key or the session
    salt must leave them as they are, or every persisted entry misses."""

    @pytest.mark.parametrize("pipeline, salt, input_hash", [
        (None, "5b79359a2774f9d0",
         "16d40e9138e4889ff704e42400e799efbb15927c943cb5fb601411a1975c6d8b"),
        ("no-fission", "1b22410fbc7d8847",
         "015bc0c42f690cdd99ff65f5ff2d1bfa8b494bcd8d0d6c82f4a2149257a0ecb4"),
    ], ids=["a-priori", "no-fission"])
    def test_salt_and_normalized_key_are_pinned(self, pipeline, salt,
                                                input_hash):
        session = Session(pipeline=pipeline)
        assert session._response_salt == salt
        assert session.normalize("gemm:a").input_hash == input_hash

    def test_response_key_is_pinned(self):
        assert (Session()._response_key(ScheduleRequest(program="gemm:a"))
                == "cd2c5662d91af06b|5b79359a2774f9d0|0:19ff6864d3680eb0")


class TestChosenSettingsKeyTheirEntries:
    """Sessions on one cache backend that differ in a machine or a search
    budget the caller chose must not serve each other's schedules; sessions
    that agree still share them."""

    @pytest.mark.parametrize("scheduler, ours, theirs", [
        ("daisy", {"search": TINY_SEARCH},
         {"search": TINY_SEARCH, "machine": replace(
             DEFAULT_MACHINE, frequency_hz=DEFAULT_MACHINE.frequency_hz / 4)}),
        ("daisy", {"search": TINY_SEARCH},
         {"search": SearchConfig(population_size=4, epochs=1,
                                 generations_per_epoch=2)}),
        ("tiramisu", {"mcts": MctsConfig(rollouts=2)},
         {"mcts": MctsConfig(rollouts=6)}),
    ], ids=["machine", "search", "mcts"])
    def test_a_setting_keys_schedules_and_responses(self, scheduler, ours,
                                                    theirs):
        backend = MemoryCacheBackend()

        def session(settings, cache_backend=backend):
            return Session(scheduler=scheduler, cache_backend=cache_backend,
                           **settings)

        first = session(ours)
        mine = first.schedule("atax:a")
        assert session(ours).schedule("atax:a").from_cache
        served = session(theirs).schedule("atax:a")
        fresh = session(theirs, MemoryCacheBackend()).schedule("atax:a")
        assert not served.from_cache
        assert served.runtime_s == fresh.runtime_s != mine.runtime_s
        assert served.result.summary() == fresh.result.summary()
        request = ScheduleRequest(program="atax:a")
        assert (first._response_key(request)
                != session(theirs)._response_key(request))
        assert (first._response_key(request)
                == session(ours)._response_key(request))
