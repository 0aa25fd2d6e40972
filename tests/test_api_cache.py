"""Tests for content addressing and the two-level normalization cache."""

from helpers import build_gemm, build_vector_add

from repro.api import (NormalizationCache, NormalizationOptions,
                       canonical_program_dict, fingerprint,
                       program_content_hash)


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
