"""Tests for the tuning database: entry round-trips, the content version,
ranking by embedding distance, the identity index, and the one file format
``--db-path`` loads."""

import dataclasses
import json
import sqlite3

import pytest

from repro.api import SearchConfig, Session, SessionReport, TuningDatabase
from repro.scheduler.database import DatabaseEntry
from repro.scheduler.embedding import EMBEDDING_SIZE, PerformanceEmbedding
from repro.serving.cli import main as cli_main
from repro.transforms.recipe import Recipe


def embedding(seed: float, label: str = "") -> PerformanceEmbedding:
    vector = tuple(float(seed + i * 0.25) for i in range(EMBEDDING_SIZE))
    return PerformanceEmbedding(label=label, vector=vector)


def seeded_database(count: int = 12) -> TuningDatabase:
    database = TuningDatabase()
    for i in range(count):
        database.add(embedding(float(i), label=f"nest{i}"),
                     Recipe(f"recipe{i}"), runtime=0.1 * i, nest=f"id{i}")
    return database


class TestDatabaseEntryRoundTrip:
    def test_runtime_is_coerced_to_float(self):
        """JSON-string runtimes must not silently survive round-trips."""
        entry = DatabaseEntry.from_dict({
            "embedding": ["1.0"] * EMBEDDING_SIZE,
            "recipe": Recipe("r").to_dict(),
            "label": "x",
            "runtime": "0.25",
        })
        assert entry.runtime == 0.25
        assert isinstance(entry.runtime, float)

    def test_runtime_none_stays_none(self):
        entry = DatabaseEntry.from_dict({
            "embedding": [1.0] * EMBEDDING_SIZE,
            "recipe": Recipe("r").to_dict(),
        })
        assert entry.runtime is None

    def test_an_entry_never_changes(self):
        """Entries are frozen, so the digest taken when one was added
        stays its content: a database's version is its entries."""
        database = TuningDatabase()
        entry = database.add(embedding(1.0, "x"), Recipe("r"), runtime=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.runtime = 2.0
        assert database.version == TuningDatabase([entry]).version

    def test_measured_fields_of_older_dumps_are_ignored(self):
        """Dumps written while entries carried measured runtimes load as
        the entries they prescribe."""
        item = {"embedding": [1.0] * EMBEDDING_SIZE,
                "recipe": Recipe("r").to_dict(), "label": "x",
                "runtime": 0.5}
        entry = DatabaseEntry.from_dict(
            {**item, "measured_runtime": 0.25, "measurements": 3})
        assert entry.to_dict() == item


class TestDatabaseVersion:
    def test_version_changes_on_add(self):
        database = TuningDatabase()
        before = database.version
        database.add(embedding(1.0, "x"), Recipe("r"))
        assert database.version != before

    def test_equal_size_different_content_different_version(self):
        """The schedule-cache guarantee: two databases of equal size but
        different content must not share a version (their cached schedules
        would otherwise collide in a persistent cache)."""
        first = TuningDatabase()
        first.add(embedding(1.0, "x"), Recipe("r1"))
        second = TuningDatabase()
        second.add(embedding(2.0, "y"), Recipe("r2"))
        assert len(first) == len(second)
        assert first.version != second.version

    def test_version_is_reproducible_across_load(self):
        database = seeded_database(5)
        restored = TuningDatabase.from_json(database.to_json())
        assert restored.version == database.version

    def test_the_session_report_carries_the_version(self):
        session = Session(threads=4, size="small", search=SearchConfig(
            population_size=4, epochs=1, generations_per_epoch=1))
        empty = session.report().database_version
        assert empty == TuningDatabase().version
        session.tune("atax:a", label="atax")
        report = session.report()
        assert report.database_version == session.database.version != empty
        assert SessionReport.from_dict(report.to_dict()) == report
        session.close()

    def test_a_json_object_is_not_a_database(self):
        with pytest.raises(ValueError, match="JSON list of entries"):
            TuningDatabase.from_json(json.dumps({"shards": []}))


def _by_add(entries, _tmp_path):
    database = TuningDatabase()
    for entry in entries:
        database.add(PerformanceEmbedding(entry.label, entry.embedding),
                     entry.recipe, runtime=entry.runtime, nest=entry.nest)
    return database


def _by_add_entry(entries, _tmp_path):
    database = TuningDatabase()
    for entry in entries:
        database.add_entry(entry)
    return database


def _by_constructor(entries, _tmp_path):
    return TuningDatabase(list(entries))


def _by_load(entries, tmp_path):
    path = str(tmp_path / "tuned.json")
    TuningDatabase(list(entries)).save(path)
    return TuningDatabase.load(path)


class TestVersionIsTheEntries:
    """A database's version is a function of its entry sequence alone,
    however the entries arrived."""

    @pytest.mark.parametrize("build", [_by_add, _by_add_entry,
                                       _by_constructor, _by_load],
                             ids=["add", "add-entry", "constructor", "load"])
    def test_every_way_in_lands_on_one_version(self, tmp_path, build):
        reference = seeded_database(5)
        database = build(reference.entries, tmp_path)
        assert database.entries == reference.entries
        assert database.version == reference.version
        probe = embedding(3.1)
        assert database.query(probe, 5) == reference.query(probe, 5)
        assert ([database.exact(entry.nest) for entry in reference.entries]
                == reference.entries)

    def test_the_order_of_the_entries_is_content(self):
        """Equal distances go to the entry added first, so two orders of
        one set of entries are two databases."""
        forward = seeded_database(5)
        backward = TuningDatabase(forward.entries[::-1])
        assert len(forward) == len(backward)
        assert forward.version != backward.version


class TestTransferRanksByDistance:
    """The nearest entry wins whatever runtime any entry records."""

    @pytest.mark.parametrize("near_runtime, far_runtime", [
        (None, 0.001), (1000.0, 0.001), (0.001, 1000.0)],
        ids=["unmeasured-near", "slow-near", "fast-near"])
    def test_the_nearest_entry_wins(self, near_runtime, far_runtime):
        database = TuningDatabase()
        far = database.add(embedding(2.0, "far"), Recipe("far"),
                           runtime=far_runtime)
        near = database.add(embedding(1.0, "near"), Recipe("near"),
                            runtime=near_runtime)
        probe = embedding(0.0)
        assert database.best_match(probe) is near
        assert [entry for _distance, entry
                in database.query(probe, 2)] == [near, far]
        # The bound is on distance: the far entry alone is out of reach.
        reach = database.query(probe, 1)[0][0]
        assert database.best_match(probe, max_distance=reach) is near
        assert database.best_match(probe, max_distance=reach / 2) is None


class TestNestIdentity:
    """An entry may carry the identity of the nest it was tuned on;
    ``exact`` answers for it what ``best_match`` answers for its
    embedding."""

    def test_save_and_load_keep_the_identity(self, tmp_path):
        database = seeded_database(3)
        path = str(tmp_path / "tuned.json")
        database.save(path)
        restored = TuningDatabase.load(path)
        assert [entry.nest for entry in restored.entries] == \
            ["id0", "id1", "id2"]
        assert restored.entries == database.entries
        assert restored.exact("id1") == database.exact("id1")
        assert restored.to_json() == database.to_json()

    def test_an_entry_without_an_identity_writes_no_key(self):
        entry = DatabaseEntry(embedding(1.0).vector, Recipe("r"), "x")
        assert "nest" not in entry.to_dict()
        assert DatabaseEntry.from_dict(entry.to_dict()) == entry
        tagged = dataclasses.replace(entry, nest="id")
        assert tagged.to_dict() == {**entry.to_dict(), "nest": "id"}
        assert DatabaseEntry.from_dict(tagged.to_dict()) == tagged

    def test_the_identity_is_not_part_of_the_version(self):
        """It changes no transfer, so a database loaded from a file
        written without identities has the version it had."""
        tagged = seeded_database(4)
        bare = TuningDatabase([dataclasses.replace(entry, nest=None)
                               for entry in tagged.entries])
        assert bare.version == tagged.version
        assert bare.exact("id0") is None

    def test_exact_is_the_best_match_at_distance_zero(self):
        """The first entry added with the embedding of the first entry
        tuned on the nest, whichever nest that entry came from."""
        database = TuningDatabase()
        first = database.add(embedding(1.0, "first"), Recipe("r0"))
        tuned = database.add(embedding(1.0, "tuned"), Recipe("r1"),
                             nest="a")
        again = database.add(embedding(2.0, "again"), Recipe("r2"),
                             nest="a")
        database.add(embedding(2.0, "other"), Recipe("r3"), nest="b")
        assert tuned is not first
        assert database.exact("a") is first
        assert database.exact("b") is again
        assert database.exact("c") is None
        for nest, vector in (("a", 1.0), ("b", 2.0)):
            for bound in (0.0, 6.0, None):
                assert database.exact(nest) is database.best_match(
                    embedding(vector), bound)


def _write_sqlite(path):
    connection = sqlite3.connect(str(path))
    connection.execute("CREATE TABLE entries (id INTEGER PRIMARY KEY, "
                       "shard INTEGER, embedding TEXT, recipe TEXT)")
    connection.execute("INSERT INTO entries VALUES (1, 0, '[]', '{}')")
    connection.commit()
    connection.close()


def _write_sharded_json(path):
    entries = [entry.to_dict() for entry in seeded_database(3).entries]
    path.write_text(json.dumps({"num_shards": 2,
                                "shards": [entries[:2], entries[2:]]}))


def _write_list_of_numbers(path):
    path.write_text(json.dumps([1, 2]))


class TestDbPathFormat:
    """``--db-path`` takes one format; a file in a format that is gone exits
    2 with one line naming the expected one, not a traceback."""

    @pytest.mark.parametrize("name, write", [
        ("tuned.sqlite", _write_sqlite),
        ("tuned.json", _write_sharded_json),
        ("tuned.json", _write_list_of_numbers),
    ], ids=["sqlite", "sharded-json", "not-entries"])
    def test_a_gone_format_exits_2_with_one_line(self, tmp_path, capsys,
                                                 name, write):
        path = tmp_path / name
        write(path)
        status = cli_main(["warm-cache", "--cache-path",
                           str(tmp_path / "cache.sqlite"),
                           "--db-path", str(path), "--workloads", "gemm"])
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message, = captured.err.splitlines()
        assert message.startswith(f"--db-path {path}: expected a tuning "
                                  "database, a JSON list of entries")
        assert "Traceback" not in captured.err

    def test_the_saved_format_loads(self, tmp_path, capsys):
        path = tmp_path / "tuned.json"
        seeded_database(3).save(str(path))
        status = cli_main(["warm-cache", "--cache-path",
                           str(tmp_path / "cache.sqlite"), "--size", "small",
                           "--db-path", str(path), "--workloads", "gemm"])
        assert status == 0
        assert "3 database entries" in capsys.readouterr().out
