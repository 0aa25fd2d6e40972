"""Tests for the tuning database: entry round-trips, the content version,
checkpoint/rewind, and the one file format ``--db-path`` loads."""

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
                     Recipe(f"recipe{i}"), runtime=0.1 * i)
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


class TestCheckpointRewind:
    def test_rewind_drops_the_appended_entries_and_restores_the_version(self):
        database = seeded_database(4)
        before = (database.version, list(database.entries))
        checkpoint = database.checkpoint()
        extra = [database.add(embedding(40.0 + i, f"extra{i}"), Recipe("x"))
                 for i in range(20)]  # past the matrix's spare capacity
        assert database.rewind(checkpoint) == extra
        assert (database.version, database.entries) == before
        probe = embedding(41.0)
        assert database.best_match(probe).label == "nest3"
        # Appending the same entries again lands on the same version as
        # appending them the first time: the digest restarted where it was.
        again = TuningDatabase(before[1] + extra)
        for entry in extra:
            database.add_entry(entry)
        assert database.version == again.version
        assert database.best_match(probe).label == "extra1"

    def test_rewind_to_the_same_checkpoint_twice(self):
        database = seeded_database(2)
        checkpoint = database.checkpoint()
        for _ in range(2):
            database.add(embedding(9.0, "x"), Recipe("x"))
            assert len(database.rewind(checkpoint)) == 1
            assert database.version == seeded_database(2).version


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
