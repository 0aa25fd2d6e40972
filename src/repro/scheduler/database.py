"""Transfer-tuning database.

The database stores pairs of (performance embedding, optimization recipe) for
normalized loop nests.  The daisy scheduler seeds it from the normalized A
variants of the benchmarks and queries it when scheduling new programs
(Section 4, "Seeding a Scheduling Database").  Entries never change once
added, and none is ever removed, so a database's
:attr:`~TuningDatabase.version` is a digest of its entries alone.

An entry daisy seeds also records the
:func:`~repro.scheduler.embedding.nest_identity` of the normalized nest it
was tuned on (an entry loaded from a file without one has none): a nest
with that identity has that entry's embedding, so
:meth:`TuningDatabase.exact` answers it with one dictionary probe.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..transforms.recipe import Recipe
from .embedding import EMBEDDING_SIZE, PerformanceEmbedding

if TYPE_CHECKING:  # pragma: no cover - import only needed for annotations
    import numpy as np


@dataclass(frozen=True)
class DatabaseEntry:
    """One tuned loop nest: its embedding, its recipe, and provenance."""

    embedding: Tuple[float, ...]
    recipe: Recipe
    label: str = ""
    runtime: Optional[float] = None
    #: The identity of the normalized nest the entry was tuned on, when
    #: known (see :func:`~repro.scheduler.embedding.nest_identity`).
    nest: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        data = {
            "embedding": list(self.embedding),
            "recipe": self.recipe.to_dict(),
            "label": self.label,
            "runtime": self.runtime,
        }
        if self.nest is not None:
            data["nest"] = self.nest
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "DatabaseEntry":
        runtime = data.get("runtime")
        nest = data.get("nest")
        return DatabaseEntry(
            embedding=tuple(float(x) for x in data["embedding"]),
            recipe=Recipe.from_dict(data["recipe"]),
            label=str(data.get("label", "")),
            runtime=float(runtime) if runtime is not None else None,
            nest=str(nest) if nest is not None else None,
        )


class TuningDatabase:
    """A collection of tuned loop nests queried by embedding similarity."""

    def __init__(self, entries: Optional[List[DatabaseEntry]] = None):
        self.entries: List[DatabaseEntry] = []
        #: Row ``i`` holds ``entries[i].embedding``; rows past ``len(entries)``
        #: are spare capacity.  Allocated by the first :meth:`add_entry`.
        self._vectors: Optional[np.ndarray] = None
        self._append_lock = threading.Lock()
        self._digest = hashlib.sha256(b"tuning-database")
        #: Embedding -> the first entry added with it.
        self._first: Dict[Tuple[float, ...], DatabaseEntry] = {}
        #: Nest identity -> what :meth:`exact` answers for it.
        self._exact: Dict[str, DatabaseEntry] = {}
        for entry in entries or []:
            self.add_entry(entry)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def version(self) -> str:
        """A content-derived version of the database.

        Schedule-cache keys embed this (not the raw entry count): two
        databases of equal size but different content must not share cached
        schedules once the cache persists across processes.
        """
        return f"{len(self.entries)}:{self._digest.hexdigest()[:16]}"

    def add_entry(self, entry: DatabaseEntry) -> DatabaseEntry:
        """Append a ready entry (the seam all mutation funnels through, so
        the content version, the embedding matrix and the identity index
        stay in sync)."""
        content = entry.to_dict()
        # The identity says which nest the entry came from, not what it
        # transfers: :meth:`exact` answers what :meth:`best_match` would,
        # so it changes no schedule and stays out of the version.
        content.pop("nest", None)
        with self._append_lock:  # row, entry and digest advance together
            count = len(self.entries)
            if self._vectors is None or count == len(self._vectors):
                # First entry or full: allocate, or double the capacity.
                import numpy as np
                spare = np.empty((max(16, count), EMBEDDING_SIZE))
                self._vectors = (spare if self._vectors is None
                                 else np.concatenate([self._vectors, spare]))
            self._vectors[count] = entry.embedding
            self.entries.append(entry)
            self._digest.update(
                json.dumps(content, sort_keys=True).encode("utf-8"))
            first = self._first.setdefault(entry.embedding, entry)
            if entry.nest is not None:
                self._exact.setdefault(entry.nest, first)
        return entry

    def add(self, embedding: PerformanceEmbedding, recipe: Recipe,
            runtime: Optional[float] = None,
            nest: Optional[str] = None) -> DatabaseEntry:
        """Insert a tuned nest into the database (``nest`` is its
        identity, when known)."""
        if len(embedding.vector) != EMBEDDING_SIZE:
            raise ValueError(
                f"embedding has {len(embedding.vector)} features, expected {EMBEDDING_SIZE}")
        return self.add_entry(
            DatabaseEntry(embedding=tuple(embedding.vector), recipe=recipe,
                          label=embedding.label, runtime=runtime, nest=nest))

    def exact(self, nest: str) -> Optional[DatabaseEntry]:
        """The entry :meth:`best_match` returns, at any bound >= 0, for a
        nest whose identity is ``nest``: the first entry added with the
        embedding of the first entry tuned on that nest (equal embeddings
        are exactly those at distance 0).  None when no entry was tuned on
        it."""
        return self._exact.get(nest)

    def distances(self, vector: Sequence[float]) -> List[float]:
        """Euclidean distance from ``vector`` to every entry, in entry order.

        One subtraction for the whole database, then ``sqrt(row . row)`` per
        row — the arithmetic of
        :func:`~repro.scheduler.embedding.pairwise_distance`, to the last bit
        (a vectorised norm sums in another order and is not).
        """
        if not self.entries:
            return []
        import numpy as np
        difference = (self._vectors[:len(self.entries)]
                      - np.asarray(vector, dtype=float))
        return [math.sqrt(row.dot(row)) for row in difference]

    def query(self, embedding: PerformanceEmbedding,
              k: int = 1) -> List[Tuple[float, DatabaseEntry]]:
        """Return the ``k`` nearest entries as ``(distance, entry)`` pairs;
        equal distances keep insertion order."""
        ranked = sorted(zip(self.distances(embedding.vector), self.entries),
                        key=lambda pair: pair[0])
        return ranked[:k]

    def best_match(self, embedding: PerformanceEmbedding,
                   max_distance: Optional[float] = None
                   ) -> Optional[DatabaseEntry]:
        """The nearest entry within ``max_distance`` (inclusive; the first
        added wins a tie), or None if the database is empty or too far."""
        best = None
        for distance, entry in zip(self.distances(embedding.vector),
                                   self.entries):
            if max_distance is not None and distance > max_distance:
                continue
            if best is None or distance < best[0]:
                best = (distance, entry)
        return best[1] if best is not None else None

    # -- persistence -----------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        return json.dumps([entry.to_dict() for entry in self.entries], indent=indent)

    @staticmethod
    def from_json(text: str) -> "TuningDatabase":
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("a tuning database is a JSON list of entries, "
                             f"not a JSON {type(data).__name__}")
        return TuningDatabase([DatabaseEntry.from_dict(item) for item in data])

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @staticmethod
    def load(path: str) -> "TuningDatabase":
        with open(path, "r", encoding="utf-8") as handle:
            return TuningDatabase.from_json(handle.read())
