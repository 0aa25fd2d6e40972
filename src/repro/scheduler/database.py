"""Transfer-tuning database.

The database stores pairs of (performance embedding, optimization recipe) for
normalized loop nests.  The daisy scheduler seeds it from the normalized A
variants of the benchmarks and queries it when scheduling new programs
(Section 4, "Seeding a Scheduling Database").

Entries additionally accumulate **online feedback**: measured runtimes of
schedules that actually executed (:meth:`record_measurement`).  Queries
re-rank by ``distance * feedback_bias`` — entries whose executed schedules
beat their cost-model prediction rank closer, entries that disappointed rank
farther — which closes the measurement-to-policy loop the cost model alone
cannot (*The Potential of Synergistic Static, Dynamic and Speculative Loop
Nest Optimizations*).  Feedback-free databases rank exactly as before.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..transforms.recipe import Recipe
from .base import retarget_recipe
from .embedding import EMBEDDING_SIZE, PerformanceEmbedding, feedback_bias

if TYPE_CHECKING:  # pragma: no cover - import only needed for annotations
    import numpy as np

_RETARGET_SUFFIX = re.compile(r"(?:@\d+)+$")


def recipe_base_name(name: str) -> str:
    """Strip the ``@<nest_index>`` suffixes :func:`retarget_recipe` appends."""
    return _RETARGET_SUFFIX.sub("", name) or name


def recipe_identity(recipe: Recipe) -> str:
    """Retarget-insensitive identity of a recipe.

    Recipes stored in the database are applied to other programs via
    :func:`~repro.scheduler.base.retarget_recipe`, which rewrites the
    ``nest_index`` parameters and appends ``@<index>`` to the name; this
    identity normalizes both back, so a recipe extracted from a scheduled
    response matches the database entry it was transferred from.
    """
    canonical = retarget_recipe(recipe, 0, name=recipe_base_name(recipe.name))
    return json.dumps(canonical.to_dict(), sort_keys=True)


@dataclass
class DatabaseEntry:
    """One tuned loop nest: its embedding, its recipe, and provenance."""

    embedding: Tuple[float, ...]
    recipe: Recipe
    label: str = ""
    runtime: Optional[float] = None
    #: Online feedback: mean measured runtime of executed schedules credited
    #: to this entry, and how many measurements back it.
    measured_runtime: Optional[float] = None
    measurements: int = 0

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "embedding": list(self.embedding),
            "recipe": self.recipe.to_dict(),
            "label": self.label,
            "runtime": self.runtime,
        }
        # Only emitted once feedback exists, so feedback-free dumps (and
        # the digests/dedup keys built from them) are byte-identical to
        # what earlier versions of this format produced.
        if self.measurements:
            data["measured_runtime"] = self.measured_runtime
            data["measurements"] = self.measurements
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "DatabaseEntry":
        runtime = data.get("runtime")
        measured = data.get("measured_runtime")
        return DatabaseEntry(
            embedding=tuple(float(x) for x in data["embedding"]),
            recipe=Recipe.from_dict(data["recipe"]),
            label=str(data.get("label", "")),
            runtime=float(runtime) if runtime is not None else None,
            measured_runtime=float(measured) if measured is not None else None,
            measurements=int(data.get("measurements", 0) or 0),
        )

    def identity(self) -> str:
        """Feedback-insensitive identity: what the entry prescribes, not how
        it has performed so far.  Cross-process dedup keys on this so an
        entry stays one entry as measurements accumulate."""
        return json.dumps({
            "embedding": list(self.embedding),
            "recipe": self.recipe.to_dict(),
            "label": self.label,
            "runtime": self.runtime,
        }, sort_keys=True)

    def bias(self) -> float:
        """This entry's measured-vs-predicted re-ranking bias (1.0 without
        usable feedback — see :func:`~repro.scheduler.embedding.feedback_bias`)."""
        return feedback_bias(self.runtime, self.measured_runtime,
                             self.measurements)


def measured_entry(vector: Sequence[float], label: str, recipe: Recipe,
                   measured_runtime: float) -> DatabaseEntry:
    """A measurement-born entry: a recipe known only from execution.

    Stored in canonical form (retargeted to nest 0, base name), with no
    predicted runtime — its bias stays 1.0 until a prediction exists to
    compare against, but it is now retrievable by similarity.
    """
    canonical = retarget_recipe(recipe, 0, name=recipe_base_name(recipe.name))
    return DatabaseEntry(
        embedding=tuple(float(x) for x in vector),
        recipe=canonical,
        label=label,
        runtime=None,
        measured_runtime=float(measured_runtime),
        measurements=1,
    )


def apply_feedback_record(record: Dict[str, object], database,
                          add_missing: bool = True) -> str:
    """Apply one serialized feedback record to ``database``.

    Records are what :meth:`repro.api.Session.measurement_feedback`
    produces — ``{"embedding", "label", "recipe", "measured", "scale"}``,
    plain JSON values so they cross process boundaries (the worker pool
    ships them to every worker).  ``database`` is any object with the
    :meth:`TuningDatabase.record_measurement` contract.  Returns the
    outcome: ``"applied"`` (an existing entry absorbed the timing),
    ``"added"`` (a measurement-born entry was created), or ``"skipped"``
    (nothing to credit: no embeddable nest, or ``add_missing`` off with no
    match).
    """
    vector = record.get("embedding")
    if vector is None:
        return "skipped"
    recipe = record["recipe"]
    if not isinstance(recipe, Recipe):
        recipe = Recipe.from_dict(recipe)
    embedding = PerformanceEmbedding(
        label=str(record.get("label", "")),
        vector=tuple(float(x) for x in vector))
    scale = record.get("scale")
    entry, created = database.record_measurement(
        embedding, recipe, float(record["measured"]),
        add_missing=add_missing,
        prediction_scale=float(scale) if scale is not None else None)
    if created:
        return "added"
    return "applied" if entry is not None else "skipped"


class TuningDatabase:
    """A collection of tuned loop nests queried by embedding similarity."""

    def __init__(self, entries: Optional[List[DatabaseEntry]] = None):
        self.entries: List[DatabaseEntry] = []
        #: Row ``i`` holds ``entries[i].embedding``; rows past ``len(entries)``
        #: are spare capacity.  Allocated by the first :meth:`add_entry`.
        self._vectors: Optional[np.ndarray] = None
        self._append_lock = threading.Lock()
        self._digest = hashlib.sha256(b"tuning-database")
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
        the content version and the embedding matrix stay in sync)."""
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
                json.dumps(entry.to_dict(), sort_keys=True).encode("utf-8"))
        return entry

    def add(self, embedding: PerformanceEmbedding, recipe: Recipe,
            runtime: Optional[float] = None) -> DatabaseEntry:
        """Insert a tuned nest into the database."""
        if len(embedding.vector) != EMBEDDING_SIZE:
            raise ValueError(
                f"embedding has {len(embedding.vector)} features, expected {EMBEDDING_SIZE}")
        return self.add_entry(
            DatabaseEntry(embedding=tuple(embedding.vector), recipe=recipe,
                          label=embedding.label, runtime=runtime))

    def checkpoint(self) -> Tuple[int, "hashlib._Hash"]:
        """The state :meth:`rewind` returns to: the entry count and the
        content digest.  Only appends can be undone: feedback folded into
        an existing entry after the checkpoint would stay on the entry but
        leave the restored version."""
        with self._append_lock:
            return len(self.entries), self._digest.copy()

    def rewind(self, checkpoint: Tuple[int, "hashlib._Hash"]
               ) -> List[DatabaseEntry]:
        """Drop the entries appended since ``checkpoint`` and restore its
        :attr:`version`; returns the dropped entries in insertion order."""
        count, digest = checkpoint
        with self._append_lock:
            dropped = self.entries[count:]
            del self.entries[count:]
            self._digest = digest.copy()
        return dropped

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

    def scored_query(self, embedding: PerformanceEmbedding, k: int = 1
                     ) -> List[Tuple[float, float, DatabaseEntry]]:
        """The ``k`` best entries as ``(score, distance, entry)`` triples,
        where ``score = distance * entry.bias()`` folds in online feedback.
        Without feedback every bias is exactly 1.0, so the ranking is the
        plain nearest-neighbor ranking."""
        scored = [(distance * entry.bias(), distance, entry)
                  for distance, entry in zip(self.distances(embedding.vector),
                                             self.entries)]
        scored.sort(key=lambda triple: triple[0])
        return scored[:k]

    def query(self, embedding: PerformanceEmbedding,
              k: int = 1) -> List[Tuple[float, DatabaseEntry]]:
        """Return the ``k`` best entries as ``(distance, entry)`` pairs
        (feedback-re-ranked; the reported distance stays the raw one)."""
        return [(distance, entry)
                for _, distance, entry in self.scored_query(embedding, k)]

    def best_scored(self, embedding: PerformanceEmbedding,
                    max_distance: Optional[float] = None
                    ) -> Optional[Tuple[float, float, DatabaseEntry]]:
        """Lowest-score entry among those within ``max_distance`` (raw
        embedding distance — feedback re-ranks but never widens the
        transfer radius), or None."""
        best = None
        for distance, entry in zip(self.distances(embedding.vector),
                                   self.entries):
            if max_distance is not None and distance > max_distance:
                continue
            score = distance * entry.bias()
            if best is None or (score, distance) < (best[0], best[1]):
                best = (score, distance, entry)
        return best

    def best_match(self, embedding: PerformanceEmbedding,
                   max_distance: Optional[float] = None
                   ) -> Optional[DatabaseEntry]:
        """The best entry, or None if the database is empty or too far."""
        best = self.best_scored(embedding, max_distance)
        return best[2] if best is not None else None

    # -- online feedback --------------------------------------------------------

    def find_measurement_target(self, vector: Sequence[float],
                                recipe_key: str
                                ) -> Optional[Tuple[float, DatabaseEntry]]:
        """The entry feedback for ``recipe_key`` should credit: among the
        entries prescribing that recipe (retarget-insensitive), the one
        whose embedding is nearest to ``vector``."""
        best = None
        for distance, entry in zip(self.distances(vector), self.entries):
            if recipe_identity(entry.recipe) != recipe_key:
                continue
            if best is None or distance < best[0]:
                best = (distance, entry)
        return best

    def apply_measurement(self, entry: DatabaseEntry,
                          measured_runtime: float) -> DatabaseEntry:
        """Fold one executed-schedule timing into ``entry`` (cumulative
        mean) and advance the content version, so schedule caches keyed on
        :attr:`version` revalidate against the re-ranked database."""
        count = entry.measurements
        previous = (entry.measured_runtime
                    if count and entry.measured_runtime is not None else 0.0)
        entry.measurements = count + 1
        entry.measured_runtime = ((previous * count + float(measured_runtime))
                                  / (count + 1))
        self._digest.update(json.dumps({
            "feedback": entry.identity(),
            "measured_runtime": entry.measured_runtime,
            "measurements": entry.measurements,
        }, sort_keys=True).encode("utf-8"))
        return entry

    def record_measurement(self, embedding: PerformanceEmbedding,
                           recipe: Recipe, measured_runtime: float,
                           add_missing: bool = True,
                           prediction_scale: Optional[float] = None
                           ) -> Tuple[Optional[DatabaseEntry], bool]:
        """Feed one executed schedule's measured runtime back online.

        Locates the entry by retarget-insensitive recipe identity plus
        nearest embedding and folds the timing in; when no entry prescribes
        the recipe (a search result that was never seeded) a new
        measurement-born entry is added — unless ``add_missing`` is False
        (a pool worker passes its coordinator's decision here, so its
        database mutates exactly like the coordinator's).  Returns
        ``(entry_or_None, created)``.

        ``prediction_scale`` is the program-level measured/predicted runtime
        ratio: program measurements credit per-nest entries, so the ratio —
        the quantity :func:`~repro.scheduler.embedding.feedback_bias` is
        after — is projected onto the matched entry's own predicted scale
        rather than comparing a whole-program wall time against a per-nest
        prediction.  Without it (or without a prediction to project onto)
        the raw measured value applies.
        """
        vector = tuple(float(x) for x in
                       getattr(embedding, "vector", embedding))
        key = recipe_identity(recipe)
        found = self.find_measurement_target(vector, key)
        if found is not None:
            entry = found[1]
            value = float(measured_runtime)
            if prediction_scale is not None and entry.runtime:
                value = entry.runtime * float(prediction_scale)
            return self.apply_measurement(entry, value), False
        if not add_missing:
            return None, False
        entry = measured_entry(vector, getattr(embedding, "label", ""),
                               recipe, measured_runtime)
        return self.add_entry(entry), True

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
