"""Memoized per-node analyses shared across a scheduler's searches and a
pipeline's runs.

A search asks the same questions about one nest over and over — the
dependence direction vectors behind interchange and tiling legality, the
parallelism flags behind ``Parallelize`` and the cost model — and the
expression-rewrite passes ask which arrays a subtree writes at every
hoisting and CSE decision.  :class:`AnalysisManager` memoizes those answers:
the dependence questions under their ``dependence_skeleton``
(``repro.analysis.dependence``), the rewrite family's under the node's
*content fingerprint* (:meth:`AnalysisManager.cached_node`).  Content
keying makes invalidation automatic: a pass that changes a node produces a
new key, so stale entries are simply never looked up again.  A bounded LRU
keeps the memory footprint flat under sustained traffic.

The a-priori normalization stages memoize nothing: a fission edge set or a
minimal permutation costs less to recompute than its key (a SHA-256 of a
freshly built fragment) costs to build, so they take no manager.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Callable, Tuple

from ..ir.canonical import node_fragment
from ..ir.nodes import Node, Program
from ..ir.serialization import program_to_dict


def node_fingerprint(node: Node) -> str:
    """Stable content hash of one IR subtree (loop nest, computation, ...).

    Hashes the fragment the node already memoizes
    (:func:`repro.ir.canonical.node_fragment`), so a repeat fingerprint of
    an unchanged subtree costs one SHA-256, not a serialization walk.
    Statement labels are not part of the content.
    """
    return hashlib.sha256(node_fragment(node).encode("utf-8")).hexdigest()


def program_fingerprint(program: Program) -> str:
    """Stable content hash of a whole program (used for change detection)."""
    text = json.dumps(program_to_dict(program), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class AnalysisManager:
    """A bounded, thread-safe memo of per-node analysis results.

    Results are keyed by ``(kind, content key)``; the content key is a
    dependence skeleton (:meth:`get`) or the analyzed node's fingerprint
    (:meth:`cached_node`).  The manager never copies values — analyses must
    therefore return immutable data (tuples, frozen dataclasses, numbers),
    never IR node references.
    """

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max_entries
        self._entries: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0

    # -- core --------------------------------------------------------------------

    def get(self, kind: str, key: str, compute: Callable[[], Any]) -> Any:
        """Return the memoized result for ``(kind, key)``, computing on miss."""
        full_key = (kind, key)
        with self._lock:
            if full_key in self._entries:
                self._hits += 1
                self._entries.move_to_end(full_key)
                return self._entries[full_key]
            self._misses += 1
        # Compute outside the lock: analyses can be slow, and two threads
        # racing on the same key at worst duplicate one computation.
        value = compute()
        with self._lock:
            self._entries[full_key] = value
            self._entries.move_to_end(full_key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value

    def cached_node(self, kind: str, node: Node,
                    compute: Callable[[], Any]) -> Any:
        """Memoize ``compute()`` keyed by ``node``'s content."""
        return self.get(kind, node_fingerprint(node), compute)

    # -- introspection -----------------------------------------------------------

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def clear(self) -> None:
        """Drop all memoized results (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
