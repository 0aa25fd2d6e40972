"""Memoized per-nest analyses shared across pipeline runs.

Normalization and scheduling repeatedly answer the same questions about loop
nests: which statements of a body depend on each other (fission legality),
which permutations of a band are legal, and what each order costs in strides.
Computing those answers dominates pipeline wall time, yet normalized-
equivalent workloads keep asking them about *identical* nests — the scaling
loop of every GEMM variant, the repeated kernels of a batch, the second run
of an idempotence check.

:class:`AnalysisManager` memoizes analysis results keyed by the *content
fingerprint* of the analyzed node (plus any extra key material, e.g. array
shapes and parameter bindings for stride costs).  Content keying makes
invalidation automatic: a pass that changes a nest produces a new
fingerprint, so stale entries are simply never looked up again — entries are
only recomputed when a pass reported a change to the nest they describe.
A bounded LRU keeps the memory footprint flat under sustained traffic.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import Any, Callable, Optional, Tuple

from ..ir.canonical import node_fragment
from ..ir.nodes import Node, Program
from ..ir.serialization import program_to_dict


def node_fingerprint(node: Node) -> str:
    """Stable content hash of one IR subtree (loop nest, computation, ...).

    Hashes the fragment the node already memoizes
    (:func:`repro.ir.canonical.node_fragment`), so a repeat fingerprint of
    an unchanged subtree costs one SHA-256, not a serialization walk.
    Statement labels are not part of the content: an analysis whose answer
    depends on them passes the label as ``extra`` key material.
    """
    return hashlib.sha256(node_fragment(node).encode("utf-8")).hexdigest()


def program_fingerprint(program: Program) -> str:
    """Stable content hash of a whole program (used for change detection)."""
    text = json.dumps(program_to_dict(program), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _stable_extra(extra: Any) -> str:
    return json.dumps(extra, sort_keys=True, default=repr)


class AnalysisManager:
    """A bounded, thread-safe memo of per-node analysis results.

    Results are keyed by ``(kind, content key)``; the content key is derived
    from the analyzed node's fingerprint plus caller-supplied extra key
    material.  The manager never copies values — analyses must therefore
    return immutable data (tuples, frozen dataclasses, numbers), never IR
    node references.
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

    def cached_node(self, kind: str, node: Node, compute: Callable[[], Any],
                    extra: Optional[Any] = None) -> Any:
        """Memoize ``compute()`` keyed by ``node``'s content (plus ``extra``)."""
        key = node_fingerprint(node)
        if extra is not None:
            key = f"{key}|{_stable_extra(extra)}"
        return self.get(kind, key, compute)

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
