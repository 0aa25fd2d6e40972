"""Span recorder of the benchmark harness.

The harness measures every layer *from outside*: it wraps each call into a
layer's public function in a span ``{name, start, end, parent, op_id}``.
Spans are kept in memory and written out as JSON lines when the run ends;
a layer's self time is its span's duration minus its children's.

The harness drives load from one thread, so the open-span stack is a plain
list.  A disabled recorder hands out one shared no-op context manager, which
is what the end-to-end (untraced) runs use.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "Recorder", index: int):
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        recorder = self._recorder
        recorder.spans[self._index]["end"] = time.perf_counter()
        recorder._open.pop()


class Recorder:
    """Collects spans; ``enabled=False`` makes :meth:`span` free."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    def span(self, name: str, op_id: Optional[Any] = None):
        """Context manager recording one span under the currently open one.

        ``op_id`` identifies the request; children inherit their parent's.
        """
        if not self.enabled:
            return _NULL_SPAN
        parent = self._open[-1] if self._open else None
        if op_id is None and parent is not None:
            op_id = self.spans[parent]["op_id"]
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "op_id": op_id})
        self._open.append(index)
        return _Span(self, index)

    # -- derived views -----------------------------------------------------------

    def durations(self, name: str, under: Optional[str] = None) -> List[float]:
        """Durations (seconds) of every finished span called ``name``;
        ``under`` keeps only spans whose direct parent has that name."""
        found = []
        for span in self.spans:
            if span["name"] != name or span["end"] is None:
                continue
            if under is not None:
                parent = span["parent"]
                if parent is None or self.spans[parent]["name"] != under:
                    continue
            found.append(span["end"] - span["start"])
        return found

    def write_jsonl(self, path: str) -> None:
        """One span per line, with its index (``id``) and self time."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span["end"] is None:
                    continue
                line = dict(span, id=index, self_s=(
                    span["end"] - span["start"] - covered[index]))
                handle.write(json.dumps(line) + "\n")
