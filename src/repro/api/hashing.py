"""Content addressing for programs.

The normalization cache and the schedule cache are keyed by *content hashes*
of programs.  Two hashes are used:

* :func:`program_content_hash` — the hash of a program's structure as
  written.  Two builds of the same variant hash equal; different variants do
  not.
* the *canonical-form hash* — :func:`program_content_hash` applied to the
  output of a-priori normalization.  Because normalization maps equivalent
  loop structures onto one canonical form (the paper's central claim),
  normalized-equivalent variants — e.g. GEMM in any of its six loop orders —
  share this hash, which is what lets one variant's schedule be served to
  another from the cache.

Hashes ignore incidental naming: the program name, statement labels, and the
declaration order of arrays and parameters do not affect the hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from ..ir.canonical import canonical_program_json
from ..ir.nodes import Program
from ..ir.serialization import program_to_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .types import ScheduleRequest


def canonical_program_dict(program: Program) -> Dict[str, Any]:
    """A serialization of ``program`` with incidental naming stripped.

    The program name and per-statement names are replaced by empty strings,
    and arrays/parameters are sorted, so that the dictionary depends only on
    the loop structure, the access functions, and the array shapes.
    """
    data = program_to_dict(program)
    data["name"] = ""
    data["parameters"] = sorted(data["parameters"])
    data["arrays"] = sorted(data["arrays"], key=lambda entry: entry["name"])

    def strip(node: Dict[str, Any]) -> None:
        if node.get("kind") == "computation":
            node["name"] = ""
        for child in node.get("body", ()):
            strip(child)

    for node in data["body"]:
        strip(node)
    return data


def _stable_value(value: Any) -> Any:
    """Reduce configuration values to something JSON/stable-comparable."""
    # Exact types first, same answers: skips the slow dataclass/Mapping tests.
    kind = type(value)
    if value is None or kind in (str, int, float, bool):
        return value
    if kind is not dict and is_dataclass(value) and not isinstance(value, type):
        return {f.name: _stable_value(getattr(value, f.name)) for f in fields(value)}
    if kind is dict or isinstance(value, Mapping):
        return {str(k): _stable_value(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_stable_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


#: ``json.dumps(value, sort_keys=True)`` without an encoder built per call.
_dumps_sorted = json.JSONEncoder(sort_keys=True).encode


def fingerprint(value: Any) -> str:
    """A short stable fingerprint of a configuration object (e.g. options)."""
    text = _dumps_sorted(_stable_value(value))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def program_content_hash(program: Program, extra: Optional[Any] = None) -> str:
    """SHA-256 content hash of a program (plus optional extra key material).

    Hashes the bytes the reference in ``tests/test_hash_consing.py`` hashes,
    but assembles them from the IR's memoized canonical fragments
    (:mod:`repro.ir.canonical`) instead of re-walking the tree, so repeat
    hashes of a warm program cost only the program-level join.
    """
    body = canonical_program_json(program)
    if extra is None:
        text = '{"program": %s}' % body
    else:
        # "extra" sorts before "program"; both dumps use sort_keys so the
        # payload is byte-identical to the reference json.dumps of the dict.
        text = '{"extra": %s, "program": %s}' % (
            json.dumps(_stable_value(extra), sort_keys=True), body)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def request_fingerprint(request: "ScheduleRequest") -> str:
    """Content hash identifying requests that must produce identical responses.

    Programs given as IR hash by structure (name-insensitive), so two
    clients submitting the same kernel coalesce even if they named it
    differently; registry names and source text hash as written.  The label
    is excluded: it only affects tuning provenance, and tune requests are
    rejected by the service anyway.

    Shared by the serving tier (request coalescing) and the session-level
    response cache (the fast lane), which must agree on what "the same
    request" means.
    """
    program = request.program
    if isinstance(program, Program):
        program_key = program_content_hash(program)
    else:
        program_key = str(program)
    # ``fingerprint`` of six fields, built directly (persisted keys: same bytes).
    text = _dumps_sorted({
        "program": program_key,
        # None (use registry defaults) and {} (schedule with no bindings)
        # resolve differently and must not coalesce onto one another.
        "parameters": (_stable_value(dict(request.parameters))
                       if request.parameters is not None else None),
        "scheduler": _stable_value(request.scheduler),
        "threads": _stable_value(request.threads),
        "normalize": _stable_value(request.normalize),
        # Different normalization pipelines produce different schedules;
        # they must never ride one another's in-flight request.
        "pipeline": _stable_value(request.pipeline),
    })
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
