"""A request leaves no cyclic garbage.

A recursive closure (a nested function that calls itself) is a
function<->cell cycle: it keeps every local of the call that made it alive
until the cycle collector runs.  The request spine has none, so a schedule
frees what it built by reference counting alone.
"""

import gc

from helpers import fast_session

from repro.api import TuningDatabase


def _cyclic_garbage(call):
    """What the collector finds unreachable after ``call()`` (kept, not
    freed, under ``DEBUG_SAVEALL``)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = call()
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return result, found


def _describe(found):
    return sorted({getattr(obj, "__qualname__", type(obj).__name__)
                   for obj in found})


def test_a_cold_daisy_schedule_leaves_no_cyclic_garbage():
    session = fast_session()
    try:
        response, found = _cyclic_garbage(
            lambda: session.schedule("correlation:a"))
    finally:
        session.close()
    assert not response.from_cache
    assert found == [], f"{len(found)} objects: {_describe(found)}"


def test_a_transferred_schedule_leaves_no_cyclic_garbage():
    seeder = fast_session(size="small")
    try:
        seeder.seed(["atax", "gemm"])
        database = TuningDatabase.from_json(seeder.database.to_json())
    finally:
        seeder.close()
    session = fast_session(size="small", database=database)
    try:
        response, found = _cyclic_garbage(lambda: session.schedule("atax:b"))
    finally:
        session.close()
    details = [info.detail for info in response.result.nests]
    assert any("transfer from" in detail for detail in details), details
    assert found == [], f"{len(found)} objects: {_describe(found)}"
