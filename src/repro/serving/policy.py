"""Queue-scheduling policies of the serving queue.

*OpenMP Loop Scheduling Revisited* (PAPERS.md) argues that a scheduling
policy is chosen on measured runtime distributions, and that no single
policy wins every workload.  The serving queue therefore takes its
ordering discipline from a :class:`QueuePolicy` selected per service
(``ServiceConfig.policy`` / ``serve --policy``); two ship:

* ``strict-priority`` — key ``(priority,)``: the default.
* ``weighted-fair`` — start-time fair queueing: each priority class *c*
  owns a virtual finish time advanced by ``1/weight(c)`` per enqueue, and
  the class clocks are floored by a global virtual time advanced on
  dequeue, so an idle class earns no credit and no class starves.

**How policies plug into the queue.**  The service keeps a ``heapq``
heap; a policy reduces its discipline to a *static sort key* computed once
at enqueue time — smaller keys drain first, ties broken FIFO by the
service's arrival sequence.  Only an urgent coalescing rider re-keys an
entry (to its :meth:`QueuePolicy.rider_key`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from ..api.types import LOWEST_PRIORITY, ScheduleRequest


class PolicyError(ValueError):
    """Unknown queue-policy name."""


class QueuePolicy:
    """Base class of queue-scheduling policies.

    A policy maps each admitted request to a static sort key
    (:meth:`sort_key`); the service's priority queue drains smaller keys
    first, FIFO within equal keys.  All calls happen under the service's
    lock, so stateful policies need no locking of their own.
    """

    def sort_key(self, request: ScheduleRequest,
                 now: float) -> Tuple[float, ...]:
        """The queue key of ``request`` enqueued at ``now``
        (``time.perf_counter``).  Smaller drains first.  May advance policy
        state — call exactly once per queued request."""
        raise NotImplementedError

    def rider_key(self, request: ScheduleRequest,
                  now: float) -> Tuple[float, ...]:
        """The key ``request`` *would* get, without committing policy state.

        Coalescing riders attach to an in-flight leader instead of queueing
        work of their own; the service compares this key against the
        leader's to decide whether to re-prioritize the leader.  Stateless
        policies simply reuse :meth:`sort_key`.
        """
        return self.sort_key(request, now)

    def on_dequeue(self, key: Tuple[float, ...]) -> None:
        """Hook invoked when the entry queued under ``key`` enters service
        (weighted-fair advances its global virtual clock here)."""


class StrictPriorityPolicy(QueuePolicy):
    """Priority 0 drains first, FIFO within a class (the default).

    A sustained stream of urgent requests starves lower classes forever —
    by design; pick ``weighted-fair`` when that is not acceptable.
    """

    def sort_key(self, request: ScheduleRequest,
                 now: float) -> Tuple[float, ...]:
        return (float(request.priority),)


class WeightedFairPolicy(QueuePolicy):
    """Start-time fair queueing over priority classes — no starvation.

    Each class *c* receives service in proportion to its weight
    ``LOWEST_PRIORITY + 1 - c``: priority 0 weighs 10, priority 9 weighs 1
    (a class outside that range weighs 1).  A request's key is its class's
    virtual *finish* time: the class clock advances ``1/weight`` per
    request and is floored by the global virtual time, which itself
    advances to the key of each request entering service — so an idle
    class accumulates no credit, and every queued request holds a finite
    key that the advancing floor eventually reaches: no class waits
    forever behind a burst.
    """

    weights: Dict[int, float] = {c: float(LOWEST_PRIORITY + 1 - c)
                                 for c in range(LOWEST_PRIORITY + 1)}

    def __init__(self) -> None:
        self._virtual = 0.0
        self._finish: Dict[int, float] = {}

    def _next_finish(self, request: ScheduleRequest) -> float:
        klass = request.priority
        weight = self.weights.get(klass, 1.0)
        start = max(self._virtual, self._finish.get(klass, 0.0))
        return start + 1.0 / weight

    def sort_key(self, request: ScheduleRequest,
                 now: float) -> Tuple[float, ...]:
        finish = self._next_finish(request)
        self._finish[request.priority] = finish
        return (finish,)

    def rider_key(self, request: ScheduleRequest,
                  now: float) -> Tuple[float, ...]:
        # A rider consumes no service share: peek without committing.
        return (self._next_finish(request),)

    def on_dequeue(self, key: Tuple[float, ...]) -> None:
        self._virtual = max(self._virtual, key[0])


#: The shipped policies: name -> QueuePolicy subclass.
POLICIES: Dict[str, Type[QueuePolicy]] = {
    "strict-priority": StrictPriorityPolicy,
    "weighted-fair": WeightedFairPolicy,
}


def policy_names() -> List[str]:
    """The policy names, sorted."""
    return sorted(POLICIES)


def create_policy(name: str) -> QueuePolicy:
    """A fresh instance of the policy named ``name``."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise PolicyError(
            f"unknown queue policy {name!r}; known policies: "
            f"{', '.join(policy_names())}") from None
    return cls()
