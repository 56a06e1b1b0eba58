"""Typed journal of the engine's fault-handling decisions.

Every decision the resilient scheduler makes — a retry, a task timeout, a
worker crash, a pool rebuild, an executor demotion — is recorded as a
:class:`ResilienceEvent` in the engine's :class:`ResilienceLog` and surfaced
through ``PipelineEngine.executor_stats()``.  Nothing is silent: a run that
survived faults *says so*, in a form tests can pin.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ResilienceEventKind(enum.Enum):
    """What kind of fault-handling decision an event records."""

    RETRY = "retry"
    TASK_TIMEOUT = "task-timeout"
    WORKER_CRASH = "worker-crash"
    POOL_REBUILD = "pool-rebuild"
    EXECUTOR_DEMOTION = "executor-demotion"


@dataclass(frozen=True)
class ResilienceEvent:
    """One fault-handling decision the engine made.

    ``context`` names what the event is about — an IXP id for per-task
    events (retries, timeouts), ``"pool"`` for pool lifecycle events,
    ``"scheduler"`` for demotions.  ``attempt`` is the 1-based attempt
    number the decision concerned, where one applies.
    """

    kind: ResilienceEventKind
    context: str
    detail: str = ""
    attempt: int | None = None


class ResilienceLog:
    """Append-only journal of :class:`ResilienceEvent`.

    One log lives on each engine for the engine's lifetime (events
    accumulate across runs, like the executor counters); reads hand out
    immutable snapshots.
    """

    def __init__(self) -> None:
        self._events: list[ResilienceEvent] = []

    def record(self, event: ResilienceEvent) -> None:
        """Append one event."""
        self._events.append(event)

    def snapshot(self) -> tuple[ResilienceEvent, ...]:
        """Every recorded event, oldest first."""
        return tuple(self._events)

    def counts(self) -> dict[str, int]:
        """Event tallies keyed by the kind's string value."""
        counts: dict[str, int] = {}
        for event in self.snapshot():
            counts[event.kind.value] = counts.get(event.kind.value, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._events)
