"""Fault tolerance for the pipeline engine's executor seam.

``PipelineEngine(max_workers > 1)`` ships per-IXP chains to a process
pool; this package gives that seam *failure semantics*, in three
deterministic pieces:

* :class:`RetryPolicy` (:mod:`~repro.resilience.policy`) — bounded retries
  per ``(config, ixp_id)`` task with capped exponential backoff whose
  jitter derives from the task digest, not from ``random`` or the clock;
* :class:`ResilienceEvent` / :class:`ResilienceLog`
  (:mod:`~repro.resilience.events`) — the typed journal every recovery
  decision is recorded in, surfaced via ``executor_stats()``;
* :class:`FaultPlan` (:mod:`~repro.resilience.faultplan`) — a replayable
  fault-injection harness keyed by task digest, wrapping the worker entry
  point with crashes, exceptions, pickling failures and hangs.

The headline property, pinned by ``tests/test_resilience.py`` and the
chaos benchmark: a run with injected worker crashes and timeouts completes
and its ``PipelineOutcome`` is bit-identical to the fault-free serial
schedule.
"""

from repro.resilience.events import (
    ResilienceEvent,
    ResilienceEventKind,
    ResilienceLog,
)
from repro.resilience.faultplan import (
    CRASH_EXIT_CODE,
    FaultKind,
    FaultPlan,
    FaultSpec,
    perform_fault,
)
from repro.resilience.policy import RetryPolicy, task_digest

__all__ = [
    "CRASH_EXIT_CODE",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "ResilienceEvent",
    "ResilienceEventKind",
    "ResilienceLog",
    "RetryPolicy",
    "perform_fault",
    "task_digest",
]
