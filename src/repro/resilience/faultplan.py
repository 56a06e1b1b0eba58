"""Deterministic fault injection for the engine's executor seam.

A :class:`FaultPlan` maps task digests (:func:`~repro.resilience.policy.
task_digest`) to the faults that should fire at specific attempt numbers:
worker crashes, task exceptions, pickling failures and hangs.  The plan is
immutable and stateless — whether a fault fires is a pure function of
``(digest, attempt)`` — so a chaos run is *replayable*: the same plan over
the same tasks injects the same faults, and the engine's recovery from them
can be pinned bit-for-bit against the fault-free schedule.

The plan rides into worker processes through the pool initializer (it is
plain picklable data) and is consulted by the worker entry point before the
chain computes; the in-process serial schedule consults it through the
same :func:`perform_fault` with ``in_worker=False``, where a "crash"
becomes a raised :class:`~repro.exceptions.WorkerCrashError` and a pickling
fault is a no-op (nothing crosses a pickle).

This module is exempt from contracts rule 4 (determinism): its *job* is
to call ``os._exit`` and ``time.sleep`` — it IS the injected fault.  The
exemption is sound because every call site is gated on a fault the plan
scheduled deterministically; no step result ever depends on these calls.
"""

from __future__ import annotations

import enum
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NoReturn, Sequence

from repro.config import InferenceConfig
from repro.exceptions import InferenceError, InjectedFaultError, WorkerCrashError
from repro.resilience.policy import task_digest

#: Exit status an injected crash kills the worker process with.
CRASH_EXIT_CODE = 87


class FaultKind(enum.Enum):
    """The failure modes the harness can inject."""

    #: Kill the worker process outright (``os._exit``); the in-process
    #: serial schedule raises :class:`WorkerCrashError` instead.
    CRASH = "crash"
    #: Raise :class:`InjectedFaultError` from the task body.
    EXCEPTION = "exception"
    #: Return a payload whose pickling fails (worker-side only; a no-op
    #: for the in-process serial schedule, which never pickles results).
    PICKLE = "pickle"
    #: Sleep ``hang_s`` before computing, long enough to trip the
    #: engine's per-task timeout.
    HANG = "hang"


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what fires, and at which attempt numbers.

    ``attempts`` lists the 1-based attempt numbers the fault fires at, so
    a retried task converges once its listed attempts are spent.
    """

    kind: FaultKind
    attempts: tuple[int, ...] = (1,)
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if not self.attempts:
            raise InferenceError("a fault must name at least one attempt")
        for attempt in self.attempts:
            if attempt < 1:
                raise InferenceError(
                    f"attempt numbers start at 1, got {attempt}"
                )
        if self.hang_s <= 0.0:
            raise InferenceError(f"hang_s must be positive, got {self.hang_s!r}")


class _UnpicklablePayload:
    """A worker return value whose pickling deterministically fails."""

    def __init__(self, digest: str, attempt: int) -> None:
        self.digest = digest
        self.attempt = attempt

    def __reduce__(self) -> NoReturn:
        raise InjectedFaultError(
            f"injected pickling failure for task {self.digest[:12]} "
            f"(attempt {self.attempt})"
        )


class FaultPlan:
    """Immutable schedule of injected faults, keyed by task digest.

    Stateless by construction: :meth:`fault_at` is a pure function, so the
    plan can be shared, pickled into workers and replayed without drift.
    """

    def __init__(self, faults: Mapping[str, Sequence[FaultSpec]]) -> None:
        self._faults: dict[str, tuple[FaultSpec, ...]] = {
            digest: tuple(specs) for digest, specs in faults.items()
        }

    @classmethod
    def for_tasks(
        cls, entries: Iterable[tuple[InferenceConfig, str, FaultSpec]]
    ) -> FaultPlan:
        """A plan from ``(config, ixp_id, fault)`` entries (digests derived)."""
        faults: dict[str, list[FaultSpec]] = {}
        for config, ixp_id, spec in entries:
            faults.setdefault(task_digest(config, ixp_id), []).append(spec)
        return cls(faults)

    def fault_at(self, digest: str, attempt: int) -> FaultSpec | None:
        """The fault planned for ``(digest, attempt)``, if any."""
        for spec in self._faults.get(digest, ()):
            if attempt in spec.attempts:
                return spec
        return None

    def __len__(self) -> int:
        return len(self._faults)


def perform_fault(
    plan: FaultPlan,
    digest: str,
    attempt: int,
    *,
    in_worker: bool,
    sleep: Callable[[float], None] = time.sleep,
) -> object | None:
    """Execute the fault planned for ``(digest, attempt)``, if any.

    Returns ``None`` in every surviving path except an in-worker PICKLE
    fault, which returns the poisoned payload for the task to ship (the
    failure then fires in the worker's result pickling, exactly where a
    real unpicklable result would).
    """
    fault = plan.fault_at(digest, attempt)
    if fault is None:
        return None
    if fault.kind is FaultKind.CRASH:
        if in_worker:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(
            f"injected worker crash for task {digest[:12]} (attempt {attempt})"
        )
    if fault.kind is FaultKind.EXCEPTION:
        raise InjectedFaultError(
            f"injected task exception for task {digest[:12]} (attempt {attempt})"
        )
    if fault.kind is FaultKind.PICKLE:
        return _UnpicklablePayload(digest, attempt) if in_worker else None
    sleep(fault.hang_s)
    return None
