"""Deterministic retry scheduling for the engine's per-IXP tasks.

The engine retries a failed ``(config, ixp_id)`` task under a
:class:`RetryPolicy`: bounded attempts, capped exponential backoff, and a
jitter term derived **deterministically** from the task's digest — no
``random``, no wall-clock reads — so a rerun of the same faulting schedule
sleeps the same delays and contracts rule 4 (determinism) holds.  The sleep
itself is performed by the engine through an injectable callable, exactly
like the PR 8 phase clocks, so tests can record the schedule instead of
waiting it out.

:func:`task_digest` is the shared task identity: built like the engine's
cache keys (a sha256 over the config fingerprint plus the IXP id), it is
stable across runs, processes and interpreter restarts — the property that
makes both the backoff jitter and the fault-injection plans of
:mod:`repro.resilience.faultplan` replayable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from repro.config import InferenceConfig, config_fingerprint
from repro.exceptions import InferenceError


def task_digest(config: InferenceConfig, ixp_id: str) -> str:
    """Stable identity of one ``(config, ixp_id)`` per-IXP task.

    Digests the fingerprint of *every* config field plus the IXP id, the
    same construction the engine's cache keys use, so the digest is a pure
    function of the task — identical in the parent and in every worker
    process.
    """
    names = tuple(sorted(spec.name for spec in fields(config)))
    payload = repr((config_fingerprint(config, names), ixp_id))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _unit_fraction(digest: str, attempt: int) -> float:
    """A deterministic value in ``[0, 1)`` derived from (digest, attempt)."""
    payload = f"{digest}:{attempt}".encode("utf-8")
    value = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
    return value / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped, digest-jittered exponential backoff.

    ``max_attempts`` bounds the total tries per task, the first one
    included.  The backoff slept after failed attempt ``n`` is
    ``base_delay_s * 2 ** (n - 1)`` capped at ``max_delay_s``, stretched by
    up to ``jitter_fraction`` of itself.  The jitter is a pure function of
    ``(task digest, attempt)`` — see :func:`_unit_fraction` — so the whole
    schedule is replayable.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    max_delay_s: float = 0.25
    jitter_fraction: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.max_attempts, bool) or not isinstance(
            self.max_attempts, int
        ):
            raise InferenceError(
                f"max_attempts must be an int, got {self.max_attempts!r}"
            )
        if self.max_attempts < 1:
            raise InferenceError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0.0:
            raise InferenceError(
                f"base_delay_s must be non-negative, got {self.base_delay_s!r}"
            )
        if self.max_delay_s < self.base_delay_s:
            raise InferenceError(
                "max_delay_s must be at least base_delay_s, got "
                f"{self.max_delay_s!r} < {self.base_delay_s!r}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise InferenceError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction!r}"
            )

    def should_retry(self, completed_attempts: int) -> bool:
        """Whether a task that has consumed ``completed_attempts`` may rerun."""
        return completed_attempts < self.max_attempts

    def delay_s(self, digest: str, attempt: int) -> float:
        """The backoff slept after failed attempt ``attempt`` of one task."""
        if attempt < 1:
            raise InferenceError(f"attempt numbers start at 1, got {attempt}")
        capped = min(self.max_delay_s, self.base_delay_s * 2.0 ** (attempt - 1))
        return capped * (1.0 + self.jitter_fraction * _unit_fraction(digest, attempt))

    def schedule(self, digest: str) -> tuple[float, ...]:
        """Every backoff the policy would sleep for one task, in order.

        ``max_attempts - 1`` entries: no backoff follows the last attempt
        (exhaustion re-raises instead of sleeping).
        """
        return tuple(
            self.delay_s(digest, attempt) for attempt in range(1, self.max_attempts)
        )
