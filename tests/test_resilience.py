"""Tests for the resilience layer: retries, timeouts, demotion, fault injection.

The headline property, pinned end to end by ``TestChaosEquivalence``: a run
with injected worker crashes, task exceptions and hangs *completes*, every
recovery decision is journalled in ``executor_stats()``, and the resulting
``PipelineOutcome`` is bit-identical to the fault-free serial schedule.

The unit layers underneath pin what makes that property deterministic:
:class:`RetryPolicy` backoffs are a pure function of the task digest (no
``random``, no clock), :class:`FaultPlan` injection is a pure function of
``(digest, attempt)``, and the engine's cascade ``process -> serial``
demotes on a task timeout, journalled and warned, never silent.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.engine import PipelineEngine, StepResultCache
from repro.exceptions import (
    ExecutorDegradedWarning,
    InferenceError,
    InjectedFaultError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceEventKind,
    RetryPolicy,
    perform_fault,
    task_digest,
)

#: Generous per-task timeout for chaos runs: a warm per-IXP chain on the
#: tiny study takes milliseconds, a freshly rebuilt pool initialises in
#: well under a second, and the injected hangs sleep far longer.
CHAOS_TIMEOUT_S = 6.0

#: Per-task timeout when the hung task is the first one collected: no other
#: result is waited on under it, so it only has to be shorter than the hang.
HANG_TIMEOUT_S = 0.5


# ------------------------------------------------------------------ #
# RetryPolicy / task_digest
# ------------------------------------------------------------------ #

class TestTaskDigest:
    def test_stable_and_distinct(self, tiny_study):
        from dataclasses import replace
        config = tiny_study.config.inference
        a, b = tiny_study.studied_ixp_ids[:2]
        assert task_digest(config, a) == task_digest(config, a)
        assert task_digest(config, a) != task_digest(config, b)
        nudged = replace(
            config,
            rtt_baseline_threshold_ms=config.rtt_baseline_threshold_ms + 0.5)
        assert task_digest(nudged, a) != task_digest(config, a)


class TestRetryPolicy:
    def test_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.01, max_delay_s=0.05,
            jitter_fraction=0.5)
        digest = "ab" * 32
        schedule = policy.schedule(digest)
        assert len(schedule) == policy.max_attempts - 1
        assert schedule == policy.schedule(digest)
        for attempt, delay in enumerate(schedule, start=1):
            base = min(0.05, 0.01 * 2.0 ** (attempt - 1))
            assert base <= delay <= base * 1.5
        # The jitter depends on the digest, so two tasks never sleep in
        # lockstep (thundering-herd protection without random state).
        assert schedule != policy.schedule("cd" * 32)

    def test_should_retry_bounds_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(0)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)
        single = RetryPolicy(max_attempts=1)
        assert not single.should_retry(1)
        assert single.schedule("ab" * 32) == ()

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"max_attempts": -1},
        {"max_attempts": 2.5},
        {"max_attempts": True},
        {"base_delay_s": -0.01},
        {"max_delay_s": 0.001},   # below the default base_delay_s
        {"jitter_fraction": -0.1},
        {"jitter_fraction": 1.5},
    ])
    def test_invalid_parameters_are_rejected(self, kwargs):
        with pytest.raises(InferenceError):
            RetryPolicy(**kwargs)

    def test_delay_rejects_attempt_zero(self):
        with pytest.raises(InferenceError):
            RetryPolicy().delay_s("ab" * 32, 0)


# ------------------------------------------------------------------ #
# FaultPlan / perform_fault
# ------------------------------------------------------------------ #

class TestFaultPlan:
    def test_fault_at_is_pure_and_attempt_scoped(self, tiny_study):
        config = tiny_study.config.inference
        ixp = tiny_study.studied_ixp_ids[0]
        spec = FaultSpec(FaultKind.EXCEPTION, attempts=(1, 3))
        plan = FaultPlan.for_tasks([(config, ixp, spec)])
        digest = task_digest(config, ixp)
        assert len(plan) == 1
        for _ in range(2):  # replayable: consulting never mutates the plan
            assert plan.fault_at(digest, 1) is spec
            assert plan.fault_at(digest, 2) is None
            assert plan.fault_at(digest, 3) is spec
            assert plan.fault_at("00" * 32, 1) is None

    def test_plan_survives_pickling(self, tiny_study):
        config = tiny_study.config.inference
        ixp = tiny_study.studied_ixp_ids[0]
        plan = FaultPlan.for_tasks(
            [(config, ixp, FaultSpec(FaultKind.CRASH))])
        clone = pickle.loads(pickle.dumps(plan))
        digest = task_digest(config, ixp)
        assert clone.fault_at(digest, 1).kind is FaultKind.CRASH

    @pytest.mark.parametrize("kwargs", [
        {"attempts": ()},
        {"attempts": (0,)},
        {"hang_s": 0.0},
    ])
    def test_invalid_specs_are_rejected(self, kwargs):
        with pytest.raises(InferenceError):
            FaultSpec(FaultKind.HANG, **kwargs)

    def test_perform_fault_in_process_semantics(self):
        digest = "ab" * 32
        plan = FaultPlan({digest: (FaultSpec(FaultKind.CRASH),)})
        with pytest.raises(WorkerCrashError):
            perform_fault(plan, digest, 1, in_worker=False)
        assert perform_fault(plan, digest, 2, in_worker=False) is None

        plan = FaultPlan({digest: (FaultSpec(FaultKind.EXCEPTION),)})
        with pytest.raises(InjectedFaultError):
            perform_fault(plan, digest, 1, in_worker=False)

        # A pickling fault is a no-op in-process (nothing crosses a pickle)
        # but poisons the worker-side return value.
        plan = FaultPlan({digest: (FaultSpec(FaultKind.PICKLE),)})
        assert perform_fault(plan, digest, 1, in_worker=False) is None
        payload = perform_fault(plan, digest, 1, in_worker=True)
        assert payload is not None
        with pytest.raises(InjectedFaultError):
            pickle.dumps(payload)

        plan = FaultPlan({digest: (FaultSpec(FaultKind.HANG, hang_s=4.5),)})
        slept: list[float] = []
        perform_fault(plan, digest, 1, in_worker=False, sleep=slept.append)
        assert slept == [4.5]


# ------------------------------------------------------------------ #
# Engine construction validation
# ------------------------------------------------------------------ #

def _engine(study, **kwargs):
    return PipelineEngine(
        study.inputs, delay_model=study.delay_model,
        geo_index=study.geo_index, **kwargs)


class TestEngineValidation:
    @pytest.mark.parametrize("max_workers", [0, -1, 2.5, True, "2"])
    def test_bad_max_workers_fails_at_construction(
        self, tiny_study, max_workers
    ):
        with pytest.raises(InferenceError):
            _engine(tiny_study, max_workers=max_workers)

    @pytest.mark.parametrize("max_workers", [None, 1, 2])
    def test_good_max_workers_accepted(self, tiny_study, max_workers):
        _engine(tiny_study, max_workers=max_workers)

    @pytest.mark.parametrize(
        "timeout", [0.0, -1.0, True, "5", float("nan")])
    def test_bad_task_timeout_fails_at_construction(self, tiny_study, timeout):
        with pytest.raises(InferenceError):
            _engine(tiny_study, task_timeout_s=timeout)

    @pytest.mark.parametrize("budget", [
        {"cache_max_entries": 0},
        {"cache_max_entries": -3},
        {"cache_max_entries": 2.5},
        {"cache_max_bytes": True},
        {"cache_max_bytes": 0},
    ])
    def test_bad_cache_budget_fails_at_construction(self, tiny_study, budget):
        with pytest.raises(InferenceError):
            _engine(tiny_study, **budget)
        # The cache validates through the same check when built directly.
        (name, value), = budget.items()
        with pytest.raises(InferenceError):
            StepResultCache(**{name.removeprefix("cache_"): value})

    def test_good_budgets_accepted(self, tiny_study):
        engine = _engine(
            tiny_study, task_timeout_s=5, cache_max_entries=1,
            cache_max_bytes=1 << 20)
        assert engine.task_timeout_s == 5
        assert engine.cache.max_entries == 1
        _engine(tiny_study, task_timeout_s=0.5)


# ------------------------------------------------------------------ #
# Scheduler integration: retries, demotion, crash recovery
# ------------------------------------------------------------------ #

@pytest.fixture(scope="module")
def reference_outcome(tiny_study):
    """The fault-free serial schedule every chaos run must reproduce."""
    engine = _engine(tiny_study)
    return engine.run(
        tiny_study.config.inference, tiny_study.studied_ixp_ids)


def _events(engine):
    return [(event.kind.value, event.context, event.attempt)
            for event in engine.resilience_events()]


class TestRetryIntegration:
    def test_serial_retry_sleeps_the_deterministic_schedule(
        self, tiny_study, reference_outcome
    ):
        config = tiny_study.config.inference
        ixps = tiny_study.studied_ixp_ids
        victim = ixps[1]
        plan = FaultPlan.for_tasks(
            [(config, victim, FaultSpec(FaultKind.EXCEPTION, attempts=(1, 2)))])
        slept: list[float] = []
        engine = _engine(tiny_study, fault_plan=plan, sleep=slept.append)
        outcome = engine.run(config, ixps)
        assert outcome == reference_outcome
        policy, digest = engine.retry_policy, task_digest(config, victim)
        assert slept == [policy.delay_s(digest, 1), policy.delay_s(digest, 2)]
        assert _events(engine) == [("retry", victim, 1), ("retry", victim, 2)]

    def test_exhausted_policy_raises_and_shutdown_stays_idempotent(
        self, tiny_study
    ):
        config = tiny_study.config.inference
        ixps = tiny_study.studied_ixp_ids
        plan = FaultPlan.for_tasks(
            [(config, ixps[0],
              FaultSpec(FaultKind.EXCEPTION, attempts=(1, 2, 3)))])
        engine = _engine(
            tiny_study, fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3), sleep=lambda _s: None)
        with pytest.raises(InjectedFaultError):
            engine.run(config, ixps)
        # Two retries were journalled before attempt 3 re-raised.
        assert _events(engine) == [
            ("retry", ixps[0], 1), ("retry", ixps[0], 2)]
        # The failed run must not leak phase accounting or pools.
        assert engine.executor_stats()["runs_timed"] == 1
        engine.shutdown()
        engine.shutdown()


class TestTimeoutDemotion:
    def test_process_timeout_demotes_to_serial(
        self, tiny_study, reference_outcome
    ):
        config = tiny_study.config.inference
        ixps = tiny_study.studied_ixp_ids
        # The first task collected hangs, so it is the one that times out;
        # its worker is terminated with the retired pool.
        plan = FaultPlan.for_tasks(
            [(config, ixps[0],
              FaultSpec(FaultKind.HANG, attempts=(1,), hang_s=60.0))])
        engine = _engine(
            tiny_study, max_workers=2, fault_plan=plan,
            task_timeout_s=HANG_TIMEOUT_S, sleep=lambda _s: None)
        try:
            with pytest.warns(ExecutorDegradedWarning):
                outcome = engine.run(config, ixps)
            stats = engine.executor_stats()
        finally:
            engine.shutdown()
        assert outcome == reference_outcome
        assert _events(engine) == [
            ("task-timeout", ixps[0], 1), ("executor-demotion", "scheduler", None)]
        detail = engine.resilience_events()[1].detail
        assert detail.startswith("process->serial")
        assert stats["pools_created"] == stats["pools_retired"] == 1
        assert not stats["process_pool_live"]

    def test_timeout_exhaustion_raises_task_timeout_error(self, tiny_study):
        config = tiny_study.config.inference
        ixps = tiny_study.studied_ixp_ids
        plan = FaultPlan.for_tasks(
            [(config, ixps[0],
              FaultSpec(FaultKind.HANG, attempts=(1,), hang_s=60.0))])
        engine = _engine(
            tiny_study, max_workers=2, fault_plan=plan,
            task_timeout_s=HANG_TIMEOUT_S, sleep=lambda _s: None,
            retry_policy=RetryPolicy(max_attempts=1))
        try:
            with pytest.raises(TaskTimeoutError):
                engine.run(config, ixps)
            # The hung pool is retired (its worker terminated) before the
            # error propagates, so shutdown does not wait out the hang.
            stats = engine.executor_stats()
        finally:
            engine.shutdown()
        assert stats["pools_retired"] == 1
        assert not stats["process_pool_live"]


class TestCrashRecovery:
    def test_pool_rebuild_resubmits_and_stays_bit_identical(
        self, tiny_study, reference_outcome
    ):
        config = tiny_study.config.inference
        ixps = tiny_study.studied_ixp_ids
        plan = FaultPlan.for_tasks(
            [(config, ixps[0], FaultSpec(FaultKind.CRASH, attempts=(1,)))])
        engine = _engine(
            tiny_study, max_workers=2, fault_plan=plan,
            sleep=lambda _s: None)
        try:
            outcome = engine.run(config, ixps)
            stats = engine.executor_stats()
        finally:
            engine.shutdown()
        assert outcome == reference_outcome
        assert stats["pools_created"] == 2
        assert stats["pools_retired"] == 1
        kinds = [event.kind for event in engine.resilience_events()]
        assert kinds == [
            ResilienceEventKind.WORKER_CRASH, ResilienceEventKind.POOL_REBUILD]
        # The crash charged one attempt to every task that was in flight.
        crash = engine.resilience_events()[0]
        assert crash.context == "pool"
        assert set(crash.detail.split(",")) <= set(ixps)

    def test_crash_recovered_run_serves_reruns_from_cache(
        self, tiny_study, reference_outcome
    ):
        config = tiny_study.config.inference
        ixps = tiny_study.studied_ixp_ids
        plan = FaultPlan.for_tasks(
            [(config, ixps[0], FaultSpec(FaultKind.CRASH, attempts=(1,)))])
        engine = _engine(
            tiny_study, max_workers=2, fault_plan=plan,
            sleep=lambda _s: None)
        try:
            engine.run(config, ixps)
            events_before = len(engine.resilience_events())
            pools_before = engine.executor_stats()["pools_created"]
            rerun = engine.run(config, ixps)
            stats = engine.executor_stats()
        finally:
            engine.shutdown()
        # The rerun is cache-served: no worker trips, no new faults fire
        # (the plan would re-crash attempt 1 if the task were resubmitted).
        assert rerun == reference_outcome
        assert len(engine.resilience_events()) == events_before
        assert stats["pools_created"] == pools_before

    def test_pickle_fault_retries_and_converges(
        self, tiny_study, reference_outcome
    ):
        config = tiny_study.config.inference
        ixps = tiny_study.studied_ixp_ids
        victim = ixps[1]
        plan = FaultPlan.for_tasks(
            [(config, victim, FaultSpec(FaultKind.PICKLE, attempts=(1,)))])
        engine = _engine(
            tiny_study, max_workers=2, fault_plan=plan,
            sleep=lambda _s: None)
        try:
            outcome = engine.run(config, ixps)
        finally:
            engine.shutdown()
        assert outcome == reference_outcome
        events = engine.resilience_events()
        assert [(e.kind.value, e.context, e.attempt) for e in events] == [
            ("retry", victim, 1)]
        assert events[0].detail == "InjectedFaultError"


# ------------------------------------------------------------------ #
# Headline: chaos run == fault-free serial schedule
# ------------------------------------------------------------------ #

class TestChaosEquivalence:
    def test_crash_exception_and_hang_converge_bit_identically(
        self, tiny_study, reference_outcome
    ):
        from dataclasses import replace
        config = tiny_study.config.inference
        ixps = tiny_study.studied_ixp_ids
        crashed, exceptional, hung = ixps[0], ixps[1], ixps[2]
        # The crash bumps every in-flight task to one consumed attempt, so
        # round two runs everything at attempt 2 — placing the other
        # faults at attempt 2 keeps the event schedule deterministic even
        # with two workers racing.
        plan = FaultPlan.for_tasks([
            (config, crashed, FaultSpec(FaultKind.CRASH, attempts=(1,))),
            (config, exceptional,
             FaultSpec(FaultKind.EXCEPTION, attempts=(2,))),
            (config, hung,
             FaultSpec(FaultKind.HANG, attempts=(2,), hang_s=60.0)),
        ])
        engine = _engine(
            tiny_study, max_workers=2, fault_plan=plan,
            task_timeout_s=CHAOS_TIMEOUT_S, sleep=lambda _s: None)
        try:
            # Warm run under a config whose task digests differ (so no
            # fault fires): builds the pool and prebuilds worker geometry,
            # keeping the chaos run's timeout margin about the tasks.
            warm = replace(
                config,
                rtt_baseline_threshold_ms=(
                    config.rtt_baseline_threshold_ms + 0.001))
            engine.run(warm, ixps)
            assert len(engine.resilience_events()) == 0
            with pytest.warns(ExecutorDegradedWarning):
                outcome = engine.run(config, ixps)
            stats = engine.executor_stats()
        finally:
            engine.shutdown()

        assert outcome == reference_outcome
        counts = stats["resilience"]["counts"]
        assert counts == {
            "worker-crash": 1,
            "pool-rebuild": 1,
            "retry": 1,
            "task-timeout": 1,
            "executor-demotion": 1,
        }
        events = engine.resilience_events()
        assert [event.kind.value for event in events] == [
            "worker-crash", "pool-rebuild", "retry", "task-timeout",
            "executor-demotion"]
        retry, timeout, demotion = events[2], events[3], events[4]
        assert (retry.context, retry.attempt) == (exceptional, 2)
        assert retry.detail == "InjectedFaultError"
        assert (timeout.context, timeout.attempt) == (hung, 2)
        assert demotion.detail.startswith("process->serial")
        # Two process pools (warm + post-crash rebuild), both retired; the
        # serial rung needs no pool.
        assert stats["pools_created"] == 2
        assert stats["pools_retired"] == 2
        assert stats["task_timeout_s"] == CHAOS_TIMEOUT_S

    def test_stats_surface_resilience_journal(self, tiny_study):
        engine = _engine(tiny_study)
        stats = engine.executor_stats()
        assert stats["resilience"] == {"counts": {}, "events": ()}
        assert stats["pools_retired"] == 0
        assert stats["task_timeout_s"] is None
