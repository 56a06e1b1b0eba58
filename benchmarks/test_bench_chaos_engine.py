"""Chaos benchmarks: the engine under injected faults, timed end to end.

The resilience layer's headline claim (pinned functionally in
``tests/test_resilience.py``) gets a timing dimension here: a process-
executor run that suffers a worker crash, an injected task exception and a
hung task still *completes* — within a bounded wall-clock envelope — and
its outcome is bit-identical to the fault-free serial schedule.  The
envelope matters because recovery is useful only if it converges promptly:
a crash costs one pool rebuild, a hang costs at most ``task_timeout_s``
plus the demoted serial rerun, and nothing waits on the 60-second sleep the hung
worker was given.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ExperimentConfig
from repro.core.engine import PipelineEngine
from repro.resilience import FaultKind, FaultPlan, FaultSpec
from repro.study import RemotePeeringStudy

#: Per-task timeout for the chaos runs; the injected hang sleeps 60 s, so
#: the run's wall clock is dominated by exactly one timeout window.
TASK_TIMEOUT_S = 6.0

#: The chaos run must converge within the timeout window plus a bounded
#: recovery overhead (pool rebuild, demoted reruns, serial assembly).
MAX_CHAOS_SECONDS = TASK_TIMEOUT_S + 30.0


@pytest.fixture(scope="module")
def chaos_study():
    """A small dedicated study, so the chaos runs share no engine state."""
    return RemotePeeringStudy(ExperimentConfig.tiny(seed=7))


@pytest.fixture(scope="module")
def chaos_reference(chaos_study):
    """The fault-free serial outcome every chaos run must reproduce."""
    engine = PipelineEngine(
        chaos_study.inputs, delay_model=chaos_study.delay_model,
        geo_index=chaos_study.geo_index)
    return engine.run(
        chaos_study.config.inference, chaos_study.studied_ixp_ids)


def _chaos_engine(study, plan):
    return PipelineEngine(
        study.inputs, delay_model=study.delay_model,
        geo_index=study.geo_index, max_workers=2,
        fault_plan=plan, task_timeout_s=TASK_TIMEOUT_S, sleep=lambda _s: None)


class TestChaosConvergence:
    def test_crash_exception_hang_run_converges_in_bounded_time(
        self, chaos_study, chaos_reference, run_once
    ):
        config = chaos_study.config.inference
        ixps = chaos_study.studied_ixp_ids
        plan = FaultPlan.for_tasks([
            (config, ixps[0], FaultSpec(FaultKind.CRASH, attempts=(1,))),
            (config, ixps[1], FaultSpec(FaultKind.EXCEPTION, attempts=(2,))),
            (config, ixps[2],
             FaultSpec(FaultKind.HANG, attempts=(2,), hang_s=60.0)),
        ])
        engine = _chaos_engine(chaos_study, plan)
        try:
            # Warm run under fault-free digests: pool built, workers
            # initialised, so the timed region is the recovery itself.
            warm = replace(
                config,
                rtt_baseline_threshold_ms=(
                    config.rtt_baseline_threshold_ms + 0.001))
            engine.run(warm, ixps)
            with pytest.warns(Warning):
                outcome = run_once(engine.run, config, ixps)
            stats = engine.executor_stats()
        finally:
            engine.shutdown()

        assert outcome == chaos_reference
        counts = stats["resilience"]["counts"]
        assert counts["worker-crash"] == 1
        assert counts["task-timeout"] == 1
        assert counts["executor-demotion"] == 1
        run_seconds = stats["phase_seconds"]["run"]
        assert run_seconds < MAX_CHAOS_SECONDS, (
            f"chaos run took {run_seconds:.1f}s "
            f"(bound {MAX_CHAOS_SECONDS:.1f}s)")

    def test_crash_recovery_overhead_is_one_pool_rebuild(
        self, chaos_study, chaos_reference, run_once
    ):
        config = chaos_study.config.inference
        ixps = chaos_study.studied_ixp_ids
        plan = FaultPlan.for_tasks(
            [(config, ixps[0], FaultSpec(FaultKind.CRASH, attempts=(1,)))])
        engine = _chaos_engine(chaos_study, plan)
        try:
            outcome = run_once(engine.run, config, ixps)
            stats = engine.executor_stats()
        finally:
            engine.shutdown()
        assert outcome == chaos_reference
        assert stats["pools_created"] == 2
        assert stats["pools_retired"] == 1
