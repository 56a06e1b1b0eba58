"""Benchmarks for the process executor (true parallelism across IXPs).

The per-IXP chains (Steps 1-3 + baseline) are CPU-bound Python; with
``max_workers > 1`` the engine ships each chain to a worker process that
owns a serial engine and a prebuilt geometry shard.  These benchmarks pin
the two claims of the seam: the process schedule produces a
``PipelineOutcome`` bit-identical to the serial one, and on a multi-core
box it beats the serial schedule (``max_workers=None``, the simplest
alternative) by >=2x on the CPU-bound multi-IXP phase.  A failure of that
bound on a box with 4 or more cores is evidence that the process executor
does not pay for itself, not a reason to lower the bound.

The timed workload isolates that phase deliberately: a paper-shaped world
with a dense vantage-point campaign and a minimal traceroute corpus, the
(global, serial) Steps 4-5 disabled, and sweep-style config variants that
force only the per-IXP chains to recompute — the shape in which
corpus-scale sweeps actually spend their time.  The >=2x bar is pinned on
the engine's ``per_ixp_map`` phase clock: that phase is the entire unit
the executor seam schedules (for processes it includes dispatch, IPC and
absorbing the shipped deltas into the parent cache), while the downstream
outcome assembly is identical serial work under both schedules and is
covered by the equivalence tests instead.  The equivalence test keeps
every step enabled.
"""

from __future__ import annotations

import gc
import os
from dataclasses import replace

import pytest

from repro.config import CampaignConfig, ExperimentConfig, GeneratorConfig
from repro.core.engine import PipelineEngine
from repro.study import RemotePeeringStudy

#: Workers for the timed comparison; the >=2x bar needs real cores under
#: them, so the timing test skips on smaller boxes.
WORKERS = 4
MIN_CORES = 4

#: Interleaved measurement rounds; the assertion takes the cleanest one.
ROUNDS = 3

#: Config variants per timed round (each forces a full per-IXP recompute).
VARIANTS_PER_ROUND = 2


@pytest.fixture(scope="module")
def fanout_study():
    """A paper-shaped world whose runs are dominated by per-IXP chains.

    Many large IXPs (wide fan-out, heavy Steps 1-3 per chain) over a
    deliberately tiny traceroute corpus (the corpus-wide crossing scan is a
    global, serial node — the benchmark is about the parallel phase).
    """
    config = ExperimentConfig(
        generator=GeneratorConfig(seed=11, months=8),
        campaign=CampaignConfig(
            traceroute_sources_per_ixp=2,
            traceroute_destinations_per_source=3,
            max_atlas_probes_per_ixp=12,
            lg_presence_rate=1.0,
        ),
        studied_ixp_count=40,
    )
    return RemotePeeringStudy(config)


def _fresh_engine(study, max_workers):
    return PipelineEngine(
        study.inputs,
        delay_model=study.delay_model,
        geo_index=study.geo_index,
        max_workers=max_workers,
    )


class TestProcessExecutorEquivalence:
    def test_every_executor_is_bit_identical_on_the_fanout_study(
        self, fanout_study
    ):
        """Full pipeline (all steps enabled): serial == process."""
        config = fanout_study.config.inference
        ixp_ids = fanout_study.studied_ixp_ids

        serial = _fresh_engine(fanout_study, None)
        reference = serial.run(config, ixp_ids)
        assert reference.report.inferred()

        engine = _fresh_engine(fanout_study, 2)
        try:
            outcome = engine.run(config, ixp_ids)
        finally:
            engine.shutdown()
        assert engine.executor_stats()["executor"] == "process"
        assert outcome == reference


class TestProcessExecutorThroughput:
    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < MIN_CORES,
        reason=f"needs >= {MIN_CORES} cores to demonstrate process parallelism",
    )
    def test_process_is_2x_faster_than_serial_on_cpu_bound_fanout(
        self, fanout_study
    ):
        ixp_ids = fanout_study.studied_ixp_ids
        # Steps 4-5 are global (serial under both schedules); disabling them
        # keeps the timed region the multi-IXP fan-out itself.
        base = replace(
            fanout_study.config.inference,
            enable_step4_multi_ixp=False,
            enable_step5_private_links=False,
        )
        # Sweep-style variants: the step2 rounding adjustment forces the
        # (Steps 2-3 + baseline) chains to recompute per IXP while the
        # traceroute scan stays cache-served.
        offsets = iter(range(1, 1 + 2 * ROUNDS * VARIANTS_PER_ROUND))
        map_timings = {"serial": [], "process": []}
        run_timings = {"serial": [], "process": []}

        for executor, max_workers in (("serial", None), ("process", WORKERS)):
            engine = _fresh_engine(fanout_study, max_workers)
            try:
                # Warm run: creates the persistent pool, initialises the
                # workers (geometry prebuild) and fills the config-stable
                # cache nodes (the serial engine warms the same caches);
                # later runs measure only the fan-out.
                engine.run(base, ixp_ids)
                gc.collect()
                gc.disable()
                try:
                    for _ in range(ROUNDS):
                        variants = [
                            replace(
                                base,
                                lg_rounding_adjustment_ms=(
                                    base.lg_rounding_adjustment_ms
                                    + 0.001 * next(offsets)
                                ),
                            )
                            for _ in range(VARIANTS_PER_ROUND)
                        ]
                        before = engine.executor_stats()["phase_seconds"]
                        for variant in variants:
                            engine.run(variant, ixp_ids)
                        after = engine.executor_stats()["phase_seconds"]
                        map_timings[executor].append(
                            after["per_ixp_map"] - before["per_ixp_map"])
                        run_timings[executor].append(
                            after["run"] - before["run"])
                finally:
                    gc.enable()
            finally:
                engine.shutdown()

        map_ratios = [
            serial_elapsed / process_elapsed
            for serial_elapsed, process_elapsed in zip(
                map_timings["serial"], map_timings["process"])
        ]
        run_ratios = [
            serial_elapsed / process_elapsed
            for serial_elapsed, process_elapsed in zip(
                run_timings["serial"], run_timings["process"])
        ]
        # The parallelised phase itself must win by >=2x, and the win must
        # survive the (schedule-invariant) serial assembly end to end.
        assert max(map_ratios) >= 2.0, (
            f"serial/process per-IXP map ratios: {map_ratios} "
            f"(whole runs: {run_ratios})")
        assert max(run_ratios) > 1.0, (
            f"serial/process whole-run ratios: {run_ratios}")


class TestProcessExecutorSweepEquivalence:
    def test_sweep_variants_match_serial_under_processes(self, fanout_study):
        """A small sweep through the process engine replays serially."""
        ixp_ids = fanout_study.studied_ixp_ids
        base = fanout_study.config.inference
        variants = [
            replace(base, rtt_baseline_threshold_ms=base.rtt_baseline_threshold_ms + dt)
            for dt in (0.0, 0.25)
        ]
        serial = _fresh_engine(fanout_study, None)
        process = _fresh_engine(fanout_study, 2)
        try:
            for variant in variants:
                assert process.run(variant, ixp_ids) == serial.run(
                    variant, ixp_ids)
        finally:
            process.shutdown()
