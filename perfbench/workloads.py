"""The workloads of the end-to-end study benchmark.

Every workload runs in one process, serially: one closed-loop caller that
issues the next operation only after the previous one has been checked.  It
reaches the library only through its public entry points
(:class:`~repro.study.RemotePeeringStudy`, :class:`~repro.core.engine.PipelineEngine`
built the way ``RemotePeeringStudy.engine`` builds it,
:func:`~repro.experiments.runner.run_experiment`, the journalled mutators and
:func:`~repro.validation.metrics.evaluate_report`).

Operation kinds:

``study``
    A cold study at the workload's scale, stage by stage (world, merge,
    prefix map, vantage plan, ping and traceroute campaigns, engine,
    validation), then all the artefacts of ``EXPERIMENTS`` on it.
``sweep``
    One cold engine run over inputs rebuilt from the world, then a 4 x 4 grid
    of ``lg_rounding_adjustment_ms`` x ``feasible_facility_tolerance_km``
    scenarios on that engine.  Each scenario re-keys Steps 2-5.
``revision``
    A journalled revision of the study's data (a 1% prefix re-map, one
    facility move, and a prefix withdrawal every fifth revision), then a
    re-run of the study's shared warm engine.

A workload names the kind its timed loop repeats for ``--seconds``.  It
measures the other kinds a fixed number of times, so that every end-to-end
metric is reported on every workload.  Timings are scaled by the host-speed
probe of ``speed.py``.  See ``README.md`` for why each workload exists and
which numbers each layer should move.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.alias.midar import AliasResolver
from repro.config import ExperimentConfig, GeneratorConfig, InferenceConfig
from repro.core.engine import PipelineEngine, PipelineOutcome
from repro.core.inputs import InferenceInputs
from repro.core.types import InferenceReport
from repro.datasources.merge import build_observed_dataset
from repro.datasources.prefix2as import Prefix2ASMap
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.geo.coordinates import GeoPoint
from repro.geo.delay_model import DelayModel
from repro.geo.distindex import GeoDistanceIndex
from repro.geo.worldindex import WorldDistanceIndex
from repro.measurement.ping import PingCampaign
from repro.measurement.results import TracerouteCorpus
from repro.routing.bgp import ASGraph, RouteSelector
from repro.routing.forwarding import ForwardingSimulator
from repro.study import RemotePeeringStudy
from repro.traixroute.detector import CrossingDetector
from repro.validation.metrics import ValidationMetrics, evaluate_report

from spans import Span, Tracer
from speed import SpeedProbe

SCALES: dict[str, Callable[[int], ExperimentConfig]] = {
    "default": lambda seed: ExperimentConfig(generator=GeneratorConfig(seed=seed)),
    "small": lambda seed: ExperimentConfig.small(seed=seed),
    "tiny": lambda seed: ExperimentConfig.tiny(seed=seed),
}

#: The Section 6.4 artefact: pair traceroutes whose count, and so cost,
#: varies widely between worlds.  It is timed as a layer, not in artefacts_s.
SEC64 = "sec64"
#: The artefacts whose bulk is scenario sweeps through the shared engine.
SWEEP_ARTEFACTS = frozenset({"fig9_ablation", "fig11_sensitivity", "table4_agreement"})
#: The step labels ``StepResultCache.stats`` counts (the nodes of STEP_GRAPH).
STEP_LABELS = ("step1", "step2", "step3", "baseline", "traceroute", "step4", "step5")
#: The tier-1 test gates on the five-step method.  They are checked at paper
#: scale only: a single small or tiny world can fall below them (small seed
#: 23964 gives accuracy 0.773, tiny seed 106 gives 0.814).
MIN_ACCURACY = 0.85
MIN_COVERAGE = 0.6
GATED_SCALE = "default"
#: Revision shape: re-mapped share of routed prefixes, withdrawal period.
REMAP_FRACTION = 0.01
WITHDRAW_EVERY = 5
#: Largest facility move per revision, in degrees of latitude/longitude.
MOVE_DEGREES = 0.05
#: Distinct generator seeds of a multi-world workload are this far apart.
WORLD_SEED_STRIDE = 7919
#: Times each world's set-up study is built (the same seed, so the same
#: work): the repeats give the small-scale study timings a median.
SETUP_BUILDS = 2
#: Traced and untraced samples each needed to report the tracing overhead.
MIN_OVERHEAD_SAMPLES = 3
#: The host-speed probe is read around operations at most this often.
PROBE_EVERY_S = 0.25

#: A timing sample: the (start, end) perf_counter intervals it adds up.
Sample = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class Workload:
    """Scale, world count, timed operation kind and survey counts per world."""

    scale: str
    worlds: int
    loop: str
    survey: tuple[tuple[str, int], ...]


WORKLOADS: dict[str, Workload] = {
    "paper-reproduction": Workload(
        scale="default", worlds=1, loop="study",
        survey=(("sweep", 1), ("revision", 10))),
    "scenario-sweep": Workload(
        scale="small", worlds=3, loop="sweep", survey=(("revision", 8),)),
    "data-revision": Workload(
        scale="small", worlds=3, loop="revision", survey=(("sweep", 1),)),
}

#: End-to-end metrics and their units.
END_TO_END: dict[str, str] = {
    "setup_s": "s", "study_s": "s", "artefacts_s": "s", "engine_cold_s": "s",
    "scenario_s": "s", "refresh_s": "s", "peak_rss_mb": "MB",
    "accuracy": "fraction", "coverage": "fraction", "precision": "fraction",
}

#: Layers timed from outside by the traced run (metric ``<layer>_s``).
LAYERS = (
    "topology.generate", "datasources.merge", "datasources.prefix2as",
    "measurement.vantage", "measurement.ping", "measurement.traceroute",
    "routing.graph_build", "routing.route_select", "routing.forward",
    "traixroute.detect", "core.engine_run", "versioning.write",
    "validation.build", "validation.evaluate",
    "experiments.sec64", "experiments.sweeps", "experiments.other",
)
#: Counts attached to spans (metric = mean per span that carries it).
COUNTS = (
    "measurement.paths", "measurement.hops",
    "traixroute.distinct_ips", "traixroute.crossings", "traixroute.adjacencies",
    *(f"core.{label}.{kind}" for label in STEP_LABELS for kind in ("hits", "misses")),
    "versioning.lpm_patches", "versioning.lpm_rebuilds", "versioning.geo_evictions",
)
#: Optional library counters, read defensively: metric -> (owner, attribute).
OPTIONAL_COUNTERS = {
    "versioning.lpm_patches": ("prefix2as", "incremental_patches"),
    "versioning.lpm_rebuilds": ("prefix2as", "full_rebuilds"),
    "versioning.geo_evictions": ("geo_index", "incremental_evictions"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{layer}_s": "s" for layer in LAYERS}
    units.update({name: "count" for name in COUNTS})
    units.update({"core.cache_hit_ratio": "fraction", "trace.overhead_pct": "%",
                  "trace.spans": "count"})
    return units


# ---------------------------------------------------------------------- #
# Digests and output checks
# ---------------------------------------------------------------------- #
def corpus_digest(corpus: TracerouteCorpus) -> str:
    """sha256 over every path and hop of a traceroute corpus."""
    digest = hashlib.sha256()
    for path in corpus.paths:
        digest.update(repr((path.source_asn, path.destination_asn, path.destination_ip)).encode())
        for hop in path.hops:
            digest.update(repr((hop.ip, hop.asn, hop.rtt_ms, hop.is_ixp_lan, hop.ixp_id)).encode())
    return digest.hexdigest()


def _report_rows(report: InferenceReport) -> list[tuple[object, ...]]:
    return [
        (key, result.asn, result.classification.value,
         None if result.step is None else result.step.value)
        for key, result in sorted(report.results.items())
    ]


def outcome_digest(outcome: PipelineOutcome) -> str:
    """sha256 over both reports' classifications and the traceroute observables."""
    payload = (
        _report_rows(outcome.report), _report_rows(outcome.baseline_report),
        len(outcome.crossings), len(outcome.private_adjacencies),
        len(outcome.multi_ixp_routers),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def same_outcome(timed: PipelineOutcome, fresh: PipelineOutcome) -> bool:
    """The repo's fixed point: reports equal a recompute from scratch."""
    return (timed.report == fresh.report
            and timed.baseline_report == fresh.baseline_report
            and bool(timed.report.inferred()))


def pooled(metrics: list[ValidationMetrics]) -> ValidationMetrics:
    """Sum confusion counts over several studies."""
    return ValidationMetrics(**{
        f.name: sum(getattr(m, f.name) for m in metrics) for f in fields(ValidationMetrics)})


def _clamp(value: float, bound: float) -> float:
    return max(-bound, min(bound, value))


# ---------------------------------------------------------------------- #
# Per-world state
# ---------------------------------------------------------------------- #
class WorldState:
    """One built study plus an independent record of every revision to it.

    The record (``prefixes``, ``moves``) is kept by the benchmark, not read
    back from the library, so a recompute over inputs rebuilt from it checks
    the journalled write path against plain dictionaries.
    """

    def __init__(self, study: RemotePeeringStudy, seed: int, index: int) -> None:
        self.study = study
        self.index = index
        self.ids = list(study.studied_ixp_ids)
        world = study.world
        self.prefixes: dict[str, int] = dict(world.routed_prefixes)
        self.prefixes.update(world.infrastructure_prefixes)
        self.routed = sorted(world.routed_prefixes)
        self.asns = sorted(world.ases)
        self.facilities = sorted(study.dataset.facility_locations)
        self.moves: dict[str, GeoPoint] = {}
        self.rng = random.Random(seed)
        self.revisions = 0
        self.sweeps = 0

    def cold_engine(self) -> PipelineEngine:
        """A fresh engine over inputs rebuilt from the world and the record.

        Dataset, prefix map, ping result, delay model, geo index and alias
        resolver are all new; only the memo-free traceroute corpus is shared.
        """
        study = self.study
        world = study.world
        dataset = build_observed_dataset(world, study.config.noise)[0]
        for facility_id, location in self.moves.items():
            dataset.set_facility_location(facility_id, location)
        prefix2as = Prefix2ASMap()
        for prefix, asn in self.prefixes.items():
            prefix2as.add(prefix, asn)
        delay_model = DelayModel()
        plan = {ixp_id: study.vantage_plan.get(ixp_id, []) for ixp_id in self.ids}
        ping = PingCampaign(world, study.config.campaign, delay_model=delay_model).run(
            self.ids, vantage_plan=plan)
        geo_index = GeoDistanceIndex(dataset)
        inputs = InferenceInputs(
            dataset=dataset, ping_result=ping, corpus=study.traceroute_corpus,
            prefix2as=prefix2as, alias_resolver=AliasResolver(world), geo_index=geo_index)
        return PipelineEngine(inputs, delay_model=delay_model, geo_index=geo_index)

    def next_grid(self) -> list[InferenceConfig]:
        """Sixteen scenarios whose values no earlier sweep on this world used."""
        self.sweeps += 1
        base = self.study.config.inference
        return [
            replace(base, lg_rounding_adjustment_ms=lg + self.sweeps * 1e-4,
                    feasible_facility_tolerance_km=tolerance + self.sweeps * 1e-3)
            for lg in (0.4, 0.8, 1.2, 1.6) for tolerance in (10.0, 20.0, 30.0, 40.0)
        ]

    def next_revision(self) -> tuple[list[tuple[str, int]], tuple[str, GeoPoint], str | None]:
        """Draw the next revision: prefix re-maps, a facility move, a withdrawal."""
        self.revisions += 1
        rng = self.rng
        remaps = []
        for prefix in rng.sample(self.routed, max(1, int(len(self.routed) * REMAP_FRACTION))):
            asn = rng.choice(self.asns)
            while asn == self.prefixes.get(prefix):
                asn = rng.choice(self.asns)
            remaps.append((prefix, asn))
        facility_id = rng.choice(self.facilities)
        here = self.study.dataset.facility_location(facility_id)
        if here is None:
            raise LookupError(f"facility {facility_id} has no location")
        move = (facility_id, GeoPoint(
            _clamp(here.latitude + rng.uniform(-MOVE_DEGREES, MOVE_DEGREES), 89.9),
            _clamp(here.longitude + rng.uniform(-MOVE_DEGREES, MOVE_DEGREES), 179.9)))
        withdrawal = None
        if self.revisions % WITHDRAW_EVERY == 0:
            remapped = {prefix for prefix, _ in remaps}
            present = [p for p in self.routed if p in self.prefixes and p not in remapped]
            withdrawal = rng.choice(present)
        return remaps, move, withdrawal

    def record_revision(self, remaps: list[tuple[str, int]], move: tuple[str, GeoPoint],
                        withdrawal: str | None) -> None:
        self.prefixes.update(remaps)
        self.moves[move[0]] = move[1]
        if withdrawal is not None:
            del self.prefixes[withdrawal]


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #
class BenchmarkRun:
    """One benchmark process: set-up, timed loop, survey, results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer(enabled=False)
        self.speed = SpeedProbe()
        #: Timing samples per metric, per world index.
        self.samples: dict[str, dict[int, list[Sample]]] = defaultdict(lambda: defaultdict(list))
        self.quality: list[ValidationMetrics] = []
        self.digests: list[dict[str, str]] = []
        self.attempted = 0
        self.failed = 0
        #: Operations issued per kind, and every sample tagged with whether
        #: it was traced (for the tracing overhead).
        self._issued: dict[str, int] = defaultdict(int)
        self._tagged: dict[tuple[str, bool], list[Sample]] = defaultdict(list)
        self._check_failed = False
        #: Imports plus warm-up: the run's one-time process costs.
        self._one_time: list[tuple[float, float, float]] = []
        self.peak_rss_mb = 0.0

    # -- phases ------------------------------------------------------- #
    def execute(self, imported: tuple[float, float]) -> None:
        """Set up, run the timed loop for ``seconds``, then the survey.

        ``imported`` is the (start, end) of the library imports, a one-time
        cost.  A failed set-up study is counted as a failed operation and its
        world is left out; with no world left, the loop and the survey are
        skipped.
        """
        workload = self.workload
        states: list[WorldState] = []
        self.speed.read()
        self._one_time.append((*imported, 0.0))
        if workload.loop == "study":
            # One discarded tiny study pays the one-time process costs; a
            # paper-scale warm-up would double the run.  The set-up samples
            # are the input stages of the timed paper-scale studies.
            self._operation("study", lambda: self.study_op("tiny", self.seed, 0), warmup=True)
        else:
            for index in range(workload.worlds):
                seed = self.seed + index * WORLD_SEED_STRIDE
                for _ in range(SETUP_BUILDS):
                    state = None  # so that one build of a world is alive at a time
                    state = self._operation(
                        "study", lambda s=seed, i=index: self.study_op(workload.scale, s, i),
                        traced=True)
                if state is not None:
                    states.append(state)
            for kind in dict.fromkeys([workload.loop, *(kind for kind, _ in workload.survey)]):
                if states:
                    self._run_kind(kind, states[0], warmup=True)

        # The timed loop: whole rounds, one operation per world each.
        loop_started = time.perf_counter()
        while workload.loop == "study" or states:
            if workload.loop == "study":
                states = []  # so that no two paper-scale studies are alive at once
                state = self._run_kind("study", None)
                if state is None:
                    break  # the same seed would fail again
                states = [state]
            else:
                for state in states:
                    self._run_kind(workload.loop, state)
            if time.perf_counter() - loop_started >= self.seconds:
                break
        # The workload's memory: set-up and timed loop, not the survey.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Survey revisions are checked once per world, after the last one.
        for kind, count in workload.survey:
            for state in states:
                for index in range(count):
                    self._run_kind(kind, state, check=index == count - 1)

    def _run_kind(self, kind: str, state: WorldState | None, *,
                  warmup: bool = False, check: bool = True):
        if kind == "study":
            return self._operation(
                kind, lambda: self.study_op(self.workload.scale, self.seed, 0), warmup=warmup)
        if kind == "sweep":
            return self._operation(kind, lambda: self.sweep_op(state), warmup=warmup)
        return self._operation(kind, lambda: self.revision_op(state, check), warmup=warmup)

    def _operation(self, kind: str, body: Callable[[], object], *,
                   traced: bool | None = None, warmup: bool = False):
        """Run one checked operation and count it.

        Within a kind, traced runs trace every other operation, so that the
        untraced ones give the tracing overhead.  A warm-up operation is
        checked but untraced, and its samples are discarded.
        """
        if warmup:
            kept = self.samples, self.quality, self.digests, self._tagged
            self.samples, self.quality, self.digests, self._tagged = defaultdict(
                lambda: defaultdict(list)), [], [], defaultdict(list)
            traced = False
        else:
            index = self._issued[kind]
            self._issued[kind] += 1
            if traced is None:
                traced = index % 2 == 0
        self.tracer.enabled = self.trace and traced
        self.attempted += 1
        self._check_failed = False
        self.speed.read_every(PROBE_EVERY_S)
        started, spent = time.perf_counter(), self.speed.spent
        try:
            with self.tracer.span(f"op.{kind}"):
                return body()
        except Exception:  # noqa: BLE001 - an operation failure is a result
            traceback.print_exc(file=sys.stderr)
            self._check_failed = True
            return None
        finally:
            self.failed += self._check_failed
            if warmup:
                self.samples, self.quality, self.digests, self._tagged = kept
                self._one_time.append((started, time.perf_counter(), self.speed.spent - spent))
            self.tracer.enabled = False
            self.speed.read_every(PROBE_EVERY_S)

    def _sample(self, world: int, metric: str, *intervals: tuple[float, float],
                in_op: bool = True) -> None:
        """Record a timing; ``in_op`` ones also count towards the tracing overhead."""
        self.samples[metric][world].append(intervals)
        if in_op:
            self._tagged[(metric, self.tracer.enabled)].append(intervals)

    def _since(self, start: float) -> tuple[float, float]:
        return start, time.perf_counter()

    def scaled(self, sample: Sample) -> float:
        """A sample in reference seconds (see ``speed.py``)."""
        return sum(self.speed.scaled(start, end) for start, end in sample)

    def raw(self, sample: Sample) -> float:
        """A sample in wall-clock seconds."""
        return sum(end - start for start, end in sample)

    def _recompute(self, state: WorldState,
                   configs: list[InferenceConfig]) -> list[PipelineOutcome]:
        """Run ``configs`` on a fresh engine over freshly rebuilt inputs.

        Its first run is a cold engine run and the rest are scenario runs,
        so they are timed as samples too (not as traced-operation samples).
        """
        engine = state.cold_engine()
        gc.collect()
        outcomes = []
        for index, config in enumerate(configs):
            self.speed.read()
            t0 = time.perf_counter()
            outcomes.append(engine.run(config, state.ids))
            self._sample(state.index, "engine_cold_s" if index == 0 else "scenario_s",
                         self._since(t0), in_op=False)
        self.speed.read()
        return outcomes

    def _fail(self, what: str) -> None:
        """Fail the current operation (once, however many checks fail)."""
        print(f"check failed: {what}", file=sys.stderr)
        self._check_failed = True

    # -- operations ----------------------------------------------------- #
    def study_op(self, scale: str, seed: int, world: int) -> WorldState:
        """Cold study to validated outcome, then every artefact."""
        span = self.tracer.span
        study = RemotePeeringStudy(SCALES[scale](seed))
        stages: list[tuple[float, float]] = []

        def stage(layer: str, build: Callable[[], object]) -> tuple[object, Span | None]:
            # The host speed is read between stages, outside the timings.
            self.speed.read()
            t0 = time.perf_counter()
            with span(layer) as layer_span:
                value = build()
            stages.append(self._since(t0))
            return value, layer_span

        gc.collect()
        with span("stage.study"):
            stage("topology.generate", lambda: study.world)
            stage("datasources.merge", lambda: study.dataset)
            stage("datasources.prefix2as", lambda: study.prefix2as)
            stage("measurement.vantage", lambda: study.studied_ixp_ids)
            stage("measurement.ping", lambda: study.ping_result)
            corpus, corpus_span = stage("measurement.traceroute", lambda: study.traceroute_corpus)
            inputs = tuple(stages)
            engine, _ = stage("core.engine_build", lambda: study.engine)
            before = _stats(engine)
            outcome, engine_span = stage("core.engine_run", lambda: study.outcome)
            engine_run = stages[-1]
            after = _stats(engine)
            validation, _ = stage("validation.build", lambda: study.validation)
            quality, _ = stage("validation.evaluate", lambda: evaluate_report(
                outcome.report, validation, ixp_ids=validation.test_ixps()))
        study_stages = tuple(stages)
        gc.collect()
        artefacts = []
        with span("stage.artefacts"):
            for experiment_id in EXPERIMENTS:
                self.speed.read_every(PROBE_EVERY_S)
                t1 = time.perf_counter()
                with span(_artefact_layer(experiment_id)):
                    result = run_experiment(study, experiment_id)
                if experiment_id != SEC64:
                    artefacts.append(self._since(t1))
                if result.experiment_id != experiment_id or not (result.rows or result.headline):
                    self._fail(f"seed {seed}: artefact {experiment_id} is empty or mislabelled")
        self.speed.read()

        self._sample(world, "study_s", *study_stages)
        # Set-up is the world and its campaigns: the input stages of the
        # paper-scale study, or a whole set-up study with its artefacts.
        if self.workload.loop == "study":
            self._sample(world, "setup_s", *inputs, in_op=False)
        else:
            self._sample(world, "setup_s", *study_stages, *artefacts, in_op=False)
        self._sample(world, "engine_cold_s", engine_run)
        self._sample(world, "artefacts_s", *artefacts)
        if corpus_span is not None:
            corpus_span.attrs["measurement.paths"] = len(corpus.paths)
            corpus_span.attrs["measurement.hops"] = sum(len(p.hops) for p in corpus.paths)
        if engine_span is not None:
            engine_span.attrs.update(_stats_delta(before, after))
        if scale == GATED_SCALE and (
                quality.accuracy < MIN_ACCURACY or quality.coverage < MIN_COVERAGE):
            self._fail(f"seed {seed}: accuracy {quality.accuracy:.4f} / "
                       f"coverage {quality.coverage:.4f} below the tier-1 gates")
        self.quality.append(quality)
        self.digests.append({"seed": str(seed), "scale": scale,
                             "corpus_sha256": corpus_digest(corpus),
                             "outcome_sha256": outcome_digest(outcome)})
        if self.tracer.enabled:
            self._routing_side_run(study)
        return WorldState(study, seed, world)

    def sweep_op(self, state: WorldState) -> None:
        """Cold engine run plus a scenario grid; checked against a recompute."""
        span = self.tracer.span
        ids = state.ids
        engine = state.cold_engine()
        base = state.study.config.inference
        grid = state.next_grid()
        outcomes = []
        gc.collect()
        for index, config in enumerate([base, *grid]):
            self.speed.read()  # every engine run is bracketed by readings
            before = _stats(engine)
            t0 = time.perf_counter()
            with span("core.engine_run") as engine_span:
                outcomes.append(engine.run(config, ids))
            self._sample(state.index, "engine_cold_s" if index == 0 else "scenario_s",
                         self._since(t0))
            if engine_span is not None:
                engine_span.attrs.update(_stats_delta(before, _stats(engine)))
        self.speed.read()
        if self.tracer.enabled:
            self._detect_side_run(engine.inputs)
        del engine  # only the outcomes are checked; free it before the recompute
        # Recompute in reverse order, so that every cache hit of the timed
        # sequence is checked against a different schedule.
        configs = [base, *grid][::-1]
        for config, outcome, fresh in zip(configs, outcomes[::-1],
                                          self._recompute(state, configs)):
            if not same_outcome(outcome, fresh):
                self._fail(f"sweep on {state.study.config.generator.seed}: {config}")

    def revision_op(self, state: WorldState, check: bool) -> None:
        """Journalled revision plus warm re-run, optionally checked.

        An unchecked revision is covered by the check of a later one on the
        same world, which recomputes from the record of every revision.
        """
        span = self.tracer.span
        study = state.study
        engine = study.engine
        remaps, move, withdrawal = state.next_revision()
        before = _stats(engine)
        counters = _optional_counters(study)
        gc.collect()
        self.speed.read()  # the revision is bracketed by readings
        t0 = time.perf_counter()
        with span("versioning.write") as write_span:
            for prefix, asn in remaps:
                study.prefix2as.add(prefix, asn)
            study.dataset.set_facility_location(*move)
            if withdrawal is not None:
                study.prefix2as.remove(withdrawal)
        with span("core.engine_run") as engine_span:
            outcome = engine.run(study.config.inference, state.ids)
        self._sample(state.index, "refresh_s", self._since(t0))
        self.speed.read()
        state.record_revision(remaps, move, withdrawal)
        if engine_span is not None:
            engine_span.attrs.update(_stats_delta(before, _stats(engine)))
        if write_span is not None:
            after = _optional_counters(study)
            write_span.attrs.update({name: after[name] - counters[name] for name in after})
        if self.tracer.enabled:
            self._detect_side_run(study.inputs)
        if check and not same_outcome(
                outcome, self._recompute(state, [study.config.inference])[0]):
            self._fail(f"revision {state.revisions} on {study.config.generator.seed}")

    # -- traced-only side runs ------------------------------------------ #
    def _routing_side_run(self, study: RemotePeeringStudy) -> None:
        """Re-derive the corpus's routes and hops with the routing layer alone.

        Runs on its own RNGs (its paths are not compared with the corpus):
        the campaign draws both route and forwarding randomness internally,
        so from outside only a separate run can split the two layers.
        """
        span = self.tracer.span
        world = study.world
        campaign = study.config.campaign
        by_probe: dict[int, list[int]] = defaultdict(list)
        for path in study.traceroute_corpus.paths:
            by_probe[path.source_asn].append(path.destination_asn)
        with span("side.routing"):
            with span("routing.graph_build"):
                graph = ASGraph(world)
            selector = RouteSelector(graph)
            simulator = ForwardingSimulator(
                world, graph, delay_model=DelayModel(),
                rng=random.Random(world.seed * 613 + 17),
                world_index=WorldDistanceIndex(world),
                hot_potato_compliance=campaign.hot_potato_compliance,
                hop_loss_rate=campaign.traceroute_hop_loss_rate)
            for probe, destinations in sorted(by_probe.items()):
                with span("routing.route_select"):
                    routes = selector.paths_from(probe, destinations)
                with span("routing.forward"):
                    for destination, as_path in sorted(routes.items()):
                        if len(as_path) >= 2:
                            simulator.traceroute_along(
                                as_path, simulator.destination_ip_for(destination))

    def _detect_side_run(self, inputs: InferenceInputs) -> None:
        """Time crossing and adjacency detection with a fresh detector."""
        corpus = inputs.corpus
        with self.tracer.span("side.detect"):
            with self.tracer.span("traixroute.detect") as detect_span:
                detector = CrossingDetector(inputs.dataset, inputs.prefix2as)
                crossings = detector.detect_corpus(corpus)
                adjacencies = detector.private_adjacencies_corpus(corpus)
        if detect_span is not None:
            detect_span.attrs.update({
                "traixroute.distinct_ips": len({hop.ip for path in corpus.paths
                                                for hop in path.hops if hop.ip is not None}),
                "traixroute.crossings": len(crossings),
                "traixroute.adjacencies": len(adjacencies),
            })

    # -- results -------------------------------------------------------- #
    def end_to_end(self, scale: bool = True) -> dict[str, float | None]:
        """Every end-to-end metric; ``None`` where no operation produced it.

        A timing is the median of each world's samples, averaged over the
        worlds, in reference seconds (or, with ``scale`` off, in wall-clock
        seconds, for the record).
        """
        seconds = self.scaled if scale else self.raw
        values: dict[str, float | None] = {
            name: statistics.fmean(statistics.median(map(seconds, s)) for s in per_world.values())
            for name, per_world in self.samples.items() if name != "setup_s"
        }
        setups = [seconds(s) for per_world in self.samples["setup_s"].values() for s in per_world]
        # Probe readings inside a warm-up operation are left out of it.
        one_time = sum(seconds(((start, end - probing),))
                       for start, end, probing in self._one_time)
        values["setup_s"] = one_time + statistics.median(setups) if setups else None
        values["peak_rss_mb"] = self.peak_rss_mb
        if self.quality:
            quality = pooled(self.quality)
            values.update(accuracy=quality.accuracy, coverage=quality.coverage,
                          precision=quality.precision)
        return {name: values.get(name) for name in END_TO_END}

    def write_timings(self, path: Path, environment: dict[str, object]) -> None:
        """Write every timing interval and probe reading as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "environment": environment, "readings": self.speed.readings,
            "one_time": self._one_time,
            "samples": {name: {str(world): samples for world, samples in per_world.items()}
                        for name, per_world in self.samples.items()},
        }) + "\n")

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """Every per-layer metric, and the names no span produced."""
        loop_root = f"op.{self.workload.loop}"
        found = {f"{layer}_s": seconds
                 for layer, seconds in self.tracer.layer_seconds(loop_root).items()}
        counts = self.tracer.attr_means(loop_root)
        found.update(counts)
        hits = sum(counts.get(f"core.{label}.hits", 0.0) for label in STEP_LABELS)
        misses = sum(counts.get(f"core.{label}.misses", 0.0) for label in STEP_LABELS)
        if hits + misses:
            found["core.cache_hit_ratio"] = hits / (hits + misses)
        overhead = self.tracing_overhead_pct()
        if overhead is not None:
            found["trace.overhead_pct"] = overhead
        found["trace.spans"] = len(self.tracer.spans)
        units = per_layer_units()
        absent = sorted(name for name in units if name not in found)
        return {name: found.get(name, 0.0) for name in units}, absent

    def tracing_overhead_pct(self) -> float | None:
        """Median traced vs untraced sample of the best-sampled metric.

        ``None`` unless some metric has enough samples on both sides.
        """
        def sampled(name: str) -> int:
            return min(len(self._tagged[(name, flag)]) for flag in (True, False))

        name = max(self.samples, key=sampled, default=None)
        if name is None or sampled(name) < MIN_OVERHEAD_SAMPLES:
            return None
        traced = statistics.median(map(self.scaled, self._tagged[(name, True)]))
        untraced = statistics.median(map(self.scaled, self._tagged[(name, False)]))
        return 100.0 * (traced - untraced) / untraced


def _artefact_layer(experiment_id: str) -> str:
    if experiment_id == SEC64:
        return "experiments.sec64"
    return "experiments.sweeps" if experiment_id in SWEEP_ARTEFACTS else "experiments.other"


def _stats(engine: PipelineEngine) -> dict[str, tuple[int, int]]:
    return {label: (stats.hits, stats.misses) for label, stats in engine.cache.stats.items()}


def _stats_delta(before: dict[str, tuple[int, int]],
                 after: dict[str, tuple[int, int]]) -> dict[str, float]:
    delta: dict[str, float] = {}
    for label in STEP_LABELS:
        hits0, misses0 = before.get(label, (0, 0))
        hits1, misses1 = after.get(label, (0, 0))
        delta[f"core.{label}.hits"] = hits1 - hits0
        delta[f"core.{label}.misses"] = misses1 - misses0
    return delta


def _optional_counters(study: RemotePeeringStudy) -> dict[str, int]:
    """Internal index counters that later refactors may drop (then absent)."""
    owners = {"prefix2as": study.prefix2as, "geo_index": study.geo_index}
    values = {}
    for metric, (owner, attribute) in OPTIONAL_COUNTERS.items():
        value = getattr(owners[owner], attribute, None)
        if isinstance(value, int):
            values[metric] = value
    return values
