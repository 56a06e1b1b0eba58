"""Step-graph execution engine for the five-step inference pipeline.

The paper's headline analyses (fig. 9 per-step ablations, fig. 11 threshold
sensitivity, table 4 agreement) are *scenario sweeps*: the same five-step
methodology rerun under many :class:`~repro.config.InferenceConfig` variants.
The seed pipeline was a monolith — every sweep point recomputed Steps 1-5 for
every IXP even when the config change only affected one downstream step.

This module decomposes the pipeline into *declared step nodes*.  Each node
names, as data (:data:`STEP_GRAPH`):

* the :class:`~repro.config.InferenceConfig` **fields it reads** — nothing
  else about the config may influence the node's result;
* its **inputs** (the upstream nodes whose results it consumes);
* its **outputs** (what the node contributes to the final
  :class:`PipelineOutcome`);
* its **scope** — ``PER_IXP`` nodes are independent across IXPs (Steps 1-3
  and the RTT baseline) and can be shipped to a process pool; ``GLOBAL``
  nodes see the whole studied set (the traceroute observables and Steps
  4/5, whose multi-IXP routers and private adjacencies span IXPs).

Every node also names, as data, the **dataset domains and inputs-bundle
members it reads** (``data_domains`` / ``data_inputs``) — the versioning
half of the contract.

Every node result is cached in a shared :class:`StepResultCache` under a
fingerprint key derived from

``(step name, scope key, config_fingerprint(declared fields),
data version tokens, parent keys)``

so invalidation is transitive by construction, along *both* axes:

* **configuration** — changing a Step 2 threshold re-keys Steps 2, 3, 4, 5
  and the baseline but leaves Step 1 and the traceroute observables
  untouched; config fields no node declares (e.g. the analysis-only
  ``strong_remote_rtt_ms``) never cause recomputation;
* **dataset revision** — the data version tokens are the generation stamps
  of the declared dataset domains (:meth:`ObservedDataset.domain_token`) and
  inputs-bundle members (:meth:`~repro.versioning.Versioned.version_token`).
  A journalled mutation re-keys exactly the nodes whose declared data it
  touches: moving a facility re-keys Steps 3-5 but replays Steps 1-2, the
  traceroute observables and the baseline from cache; re-mapping a routed
  prefix re-keys the traceroute observables (and Steps 4-5 through them)
  while the whole per-IXP layer stays cached.

Equivalence contract (pinned by ``tests/test_core_engine.py`` and
``tests/test_versioning.py``):

1. **Bit-identical reports** — a node's cached result is the *replayable
   delta* of ``ensure``/``classify`` calls the step made.  The final report
   is a pure function of the call sequence, and the engine replays the
   per-step deltas in exactly the monolithic order (Step 1 per IXP, Step 3
   per IXP, Step 4, Step 5), so the assembled
   :class:`~repro.core.types.InferenceReport` equals the monolith's —
   including insertion order.
2. **Revision consistency** — the engine survives dataset revisions made
   through the journal-emitting mutators (and campaign appends through the
   recording mutators): the version tokens in every key guarantee a hit is
   proof of reusability.  Mutating the inputs *directly* (raw dict pokes at
   unchanged size) still requires ``invalidate_caches()`` on the mutated
   container or ``cache.clear()``, exactly like the other indexed
   subsystems.
3. **Shared immutables** — outcome containers (lists, dicts) are fresh per
   run, but the objects inside (crossings, adjacencies, routers, feasibility
   analyses, evidence values) are shared with the cache and between runs
   that hit the same keys; consumers must treat them as read-only, exactly
   as they already had to treat `PipelineOutcome` fields under the shared
   ``GeoDistanceIndex``.

:class:`StepResultCache` optionally enforces an LRU entry/byte budget so
unbounded scenario sweeps cannot grow the cache without limit;
:meth:`PipelineEngine.cache_eviction_stats` exposes the accounting.
"""

from __future__ import annotations

import enum
import hashlib
import sys
import time
import warnings
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Callable, NamedTuple, Sequence, cast

from repro.config import InferenceConfig, config_fingerprint
from repro.datasources.merge import (
    DOMAIN_AS_FACILITIES,
    DOMAIN_CAPACITIES,
    DOMAIN_FACILITY_LOCATIONS,
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
    DOMAIN_IXP_PREFIXES,
)
from repro.core.baseline import RTTBaseline
from repro.core.inputs import InferenceInputs
from repro.core.step1_port_capacity import PortCapacityStep
from repro.core.step2_rtt import RTTCampaignSummary, RTTMeasurementStep
from repro.core.step3_colocation import ColocationRTTStep, FeasibleFacilityAnalysis
from repro.core.step4_multi_ixp import MultiIXPRouter, MultiIXPRouterStep
from repro.core.step5_private_links import PrivateConnectivityStep
from repro.core.types import (
    InferenceReport,
    InferenceResult,
    InferenceStep,
    PeeringClassification,
)
from repro.exceptions import (
    ExecutorDegradedWarning,
    InferenceError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.geo.delay_model import DelayModel
from repro.geo.distindex import GeoDistanceIndex
from repro.resilience import (
    FaultPlan,
    ResilienceEvent,
    ResilienceEventKind,
    ResilienceLog,
    RetryPolicy,
    perform_fault,
    task_digest,
)
from repro.traixroute.detector import CorpusDetectionIndex, IXPCrossing, PrivateAdjacency

#: One recorded ``ensure``/``classify`` call — heterogeneous by design (the
#: records exist only to be replayed, never inspected field by field).
_DeltaRecord = tuple[Any, ...]
#: A step's replayable contribution: its ordered tuple of recorded calls.
_Delta = tuple[_DeltaRecord, ...]
#: The feasibility analyses Step 3 contributes, keyed by (IXP, interface).
_FeasibleMap = dict[tuple[str, str], FeasibleFacilityAnalysis]


@dataclass
class PipelineOutcome:
    """Everything a pipeline run produced."""

    ixp_ids: list[str]
    report: InferenceReport
    baseline_report: InferenceReport
    rtt_summary: RTTCampaignSummary
    feasible: dict[tuple[str, str], FeasibleFacilityAnalysis] = field(default_factory=dict)
    crossings: list[IXPCrossing] = field(default_factory=list)
    private_adjacencies: list[PrivateAdjacency] = field(default_factory=list)
    multi_ixp_routers: list[MultiIXPRouter] = field(default_factory=list)

    def remote_share(self, ixp_id: str | None = None) -> float:
        """Fraction of inferred interfaces classified remote."""
        return self.report.remote_share(ixp_id)


class StepScope(enum.Enum):
    """How a step node is keyed and scheduled."""

    PER_IXP = "per-ixp"
    GLOBAL = "global"


@dataclass(frozen=True)
class StepSpec:
    """Declaration of one pipeline step node.

    Attributes
    ----------
    name:
        Node identifier, also the cache-statistics label.
    scope:
        ``PER_IXP`` nodes are computed (and cached) once per studied IXP and
        are independent across IXPs; ``GLOBAL`` nodes run once per studied
        set.
    config_fields:
        The :class:`~repro.config.InferenceConfig` fields the node reads.
        This is a *contract*: the node's result must depend on no other
        config field, because only these enter its cache key.
    requires:
        Upstream nodes whose results feed this node.  A ``GLOBAL`` node
        requiring a ``PER_IXP`` node depends on that node at *every* studied
        IXP.
    provides:
        What the node contributes to the assembled
        :class:`PipelineOutcome` (documentation and introspection).
    studied_set_sensitive:
        Whether a ``GLOBAL`` node's result depends on *which* IXPs are
        studied.  The traceroute observables scan the whole corpus
        regardless, so they declare ``False`` and are shared across runs
        over different IXP subsets.  Ignored for ``PER_IXP`` nodes.
    data_domains:
        The :class:`~repro.datasources.merge.ObservedDataset` domains the
        node reads (see ``DATASET_DOMAINS``).  Like ``config_fields`` this
        is a *contract*: the node's result must depend on no other slice of
        the dataset, because only these domains' generation stamps enter its
        cache key.
    data_inputs:
        The :class:`~repro.core.inputs.InferenceInputs` members (beyond the
        dataset) whose :meth:`~repro.versioning.Versioned.version_token`
        enters the node's cache key — ``"ping_result"``, ``"corpus"`` and/or
        ``"prefix2as"``.  The alias resolver is world-backed and immutable,
        so no node declares it.
    """

    name: str
    scope: StepScope
    config_fields: tuple[str, ...]
    requires: tuple[str, ...]
    provides: tuple[str, ...]
    studied_set_sensitive: bool = True
    data_domains: tuple[str, ...] = ()
    data_inputs: tuple[str, ...] = ()


#: The declared step graph, in the paper's execution order (Section 5.2).
STEP_GRAPH: tuple[StepSpec, ...] = (
    StepSpec(
        name="step1",
        scope=StepScope.PER_IXP,
        config_fields=("enable_step1_port_capacity",),
        requires=(),
        provides=("report_delta",),
        data_domains=(DOMAIN_INTERFACES, DOMAIN_CAPACITIES),
    ),
    StepSpec(
        name="step2",
        scope=StepScope.PER_IXP,
        config_fields=("atlas_route_server_filter_ms", "lg_rounding_adjustment_ms"),
        requires=(),
        provides=("rtt_summary",),
        data_inputs=("ping_result",),
    ),
    StepSpec(
        name="step3",
        scope=StepScope.PER_IXP,
        config_fields=("enable_step3_colocation_rtt", "feasible_facility_tolerance_km"),
        requires=("step1", "step2"),
        provides=("report_delta", "feasible"),
        data_domains=(
            DOMAIN_INTERFACES,
            DOMAIN_IXP_FACILITIES,
            DOMAIN_AS_FACILITIES,
            DOMAIN_FACILITY_LOCATIONS,
        ),
    ),
    StepSpec(
        name="traceroute",
        scope=StepScope.GLOBAL,
        config_fields=(),
        requires=(),
        provides=("crossings", "private_adjacencies"),
        studied_set_sensitive=False,
        data_domains=(DOMAIN_IXP_PREFIXES, DOMAIN_INTERFACES, DOMAIN_IXP_FACILITIES),
        data_inputs=("corpus", "prefix2as"),
    ),
    StepSpec(
        name="step4",
        scope=StepScope.GLOBAL,
        config_fields=("enable_step4_multi_ixp",),
        requires=("step3", "traceroute"),
        provides=("report_delta", "multi_ixp_routers"),
        data_domains=(
            DOMAIN_INTERFACES,
            DOMAIN_IXP_FACILITIES,
            DOMAIN_AS_FACILITIES,
            DOMAIN_FACILITY_LOCATIONS,
        ),
    ),
    StepSpec(
        name="step5",
        scope=StepScope.GLOBAL,
        config_fields=(
            "enable_step5_private_links",
            "min_private_neighbours",
            "max_coherent_vote_facilities",
        ),
        requires=("step4", "traceroute"),
        provides=("report_delta",),
        data_domains=(
            DOMAIN_INTERFACES,
            DOMAIN_IXP_FACILITIES,
            DOMAIN_AS_FACILITIES,
            DOMAIN_FACILITY_LOCATIONS,
        ),
    ),
    StepSpec(
        name="baseline",
        scope=StepScope.PER_IXP,
        config_fields=("rtt_baseline_threshold_ms",),
        requires=("step2",),
        provides=("baseline_report",),
        data_domains=(DOMAIN_INTERFACES,),
    ),
)

_SPECS: dict[str, StepSpec] = {spec.name: spec for spec in STEP_GRAPH}


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one step label."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


def _check_positive(name: str, value: float | None, *, integral: bool) -> None:
    """Reject a bad optional engine budget eagerly, with a typed error.

    ``None`` means unset.  Anything else must be a positive ``int`` (when
    ``integral``) or a positive ``int``/``float`` — never a ``bool``, which
    Python would otherwise accept as ``1``.
    """
    if value is None:
        return
    kinds: tuple[type, ...] = (int,) if integral else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds) or not value > 0:
        kind = "int" if integral else "number"
        raise InferenceError(
            f"{name} must be a positive {kind} or None, got {value!r}")


def _estimate_size(value: object, _seen: set[int] | None = None) -> int:
    """Rough deep size of a cached step result, in bytes.

    Walks tuples/lists/dicts/sets and dataclass fields (the shapes step
    results are made of), counting every shared object once.  An estimate is
    all the byte budget needs — the goal is proportional accounting, not
    exact accounting.
    """
    if _seen is None:
        _seen = set()
    marker = id(value)
    if marker in _seen:
        return 0
    _seen.add(marker)
    size = sys.getsizeof(value)
    if isinstance(value, dict):
        for key, item in value.items():
            size += _estimate_size(key, _seen) + _estimate_size(item, _seen)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            size += _estimate_size(item, _seen)
    elif is_dataclass(value) and not isinstance(value, type):
        for spec in fields(value):
            size += _estimate_size(getattr(value, spec.name), _seen)
    return size


class StepResultCache:
    """Shared store of step-node results keyed by fingerprint.

    The cache is safe to share across configurations, pipeline facades,
    sweep runs and journalled dataset revisions over *one* inputs bundle:
    the key of every entry already encodes everything that may legally
    influence the result (declared config fields, the version tokens of the
    declared data, and upstream keys), so a hit is a proof of reusability.
    It is **not** safe to share across different inputs bundles — the bundle
    identity is deliberately not part of the key because an engine is bound
    to one bundle for its lifetime.

    ``max_entries`` / ``max_bytes`` cap the cache with least-recently-used
    eviction (the ROADMAP's unbounded-sweep concern): every hit refreshes an
    entry's recency, inserts evict the coldest entries until the budget
    holds, and evictions are tallied per step label in :attr:`stats` (an
    evicted entry is charged to the label that inserted it).  Byte
    accounting uses a rough deep-size estimate computed once per insert.
    A budget must be a positive int (or ``None`` for unbounded).
    """

    def __init__(
        self,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        _check_positive("cache_max_entries", max_entries, integral=True)
        _check_positive("cache_max_bytes", max_bytes, integral=True)
        # key -> (value, label, byte estimate); ordered oldest-used first.
        self._entries: OrderedDict[str, tuple[object, str, int]] = OrderedDict()
        self.stats: dict[str, CacheStats] = {}
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.total_bytes = 0

    def get_or_compute(self, label: str, key: str, compute: Callable[[], object]) -> object:
        """The cached value for ``key``, computing (and storing) it if absent."""
        stats = self.stats.setdefault(label, CacheStats())
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            stats.hits += 1
            return entry[0]
        value = compute()
        size = _estimate_size(value) if self.max_bytes is not None else 0
        stats.misses += 1
        self._entries[key] = (value, label, size)
        self.total_bytes += size
        self._evict_over_budget()
        return value

    def peek(self, key: str) -> tuple[bool, object]:
        """``(present, value)`` for ``key`` without computing on a miss.

        Refreshes the entry's LRU recency but records neither a hit nor a
        miss — the process scheduler peeks every per-IXP node to decide
        which IXPs still need worker trips, and those probes would otherwise
        distort the per-step accounting.
        """
        entry = self._entries.get(key)
        if entry is None:
            return (False, None)
        self._entries.move_to_end(key)
        return (True, entry[0])

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used entries until the budget holds.

        The most recently inserted entry is never evicted: a single result
        larger than the whole byte budget must still be returned (and is
        simply dropped on the next insert).
        """
        while len(self._entries) > 1 and (
            (self.max_entries is not None and len(self._entries) > self.max_entries)
            or (self.max_bytes is not None and self.total_bytes > self.max_bytes)
        ):
            _, (_, label, size) = self._entries.popitem(last=False)
            self.total_bytes -= size
            self.stats.setdefault(label, CacheStats()).evictions += 1

    def eviction_stats(self) -> dict[str, object]:
        """Budget/eviction accounting snapshot (entries, bytes, per-label)."""
        return {
            "entries": len(self._entries),
            "total_bytes": self.total_bytes,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "evictions": sum(s.evictions for s in self.stats.values()),
            "evictions_by_step": {
                label: s.evictions for label, s in self.stats.items() if s.evictions
            },
        }

    def clear(self) -> None:
        """Drop every entry (required if the inputs were mutated directly)."""
        self._entries.clear()
        self.stats.clear()
        self.total_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)


# --------------------------------------------------------------------- #
# Replayable report deltas
# --------------------------------------------------------------------- #
class _RecordingReport(InferenceReport):
    """An :class:`InferenceReport` that logs mutating calls for replay.

    The report's final state is a pure function of its ``ensure``/``classify``
    call sequence, so recording a step's calls (after replaying its
    prerequisites) captures exactly that step's contribution, and replaying
    the recorded deltas in monolithic step order rebuilds a bit-identical
    report.
    """

    def __init__(self) -> None:
        super().__init__()
        self.log: list[_DeltaRecord] | None = None

    def start_recording(self) -> None:
        self.log = []

    def ensure(self, ixp_id: str, interface_ip: str, asn: int) -> InferenceResult:
        if self.log is not None and (ixp_id, interface_ip) not in self.results:
            self.log.append(("ensure", ixp_id, interface_ip, asn))
        return super().ensure(ixp_id, interface_ip, asn)

    def classify(
        self,
        ixp_id: str,
        interface_ip: str,
        asn: int,
        classification: PeeringClassification,
        step: InferenceStep,
        evidence: dict[str, object] | None = None,
        *,
        overwrite: bool = False,
    ) -> InferenceResult:
        if self.log is not None:
            self.log.append(("classify", ixp_id, interface_ip, asn, classification,
                             step, dict(evidence) if evidence else None, overwrite))
        return super().classify(ixp_id, interface_ip, asn, classification, step,
                                evidence, overwrite=overwrite)


def _replay(report: InferenceReport, delta: _Delta) -> None:
    """Apply one recorded delta to a report, with fresh evidence dicts."""
    for record in delta:
        if record[0] == "ensure":
            report.ensure(record[1], record[2], record[3])
        else:
            _, ixp_id, interface_ip, asn, classification, step, evidence, overwrite = record
            report.classify(ixp_id, interface_ip, asn, classification, step,
                            dict(evidence) if evidence else None, overwrite=overwrite)


def _report_as_delta(report: InferenceReport) -> _Delta:
    """A standalone report (the baseline's) rendered as a replayable delta."""
    log: list[_DeltaRecord] = []
    for (ixp_id, interface_ip), result in report.results.items():
        log.append(("ensure", ixp_id, interface_ip, result.asn))
        if result.is_inferred:
            log.append(("classify", ixp_id, interface_ip, result.asn,
                        result.classification, result.step,
                        dict(result.evidence) or None, False))
    return tuple(log)


# --------------------------------------------------------------------- #
# Fingerprint keys
# --------------------------------------------------------------------- #
class _KeyResolver:
    """Derives (and memoises) the cache key of every node for one run.

    A key digests the node name, its scope token (the IXP id, or the studied
    tuple for global nodes), the fingerprint of its declared config fields,
    the version tokens of its declared data (dataset domains and
    inputs-bundle members) and the keys of its parents — so a key matches
    exactly when nothing that may legally influence the node's result
    differs.  Version tokens are sampled once per run (the engine contract
    forbids mutating the inputs mid-run).
    """

    def __init__(
        self,
        config: InferenceConfig,
        ixp_ids: tuple[str, ...],
        inputs: InferenceInputs,
    ) -> None:
        self._config = config
        self._ixp_ids = ixp_ids
        self._inputs = inputs
        self._memo: dict[tuple[str, str | None], str] = {}
        self._data_tokens: dict[str, tuple[object, object]] = {}

    def _data_token(self, spec: StepSpec) -> tuple[object, object]:
        """The version stamps of everything the node declared it reads."""
        token = self._data_tokens.get(spec.name)
        if token is None:
            dataset = self._inputs.dataset
            token = (
                tuple(
                    (domain, dataset.domain_token(domain))
                    for domain in spec.data_domains
                ),
                tuple(
                    (name, getattr(self._inputs, name).version_token())
                    for name in spec.data_inputs
                ),
            )
            self._data_tokens[spec.name] = token
        return token

    def key(self, name: str, ixp_id: str | None = None) -> str:
        memo_key = (name, ixp_id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        spec = _SPECS[name]
        parents: list[str] = []
        for requirement in spec.requires:
            required = _SPECS[requirement]
            if required.scope is StepScope.PER_IXP and spec.scope is StepScope.PER_IXP:
                parents.append(self.key(requirement, ixp_id))
            elif required.scope is StepScope.PER_IXP:
                parents.extend(self.key(requirement, i) for i in self._ixp_ids)
            else:
                parents.append(self.key(requirement))
        if spec.scope is StepScope.PER_IXP:
            scope_token: object = ixp_id
        else:
            scope_token = self._ixp_ids if spec.studied_set_sensitive else "*"
        fingerprint = config_fingerprint(self._config, spec.config_fields)
        payload = repr((name, scope_token, fingerprint, self._data_token(spec), parents))
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self._memo[memo_key] = digest
        return digest


class _PerIXPResults(NamedTuple):
    """The cached results of one IXP's per-IXP node chain."""

    step1_delta: _Delta
    summary: RTTCampaignSummary
    step3_delta: _Delta
    feasible: _FeasibleMap
    baseline_delta: _Delta


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #
class PipelineEngine:
    """Executes the declared step graph over one inputs bundle.

    One engine (hence one :class:`StepResultCache`, one
    :class:`GeoDistanceIndex`, one :class:`DelayModel`) serves every
    configuration run over the same inputs; :class:`SweepRunner` and
    :class:`~repro.core.pipeline.RemotePeeringPipeline` are thin layers on
    top of :meth:`run`.

    An engine is **single-threaded**: one thread drives it, and nothing in
    it (the cache, the dataset views, the geo index and delay-model memos)
    is locked.  A host that wants concurrency runs one engine per process.

    ``max_workers`` alone picks how the per-IXP nodes (Steps 1-3 and the
    baseline) are scheduled.  ``None`` or ``1`` runs them inline (serial).
    ``max_workers > 1`` ships each pending IXP's chain to a persistent
    :class:`ProcessPoolExecutor` whose workers hold a pickled snapshot of
    the inputs; workers share no memory with the parent, and the parent
    absorbs their results on its own thread.  The replayable report deltas
    a chain returns are plain picklable tuples, and the parent stores them
    under the very cache keys the serial schedule would have used, merging
    in deterministic monolithic order — so outcomes stay bit-identical.

    The pool is created lazily, reused across runs (:meth:`executor_stats`
    counts reuses) and released by :meth:`shutdown` (the engine is also a
    context manager).  A journalled inputs
    revision recreates the process pool on the next run — the workers'
    snapshots would otherwise answer for stale data; direct raw mutation of
    the inputs is (exactly as for the caches) not detected.

    **Failure semantics** (:mod:`repro.resilience`).  Every per-IXP task
    is governed by ``retry_policy``: a failed attempt is retried after a
    capped exponential backoff whose jitter derives deterministically from
    the task digest — no wall clock, no RNG; the sleep goes through the
    injectable ``sleep``, like the phase ``clock``.  A
    ``BrokenProcessPool`` retires the broken pool, rebuilds it and
    resubmits only the unfinished tasks, each charged one attempt so a
    task that keeps killing workers exhausts the policy
    (:class:`WorkerCrashError`) instead of looping.  ``task_timeout_s``
    bounds every result wait; a timeout retires the hung pool and demotes
    the *current run* down the cascade ``process -> serial``
    (``ExecutorDegradedWarning`` — the next run starts back on the process
    pool), or raises :class:`TaskTimeoutError` once the task's attempts
    are spent.  Every decision is journalled as a typed
    :class:`~repro.resilience.ResilienceEvent` surfaced by
    :meth:`executor_stats` / :meth:`resilience_events`; nothing is silent.
    Retried and demoted chains store through the same fingerprint keys and
    their deltas are still absorbed in submission order, so the assembled
    outcome stays bit-identical to the fault-free serial schedule.
    ``fault_plan`` injects deterministic faults (crashes, exceptions,
    pickling failures, hangs) for replayable chaos runs.

    Every budget is validated when the engine is built: ``max_workers``,
    ``cache_max_entries`` and ``cache_max_bytes`` must be positive ints
    and ``task_timeout_s`` a positive number (or ``None``); anything else
    raises :class:`InferenceError`.
    """

    def __init__(
        self,
        inputs: InferenceInputs,
        *,
        delay_model: DelayModel | None = None,
        geo_index: GeoDistanceIndex | None = None,
        cache: StepResultCache | None = None,
        cache_max_entries: int | None = None,
        cache_max_bytes: int | None = None,
        max_workers: int | None = None,
        clock: Callable[[], float] = time.perf_counter,
        retry_policy: RetryPolicy | None = None,
        task_timeout_s: float | None = None,
        fault_plan: FaultPlan | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inputs = inputs
        self.delay_model = delay_model or DelayModel()
        if geo_index is not None and geo_index.dataset is not inputs.dataset:
            raise InferenceError("geo_index must be built over the same dataset")
        self.geo_index = geo_index if geo_index is not None else inputs.geo_index
        if cache is None:
            cache = StepResultCache(
                max_entries=cache_max_entries, max_bytes=cache_max_bytes)
        elif cache_max_entries is not None or cache_max_bytes is not None:
            # A shared cache keeps its own budget; silently dropping the
            # kwargs would misreport what bounds the sweep.
            raise InferenceError(
                "cache budgets must be set on the shared cache itself")
        self.cache = cache
        # Eager validation: a bad worker count or timeout must fail here,
        # loudly, not as a late pool failure deep inside the first run.
        _check_positive("max_workers", max_workers, integral=True)
        _check_positive("task_timeout_s", task_timeout_s, integral=False)
        self.max_workers = max_workers
        #: The per-IXP schedule ``max_workers`` selects.
        self.executor = (
            "process" if max_workers is not None and max_workers > 1 else "serial")
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy())
        self.task_timeout_s = task_timeout_s
        self.fault_plan = fault_plan
        # The backoff sleeper is injected like the phase clock: the engine
        # never calls time.sleep itself (contracts rule 4), and tests can
        # record the deterministic schedule instead of waiting it out.
        self._sleep = sleep
        self._resilience = ResilienceLog()
        # A persistent per-engine pool: created lazily by the first parallel
        # run, reused by every later one, released by shutdown().
        self._process_pool: ProcessPoolExecutor | None = None
        self._process_inputs_token: object | None = None
        # Pools abandoned by crash recovery or timeout demotion: already
        # shut down (workers terminated) at retirement, parked here so
        # shutdown() stays idempotent even after breakage.
        self._retired_pools: list[ProcessPoolExecutor] = []
        self._pools_created = 0
        self._pool_reuses = 0
        # Cumulative wall-clock per run phase (seconds).  "per_ixp_map" is
        # the schedulable fan-out the process pool parallelises; "run" is
        # the whole of run() including the serial global nodes and outcome
        # assembly.  The clock is injected (not called as time.perf_counter
        # inline) so the accounting is pure telemetry: no step result
        # depends on it, and determinism-sensitive harnesses can pass a
        # stub.
        self._clock = clock
        self._phase_seconds: dict[str, float] = {"per_ixp_map": 0.0, "run": 0.0}
        self._runs_timed = 0
        # Per-path corpus detection, maintained incrementally across
        # journalled prefix revisions (created on the first traceroute node).
        self._corpus_detection: CorpusDetectionIndex | None = None

    def cache_eviction_stats(self) -> dict[str, object]:
        """The step-result cache's LRU budget accounting (ROADMAP open item)."""
        return self.cache.eviction_stats()

    # ------------------------------------------------------------------ #
    # Executor lifecycle
    # ------------------------------------------------------------------ #
    def _inputs_snapshot_token(self) -> object:
        """Version stamp of the whole inputs bundle, for pool staleness.

        Built from the members' ``version_token()`` stamps, so every
        journalled revision (and any direct growth/shrink the size hints
        catch) changes it; same-size direct mutation is not detected,
        exactly as for the step cache.
        """
        inputs = self.inputs
        return (
            inputs.dataset.version_token(),
            inputs.ping_result.version_token(),
            inputs.corpus.version_token(),
            inputs.prefix2as.version_token(),
        )

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        token = self._inputs_snapshot_token()
        pool = self._process_pool
        if pool is not None and self._process_inputs_token != token:
            # The workers hold a pickled snapshot of the inputs; after a
            # journalled revision they would answer for stale data.
            pool.shutdown(wait=True)
            pool = None
            self._process_pool = None
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_process_worker_init,
                initargs=(self.inputs, self.delay_model, self.fault_plan),
            )
            self._process_pool = pool
            self._process_inputs_token = token
            self._pools_created += 1
        else:
            self._pool_reuses += 1
        return pool

    def executor_stats(self) -> dict[str, object]:
        """Executor-seam accounting: pools, phase timings, resilience events."""
        resilience: dict[str, object] = {
            "counts": self._resilience.counts(),
            "events": self._resilience.snapshot(),
        }
        return {
            "executor": self.executor,
            "max_workers": self.max_workers,
            "task_timeout_s": self.task_timeout_s,
            "pools_created": self._pools_created,
            "pool_reuses": self._pool_reuses,
            "pools_retired": len(self._retired_pools),
            "process_pool_live": self._process_pool is not None,
            "runs_timed": self._runs_timed,
            "phase_seconds": dict(self._phase_seconds),
            "resilience": resilience,
        }

    def resilience_events(self) -> tuple[ResilienceEvent, ...]:
        """The typed journal of fault-handling decisions, oldest first."""
        return self._resilience.snapshot()

    def shutdown(self) -> None:
        """Release the engine's process pool (idempotent, breakage-safe).

        A live pool is drained with ``wait=True`` (a broken pool's join
        returns immediately); pools already retired by crash recovery or
        timeout demotion were shut down — workers terminated — at
        retirement and are only dropped here.  Calling :meth:`shutdown`
        again, or after a failed run, is a no-op.
        """
        process_pool = self._process_pool
        self._process_pool = None
        self._process_inputs_token = None
        self._retired_pools = []
        if process_pool is not None:
            process_pool.shutdown(wait=True)

    def __enter__(self) -> PipelineEngine:
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    def run(self, config: InferenceConfig, ixp_ids: Sequence[str]) -> PipelineOutcome:
        """Run every enabled step for the given IXPs under one configuration."""
        if not ixp_ids:
            raise InferenceError("at least one IXP id is required")
        ixp_ids = tuple(ixp_ids)
        resolver = _KeyResolver(config, ixp_ids, self.inputs)
        cache = self.cache

        # Phase accounting happens in the finally so a run that raises
        # mid-map still books its elapsed time and, more importantly, never
        # skips the bookkeeping that keeps shutdown() releasing pools.
        run_started = self._clock()
        map_elapsed = 0.0
        try:
            map_started = self._clock()
            per_ixp = self._map_per_ixp(config, ixp_ids, resolver)
            map_elapsed = self._clock() - map_started

            crossings, adjacencies = cast(
                "tuple[list[IXPCrossing], list[PrivateAdjacency]]",
                cache.get_or_compute(
                    "traceroute", resolver.key("traceroute"),
                    self._compute_traceroute))

            step1_deltas = [results.step1_delta for results in per_ixp]
            step3_deltas = [results.step3_delta for results in per_ixp]
            feasible: _FeasibleMap = {}
            for results in per_ixp:
                feasible.update(results.feasible)

            step4_delta, routers = cast(
                "tuple[_Delta, list[MultiIXPRouter]]",
                cache.get_or_compute(
                    "step4", resolver.key("step4"),
                    lambda: self._compute_step4(config, ixp_ids, step1_deltas,
                                                step3_deltas, crossings)))
            step5_delta = cast("_Delta", cache.get_or_compute(
                "step5", resolver.key("step5"),
                lambda: self._compute_step5(config, ixp_ids, step1_deltas,
                                            step3_deltas, step4_delta,
                                            adjacencies, routers, feasible)))

            # Assembly: replay the deltas in the monolithic step order, so
            # the final report is bit-identical to the seed single-pass
            # pipeline.
            report = InferenceReport()
            for delta in step1_deltas:
                _replay(report, delta)
            for delta in step3_deltas:
                _replay(report, delta)
            _replay(report, step4_delta)
            _replay(report, step5_delta)

            baseline = InferenceReport()
            for results in per_ixp:
                _replay(baseline, results.baseline_delta)

            rtt_summary = RTTCampaignSummary()
            for results in per_ixp:
                rtt_summary.merge_from(results.summary)

            return PipelineOutcome(
                ixp_ids=list(ixp_ids),
                report=report,
                baseline_report=baseline,
                rtt_summary=rtt_summary,
                feasible=feasible,
                crossings=list(crossings),
                private_adjacencies=list(adjacencies),
                multi_ixp_routers=list(routers),
            )
        finally:
            self._phase_seconds["per_ixp_map"] += map_elapsed
            self._phase_seconds["run"] += self._clock() - run_started
            self._runs_timed += 1

    # ------------------------------------------------------------------ #
    # Per-IXP chains (Steps 1-3 + baseline): resilient scheduling
    # ------------------------------------------------------------------ #
    def _map_per_ixp(
        self,
        config: InferenceConfig,
        ixp_ids: tuple[str, ...],
        resolver: _KeyResolver,
    ) -> list[_PerIXPResults]:
        """Schedule every IXP's chain under the run's resilience regime.

        With ``max_workers > 1`` and more than one IXP the run starts on the
        process pool and works in *rounds*: each round submits every
        still-unfinished task, collects in submission order, and either
        finishes, queues retries (per :attr:`retry_policy`), recovers a
        crashed pool, or demotes the run to the serial schedule after a
        task timeout (``process -> serial``).  The serial round always
        completes (or exhausts the policy); results are returned in
        ``ixp_ids`` order so the downstream merge stays the deterministic
        monolithic one.
        """
        mode = self.executor if len(ixp_ids) > 1 else "serial"
        results: dict[str, _PerIXPResults] = {}
        pending = list(ixp_ids)
        if mode == "process":
            pending = []
            for ixp_id in ixp_ids:
                cached = self._cached_per_ixp(ixp_id, resolver)
                if cached is not None:
                    results[ixp_id] = cached
                else:
                    pending.append(ixp_id)
        attempts = {ixp_id: 0 for ixp_id in pending}
        while pending:
            if mode == "process":
                mode, pending = self._process_round(
                    config, pending, attempts, results, resolver)
            else:
                self._serial_round(config, pending, attempts, results, resolver)
                pending = []
        return [results[ixp_id] for ixp_id in ixp_ids]

    def _run_chain_task(
        self,
        config: InferenceConfig,
        ixp_id: str,
        attempt: int,
        resolver: _KeyResolver,
    ) -> _PerIXPResults:
        """One in-process attempt at one IXP's chain, fault plan first."""
        plan = self.fault_plan
        if plan is not None:
            perform_fault(
                plan, task_digest(config, ixp_id), attempt, in_worker=False)
        return self._per_ixp_chain(config, ixp_id, resolver)

    def _retry_backoff(
        self,
        config: InferenceConfig,
        ixp_id: str,
        attempt: int,
        error: Exception,
    ) -> None:
        """Journal the retry and sleep its deterministic backoff, or re-raise."""
        if not self.retry_policy.should_retry(attempt):
            raise error
        self._resilience.record(ResilienceEvent(
            kind=ResilienceEventKind.RETRY, context=ixp_id,
            detail=type(error).__name__, attempt=attempt))
        self._sleep(
            self.retry_policy.delay_s(task_digest(config, ixp_id), attempt))

    def _note_timeout(self, ixp_id: str, attempt: int) -> None:
        """Journal a task timeout; raise once the task's attempts are spent."""
        self._resilience.record(ResilienceEvent(
            kind=ResilienceEventKind.TASK_TIMEOUT, context=ixp_id,
            detail=f"timeout_s={self.task_timeout_s}", attempt=attempt))
        if not self.retry_policy.should_retry(attempt):
            raise TaskTimeoutError(
                f"per-IXP task {ixp_id!r} timed out on attempt {attempt} "
                f"(task_timeout_s={self.task_timeout_s}) with no retries left")

    def _demote(self, reason: str) -> str:
        """Fall back to the serial schedule, journalled and warned."""
        self._resilience.record(ResilienceEvent(
            kind=ResilienceEventKind.EXECUTOR_DEMOTION, context="scheduler",
            detail=f"process->serial: {reason}"))
        warnings.warn(
            ExecutorDegradedWarning(
                f"per-IXP executor demoted process -> serial ({reason})"),
            stacklevel=2)
        return "serial"

    def _retire_process_pool(self) -> None:
        """Abandon the live process pool (broken, or hosting a hung task).

        The pool is shut down without waiting, its worker processes are
        terminated (a hung worker would otherwise sleep on past the run),
        and the executor object is parked in ``_retired_pools`` so a later
        :meth:`shutdown` stays idempotent even after breakage.  The next
        :meth:`_ensure_process_pool` builds a fresh pool.
        """
        pool = self._process_pool
        self._process_pool = None
        self._process_inputs_token = None
        if pool is not None:
            self._retired_pools.append(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            workers = getattr(pool, "_processes", None) or {}
            for process in list(workers.values()):
                process.terminate()

    def _crash_recovery(
        self, unfinished: list[str], attempts: dict[str, int]
    ) -> tuple[str, list[str]]:
        """Rebuild after ``BrokenProcessPool``; resubmit unfinished tasks only.

        Every unfinished task is charged one attempt — its in-flight work
        died with the pool — so a task that keeps crashing its worker
        exhausts the policy (:class:`WorkerCrashError`) instead of
        rebuilding forever.  Finished tasks were already absorbed in
        submission order and are not resubmitted.
        """
        for ixp_id in unfinished:
            attempts[ixp_id] += 1
            if not self.retry_policy.should_retry(attempts[ixp_id]):
                self._retire_process_pool()
                raise WorkerCrashError(
                    f"worker pool crashed and task {ixp_id!r} exhausted its "
                    f"{self.retry_policy.max_attempts} attempt(s)")
        self._resilience.record(ResilienceEvent(
            kind=ResilienceEventKind.WORKER_CRASH, context="pool",
            detail=",".join(unfinished)))
        self._retire_process_pool()
        self._resilience.record(ResilienceEvent(
            kind=ResilienceEventKind.POOL_REBUILD, context="pool",
            detail=f"resubmitting {len(unfinished)} task(s)"))
        return "process", list(unfinished)

    def _process_round(
        self,
        config: InferenceConfig,
        pending: list[str],
        attempts: dict[str, int],
        results: dict[str, _PerIXPResults],
        resolver: _KeyResolver,
    ) -> tuple[str, list[str]]:
        """One submit-and-collect pass over the process pool.

        Shipped chains are absorbed into the parent cache as they are
        collected — in submission order, never completion order — so the
        stores happen exactly where the fault-free schedule would have
        made them.  Returns ``(next mode, still-unfinished tasks)``.
        """
        try:
            pool = self._ensure_process_pool()
            futures: dict[str, Future[_PerIXPResults]] = {}
            for ixp_id in pending:
                futures[ixp_id] = pool.submit(
                    _process_chain_task,
                    (config, ixp_id, attempts[ixp_id] + 1))
        except BrokenExecutor:
            return self._crash_recovery(list(pending), attempts)
        retry_queue: list[str] = []
        for index, ixp_id in enumerate(pending):
            attempt = attempts[ixp_id] + 1
            try:
                shipped = futures[ixp_id].result(timeout=self.task_timeout_s)
            except FuturesTimeoutError:
                attempts[ixp_id] = attempt
                # Retire first: the hung worker must not outlive a run that
                # raises because the task has no attempts left.
                self._retire_process_pool()
                self._note_timeout(ixp_id, attempt)
                mode = self._demote(f"task {ixp_id!r} timed out")
                return mode, retry_queue + pending[index:]
            except BrokenExecutor:
                return self._crash_recovery(
                    retry_queue + pending[index:], attempts)
            except Exception as error:
                attempts[ixp_id] = attempt
                self._retry_backoff(config, ixp_id, attempt, error)
                retry_queue.append(ixp_id)
            else:
                attempts[ixp_id] = attempt
                results[ixp_id] = self._absorb_per_ixp(
                    ixp_id, resolver, shipped)
        return "process", retry_queue

    def _serial_round(
        self,
        config: InferenceConfig,
        pending: list[str],
        attempts: dict[str, int],
        results: dict[str, _PerIXPResults],
        resolver: _KeyResolver,
    ) -> None:
        """Inline execution — the cascade's always-completing last resort.

        No timeout applies (there is nothing left to demote to); failures
        still retry under the policy until it exhausts.
        """
        for ixp_id in pending:
            while True:
                attempt = attempts[ixp_id] + 1
                try:
                    chain = self._run_chain_task(
                        config, ixp_id, attempt, resolver)
                except Exception as error:
                    attempts[ixp_id] = attempt
                    self._retry_backoff(config, ixp_id, attempt, error)
                    continue
                attempts[ixp_id] = attempt
                results[ixp_id] = chain
                break

    def _cached_per_ixp(
        self, ixp_id: str, resolver: _KeyResolver
    ) -> _PerIXPResults | None:
        """The chain's results if every node is already cached, else ``None``.

        Uses :meth:`StepResultCache.peek` so probing which IXPs still need a
        worker trip does not distort the cache's hit/miss accounting.
        """
        cache = self.cache
        hit1, step1 = cache.peek(resolver.key("step1", ixp_id))
        hit2, summary = cache.peek(resolver.key("step2", ixp_id))
        hit3, step3_pair = cache.peek(resolver.key("step3", ixp_id))
        hit_b, baseline = cache.peek(resolver.key("baseline", ixp_id))
        if not (hit1 and hit2 and hit3 and hit_b):
            return None
        step3_delta, feasible = cast("tuple[_Delta, _FeasibleMap]", step3_pair)
        return _PerIXPResults(step1_delta=cast("_Delta", step1),
                              summary=cast(RTTCampaignSummary, summary),
                              step3_delta=step3_delta, feasible=feasible,
                              baseline_delta=cast("_Delta", baseline))

    def _absorb_per_ixp(
        self, ixp_id: str, resolver: _KeyResolver, shipped: _PerIXPResults
    ) -> _PerIXPResults:
        """Store a worker-computed chain under the parent's cache keys.

        Goes through :meth:`StepResultCache.get_or_compute` so the store
        obeys the cache's budgets and accounting.
        """
        cache = self.cache
        step1 = cast("_Delta", cache.get_or_compute(
            "step1", resolver.key("step1", ixp_id), lambda: shipped.step1_delta))
        summary = cast(RTTCampaignSummary, cache.get_or_compute(
            "step2", resolver.key("step2", ixp_id), lambda: shipped.summary))
        step3_delta, feasible = cast("tuple[_Delta, _FeasibleMap]", cache.get_or_compute(
            "step3", resolver.key("step3", ixp_id),
            lambda: (shipped.step3_delta, shipped.feasible)))
        baseline = cast("_Delta", cache.get_or_compute(
            "baseline", resolver.key("baseline", ixp_id),
            lambda: shipped.baseline_delta))
        return _PerIXPResults(step1_delta=step1, summary=summary,
                              step3_delta=step3_delta, feasible=feasible,
                              baseline_delta=baseline)

    def _per_ixp_chain(
        self, config: InferenceConfig, ixp_id: str, resolver: _KeyResolver
    ) -> _PerIXPResults:
        cache = self.cache
        step1 = cast("_Delta", cache.get_or_compute(
            "step1", resolver.key("step1", ixp_id),
            lambda: self._compute_step1(config, ixp_id)))
        summary = cast(RTTCampaignSummary, cache.get_or_compute(
            "step2", resolver.key("step2", ixp_id),
            lambda: self._compute_step2(config, ixp_id)))
        step3_delta, feasible = cast("tuple[_Delta, _FeasibleMap]", cache.get_or_compute(
            "step3", resolver.key("step3", ixp_id),
            lambda: self._compute_step3(config, ixp_id, step1, summary)))
        baseline = cast("_Delta", cache.get_or_compute(
            "baseline", resolver.key("baseline", ixp_id),
            lambda: self._compute_baseline(config, ixp_id, summary)))
        return _PerIXPResults(step1_delta=step1, summary=summary,
                              step3_delta=step3_delta, feasible=feasible,
                              baseline_delta=baseline)

    def _compute_step1(self, config: InferenceConfig, ixp_id: str) -> _Delta:
        report = _RecordingReport()
        report.start_recording()
        if config.enable_step1_port_capacity:
            PortCapacityStep(self.inputs).run([ixp_id], report)
        else:
            # Make sure every member interface is tracked even if Step 1 is
            # off (the monolith's _register_all branch).
            for interface_ip, asn in self.inputs.dataset.interfaces_of_ixp(ixp_id).items():
                report.ensure(ixp_id, interface_ip, asn)
        return tuple(report.log or ())

    def _compute_step2(self, config: InferenceConfig, ixp_id: str) -> RTTCampaignSummary:
        return RTTMeasurementStep(self.inputs, config).run([ixp_id])

    def _compute_step3(
        self,
        config: InferenceConfig,
        ixp_id: str,
        step1_delta: _Delta,
        summary: RTTCampaignSummary,
    ) -> tuple[_Delta, _FeasibleMap]:
        report = _RecordingReport()
        _replay(report, step1_delta)
        analyses: _FeasibleMap = {}
        report.start_recording()
        if config.enable_step3_colocation_rtt:
            step3 = ColocationRTTStep(self.inputs, config, self.delay_model,
                                      geo_index=self.geo_index)
            analyses = step3.run([ixp_id], report, summary)
        return tuple(report.log or ()), analyses

    def _compute_baseline(
        self, config: InferenceConfig, ixp_id: str, summary: RTTCampaignSummary
    ) -> _Delta:
        report = RTTBaseline(self.inputs, config).run([ixp_id], summary)
        return _report_as_delta(report)

    # ------------------------------------------------------------------ #
    # Global nodes (traceroute observables, Steps 4-5)
    # ------------------------------------------------------------------ #
    def _compute_traceroute(self) -> tuple[list[IXPCrossing], list[PrivateAdjacency]]:
        if self._corpus_detection is None:
            self._corpus_detection = CorpusDetectionIndex(
                self.inputs.dataset, self.inputs.prefix2as, self.inputs.corpus)
        return self._corpus_detection.results()

    def _compute_step4(
        self,
        config: InferenceConfig,
        ixp_ids: tuple[str, ...],
        step1_deltas: list[_Delta],
        step3_deltas: list[_Delta],
        crossings: list[IXPCrossing],
    ) -> tuple[_Delta, list[MultiIXPRouter]]:
        report = _RecordingReport()
        for delta in step1_deltas:
            _replay(report, delta)
        for delta in step3_deltas:
            _replay(report, delta)
        routers: list[MultiIXPRouter] = []
        report.start_recording()
        if config.enable_step4_multi_ixp:
            step4 = MultiIXPRouterStep(self.inputs, config, geo_index=self.geo_index)
            routers = step4.run(list(ixp_ids), report, crossings)
        return tuple(report.log or ()), routers

    def _compute_step5(
        self,
        config: InferenceConfig,
        ixp_ids: tuple[str, ...],
        step1_deltas: list[_Delta],
        step3_deltas: list[_Delta],
        step4_delta: _Delta,
        adjacencies: list[PrivateAdjacency],
        routers: list[MultiIXPRouter],
        feasible: _FeasibleMap,
    ) -> _Delta:
        report = _RecordingReport()
        for delta in step1_deltas:
            _replay(report, delta)
        for delta in step3_deltas:
            _replay(report, delta)
        _replay(report, step4_delta)
        report.start_recording()
        if config.enable_step5_private_links:
            step5 = PrivateConnectivityStep(self.inputs, config, geo_index=self.geo_index)
            step5.run(list(ixp_ids), report, adjacencies, routers, feasible)
        return tuple(report.log or ())


# --------------------------------------------------------------------- #
# Process-executor worker side
# --------------------------------------------------------------------- #
# One serial engine per worker process, built from the pickled inputs by
# the pool initializer and reused for every task the worker serves.  The
# fault plan rides in through the same initializer: the injection harness
# wraps the worker entry point, keyed by task digest, so chaos runs are
# replayable (see repro.resilience.faultplan).
_WORKER_ENGINE: PipelineEngine | None = None
_WORKER_FAULT_PLAN: FaultPlan | None = None


def _process_worker_init(
    inputs: InferenceInputs,
    delay_model: DelayModel,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Pool initializer: build the worker's serial engine, warm its geometry.

    Runs once per worker process.  The bulk geometry prebuild over the
    vantage-point footprint replaces what would otherwise be thousands of
    lazy scalar memo fills on the worker's first chain.
    """
    global _WORKER_ENGINE, _WORKER_FAULT_PLAN
    engine = PipelineEngine(inputs, delay_model=delay_model)
    geo_index = engine.geo_index
    if geo_index is not None:
        geo_index.prebuild(inputs.vantage_point_locations())
    _WORKER_ENGINE = engine
    _WORKER_FAULT_PLAN = fault_plan


def _process_chain_task(
    task: tuple[InferenceConfig, str, int],
) -> _PerIXPResults:
    """Run one attempt of one IXP's chain inside a worker process."""
    engine = _WORKER_ENGINE
    if engine is None:
        raise InferenceError("process worker used before its initializer ran")
    config, ixp_id, attempt = task
    plan = _WORKER_FAULT_PLAN
    if plan is not None:
        payload = perform_fault(
            plan, task_digest(config, ixp_id), attempt, in_worker=True)
        if payload is not None:
            # The injected pickling fault: ship the poisoned payload so the
            # failure fires in the worker's result pickling, exactly where
            # a genuinely unpicklable result would.
            return cast(_PerIXPResults, payload)
    resolver = _KeyResolver(config, (ixp_id,), engine.inputs)
    return engine._per_ixp_chain(config, ixp_id, resolver)


class SweepRunner:
    """Runs a list of config scenarios through one shared engine.

    Every scenario reuses every step result whose fingerprint key is
    unchanged — a fig. 9-style ablation that only toggles Step 4 reuses
    Steps 1-3, the traceroute observables and the baseline verbatim, paying
    only for Step 4/5 and outcome assembly.
    """

    def __init__(self, engine: PipelineEngine) -> None:
        self.engine = engine

    def run(
        self, configs: Sequence[InferenceConfig], ixp_ids: Sequence[str]
    ) -> list[PipelineOutcome]:
        """One :class:`PipelineOutcome` per config, in input order."""
        return [self.engine.run(config, ixp_ids) for config in configs]
