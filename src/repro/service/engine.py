"""The prediction service: requests in, cached/batched reports out.

:class:`PredictionService` turns the one-shot predictor stack
(:func:`repro.quick_prediction` and friends) into a long-lived serving
layer:

1. an L1 LRU answers repeated requests in microseconds;
2. misses are single-flight deduplicated and coalesced into per-config
   measurement plans (:mod:`repro.service.batching`);
3. plans run on a bounded worker pool (:mod:`repro.service.workers`)
   through the persistent measurement tier
   (:class:`~repro.instrument.database.PerformanceDatabase`), so a warm
   database answers without simulating at all;
4. every step is measured (:mod:`repro.service.metrics`).

The public surface is thread-safe: any number of threads may call
:meth:`PredictionService.predict` concurrently.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from repro import faults, obs
from repro.analytic.tiers import (
    TIER_ANALYTIC,
    TIER_MEMO,
    TIER_SIMULATION,
    TierPolicy,
    resolve_tier_policy,
)
from repro.core.predictor import (
    CouplingPredictor,
    PredictionInputs,
    PredictionReport,
    SummationPredictor,
)
from repro.errors import (
    InjectedFaultError,
    PredictionError,
    ServiceDegradedError,
    ServiceError,
    ServiceSaturatedError,
    ServiceTimeoutError,
)
from repro.instrument.database import PerformanceDatabase
from repro.instrument.runner import MeasurementConfig
from repro.instrument.sweeps import CampaignPlan
from repro.npb import BENCHMARKS, CLASS_NAMES, make_benchmark
from repro.service.batching import Flight, RequestBatcher
from repro.service.cache import LRUCache, TieredPredictionCache
from repro.service.metrics import ServiceMetrics
from repro.service.slo import DEFAULT_OBJECTIVES, SLOMonitor, SLOObjective
from repro.parallel.keys import cell_key
from repro.parallel.memo import SimulationMemoStore
from repro.service.workers import CellOutcome, CellTask, WorkerPool, execute_cell
from repro.simmachine.machine import MachineConfig, ibm_sp_argonne

if TYPE_CHECKING:
    from repro.analytic.model import AnalyticPredictor

__all__ = ["PredictRequest", "PredictionService"]

#: Cells whose analytic predictor, with its memo, one service keeps. The
#: cells come from clients, so the cache is bounded; evicting a cell only
#: costs its next request one fresh evaluation.
ANALYTIC_PREDICTOR_CAPACITY = 64

#: Foreign seeds (other than the service's own measurement seed) whose
#: in-memory measurement database one service keeps. Clients choose the
#: seeds, so the cache is bounded; evicting a seed only costs its next
#: cell a fresh simulation.
SEED_DATABASE_CAPACITY = 16


@dataclass(frozen=True)
class PredictRequest:
    """One prediction to serve.

    ``seed`` selects the measurement-noise stream. Distinct seeds are
    distinct L1 cache entries for simulated and memoized answers, and
    their measurements never mix: the persistent measurement tier (keyed,
    like campaign memoization, without the seed) serves only requests at
    the service's own measurement seed, and every other seed measures
    through an in-memory database of its own. Analytic answers ignore the
    seed: the closed forms compute expected values, in which the noise
    drops out, so their L1 entry is keyed by :attr:`analytic_key`.
    """

    benchmark: str
    problem_class: str
    nprocs: int
    chain_length: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark", str(self.benchmark).upper())
        object.__setattr__(
            self, "problem_class", str(self.problem_class).upper()
        )
        if self.benchmark not in BENCHMARKS:
            raise ServiceError(
                f"unknown benchmark {self.benchmark!r}; "
                f"choose from {sorted(BENCHMARKS)}"
            )
        if self.problem_class not in CLASS_NAMES:
            raise ServiceError(
                f"unknown problem class {self.problem_class!r}; "
                f"choose from {list(CLASS_NAMES)}"
            )
        if self.nprocs < 1:
            raise ServiceError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.chain_length < 2:
            raise ServiceError(
                f"chain_length must be >= 2, got {self.chain_length}"
            )

    @property
    def key(self) -> tuple:
        """Full identity — the L1 key of simulated and memoized answers."""
        return (
            self.benchmark,
            self.problem_class,
            self.nprocs,
            self.chain_length,
            self.seed,
        )

    @property
    def analytic_key(self) -> tuple:
        """The analytic rung's L1 key: the full identity minus the seed."""
        return (
            self.benchmark,
            self.problem_class,
            self.nprocs,
            self.chain_length,
            TIER_ANALYTIC,
        )

    @property
    def config_key(self) -> tuple:
        """Batching identity: requests sharing it share one measurement plan."""
        return (self.benchmark, self.problem_class, self.nprocs, self.seed)

    def to_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "problem_class": self.problem_class,
            "nprocs": self.nprocs,
            "chain_length": self.chain_length,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PredictRequest":
        """Build from a JSON object; unknown fields are rejected."""
        known = {"benchmark", "problem_class", "nprocs", "chain_length", "seed"}
        extra = set(data) - known
        if extra:
            raise ServiceError(f"unknown request fields: {sorted(extra)}")
        try:
            return cls(
                benchmark=data["benchmark"],
                problem_class=data["problem_class"],
                nprocs=int(data["nprocs"]),
                chain_length=int(data.get("chain_length", 2)),
                seed=int(data.get("seed", 0)),
            )
        except KeyError as exc:
            raise ServiceError(f"request missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"malformed request: {exc}") from None


class PredictionService:
    """Batched, cached, metered serving of prediction reports.

    Parameters mirror the subsystem layers: cache sizing (``cache_capacity``
    / ``cache_ttl`` / ``db_path`` or an externally owned ``database``),
    batching (``batch_window``), the worker pool (``max_workers`` /
    ``queue_depth`` / ``executor``), and the measurement protocol shared by
    every cell (``machine`` / ``measurement`` / ``application_seed``).

    ``execute`` swaps the cell executor (tests inject counting/blocking
    stubs); with ``executor="process"`` the default
    :func:`~repro.service.workers.execute_cell` must be used and
    ``db_path`` must point at a database *file* the worker processes can
    share.

    Robustness knobs: ``default_timeout`` is the per-request deadline when
    a :meth:`predict` call passes none (misses that exceed it raise
    :class:`~repro.errors.ServiceTimeoutError`); ``max_batch`` flushes a
    collection window early once that many requests are pending;
    ``crash_threshold`` consecutive worker crashes flip the service into
    cache-only *degraded mode* (L1 hits are still served, misses raise
    :class:`~repro.errors.ServiceDegradedError`, and every
    ``degraded_probe_every``-th miss is let through as a recovery probe —
    one probe succeeding restores normal service).

    ``cache_dir`` points at a :mod:`repro.parallel` simulation memo
    directory: whole cells found there are served without enqueueing any
    simulation work, and freshly simulated cells are stored back, so a
    restarted service resumes warm. Only whole-cell entries are read; the
    per-chain entries ``repro campaign --cache-dir`` writes are not.

    ``tier_policy`` selects the serving-ladder rung order (a
    :class:`~repro.analytic.tiers.TierPolicy` or a policy name): under
    ``fast``/``balanced`` the closed-form analytic tier answers first and
    escalates to memo/simulation when its self-reported confidence misses
    the policy's error budget; the default ``exact`` bypasses the analytic
    tier entirely, preserving bit-identical simulation results.

    ``slo_objectives``/``slo_window`` configure the rolling SLO monitor
    behind :meth:`slo_report` (defaults:
    :data:`repro.service.slo.DEFAULT_OBJECTIVES` over a 60-snapshot
    window); the monitor only runs when polled, never per request.
    """

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        measurement: Optional[MeasurementConfig] = None,
        *,
        database: Optional[PerformanceDatabase] = None,
        db_path: str = ":memory:",
        cache_capacity: int = 1024,
        cache_ttl: Optional[float] = None,
        batch_window: float = 0.005,
        max_batch: Optional[int] = None,
        max_workers: int = 2,
        queue_depth: int = 16,
        executor: str = "thread",
        application_seed: int = 7,
        execute: Optional[Callable[..., Any]] = None,
        clock: Callable[[], float] = time.monotonic,
        default_timeout: Optional[float] = None,
        crash_threshold: int = 3,
        degraded_probe_every: int = 8,
        cache_dir: Optional[str] = None,
        tier_policy: "str | TierPolicy" = "exact",
        slo_objectives: Optional[Sequence[SLOObjective]] = None,
        slo_window: int = 60,
        shard_id: Optional[int] = None,
    ):
        self.machine = machine or ibm_sp_argonne()
        #: Ring position when this service is one shard of a sharded
        #: deployment (``repro serve --shards N``); None when standalone.
        self.shard_id = shard_id
        self.tier_policy = resolve_tier_policy(tier_policy)
        # Content-addressed simulation memo (repro.parallel): consulted
        # before a cell task is enqueued, so a warm directory serves whole
        # cells without touching the worker pool at all.
        self._memo = (
            SimulationMemoStore(cache_dir) if cache_dir is not None else None
        )
        self.measurement = measurement or MeasurementConfig()
        self.application_seed = application_seed
        self._clock = clock
        self._cache = TieredPredictionCache(
            capacity=cache_capacity,
            ttl=cache_ttl,
            database=database,
            db_path=db_path,
            clock=clock,
        )
        if executor == "process":
            if execute is not None:
                raise ServiceError(
                    "custom execute hooks require a thread/inline executor"
                )
            if self._cache.db_path == ":memory:":
                raise ServiceError(
                    "process workers need a file-backed db_path to share "
                    "the persistent tier"
                )
        if default_timeout is not None and default_timeout <= 0:
            raise ServiceError(
                f"default_timeout must be positive, got {default_timeout}"
            )
        if degraded_probe_every < 1:
            raise ServiceError(
                f"degraded_probe_every must be >= 1, got {degraded_probe_every}"
            )
        self._executor_kind = executor
        self._execute = execute or execute_cell
        self.default_timeout = default_timeout
        self._pool = WorkerPool(
            max_workers=max_workers,
            queue_depth=queue_depth,
            kind=executor,
            retry_after=self._retry_after_estimate,
            crash_threshold=crash_threshold,
        )
        self.metrics = ServiceMetrics(queue_depth_fn=lambda: self._pool.outstanding)
        self.slo = SLOMonitor(
            self.metrics,
            objectives=(
                slo_objectives
                if slo_objectives is not None
                else DEFAULT_OBJECTIVES
            ),
            window=slo_window,
        )
        # One memoizing analytic predictor per cell (benchmark, class,
        # nprocs): every seed, chain length and cross-check of a cell is
        # answered from its first evaluation.
        self._predictors = LRUCache(capacity=ANALYTIC_PREDICTOR_CAPACITY)
        # One in-memory measurement database per foreign seed: the
        # persistent tier's keys omit the seed, so sharing it would replay
        # one seed's samples as another's.
        self._seed_databases = LRUCache(capacity=SEED_DATABASE_CAPACITY)
        self._batcher = RequestBatcher(
            self._dispatch_group, window=batch_window, max_batch=max_batch
        )
        self._degraded_probe_every = degraded_probe_every
        self._degraded_misses = 0
        # Guards the degraded-probe counter, the closed flag and the
        # get-or-create of a seed's database (the service state mutated
        # after construction).
        self._state_lock = threading.Lock()
        self._closed = False

    # -- serving --------------------------------------------------------------

    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictionReport:
        """Serve one request, blocking until its report is ready.

        Raises :class:`~repro.errors.ServiceSaturatedError` (with a
        ``retry_after`` hint) instead of queueing when the worker pool is
        full and the request can neither be answered from cache nor
        coalesced onto an in-flight duplicate;
        :class:`~repro.errors.ServiceTimeoutError` when the deadline
        (``timeout``, defaulting to the service's ``default_timeout``)
        expires first; and :class:`~repro.errors.ServiceDegradedError` for
        cache misses while the service is in degraded mode.
        """
        outcome, t0 = self._submit(request)
        if isinstance(outcome, PredictionReport):
            # L1 hit: the microsecond path. Deliberately span-free — the
            # hit is already measured (l1_hits + latency histogram), and
            # a span here would cost more than the lookup it times.
            return outcome
        with obs.span("service.predict", benchmark=request.benchmark):
            return self._await(outcome, t0, timeout)

    def predict_many(
        self,
        requests: Sequence[PredictRequest],
        timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> list:
        """Serve a burst of requests through one batching window."""
        outcomes = []
        for request in requests:
            try:
                outcomes.append(self._submit(request))
            except ServiceError as exc:
                if not return_exceptions:
                    raise
                outcomes.append((exc, None))
        results = []
        for outcome, t0 in outcomes:
            if isinstance(outcome, (PredictionReport, Exception)):
                results.append(outcome)
                continue
            try:
                results.append(self._await(outcome, t0, timeout))
            except Exception as exc:  # noqa: BLE001 — caller opted in
                if not return_exceptions:
                    raise
                results.append(exc)
        return results

    def _submit(self, request: PredictRequest):
        """Tier ladder: L1, analytic rung, saturation gate, batcher.

        Returns ``(report_or_future, start_time)``.
        """
        t0 = self._clock()
        self.metrics.requests.inc()
        report = self._cache.get_report(request.key)
        if report is not None:
            self.metrics.l1_hits.inc()
            dt = self._clock() - t0
            self.metrics.latency.observe(dt)
            self.metrics.record_tier(report.tier, dt)
            return report, t0
        if self.tier_policy.use_analytic:
            # The analytic rung sits *above* the degraded/saturation gates:
            # closed forms need no workers, so a degraded pool still serves
            # every request the policy's error budget accepts.
            report = self._serve_analytic(request, t0)
            if report is not None:
                return report, t0
        if not self._pool.healthy and not self._batcher.in_flight(request.key):
            # Degraded mode: cache-only, except for a periodic probe that
            # tests whether the pool has recovered.
            with self._state_lock:
                self._degraded_misses += 1
                probe = self._degraded_misses % self._degraded_probe_every == 0
            if not probe:
                self.metrics.degraded_rejects.inc()
                raise ServiceDegradedError(
                    "service degraded (worker pool unhealthy); "
                    "serving cached reports only"
                )
        if self._pool.saturated and not self._batcher.in_flight(request.key):
            self.metrics.rejected.inc()
            raise ServiceSaturatedError(
                "service saturated; retry later",
                retry_after=self._pool.retry_after_hint(),
            )
        future, coalesced = self._batcher.submit(request)
        if coalesced:
            self.metrics.coalesced.inc()
        return future, t0

    # -- the analytic rung ----------------------------------------------------

    def _serve_analytic(
        self, request: PredictRequest, t0: float
    ) -> Optional[PredictionReport]:
        """Answer from the closed-form tier, or None to escalate."""
        analytic_key = request.analytic_key
        report = self._cache.get_report(analytic_key)
        if report is not None:
            self.metrics.l1_hits.inc()
        else:
            report = self._analytic_report(request)
            if report is None:
                return None
            self._cache.put_report(analytic_key, report)
        dt = self._clock() - t0
        self.metrics.latency.observe(dt)
        self.metrics.record_tier(TIER_ANALYTIC, dt)
        return report

    def _analytic_predictor(
        self, request: PredictRequest
    ) -> "AnalyticPredictor":
        """This service's memoizing predictor for the request's cell.

        Raises for unsupported benchmarks, which are therefore never
        cached. Two threads missing the same cell at once may each build
        a predictor; both answer identically and the later one is kept.
        """
        from repro.analytic.model import AnalyticPredictor

        cell = (request.benchmark, request.problem_class, request.nprocs)
        predictor = self._predictors.get(cell)
        if predictor is None:
            predictor = AnalyticPredictor.for_config(self.machine, *cell)
            self._predictors.put(cell, predictor)
        return predictor

    def _analytic_report(
        self, request: PredictRequest
    ) -> Optional[PredictionReport]:
        """The closed-form answer, or None (counted escalation).

        Escalates on unsupported benchmarks (the descriptor tables cover
        BT/SP/LU), on invalid chain lengths (the simulation path raises the
        matching typed error to the waiter), and whenever the self-reported
        confidence misses the policy's error budget.
        """
        try:
            analytic = self._analytic_predictor(request).report(
                (request.chain_length,)
            )
        except Exception:  # noqa: BLE001 — any analytic failure escalates
            self.metrics.analytic_escalations.inc()
            return None
        if not self.tier_policy.accepts(analytic.expected_rel_error):
            self.metrics.analytic_escalations.inc()
            return None
        return analytic.prediction_report((request.chain_length,))

    def _await(
        self, future: Future, t0: float, timeout: Optional[float]
    ) -> PredictionReport:
        if timeout is None:
            timeout = self.default_timeout
        try:
            report = future.result(timeout)
        except FuturesTimeoutError:
            # The flight stays registered: late duplicates still coalesce
            # and the eventual result still warms the cache — only this
            # caller's deadline expired.
            self.metrics.timeouts.inc()
            obs.get_registry().counter("request_timeout").inc()
            raise ServiceTimeoutError(
                f"request deadline of {timeout}s exceeded",
                timeout=timeout,
            ) from None
        except ServiceSaturatedError:
            self.metrics.rejected.inc()
            raise
        except Exception:  # noqa: BLE001 — count every failure kind, re-raise
            self.metrics.errors.inc()
            raise
        dt = self._clock() - t0
        self.metrics.latency.observe(dt)
        self.metrics.record_tier(report.tier, dt)
        return report

    # -- dispatch (batcher thread) --------------------------------------------

    def _dispatch_group(self, flights: list[Flight]) -> None:
        """Turn one config-homogeneous group into a cell task on the pool.

        Runs on the batcher thread; adopting the first flight's captured
        correlation ID and span context stitches the dispatch (and the
        worker's cell span) into the submitting request's trace.
        """
        first = flights[0].request
        with obs.correlation(flights[0].corr), obs.use_context(
            flights[0].context
        ), obs.span(
            "service.dispatch",
            benchmark=first.benchmark,
            cls=first.problem_class,
            nprocs=first.nprocs,
            batch=len(flights),
        ):
            self._dispatch_batch(flights)

    def _dispatch_batch(self, flights: list[Flight]) -> None:
        first = flights[0].request
        if faults.check("engine.dispatch.error") is not None:
            self._fail(
                flights,
                InjectedFaultError(
                    "injected engine dispatch failure (engine.dispatch.error)"
                ),
            )
            return
        self.metrics.record_batch(len(flights))
        # Validate per-request chain lengths against the flow now, so one
        # impossible request fails alone instead of poisoning its batch.
        try:
            bench = make_benchmark(
                first.benchmark, first.problem_class, first.nprocs
            )
        except Exception as exc:  # noqa: BLE001 — relay to waiters
            self._fail(flights, exc)
            return
        flow_length = len(bench.loop_kernel_names)
        viable = []
        for flight in flights:
            if flight.request.chain_length > flow_length:
                self._fail(
                    [flight],
                    PredictionError(
                        f"chain_length {flight.request.chain_length} exceeds "
                        f"the {first.benchmark} flow of {flow_length} kernels"
                    ),
                )
            else:
                viable.append(flight)
        flights = viable
        if not flights:
            return
        requests = [flight.request for flight in flights]
        plan = CampaignPlan.for_cell(
            first.benchmark,
            first.problem_class,
            first.nprocs,
            chain_lengths=sorted({r.chain_length for r in requests}),
        )
        measurement = replace(self.measurement, seed=first.seed)
        memo_key = None
        if self._memo is not None:
            memo_key = cell_key(
                self.machine,
                measurement,
                first.benchmark,
                first.problem_class,
                first.nprocs,
                plan.chain_lengths,
                self.application_seed,
            )
            hit = self._memo.get(memo_key)
            if hit is not None:
                self.metrics.cell_seconds.observe(0.0)
                self._finish(
                    flights,
                    CellOutcome(
                        benchmark=first.benchmark,
                        problem_class=first.problem_class,
                        nprocs=first.nprocs,
                        inputs=PredictionInputs.from_dict(hit["inputs"]),
                        actual=hit["actual"],
                        simulations=0,
                        reused=hit.get("reused", 0),
                    ),
                )
                return
        own_seed = first.seed == self.measurement.seed
        task = CellTask(
            plan=plan,
            machine=self.machine,
            measurement=measurement,
            application_seed=self.application_seed,
            db_path=(
                self._cache.db_path
                if self._executor_kind == "process" and own_seed
                else None
            ),
        )
        try:
            if self._executor_kind == "process":
                # Process workers need a picklable module-level callable;
                # their spans come from the simulator flush instead.
                pool_future = self._pool.submit(self._execute, task)
            else:
                pool_future = self._pool.submit(
                    self._traced_cell,
                    obs.current_context(),
                    task,
                    (
                        self._cache.database
                        if own_seed
                        else self._seed_database(first.seed)
                    ),
                )
        except ServiceError as exc:
            self._fail(flights, exc)
            return
        except Exception as exc:  # noqa: BLE001 — keep waiter errors typed
            self._fail(
                flights, ServiceError(f"worker submission failed: {exc}")
            )
            return
        started = self._clock()

        def _done(fut: Future) -> None:
            self.metrics.cell_seconds.observe(self._clock() - started)
            try:
                # repro: ignore[REP003] — done-callback: fut already resolved
                outcome = fut.result()
            except BaseException as exc:  # noqa: BLE001 — relay to waiters
                self._fail(flights, exc)
                return
            if self._memo is not None and memo_key is not None:
                self._memo.put(
                    memo_key,
                    {
                        "inputs": outcome.inputs.to_dict(),
                        "actual": outcome.actual,
                        "reused": outcome.reused,
                    },
                )
            self._finish(flights, outcome)

        pool_future.add_done_callback(_done)

    def _seed_database(self, seed: int) -> PerformanceDatabase:
        """The in-memory measurement database of one foreign seed.

        An evicted database is not closed here (a worker may still be
        measuring through it); it closes when the last reference goes.
        """
        with self._state_lock:
            database = self._seed_databases.get(seed)
            if database is None:
                database = PerformanceDatabase()
                self._seed_databases.put(seed, database)
            return database

    def _traced_cell(self, context, task, database):
        """Run one cell on a worker thread under the request's trace."""
        with obs.use_context(context), obs.span(
            "service.cell",
            benchmark=task.plan.benchmark,
            cls=task.plan.problem_classes[0],
            nprocs=task.plan.proc_counts[0],
        ):
            return self._execute(task, database)

    def _finish(self, flights: list[Flight], outcome) -> None:
        """Build each waiter's report from the cell outcome."""
        self.metrics.simulations.inc(outcome.simulations)
        warm = outcome.simulations == 0
        tier = TIER_MEMO if warm else TIER_SIMULATION
        self._record_analytic_error(flights[0].request, outcome.actual)
        summation = SummationPredictor().predict(outcome.inputs)
        for flight in flights:
            request = flight.request
            try:
                coupled = CouplingPredictor(request.chain_length).predict(
                    outcome.inputs
                )
            except Exception as exc:  # noqa: BLE001 — relay to this waiter
                self._fail([flight], exc)
                continue
            report = PredictionReport(
                actual=outcome.actual,
                predictions={
                    SummationPredictor.name: summation,
                    f"Coupling: {request.chain_length} kernels": coupled,
                },
                tier=tier,
            )
            self._cache.put_report(request.key, report)
            (self.metrics.l2_hits if warm else self.metrics.misses).inc()
            if not flight.future.done():
                flight.future.set_result(report)

    def _record_analytic_error(
        self, request: PredictRequest, actual: float
    ) -> None:
        """Signed analytic-vs-ground-truth error, when both tiers answered.

        Ground truth (a simulated or memoized cell) just landed; if the
        active policy runs the analytic tier, score its application total
        against it so ``tier_signed_rel_error{tier=analytic}`` accumulates
        live cross-validation data — including for escalated cells.
        """
        if not self.tier_policy.use_analytic or actual <= 0:
            return
        try:
            analytic = self._analytic_predictor(request).report()
        except Exception:  # noqa: BLE001 — unsupported configs score nothing
            return
        self.metrics.record_signed_error(
            (analytic.actual - actual) / actual
        )

    @staticmethod
    def _fail(flights: list[Flight], exc: BaseException) -> None:
        for flight in flights:
            if not flight.future.done():
                flight.future.set_exception(exc)

    def _retry_after_estimate(self) -> float:
        """Expected drain time of the current queue, floored at 100 ms."""
        mean_cell = self.metrics.cell_seconds.mean
        if mean_cell <= 0:
            return 1.0
        waves = max(1, -(-self._pool.outstanding // self._pool.max_workers))
        return max(0.1, waves * mean_cell)

    # -- observability / lifecycle --------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the worker pool is unhealthy (cache-only serving)."""
        return not self._pool.healthy

    @property
    def pool(self) -> "WorkerPool":
        """The worker pool (health/respawn introspection)."""
        return self._pool

    def stats(self) -> dict:
        """Service counters plus cache-tier counters, JSON-friendly."""
        snapshot = self.metrics.stats()
        snapshot["cache"] = self._cache.stats()
        if self._memo is not None:
            snapshot["memo"] = self._memo.stats()
        snapshot["degraded"] = self.degraded
        snapshot["worker_respawns"] = self._pool.respawns
        snapshot["worker_crashes"] = self._pool.crashes
        if self.shard_id is not None:
            snapshot["shard"] = self.shard_id
        return snapshot

    def slo_report(self) -> dict:
        """One rolling SLO judgement (tier quantiles, budget burn).

        Each call also advances the monitor's snapshot window and updates
        the ``slo_*`` instruments in the service registry — polling *is*
        the tick (nothing on the serving path pays for SLO accounting).
        """
        return self.slo.observe()

    def metrics_registries(self) -> tuple:
        """The registries a metrics exporter should render, gauges fresh.

        The service's own (namespaced) registry first, then the global one
        carrying span-duration histograms and simulator counters — together
        they are the full picture behind the TCP ``metrics`` command and
        ``repro metrics``.
        """
        self.metrics.refresh_gauges()
        return (self.metrics.registry, obs.get_registry())

    @property
    def database(self) -> PerformanceDatabase:
        """The persistent measurement tier (shared with campaigns/sweeps)."""
        return self._cache.database

    def close(self) -> None:
        """Stop batching, drain workers, release the cache tiers."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._batcher.close()
        self._pool.shutdown(wait=True)
        self._cache.close()
        self._predictors.clear()
        for database in self._seed_databases.values():
            database.close()
        self._seed_databases.clear()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
