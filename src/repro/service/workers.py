"""Worker pool and the cell task the workers execute.

The expensive part of a prediction is the discrete-event simulation of the
measurement protocol (isolated kernels, chain windows, one-shots) plus the
full application run. :func:`execute_cell` packages exactly that work for
one (benchmark, class, nprocs) cell; :class:`WorkerPool` runs cells in
parallel on a bounded ``concurrent.futures`` pool, rejecting new work with
a retry-after hint once the queue is full (backpressure instead of
unbounded buffering).

``execute_cell`` is a module-level function over picklable dataclasses so
the pool can be process-based (``kind="process"``); with processes the
measurement store must be a sqlite *file* (``db_path``) — each worker opens
its own connection, and the store's last-write-wins writes of
deterministic payloads make concurrent writers safe.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro import faults, obs
from repro.core.predictor import PredictionInputs
from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceSaturatedError,
    WorkerCrashError,
)
from repro.instrument.runner import ApplicationRunner, MeasurementConfig
from repro.instrument.sweeps import Campaign, CampaignPlan
from repro.npb import make_benchmark
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import recall_application
from repro.simmachine.machine import MachineConfig

__all__ = ["CellTask", "CellOutcome", "execute_cell", "WorkerPool"]


@dataclass(frozen=True)
class CellTask:
    """One unit of worker-pool work: measure a single sweep cell."""

    plan: CampaignPlan
    machine: MachineConfig
    measurement: MeasurementConfig
    application_seed: int = 7
    db_path: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.plan.configurations()) != 1:
            raise ServiceError(
                "a cell task needs a single-cell plan; "
                f"got {len(self.plan.configurations())} cells"
            )


@dataclass(frozen=True)
class CellOutcome:
    """What a worker hands back: inputs + actual + work accounting."""

    benchmark: str
    problem_class: str
    nprocs: int
    inputs: PredictionInputs
    actual: float
    simulations: int
    reused: int


def execute_cell(
    task: CellTask, store: Optional[SimulationMemoStore] = None
) -> CellOutcome:
    """Measure one cell through the measurement store.

    Thread pools pass the service's shared ``store``; process pools leave
    it ``None`` and the worker opens ``task.db_path`` itself. Keys carry
    the measurement seed, so one store serves every seed. A fully stored
    cell runs zero simulations — the campaign memoization *is* the L2
    cache replay.
    """
    stall = faults.check("worker.cell.stall")
    if stall is not None:
        time.sleep(stall.param)
    if faults.check("worker.cell.crash") is not None:
        raise WorkerCrashError("injected worker crash (worker.cell.crash)")
    # NB: SimulationMemoStore defines __len__, so an empty one is falsy —
    # the `is None` test (not truthiness) picks the shared instance.
    owns_store = store is None
    if store is None:
        store = SimulationMemoStore(task.db_path or ":memory:")
    try:
        campaign = Campaign(
            plan=task.plan,
            machine=task.machine,
            measurement=task.measurement,
            memo=store,
        )
        (problem_class, nprocs) = task.plan.configurations()[0]
        benchmark = task.plan.benchmark
        inputs = campaign.run_configuration(problem_class, nprocs)
        actual, reused_actual = recall_application(
            ApplicationRunner(
                make_benchmark(benchmark, problem_class, nprocs),
                task.machine,
                seed=task.application_seed,
            ),
            store,
        )
        return CellOutcome(
            benchmark=benchmark,
            problem_class=problem_class,
            nprocs=nprocs,
            inputs=inputs,
            actual=actual,
            simulations=campaign.measurements_run + (not reused_actual),
            reused=campaign.measurements_reused + reused_actual,
        )
    finally:
        if owns_store:
            store.close()


class WorkerPool:
    """Bounded ``concurrent.futures`` pool with reject-on-saturation.

    ``queue_depth`` caps *outstanding* (queued + running) cells; a submit
    beyond that raises
    :class:`~repro.errors.ServiceSaturatedError` carrying a retry-after
    estimate instead of queueing unboundedly. ``kind`` selects
    ``"thread"`` (default — shares the in-process store),
    ``"process"`` (true parallel simulation; needs a sqlite file), or
    ``"inline"`` (synchronous, for debugging and deterministic tests).

    **Worker death.** A task failing with
    :class:`~repro.errors.WorkerCrashError` (or an executor breaking
    outright, e.g. a killed worker process) counts as a worker death: the
    pool records a respawn (recreating a broken executor in place), and
    after ``crash_threshold`` *consecutive* deaths declares itself
    unhealthy (:attr:`healthy` — the engine's degraded-mode signal). Any
    successfully completed task restores health.
    """

    def __init__(
        self,
        max_workers: int = 2,
        queue_depth: int = 8,
        kind: str = "thread",
        retry_after: Union[float, Callable[[], float]] = 1.0,
        crash_threshold: int = 3,
    ):
        if max_workers < 1:
            raise ServiceError(f"max_workers must be >= 1, got {max_workers}")
        if queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {queue_depth}")
        if kind not in ("thread", "process", "inline"):
            raise ServiceError(
                f"worker kind must be thread/process/inline, got {kind!r}"
            )
        if crash_threshold < 1:
            raise ServiceError(
                f"crash_threshold must be >= 1, got {crash_threshold}"
            )
        self.kind = kind
        self.max_workers = max_workers
        self.queue_depth = queue_depth
        self.crash_threshold = crash_threshold
        self._retry_after = retry_after
        self._outstanding = 0
        self._lock = threading.Lock()
        self._closed = False
        self._consecutive_crashes = 0
        self._crashes = 0
        self._respawns = 0
        self._executor = self._make_executor()

    def _make_executor(self):
        if self.kind == "thread":
            return ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-service",
            )
        if self.kind == "process":
            return ProcessPoolExecutor(max_workers=self.max_workers)
        return None

    @property
    def outstanding(self) -> int:
        """Cells queued or running right now."""
        return self._outstanding

    @property
    def saturated(self) -> bool:
        return self._outstanding >= self.queue_depth

    @property
    def healthy(self) -> bool:
        """False once ``crash_threshold`` consecutive workers have died."""
        return self._consecutive_crashes < self.crash_threshold

    @property
    def respawns(self) -> int:
        """Workers replaced after dying (also ``worker_respawns`` in obs)."""
        return self._respawns

    @property
    def crashes(self) -> int:
        """Total worker deaths observed."""
        return self._crashes

    @property
    def consecutive_crashes(self) -> int:
        return self._consecutive_crashes

    def _note_outcome(self, future: Future) -> None:
        """Health bookkeeping from a finished task (runs in _release)."""
        if future.cancelled():
            return
        exc = future.exception()
        if isinstance(exc, (WorkerCrashError, BrokenExecutor)):
            self._record_crash()
        elif exc is None:
            with self._lock:
                self._consecutive_crashes = 0

    def _record_crash(self) -> None:
        """One worker died: respawn it and update the health state."""
        with self._lock:
            self._crashes += 1
            self._consecutive_crashes += 1
            self._respawns += 1
            if (
                not self._closed
                and self._executor is not None
                and getattr(self._executor, "_broken", False)
            ):
                # A broken executor (killed worker process) cannot run
                # further tasks — replace it wholesale. Thread workers
                # survive exceptions, so only the accounting applies.
                try:
                    self._executor.shutdown(wait=False)
                except Exception:  # pragma: no cover — best effort
                    pass
                self._executor = self._make_executor()
            unhealthy = self._consecutive_crashes >= self.crash_threshold
        obs.get_registry().counter("worker_respawns").inc()
        obs.log(
            "pool.worker_respawn",
            consecutive=self._consecutive_crashes,
            healthy=not unhealthy,
        )

    def retry_after_hint(self) -> float:
        """Seconds a rejected client should wait before retrying."""
        hint = self._retry_after
        return float(hint() if callable(hint) else hint)

    def submit(self, fn: Callable, *args) -> Future:
        """Run ``fn(*args)`` on the pool; reject when saturated/closed."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down")
            if self._outstanding >= self.queue_depth:
                raise ServiceSaturatedError(
                    f"worker queue full ({self._outstanding} outstanding, "
                    f"depth {self.queue_depth})",
                    retry_after=self.retry_after_hint(),
                )
            executor = self._executor
            self._outstanding += 1

        def _release(fut: Future) -> None:
            with self._lock:
                self._outstanding -= 1
            self._note_outcome(fut)

        try:
            if faults.check("pool.submit.reject") is not None:
                raise ServiceSaturatedError(
                    "injected queue-full rejection (pool.submit.reject)",
                    retry_after=self.retry_after_hint(),
                )
            if executor is None:  # inline
                future: Future = Future()
                try:
                    future.set_result(fn(*args))
                except BaseException as exc:  # noqa: BLE001 — via future
                    future.set_exception(exc)
                _release(future)
                return future
            future = executor.submit(fn, *args)
        except BaseException:  # noqa: BLE001 — undo the reservation, re-raise
            with self._lock:
                self._outstanding -= 1
            raise
        future.add_done_callback(_release)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for running cells."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
