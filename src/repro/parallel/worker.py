"""Per-cell campaign work, shaped for cross-process execution.

A sweep cell — one (benchmark, problem class, nprocs) configuration plus
the chain lengths to measure — is described by the frozen, fully picklable
:class:`CellSpec` and executed by the module-level :func:`run_cell`, which
the executor can hand to a ``ProcessPoolExecutor`` directly (REP007 keeps
lambdas and captured locks out of that path). The result travels back as
:class:`CellResult`: plain JSON-ready data (prediction inputs via
:meth:`PredictionInputs.to_dict`), never live runner or machine objects.

The memo-aware measurement helpers here (:func:`measure_chain`,
:func:`run_application`, :func:`prime_runner_overhead`, and the
:func:`recall_chain`/:func:`recall_application` forms that also report
whether the store answered) are shared with the serial path in
:class:`repro.experiments.pipeline.ExperimentPipeline`, campaigns and the
serving workers, so
a cache hit replays the exact floats a fresh simulation would produce
(REP001 determinism) and serial, parallel, and warm-cache runs stay
bit-identical. :func:`measure_inputs` is the paper's §3 measurement
protocol itself, written once for every caller: each passes the lookup its
measurements come from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro import faults, obs
from repro.core.kernel import ControlFlow
from repro.core.predictor import PredictionInputs
from repro.errors import ExperimentError
from repro.instrument.runner import (
    ApplicationRunner,
    ChainRunner,
    Measurement,
    MeasurementConfig,
)
from repro.npb import make_benchmark
from repro.parallel.keys import application_key, measurement_key
from repro.parallel.memo import SimulationMemoStore
from repro.simmachine.machine import MachineConfig

__all__ = [
    "CellSpec",
    "CellResult",
    "run_cell",
    "measure_inputs",
    "measure_chain",
    "recall_chain",
    "run_application",
    "recall_application",
    "prime_runner_overhead",
]


@dataclass(frozen=True)
class CellSpec:
    """Everything a worker process needs to simulate one sweep cell.

    Deliberately value-only: configs are frozen dataclasses, the memo store
    is referenced by its directory (each worker opens its own handle), and
    the fault plan rides along as data so workers re-install it locally.
    """

    benchmark: str
    problem_class: str
    nprocs: int
    chain_lengths: tuple[int, ...]
    machine: MachineConfig
    measurement: MeasurementConfig
    application_seed: int = 7
    cache_dir: Optional[str] = None
    fault_plan: Optional[faults.FaultPlan] = None
    #: When the parent campaign is being profiled, workers run their own
    #: thread-backend sampler at this interval and ship the profile home.
    profile_interval: Optional[float] = None


@dataclass(frozen=True)
class CellResult:
    """One simulated cell, reduced to plain data for the trip home.

    ``counters`` carries the worker's observability counter *deltas*
    (name, label items, amount) so the parent can merge them into its own
    registry; ``inputs`` round-trips through
    :meth:`PredictionInputs.from_dict`.
    """

    benchmark: str
    problem_class: str
    nprocs: int
    chain_lengths: tuple[int, ...]
    actual: float
    inputs: dict
    memo_stats: dict
    counters: tuple[tuple[str, tuple, int], ...]
    duration: float
    #: ``ProfileData.to_dict()`` of the worker's sampler when the parent
    #: asked for profiling (``CellSpec.profile_interval``), else ``None``.
    profile: Optional[dict] = None


# -- memo-aware measurement helpers (shared with the serial pipeline) -----


def prime_runner_overhead(
    runner: ChainRunner, store: Optional[SimulationMemoStore]
) -> None:
    """Load (or memoize) the runner's empty-loop overhead via the store."""
    if store is None or not runner.config.subtract_overhead:
        return
    bench = runner.benchmark
    key = measurement_key(
        runner.machine_config,
        runner.config,
        bench.name,
        bench.size.problem_class,
        bench.nprocs,
        (),
    )
    hit = store.get(key)
    if hit is not None:
        runner.prime_overhead(hit["overhead"])
    else:
        store.put(key, {"overhead": runner.measure_overhead()})


def measure_chain(
    runner: ChainRunner,
    kernels: Sequence[str],
    store: Optional[SimulationMemoStore],
) -> Measurement:
    """``runner.measure(kernels)`` with the memo store consulted first."""
    if store is None:
        return runner.measure(kernels)
    return recall_chain(runner, kernels, store)[0]


def recall_chain(
    runner: ChainRunner, kernels: Sequence[str], store: SimulationMemoStore
) -> tuple[Measurement, bool]:
    """The chain's measurement from ``store``, else simulated and stored.

    The flag tells whether the store answered. Hits reconstruct the
    post-subtraction :class:`Measurement` (samples + overhead) without
    counters — callers on the prediction path only consume ``.mean``, and
    JSON round-trips the floats exactly.
    """
    bench = runner.benchmark
    key = measurement_key(
        runner.machine_config,
        runner.config,
        bench.name,
        bench.size.problem_class,
        bench.nprocs,
        kernels,
    )
    hit = store.get(key)
    if hit is not None:
        return Measurement(
            benchmark=bench.name,
            problem_class=bench.size.problem_class,
            nprocs=bench.nprocs,
            kernels=tuple(kernels),
            samples=tuple(hit["samples"]),
            overhead=hit["overhead"],
        ), True
    measured = runner.measure(kernels)
    store.put(
        key,
        {"samples": list(measured.samples), "overhead": measured.overhead},
    )
    return measured, False


def run_application(
    runner: ApplicationRunner, store: Optional[SimulationMemoStore]
) -> float:
    """The application's total time, memoized on its full identity."""
    if store is None:
        return runner.run().total_time
    return recall_application(runner, store)[0]


def recall_application(
    runner: ApplicationRunner, store: SimulationMemoStore
) -> tuple[float, bool]:
    """The application total from ``store``, else simulated and stored.

    The flag tells whether the store answered.
    """
    bench = runner.benchmark
    key = application_key(
        runner.machine_config,
        bench.name,
        bench.size.problem_class,
        bench.nprocs,
        runner.seed,
        runner.warmup_iterations,
        runner.measured_iterations,
    )
    hit = store.get(key)
    if hit is not None:
        return hit["total_time"], True
    total = runner.run().total_time
    store.put(key, {"total_time": total})
    return total, False


def measure_inputs(
    runner: ChainRunner,
    chain_lengths: Sequence[int],
    measure: Callable[[Sequence[str]], Measurement],
    inputs: Optional[PredictionInputs] = None,
) -> PredictionInputs:
    """The §3 measurement protocol for the runner's cell.

    Times each loop kernel alone, each pre/post one-shot kernel, and every
    window of each requested chain length, taking every measurement from
    ``measure``: plain ``runner.measure``, the memo-backed
    :func:`measure_chain`, or a campaign's counting store lookup. Given the
    ``inputs`` an earlier call returned, only the windows they lack are
    measured, and the same object comes back when none is missing. Every
    length is checked before the first measurement.
    """
    bench = runner.benchmark
    flow = ControlFlow(bench.loop_kernel_names)
    for length in chain_lengths:
        if not 2 <= length <= len(flow):
            raise ExperimentError(
                f"chain length {length} invalid for {bench.name} "
                f"(flow of {len(flow)})"
            )
    if inputs is None:
        inputs = PredictionInputs(
            flow=flow,
            iterations=bench.iterations,
            loop_times={k: measure((k,)).mean for k in flow.names},
            pre_times={k: measure((k,)).mean for k in bench.pre_kernel_names},
            post_times={
                k: measure((k,)).mean for k in bench.post_kernel_names
            },
        )
    chains = dict(inputs.chain_times)
    for length in chain_lengths:
        for window in flow.windows(length):
            if window not in chains:
                chains[window] = measure(window).mean
    if len(chains) == len(inputs.chain_times):
        return inputs
    return replace(inputs, chain_times=chains)


# -- the worker entry point ------------------------------------------------


def run_cell(spec: CellSpec) -> CellResult:
    """Simulate one sweep cell; safe to call in a worker process.

    Re-installs the spec's fault plan (process-global state does not cross
    the pool boundary), opens the memo store by path, and measures exactly
    what :meth:`ExperimentPipeline.config_result` would: the
    :func:`measure_inputs` protocol through the memo, then the full
    application.
    """
    if spec.fault_plan is not None and faults.get_injector() is None:
        faults.install(spec.fault_plan)
    store = (
        SimulationMemoStore(spec.cache_dir)
        if spec.cache_dir is not None
        else None
    )
    profiler = None
    if spec.profile_interval is not None and obs.profiler_active() is None:
        # Thread backend: pool workers may not own a usable ITIMER slot,
        # and the thread sampler behaves identically under fork and spawn.
        profiler = obs.SamplingProfiler(
            interval=spec.profile_interval, backend="thread"
        ).start()
    before = obs.counter_snapshot()
    start = time.perf_counter()
    bench = make_benchmark(spec.benchmark, spec.problem_class, spec.nprocs)
    runner = ChainRunner(bench, spec.machine, spec.measurement)
    prime_runner_overhead(runner, store)
    try:
        with obs.span(
            "parallel.cell",
            benchmark=spec.benchmark,
            cls=spec.problem_class,
            nprocs=spec.nprocs,
        ):
            inputs = measure_inputs(
                runner,
                spec.chain_lengths,
                lambda kernels: measure_chain(runner, kernels, store),
            )
            actual = run_application(
                ApplicationRunner(
                    bench, spec.machine, seed=spec.application_seed
                ),
                store,
            )
    finally:
        # Always uninstall, even on a raising cell — a pool worker is
        # reused for the next cell and must come back profiler-free.
        profile_data = profiler.stop() if profiler is not None else None
    return CellResult(
        benchmark=spec.benchmark,
        problem_class=spec.problem_class,
        nprocs=spec.nprocs,
        chain_lengths=tuple(spec.chain_lengths),
        actual=actual,
        inputs=inputs.to_dict(),
        memo_stats=store.stats() if store is not None else {},
        counters=obs.counter_deltas(before),
        duration=time.perf_counter() - start,
        profile=(
            profile_data.to_dict() if profile_data is not None else None
        ),
    )
