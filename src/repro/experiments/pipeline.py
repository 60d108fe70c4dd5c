"""Shared measurement/prediction pipeline for the experiment drivers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro import faults, obs
from repro.analytic.tiers import TIER_ANALYTIC, TierPolicy, resolve_tier_policy
from repro.core.kernel import ControlFlow
from repro.core.predictor import (
    CouplingPredictor,
    PredictionInputs,
    SummationPredictor,
)
from repro.instrument.runner import (
    ApplicationRunner,
    ChainRunner,
    MeasurementConfig,
)
from repro.npb import make_benchmark
from repro.parallel.executor import execute_cells
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import (
    CellResult,
    CellSpec,
    measure_chain,
    measure_inputs,
    prime_runner_overhead,
    run_application,
)
from repro.simmachine.machine import MachineConfig, ibm_sp_argonne

__all__ = ["ExperimentSettings", "ConfigResult", "ExperimentPipeline"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Machine + measurement configuration shared by all experiments."""

    machine: MachineConfig = field(default_factory=ibm_sp_argonne)
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    application_seed: int = 7


@dataclass
class ConfigResult:
    """Everything measured and predicted at one (benchmark, class, procs)."""

    benchmark: str
    problem_class: str
    nprocs: int
    flow: ControlFlow
    actual: float
    inputs: PredictionInputs
    #: The serving-ladder rung that produced these numbers
    #: ("analytic" | "simulation"); memoized cells replay simulation data.
    tier: str = "simulation"
    #: Derived-value memo only — excluded from comparison and from pickling
    #: so results cross process boundaries as pure measurement data.
    _coupling_cache: dict[int, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def summation(self) -> float:
        """The summation-methodology prediction."""
        return SummationPredictor().predict(self.inputs)

    def coupling_prediction(self, chain_length: int) -> float:
        """The coupling prediction for a given chain length."""
        if chain_length not in self._coupling_cache:
            self._coupling_cache[chain_length] = CouplingPredictor(
                chain_length
            ).predict(self.inputs)
        return self._coupling_cache[chain_length]

    def coupling_values(self, chain_length: int) -> dict[tuple[str, ...], float]:
        """``window -> coupling value`` for a given chain length."""
        return (
            CouplingPredictor(chain_length)
            .coupling_set(self.inputs)
            .values()
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_coupling_cache"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


class ExperimentPipeline:
    """Measures configurations on demand and caches everything.

    Chain measurements accumulate per configuration, so a table needing
    chain length 3 after another table measured length 2 only runs the new
    windows — mirroring how the paper reuses one experimental campaign
    across its tables.

    ``memo`` (a directory path or a :class:`SimulationMemoStore`) plugs in
    the content-addressed simulation cache: every chain/application
    simulation is looked up before it runs and stored after. ``jobs > 1``
    fans independent sweep cells across worker processes. Both are safe
    because the simulation tier is deterministic (REP001): serial,
    parallel, and cache-warm runs produce bit-identical numbers.

    ``tier_policy`` (a :class:`~repro.analytic.tiers.TierPolicy` or name)
    turns on the closed-form fast path: under ``fast``/``balanced``,
    configurations the analytic tier answers within the policy's error
    budget skip measurement entirely (``ConfigResult.tier == "analytic"``);
    everything else — and every configuration under the default ``exact``
    policy — takes the unchanged simulation path, so ``exact`` results stay
    bit-identical to pre-ladder pipelines.
    """

    def __init__(
        self,
        settings: Optional[ExperimentSettings] = None,
        memo: Union[SimulationMemoStore, str, os.PathLike, None] = None,
        jobs: int = 1,
        tier_policy: "str | TierPolicy" = "exact",
    ):
        self.settings = settings or ExperimentSettings()
        if memo is None or isinstance(memo, SimulationMemoStore):
            self.memo = memo
        else:
            self.memo = SimulationMemoStore(memo)
        self.jobs = jobs
        self.tier_policy = resolve_tier_policy(tier_policy)
        self._results: dict[tuple[str, str, int], ConfigResult] = {}
        self._runners: dict[tuple[str, str, int], ChainRunner] = {}
        #: Analytic answers are per-(config, chain lengths) — more windows
        #: mean a fresh closed-form pass, never a partial mutation.
        self._analytic_results: dict[tuple, ConfigResult] = {}

    def _runner_for(self, key: tuple[str, str, int]) -> ChainRunner:
        """The (lazily created) measurement runner for one configuration."""
        runner = self._runners.get(key)
        if runner is None:
            bench = make_benchmark(*key)
            runner = ChainRunner(
                bench, self.settings.machine, self.settings.measurement
            )
            prime_runner_overhead(runner, self.memo)
            self._runners[key] = runner
        return runner

    def _analytic_result(
        self,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        chain_lengths: Sequence[int],
    ) -> Optional[ConfigResult]:
        """The closed-form tier's answer, or None to escalate to simulation.

        Escalates when the benchmark has no descriptor tables, when a chain
        length is invalid (the simulation path raises the matching
        :class:`ExperimentError`), or when the self-reported confidence
        misses the policy's error budget.
        """
        from repro.errors import PredictionError

        lengths = tuple(sorted(set(int(length) for length in chain_lengths)))
        key = (benchmark, problem_class, nprocs, lengths)
        if key in self._analytic_results:
            return self._analytic_results[key]
        from repro.analytic.model import AnalyticPredictor

        try:
            predictor = AnalyticPredictor.for_config(
                self.settings.machine, benchmark, problem_class, nprocs
            )
            report = predictor.report(lengths)
        except PredictionError:
            return None
        if not self.tier_policy.accepts(report.expected_rel_error):
            return None
        result = ConfigResult(
            benchmark=report.benchmark,
            problem_class=report.problem_class,
            nprocs=report.nprocs,
            flow=report.flow,
            actual=report.actual,
            inputs=report.inputs,
            tier=TIER_ANALYTIC,
        )
        self._analytic_results[key] = result
        obs.get_registry().counter(
            "pipeline_tier_results", tier=TIER_ANALYTIC
        ).inc()
        return result

    def config_result(
        self,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        chain_lengths: Sequence[int] = (),
    ) -> ConfigResult:
        """Measured + predicted numbers for one configuration.

        ``chain_lengths`` lists the coupling chain lengths the caller will
        query; their windows are measured (once) here.
        """
        if self.tier_policy.use_analytic:
            analytic = self._analytic_result(
                benchmark, problem_class, nprocs, chain_lengths
            )
            if analytic is not None:
                return analytic
        key = (benchmark, problem_class, nprocs)
        runner = self._runner_for(key)
        result = self._results.get(key)
        with obs.span(
            "pipeline.cell", benchmark=benchmark, cls=problem_class,
            nprocs=nprocs,
        ):
            inputs = measure_inputs(
                runner,
                chain_lengths,
                lambda kernels: measure_chain(runner, kernels, self.memo),
                result.inputs if result is not None else None,
            )
            if result is None:
                result = ConfigResult(
                    benchmark=benchmark,
                    problem_class=problem_class,
                    nprocs=nprocs,
                    flow=inputs.flow,
                    actual=run_application(
                        ApplicationRunner(
                            runner.benchmark,
                            self.settings.machine,
                            seed=self.settings.application_seed,
                        ),
                        self.memo,
                    ),
                    inputs=inputs,
                )
                self._results[key] = result
                obs.get_registry().counter("pipeline_configs_measured").inc()
            elif inputs is not result.inputs:
                result.inputs = inputs
                result._coupling_cache.clear()
        return result

    def _adopt(self, cell: CellResult) -> ConfigResult:
        """Fold a worker's :class:`CellResult` into the pipeline's caches."""
        inputs = PredictionInputs.from_dict(cell.inputs)
        result = ConfigResult(
            benchmark=cell.benchmark,
            problem_class=cell.problem_class,
            nprocs=cell.nprocs,
            flow=inputs.flow,
            actual=cell.actual,
            inputs=inputs,
        )
        key = (cell.benchmark, cell.problem_class, cell.nprocs)
        self._results[key] = result
        obs.get_registry().counter("pipeline_configs_measured").inc()
        return result

    def sweep(
        self,
        benchmark: str,
        problem_class: str,
        proc_counts: Sequence[int],
        chain_lengths: Sequence[int] = (),
        jobs: Optional[int] = None,
    ) -> list[ConfigResult]:
        """Config results across processor counts (one table column each).

        With ``jobs > 1`` the not-yet-measured cells run across a process
        pool (each worker re-installs the active fault plan and shares the
        memo store by path); results come back in ``proc_counts`` order
        either way.
        """
        jobs = self.jobs if jobs is None else jobs
        missing = [
            p
            for p in proc_counts
            if (benchmark, problem_class, p) not in self._results
        ]
        if self.tier_policy.use_analytic:
            # Cells the analytic tier answers never reach the worker pool;
            # only escalated ones are worth a process fan-out.
            missing = [
                p
                for p in missing
                if self._analytic_result(
                    benchmark, problem_class, p, chain_lengths
                )
                is None
            ]
        if jobs > 1 and len(missing) > 1:
            injector = faults.get_injector()
            cache_dir = (
                str(self.memo.root) if self.memo is not None else None
            )
            specs = [
                CellSpec(
                    benchmark=benchmark,
                    problem_class=problem_class,
                    nprocs=p,
                    chain_lengths=tuple(chain_lengths),
                    machine=self.settings.machine,
                    measurement=self.settings.measurement,
                    application_seed=self.settings.application_seed,
                    cache_dir=cache_dir,
                    fault_plan=injector.plan if injector else None,
                    profile_interval=obs.profile.worker_interval(),
                )
                for p in missing
            ]
            for cell in execute_cells(specs, jobs=jobs):
                self._adopt(cell)
        return [
            self.config_result(benchmark, problem_class, p, chain_lengths)
            for p in proc_counts
        ]
