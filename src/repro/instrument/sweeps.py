"""Measurement campaigns: multi-configuration sweeps with persistence.

A :class:`Campaign` runs the full measurement protocol (isolated kernels,
chain windows, pre/post kernels) over a grid of (class, nprocs)
configurations, memoizing every measurement in a
:class:`~repro.parallel.memo.SimulationMemoStore` (a sqlite file for
``repro sweep --db``, or a memo directory shared with pipelines). Stored
samples are keyed by the full machine and measurement protocol, so
re-running a campaign against the same store is incremental: only missing
measurements execute — the practical workflow the paper's Prophesy system
[TG01] was built around — and a changed protocol measures afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro import obs
from repro.core.predictor import PredictionInputs
from repro.errors import MeasurementError
from repro.instrument.runner import ChainRunner, MeasurementConfig
from repro.npb import make_benchmark
from repro.parallel.memo import SimulationMemoStore
from repro.parallel.worker import (
    measure_inputs,
    prime_runner_overhead,
    recall_chain,
)
from repro.simmachine.machine import MachineConfig

__all__ = ["CampaignPlan", "Campaign"]


@dataclass(frozen=True)
class CampaignPlan:
    """What a campaign should measure."""

    benchmark: str
    problem_classes: tuple[str, ...]
    proc_counts: tuple[int, ...]
    chain_lengths: tuple[int, ...] = (2,)

    def __post_init__(self) -> None:
        if not self.problem_classes or not self.proc_counts:
            raise MeasurementError("campaign plan needs classes and proc counts")
        if any(length < 2 for length in self.chain_lengths):
            raise MeasurementError("chain lengths must be >= 2")

    def configurations(self) -> list[tuple[str, int]]:
        """All (class, nprocs) cells of the sweep grid."""
        return [
            (cls, procs)
            for cls in self.problem_classes
            for procs in self.proc_counts
        ]

    @classmethod
    def for_cell(
        cls,
        benchmark: str,
        problem_class: str,
        nprocs: int,
        chain_lengths: Sequence[int] = (2,),
    ) -> "CampaignPlan":
        """A single-cell plan — the unit the serving layer batches on.

        :mod:`repro.service.batching` groups coalesced requests by
        (benchmark, class, nprocs) and turns each group into one of these,
        so a batch shares the runner warm-up and memoizes through the same
        store a sweep would.
        """
        return cls(
            benchmark=benchmark,
            problem_classes=(problem_class,),
            proc_counts=(nprocs,),
            chain_lengths=tuple(sorted(set(chain_lengths))),
        )


@dataclass
class Campaign:
    """Executes a plan, memoizing every measurement in a store."""

    plan: CampaignPlan
    machine: MachineConfig
    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    #: The content-addressed store (see :mod:`repro.parallel.memo`) every
    #: measurement is looked up in before it is simulated and stored to
    #: after; an in-memory sqlite store when none is given.
    memo: Optional[SimulationMemoStore] = None

    def __post_init__(self) -> None:
        if self.memo is None:
            self.memo = SimulationMemoStore(":memory:")
        self.measurements_run = 0
        self.measurements_reused = 0

    def _measure(self, runner: ChainRunner, kernels: Sequence[str]):
        measured, reused = recall_chain(runner, kernels, self.memo)
        if reused:
            self.measurements_reused += 1
            obs.get_registry().counter("campaign_measurements_reused").inc()
        else:
            self.measurements_run += 1
            obs.get_registry().counter("campaign_measurements_run").inc()
        return measured

    def run_configuration(self, problem_class: str, nprocs: int) -> PredictionInputs:
        """Measure (or load) one cell; returns ready prediction inputs."""
        with obs.span(
            "campaign.run",
            benchmark=self.plan.benchmark,
            cls=problem_class,
            nprocs=nprocs,
        ):
            bench = make_benchmark(self.plan.benchmark, problem_class, nprocs)
            runner = ChainRunner(bench, self.machine, self.measurement)
            prime_runner_overhead(runner, self.memo)
            inputs = measure_inputs(
                runner,
                self.plan.chain_lengths,
                lambda kernels: self._measure(runner, kernels),
            )
        obs.get_registry().counter("campaign_runs_completed").inc()
        return inputs

    def run(self) -> dict[tuple[str, int], PredictionInputs]:
        """Measure every cell of the plan; returns inputs per cell."""
        return {
            (cls, procs): self.run_configuration(cls, procs)
            for cls, procs in self.plan.configurations()
        }
