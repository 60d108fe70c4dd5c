"""One measurement protocol: every caller measures a cell the same way."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.predictor import PredictionInputs
from repro.errors import ExperimentError
from repro.experiments import ExperimentPipeline, ExperimentSettings
from repro.experiments.cross_machine import _measure_on
from repro.instrument import Campaign, CampaignPlan, MeasurementConfig
from repro.instrument.runner import ChainRunner
from repro.parallel.worker import CellSpec, run_cell
from repro.service.workers import CellTask, execute_cell
from repro.simmachine import ibm_sp_argonne

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)
SETTINGS = ExperimentSettings(measurement=MEASUREMENT)
CELL = ("BT", "S", 4)
LENGTHS = (2, 3)


@pytest.fixture
def measure_calls(monkeypatch):
    """Counts ``ChainRunner.measure`` calls (one per simulated chain)."""
    calls = []
    measure = ChainRunner.measure

    def counted(self, kernels):
        calls.append(tuple(kernels))
        return measure(self, kernels)

    monkeypatch.setattr(ChainRunner, "measure", counted)
    return calls


def _campaign(chain_lengths=LENGTHS) -> Campaign:
    return Campaign(
        plan=CampaignPlan.for_cell(*CELL, chain_lengths=chain_lengths),
        machine=ibm_sp_argonne(),
        measurement=MEASUREMENT,
    )


def test_every_caller_measures_the_same_cell():
    pipeline = ExperimentPipeline(SETTINGS).config_result(*CELL, LENGTHS)
    cell = run_cell(
        CellSpec(*CELL, LENGTHS, ibm_sp_argonne(), MEASUREMENT)
    )
    campaign = _campaign().run_configuration("S", 4)
    outcome = execute_cell(
        CellTask(
            plan=CampaignPlan.for_cell(*CELL, chain_lengths=LENGTHS),
            machine=ibm_sp_argonne(),
            measurement=MEASUREMENT,
        )
    )
    # The cross-machine experiment measures chains of three only.
    inputs, actual = _measure_on(ibm_sp_argonne(), SETTINGS, *CELL)
    expected = pipeline.inputs
    assert len(expected.chain_times) == 10  # 5 pairs + 5 triples
    assert expected.pre_times and expected.post_times
    assert PredictionInputs.from_dict(cell.inputs) == expected
    assert campaign == expected
    assert outcome.inputs == expected
    assert inputs == replace(
        expected,
        chain_times={
            w: t for w, t in expected.chain_times.items() if len(w) == 3
        },
    )
    assert cell.actual == outcome.actual == actual == pipeline.actual


def test_pipeline_adds_only_the_missing_windows(measure_calls):
    pipeline = ExperimentPipeline(SETTINGS)
    first = pipeline.config_result(*CELL, (2,))
    inputs = first.inputs
    measured = len(measure_calls)
    assert pipeline.config_result(*CELL, (2,)).inputs is inputs
    assert len(measure_calls) == measured
    grown = pipeline.config_result(*CELL, LENGTHS)
    assert grown is first and grown.inputs is not inputs
    assert len(measure_calls) == measured + 5  # the five triples
    assert grown.inputs == ExperimentPipeline(SETTINGS).config_result(
        *CELL, LENGTHS
    ).inputs


@pytest.mark.parametrize(
    "run",
    [
        lambda: _campaign(chain_lengths=(6,)).run_configuration("S", 4),
        lambda: ExperimentPipeline(SETTINGS).config_result(*CELL, (2, 6)),
        lambda: run_cell(
            CellSpec(*CELL, (2, 6), ibm_sp_argonne(), MEASUREMENT)
        ),
    ],
    ids=["campaign", "pipeline", "run_cell"],
)
def test_too_long_chain_fails_before_any_measurement(measure_calls, run):
    with pytest.raises(
        ExperimentError, match=r"chain length 6 invalid for BT \(flow of 5\)"
    ):
        run()
    assert measure_calls == []
