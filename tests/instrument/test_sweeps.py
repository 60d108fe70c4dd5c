"""Measurement campaigns memoized through the simulation store."""

import pytest

from repro.errors import MeasurementError
from repro.instrument import Campaign, CampaignPlan, MeasurementConfig
from repro.parallel import SimulationMemoStore
from repro.simmachine import ibm_sp_argonne


@pytest.fixture
def plan():
    return CampaignPlan(
        benchmark="BT",
        problem_classes=("S",),
        proc_counts=(1, 4),
        chain_lengths=(2,),
    )


@pytest.fixture
def campaign(plan):
    return Campaign(
        plan=plan,
        machine=ibm_sp_argonne(),
        measurement=MeasurementConfig(repetitions=2, warmup=1),
    )


class TestPlan:
    def test_configurations_grid(self, plan):
        assert plan.configurations() == [("S", 1), ("S", 4)]

    def test_validation(self):
        with pytest.raises(MeasurementError):
            CampaignPlan("BT", (), (4,))
        with pytest.raises(MeasurementError):
            CampaignPlan("BT", ("S",), (4,), chain_lengths=(1,))


class TestExecution:
    def test_run_covers_all_cells(self, campaign):
        results = campaign.run()
        assert set(results) == {("S", 1), ("S", 4)}
        for inputs in results.values():
            assert len(inputs.loop_times) == 5
            assert len(inputs.chain_times) == 5  # pairs
            assert inputs.pre_times and inputs.post_times

    def test_measurements_counted(self, campaign):
        campaign.run()
        # 5 isolated + 2 one-shots + 5 pairs per cell, 2 cells.
        assert campaign.measurements_run == 24
        assert campaign.measurements_reused == 0

    def test_rerun_is_fully_memoized(self, campaign):
        campaign.run()
        ran_first = campaign.measurements_run
        campaign.run()
        assert campaign.measurements_run == ran_first
        assert campaign.measurements_reused == ran_first

    def test_resume_from_persistent_database(self, plan, tmp_path):
        path = str(tmp_path / "campaign.sqlite")
        measurement = MeasurementConfig(repetitions=2, warmup=1)
        first = Campaign(
            plan=plan,
            machine=ibm_sp_argonne(),
            measurement=measurement,
            memo=SimulationMemoStore(path),
        )
        first.run()
        first.memo.close()
        resumed = Campaign(
            plan=plan,
            machine=ibm_sp_argonne(),
            measurement=measurement,
            memo=SimulationMemoStore(path),
        )
        resumed.run()
        assert resumed.measurements_run == 0
        assert resumed.measurements_reused == 24
        resumed.memo.close()

    def test_inputs_feed_predictors(self, campaign):
        from repro.core import CouplingPredictor, SummationPredictor

        inputs = campaign.run_configuration("S", 4)
        assert SummationPredictor().predict(inputs) > 0
        assert CouplingPredictor(2).predict(inputs) > 0


class TestResumability:
    def test_warm_rerun_measures_nothing(self, plan, monkeypatch):
        """A second run() on a warm database must not touch the simulator.

        The measurements_run counter already claims this; the spy on
        ChainRunner.measure proves it at the source.
        """
        from repro.instrument.runner import ChainRunner

        calls = []
        real_measure = ChainRunner.measure

        def spy(self, kernels):
            calls.append(tuple(kernels))
            return real_measure(self, kernels)

        monkeypatch.setattr(ChainRunner, "measure", spy)
        campaign = Campaign(
            plan=plan,
            machine=ibm_sp_argonne(),
            measurement=MeasurementConfig(repetitions=2, warmup=1),
        )
        campaign.run()
        cold_calls = len(calls)
        assert cold_calls == 24
        campaign.run()
        assert len(calls) == cold_calls  # zero new measurements


class TestForCell:
    def test_single_cell_plan(self):
        plan = CampaignPlan.for_cell("BT", "S", 4, chain_lengths=(3, 2, 3))
        assert plan.configurations() == [("S", 4)]
        assert plan.chain_lengths == (2, 3)  # sorted, deduplicated

    def test_cell_runs_like_a_one_cell_campaign(self):
        campaign = Campaign(
            plan=CampaignPlan.for_cell("BT", "S", 4),
            machine=ibm_sp_argonne(),
            measurement=MeasurementConfig(repetitions=2, warmup=1),
        )
        results = campaign.run()
        assert set(results) == {("S", 4)}
        assert campaign.measurements_run == 12
