"""A persistent measurement campaign with prediction error bars.

Combines three production features:

* :class:`~repro.instrument.sweeps.Campaign` — sweep (class, procs) cells,
  memoizing every measurement in a sqlite-backed
  :class:`~repro.parallel.memo.SimulationMemoStore` so re-runs are free
  (the Prophesy workflow the paper's group built);
* :func:`~repro.core.uncertainty.prediction_interval` — propagate the
  measurement noise through the coupling pipeline into an error bar, so
  the class-S "measuring errors get magnified" effect is quantified
  rather than guessed;
* predictor comparison per cell.

Run:  python examples/measurement_campaign.py
"""

import os
import tempfile

from repro.core import (
    CouplingPredictor,
    MeasuredQuantity,
    SummationPredictor,
    prediction_interval,
)
from repro.instrument import (
    Campaign,
    CampaignPlan,
    ChainRunner,
    MeasurementConfig,
)
from repro.npb import make_benchmark
from repro.parallel import SimulationMemoStore
from repro.simmachine import ibm_sp_argonne

CHAIN = 2


def main() -> None:
    db_path = os.path.join(tempfile.gettempdir(), "repro_campaign.sqlite")
    plan = CampaignPlan(
        benchmark="BT",
        problem_classes=("S", "W"),
        proc_counts=(4, 16),
        chain_lengths=(CHAIN,),
    )
    machine = ibm_sp_argonne()
    measurement = MeasurementConfig(repetitions=8, warmup=2)
    campaign = Campaign(
        plan=plan,
        machine=machine,
        measurement=measurement,
        memo=SimulationMemoStore(db_path),
    )
    results = campaign.run()
    print(
        f"campaign: {campaign.measurements_run} measurements run, "
        f"{campaign.measurements_reused} reused from {db_path}\n"
    )

    print(f"{'cell':>8} {'summation':>11} {'coupling':>10} {'95% interval':>24}")
    for (cls, procs), inputs in results.items():
        # Re-derive per-measurement noise for the interval (mean + sem).
        bench = make_benchmark("BT", cls, procs)
        runner = ChainRunner(bench, machine, measurement)
        loop_q = {
            k: MeasuredQuantity.from_measurement(runner.measure((k,)))
            for k in inputs.flow.names
        }
        chain_q = {
            w: MeasuredQuantity.from_measurement(runner.measure(w))
            for w in inputs.flow.windows(CHAIN)
        }
        interval = prediction_interval(
            inputs.flow,
            inputs.iterations,
            loop_q,
            chain_q,
            CHAIN,
            draws=300,
        )
        summation = SummationPredictor().predict(inputs)
        coupled = CouplingPredictor(CHAIN).predict(inputs)
        print(
            f"{cls}/{procs:>2}p {summation:>11.3f} {coupled:>10.3f} "
            f"[{interval.lo95:.3f}, {interval.hi95:.3f}] "
            f"(+-{100 * interval.relative_halfwidth:.2f} %)"
        )
    print(
        "\nRe-run this script: every measurement comes back from the "
        "database instantly."
    )


if __name__ == "__main__":
    main()
