"""Cross-machine relative-performance experiment (paper §1 motivation).

"models can be used to predict the relative performance of different
systems used to execute an application." This extension runs the complete
methodology on two machines — the paper's IBM SP and a 2002-class
commodity cluster — and checks:

* each machine's coupling predictor ranks the two systems correctly
  (predicts which machine runs the application faster, and by roughly the
  right factor) without ever running the full application on either;
* coupling values themselves *differ between machines* with the same code
  and input — they are properties of the (application, memory subsystem)
  pair, exactly the paper's §6 observation that the transitions "depend on
  the memory subsystem of the processor architecture".
"""

from __future__ import annotations

from repro.core.predictor import CouplingPredictor
from repro.experiments.pipeline import ExperimentPipeline
from repro.experiments.registry import Experiment, ExperimentResult, register
from repro.instrument.runner import ApplicationRunner, ChainRunner
from repro.npb import make_benchmark
from repro.parallel.worker import measure_inputs
from repro.simmachine.machine import commodity_cluster_2002
from repro.util.tables import Table

__all__ = []

_CHAIN_LENGTH = 3
_CONFIGS = (("BT", "W", 4), ("LU", "W", 4))


def _measure_on(machine, settings, bench_name, cls, procs):
    bench = make_benchmark(bench_name, cls, procs)
    runner = ChainRunner(bench, machine, settings.measurement)
    inputs = measure_inputs(runner, (_CHAIN_LENGTH,), runner.measure)
    actual = ApplicationRunner(
        bench, machine, seed=settings.application_seed
    ).run().total_time
    return inputs, actual


def _cross_machine(p: ExperimentPipeline) -> ExperimentResult:
    sp_machine = p.settings.machine
    cluster = commodity_cluster_2002()
    predictor = CouplingPredictor(_CHAIN_LENGTH)
    table = Table(
        title="Extension: cross-machine relative performance "
        f"(coupling chains of {_CHAIN_LENGTH})",
        columns=[
            "Workload",
            "Machine",
            "Actual",
            "Predicted",
            "Error %",
            "Mean coupling",
        ],
        precision=2,
    )
    observations = []
    for bench_name, cls, procs in _CONFIGS:
        rows = {}
        for machine in (sp_machine, cluster):
            inputs, actual = _measure_on(
                machine, p.settings, bench_name, cls, procs
            )
            predicted = predictor.predict(inputs)
            couplings = predictor.coupling_set(inputs).values()
            mean_c = sum(couplings.values()) / len(couplings)
            err = 100 * abs(predicted - actual) / actual
            table.add_row(
                f"{bench_name} {cls} {procs}p",
                machine.name,
                actual,
                predicted,
                err,
                mean_c,
            )
            rows[machine.name] = (actual, predicted, mean_c)
        (a_act, a_pred, a_c) = rows[sp_machine.name]
        (b_act, b_pred, b_c) = rows[cluster.name]
        ranking_ok = (a_pred < b_pred) == (a_act < b_act)
        ratio_act = b_act / a_act
        ratio_pred = b_pred / a_pred
        observations.append(
            f"{bench_name} {cls}: predicted speed ratio "
            f"{ratio_pred:.2f}x vs actual {ratio_act:.2f}x "
            f"(ranking {'correct' if ranking_ok else 'WRONG'}); "
            f"mean coupling {a_c:.3f} on the SP vs {b_c:.3f} on the cluster"
        )
    return ExperimentResult(
        experiment_id="ext_cross_machine",
        table=table,
        observations=observations,
    )


register(
    Experiment(
        "ext_cross_machine",
        "Cross-machine prediction (extension)",
        "Relative performance of two systems predicted from kernel "
        "measurements and couplings alone",
        _cross_machine,
    )
)
