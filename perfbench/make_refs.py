"""Regenerate ``refs.json``, the benchmark's pinned reference outputs.

    python3 perfbench/make_refs.py

Runs every output the workloads check through the program once, from
scratch, and writes the exact floats: the simulated Actual, the summation
prediction and the coupling prediction per cell and chain length. The
serve references cover both tiers for every key of the request space --
the analytic answer per (cell, length) and the simulated answer per
(cell, length, request seed) -- so a response is checked against the tier
it reports. Takes a few minutes; the workloads never call it.
"""

from __future__ import annotations

import json
import shutil
import tempfile

from workloads import (
    CAMPAIGN_GRID,
    CAMPAIGN_LENGTHS,
    REFS_PATH,
    SERVE_CELLS,
    SERVE_LENGTHS,
    SERVE_SEEDS,
    SIM_CELLS,
    WORK_ROOT,
    campaign_pipeline,
    cell_name,
)

from repro.analytic.model import AnalyticPredictor
from repro.service.engine import PredictionService, PredictRequest
from repro.simmachine.machine import ibm_sp_argonne


def _entry(actual, summation, coupling) -> dict:
    return {
        "actual": actual,
        "summation": summation,
        "coupling": {str(length): value for length, value in coupling.items()},
    }


def _pipeline_refs(cells, lengths_of) -> dict:
    out = {}
    for cell in cells:
        memo = tempfile.mkdtemp(prefix="refs-", dir=WORK_ROOT)
        try:
            lengths = lengths_of(cell)
            result = campaign_pipeline(memo).config_result(*cell, lengths)
            out[cell_name(cell)] = _entry(
                result.actual,
                result.summation,
                {n: result.coupling_prediction(n) for n in lengths},
            )
        finally:
            shutil.rmtree(memo, ignore_errors=True)
        print("refs:", cell_name(cell), flush=True)
    return out


def _serve_refs() -> dict:
    machine = ibm_sp_argonne()
    analytic = {}
    for cell in SERVE_CELLS:
        report = AnalyticPredictor.for_config(machine, *cell).report(
            SERVE_LENGTHS
        )
        predictions = report.prediction_report(SERVE_LENGTHS).predictions
        analytic[cell_name(cell)] = _entry(
            report.actual,
            predictions["Summation"],
            {n: predictions[f"Coupling: {n} kernels"] for n in SERVE_LENGTHS},
        )
    memo = {}
    for seed in SERVE_SEEDS:
        # One exact-tier service per seed: its measurement tier reuses
        # samples across chain lengths of a cell, which is exact within
        # one measurement seed.
        with PredictionService(tier_policy="exact") as service:
            for cell in SERVE_CELLS:
                coupling = {}
                for length in SERVE_LENGTHS:
                    report = service.predict(
                        PredictRequest(*cell, chain_length=length, seed=seed)
                    )
                    coupling[length] = report.predictions[
                        f"Coupling: {length} kernels"
                    ]
                memo[f"{cell_name(cell)}/{seed}"] = _entry(
                    report.actual, report.predictions["Summation"], coupling
                )
                print("refs: serve", cell_name(cell), "seed", seed, flush=True)
    return {"analytic": analytic, "memo": memo}


def main() -> None:
    WORK_ROOT.mkdir(exist_ok=True)
    sim_lengths = {cell: lengths for cells in SIM_CELLS.values()
                   for cell, lengths in cells}
    refs = {
        "sim": _pipeline_refs(list(sim_lengths), sim_lengths.__getitem__),
        "campaign": _pipeline_refs(CAMPAIGN_GRID, lambda cell: CAMPAIGN_LENGTHS),
        "serve": _serve_refs(),
    }
    REFS_PATH.write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print("wrote", REFS_PATH)


if __name__ == "__main__":
    main()
