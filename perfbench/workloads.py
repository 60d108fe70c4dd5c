"""The benchmark's workloads: seeded inputs, set-up, timed rounds, checks.

Each workload is a closed loop with one caller. A *round* is the unit the
runner times and repeats: the cell list of a ``sim-*`` workload, one
campaign pass, or one pass of the request stream. Every operation in a
round is compared with the pinned references in ``refs.json``; a mismatch
or an error counts the operation as failed.

The workload seed orders the cells and draws the request stream. It never
reaches the program: the measurement seeds stay fixed, so the simulated
numbers, and the references, are the same for every workload seed.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import ExperimentPipeline, ExperimentSettings  # noqa: E402
from repro.instrument import MeasurementConfig  # noqa: E402
from repro.service import api  # noqa: E402
from repro.service.engine import PredictionService  # noqa: E402

__all__ = [
    "CAMPAIGN_GRID",
    "CAMPAIGN_MEASUREMENT",
    "REFS_PATH",
    "SERVE_CELLS",
    "SIM_CELLS",
    "WORK_ROOT",
    "Workload",
    "campaign_pipeline",
    "load_refs",
    "make_workload",
    "serve_stream",
]

REFS_PATH = Path(__file__).resolve().parent / "refs.json"
#: Scratch space for memo directories, inside the checkout.
WORK_ROOT = Path(__file__).resolve().parent.parent / ".perfbench-work"

#: The measurement protocol of ``repro campaign`` (its CLI defaults).
CAMPAIGN_MEASUREMENT = MeasurementConfig(repetitions=6, warmup=2, seed=0)

Cell = tuple[str, str, int]

#: ``sim-*`` cells and the chain lengths each one measures.
SIM_CELLS: dict[str, tuple[tuple[Cell, tuple[int, ...]], ...]] = {
    "sim-bt-sp": ((("BT", "A", 16), (2,)), (("SP", "A", 16), (2,))),
    "sim-lu": ((("LU", "A", 8), (3,)),),
}

_PROCS = {"BT": (4, 9, 16), "SP": (4, 9, 16), "LU": (4, 8, 16)}

CAMPAIGN_GRID: tuple[Cell, ...] = tuple(
    (bench, cls, n)
    for bench in ("BT", "SP", "LU")
    for cls in ("S", "W")
    for n in _PROCS[bench]
)
CAMPAIGN_LENGTHS = (2, 3, 4)

SERVE_CELLS: tuple[Cell, ...] = tuple(
    (bench, cls, n)
    for bench in ("BT", "SP", "LU")
    for cls in ("S", "W", "A")
    for n in _PROCS[bench]
)
SERVE_LENGTHS = (2, 3, 4)
#: Request ``seed`` fields: each one is a distinct cache key and a
#: distinct measurement-noise stream on the simulation rungs. Every key is
#: an L1 miss once per pass, so the seed count sets the tier mix: 7 seeds
#: give 567 keys, i.e. 525 analytic answers and 42 escalations (SP.S.16
#: and LU.S.16) among 6,000 requests, a 90.6% L1 hit rate -- the mix of
#: the prototype stream this workload was specified from (about 90% L1
#: hits, 540 analytic answers and 45 escalations).
SERVE_SEEDS = tuple(range(7))
SERVE_REQUESTS = 6000
#: The plain Zipf law. With every key asked once per pass, the exponent
#: only decides which keys the L1 hits fall on, not the tier mix.
SERVE_ZIPF = 1.0


def cell_name(cell: Cell) -> str:
    return ".".join(str(part) for part in cell)


def load_refs(path: Path = REFS_PATH) -> dict[str, Any]:
    return json.loads(path.read_text(encoding="utf-8"))


def round_rng(seed: int, index: int) -> random.Random:
    """The RNG of round ``index``: independent of how many rounds ran."""
    return random.Random(seed * 1_000_003 + index)


def err_pct(prediction: float, actual: float) -> float:
    return abs(prediction - actual) / actual * 100.0


def compare(
    what: str,
    actual: float,
    summation: float,
    coupling: Mapping[int, float],
    ref: Optional[Mapping[str, Any]],
) -> list[str]:
    """Every field of one output that differs from its reference."""
    if ref is None:
        return [f"{what}: no reference"]
    problems = []
    if actual != ref["actual"]:
        problems.append(f"{what}: actual {actual!r} != {ref['actual']!r}")
    if summation != ref["summation"]:
        problems.append(
            f"{what}: summation {summation!r} != {ref['summation']!r}"
        )
    for length, value in coupling.items():
        expected = ref["coupling"][str(length)]
        if value != expected:
            problems.append(
                f"{what}: coupling L={length} {value!r} != {expected!r}"
            )
    return problems


class Workload:
    """Set-up, timed rounds and checks for one workload.

    ``round(index)`` returns ``(operations, latency samples in seconds)``.
    ``failed`` counts operations that raised or differed from the
    reference; ``accuracy`` holds the first round's ``(coupling_err_pct,
    summation_err_pct)`` lists, taken from the program's outputs.
    """

    name = ""
    #: Set-ups per run (the runner reports their median).
    setup_repeats = 1
    #: The tail percentile reported as ``latency_ms.tail``.
    tail_pct = 90

    def __init__(self, seed: int, workdir: Path, refs: Mapping[str, Any]):
        self.seed = seed
        self.workdir = workdir
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracy: Optional[tuple[list[float], list[float]]] = None
        #: Service counters summed over every service a round created.
        self.service_totals: Counter[str] = Counter()
        #: The clock rounds and latencies are read from; the runner
        #: replaces it with a speed-normalised one (``speed.py``).
        self.clock: Callable[[], float] = time.perf_counter

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> tuple[int, list[float]]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what set-up left on disk."""

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:2])

    def _record_error(self, what: str, exc: Exception) -> None:
        self._record([f"{what}: {type(exc).__name__}: {exc}"])

    def _check_cell(
        self,
        table: str,
        what: str,
        actual: float,
        summation: float,
        coupling: Mapping[int, float],
        errors: tuple[list[float], list[float]],
    ) -> None:
        """Record one cell's output against ``refs[table]``; keep its errors."""
        ref = self.refs[table].get(what)
        self._record(compare(what, actual, summation, coupling, ref))
        errors[0].extend(err_pct(v, actual) for v in coupling.values())
        errors[1].append(err_pct(summation, actual))

    def _fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))


def campaign_pipeline(memo: Path) -> ExperimentPipeline:
    return ExperimentPipeline(
        ExperimentSettings(measurement=CAMPAIGN_MEASUREMENT), memo=memo
    )


class SimCells(Workload):
    """Cold cells: a fresh pipeline over an empty memo directory per cell."""

    setup_repeats = 5
    #: A run has only 8 to 25 rounds, too few for a steady p90.
    tail_pct = 75

    def __init__(
        self,
        name: str,
        seed: int,
        workdir: Path,
        refs: Mapping[str, Any],
        cells: Optional[Sequence[tuple[Cell, tuple[int, ...]]]] = None,
    ):
        super().__init__(seed, workdir, refs)
        self.name = name
        self.cells = tuple(cells if cells is not None else SIM_CELLS[name])

    def _cold_cell(
        self, cell: Cell, lengths: tuple[int, ...]
    ) -> tuple[float, float, dict[int, float]]:
        memo = self._fresh_dir("cell-")
        try:
            result = campaign_pipeline(memo).config_result(*cell, lengths)
            return (
                result.actual,
                result.summation,
                {length: result.coupling_prediction(length) for length in lengths},
            )
        finally:
            shutil.rmtree(memo, ignore_errors=True)

    def setup(self) -> None:
        # Warm every code path the cells take, on the class-S version of
        # each benchmark (output unchecked: it is not an operation).
        for (bench, _cls, _n), lengths in self.cells:
            self._cold_cell((bench, "S", 4), lengths)

    def round(self, index: int) -> tuple[int, list[float]]:
        cells = list(self.cells)
        round_rng(self.seed, index).shuffle(cells)
        errors: tuple[list[float], list[float]] = ([], [])
        start = self.clock()
        for cell, lengths in cells:
            what = cell_name(cell)
            try:
                output = self._cold_cell(cell, lengths)
            except Exception as exc:  # noqa: BLE001 -- a failed operation
                self._record_error(what, exc)
                continue
            self._check_cell("sim", what, *output, errors)
        elapsed = self.clock() - start
        if self.accuracy is None:
            self.accuracy = errors
        # One latency sample per round -- the mean cell time -- so a round
        # mixing cells of different cost gives a unimodal distribution.
        return len(cells), [elapsed / len(cells)]


class CampaignWarm(Workload):
    """Replays the campaign grid from a memo that set-up filled."""

    name = "campaign-warm"

    def __init__(
        self,
        seed: int,
        workdir: Path,
        refs: Mapping[str, Any],
        grid: Sequence[Cell] = CAMPAIGN_GRID,
    ):
        super().__init__(seed, workdir, refs)
        self.grid = tuple(grid)
        self.memo: Optional[Path] = None

    def setup(self) -> None:
        self.close()
        self.memo = self._fresh_dir("campaign-")
        pipeline = campaign_pipeline(self.memo)
        grid = list(self.grid)
        round_rng(self.seed, -1).shuffle(grid)
        for cell in grid:
            pipeline.config_result(*cell, CAMPAIGN_LENGTHS)

    def round(self, index: int) -> tuple[int, list[float]]:
        assert self.memo is not None, "setup() first"
        grid = list(self.grid)
        round_rng(self.seed, index).shuffle(grid)
        errors: tuple[list[float], list[float]] = ([], [])
        start = self.clock()
        pipeline = campaign_pipeline(self.memo)
        for cell in grid:
            what = cell_name(cell)
            try:
                result = pipeline.config_result(*cell, CAMPAIGN_LENGTHS)
                summation = result.summation
                coupling = {
                    length: result.coupling_prediction(length)
                    for length in CAMPAIGN_LENGTHS
                }
            except Exception as exc:  # noqa: BLE001 -- a failed operation
                self._record_error(what, exc)
                continue
            self._check_cell(
                "campaign", what, result.actual, summation, coupling, errors
            )
        elapsed = self.clock() - start
        if self.accuracy is None:
            self.accuracy = errors
        return len(grid), [elapsed]

    def close(self) -> None:
        if self.memo is not None:
            shutil.rmtree(self.memo, ignore_errors=True)
            self.memo = None


def serve_stream(
    seed: int,
    cells: Sequence[Cell] = SERVE_CELLS,
    requests: int = SERVE_REQUESTS,
) -> list[dict[str, Any]]:
    """The seeded request stream: every key once, the rest Zipf-skewed.

    A key is (cell, chain length, request seed). The workload seed ranks
    the keys; rank ``r`` gets its Zipf share ``1 / (r + 1) ** SERVE_ZIPF``
    of the repeats (largest remainders break ties), and the seed then
    shuffles the whole stream. Each pass therefore asks every key, so the
    distinct work per pass does not depend on the seed.
    """
    rng = random.Random(seed)
    keys = [
        (cell, length, req_seed)
        for cell in cells
        for length in SERVE_LENGTHS
        for req_seed in SERVE_SEEDS
    ]
    rng.shuffle(keys)
    extra = requests - len(keys)
    if extra < 0:
        raise ValueError(f"{requests} requests cannot cover {len(keys)} keys")
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF for rank in range(len(keys))]
    total = sum(weights)
    shares = [extra * w / total for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(keys)), key=lambda i: (counts[i] - shares[i], i)
    )
    for i in by_remainder[: extra - sum(counts)]:
        counts[i] += 1
    stream = [
        {
            "benchmark": bench,
            "problem_class": cls,
            "nprocs": n,
            "chain_length": length,
            "seed": req_seed,
        }
        for ((bench, cls, n), length, req_seed), count in zip(keys, counts)
        for _ in range(count + 1)
    ]
    rng.shuffle(stream)
    return stream


def _service(memo: Path) -> PredictionService:
    return PredictionService(tier_policy="balanced", cache_dir=str(memo))


class ServeMixed(Workload):
    """One client sending the request stream to a fresh service per pass."""

    name = "serve-mixed"
    tail_pct = 99

    def __init__(
        self,
        seed: int,
        workdir: Path,
        refs: Mapping[str, Any],
        cells: Sequence[Cell] = SERVE_CELLS,
        requests: int = SERVE_REQUESTS,
    ):
        super().__init__(seed, workdir, refs)
        self.cells = tuple(cells)
        self.requests = requests
        self.lines: list[str] = []
        self.memo: Optional[Path] = None

    def setup(self) -> None:
        self.close()
        stream = serve_stream(self.seed, self.cells, self.requests)
        self.lines = [json.dumps(request) for request in stream]
        self.memo = self._fresh_dir("serve-")
        # Warm the memo by replaying the stream once, through one service
        # per request seed: the measurement tier behind a service reuses
        # samples across seeds, so a shared one would make each memo entry
        # depend on which seed asked first.
        for req_seed in SERVE_SEEDS:
            with _service(self.memo) as service:
                for request, line in zip(stream, self.lines):
                    if request["seed"] == req_seed:
                        api.handle_line(service, line)

    def round(self, index: int) -> tuple[int, list[float]]:
        assert self.memo is not None, "setup() first"
        latencies = []
        responses = []
        clock = self.clock
        with _service(self.memo) as service:
            for line in self.lines:
                t0 = clock()
                response = api.handle_line(service, line)
                latencies.append(clock() - t0)
                responses.append(response)
            self._add_service_totals(service)
        seen: set[str] = set()
        coupling_err: list[float] = []
        summation_err: list[float] = []
        for line, response in zip(self.lines, responses):
            problems, errors = self._check(line, response)
            self._record(problems)
            if errors is not None and line not in seen:
                seen.add(line)
                coupling_err.append(errors[0])
                summation_err.append(errors[1])
        if self.accuracy is None:
            self.accuracy = (coupling_err, summation_err)
        return len(self.lines), latencies

    def _check(
        self, line: str, response: Optional[str]
    ) -> tuple[list[str], Optional[tuple[float, float]]]:
        """Problems with one response, and its (coupling, summation) errors.

        A response is held to the reference of the tier it reports, so a
        change that moves escalations between tiers is not wrong output.
        """
        if response is None:
            return [f"{line}: no response"], None
        reply = json.loads(response)
        if not reply.get("ok"):
            return [f"{line}: {reply.get('error_type')}: {reply.get('error')}"], None
        request = reply["request"]
        cell = (request["benchmark"], request["problem_class"], request["nprocs"])
        length = request["chain_length"]
        tier = reply["tier"]
        if tier == "analytic":
            ref = self.refs["serve"]["analytic"].get(cell_name(cell))
        else:
            ref = self.refs["serve"]["memo"].get(
                f"{cell_name(cell)}/{request['seed']}"
            )
        actual = reply["actual"]
        summation = reply["predictions"]["Summation"]
        coupling = reply["predictions"][f"Coupling: {length} kernels"]
        problems = compare(
            f"{line} [{tier}]", actual, summation, {length: coupling}, ref
        )
        return problems, (err_pct(coupling, actual), err_pct(summation, actual))

    def _add_service_totals(self, service: PredictionService) -> None:
        metrics = service.metrics
        sizes = metrics.batch_sizes
        self.service_totals.update(
            requests=metrics.requests.value,
            l1_hits=metrics.l1_hits.value,
            l2_hits=metrics.l2_hits.value,
            batches=metrics.batches.value,
            batched_requests=round(sizes.mean * sizes.count),
            simulations=metrics.simulations.value,
            analytic_escalations=metrics.analytic_escalations.value,
        )

    def close(self) -> None:
        if self.memo is not None:
            shutil.rmtree(self.memo, ignore_errors=True)
            self.memo = None


def make_workload(
    name: str, seed: int, workdir: Path, refs: Mapping[str, Any]
) -> Workload:
    if name in SIM_CELLS:
        return SimCells(name, seed, workdir, refs)
    if name == "campaign-warm":
        return CampaignWarm(seed, workdir, refs)
    if name == "serve-mixed":
        return ServeMixed(seed, workdir, refs)
    raise ValueError(f"unknown workload {name!r}")
