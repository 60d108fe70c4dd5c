"""Chain and application runners (see package docstring for the protocol)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Sequence, Union

from repro import obs
from repro.errors import MeasurementError
from repro.npb.base import Benchmark
from repro.simmachine.machine import MachineConfig
from repro.simmachine.process import KernelCounters, Machine
from repro.simmachine.trace import Trace
from repro.simmpi.comm import attach_world
from repro.util.stats import Summary, summary

__all__ = [
    "MeasurementConfig",
    "Measurement",
    "ChainRunner",
    "ApplicationResult",
    "ApplicationRunner",
]


@dataclass(frozen=True)
class MeasurementConfig:
    """Knobs of the measurement protocol.

    Attributes
    ----------
    repetitions:
        Timed loop iterations per measurement (the paper uses 50; the
        simulator's noise is milder, so fewer suffice — raise it for
        high-noise studies).
    warmup:
        Untimed leading iterations (settle adapter state).
    isolated_context / chain_context:
        What happens to machine state between timed iterations for
        single-kernel and multi-kernel measurements respectively:

        * ``"flush"`` — cold caches + drained network before every timed
          iteration. Default for *isolated* kernels: the methodology's
          per-kernel models ``E_k`` are cold-start by construction (an
          analytical model of a kernel knows nothing about what other
          kernels leave in the cache), and the coupling coefficients are
          precisely the correction from cold models to in-context reality.
        * ``"none"`` — self-warming back-to-back loop, the paper's literal
          protocol ("placing a given kernel or pair of kernels into a
          loop"). Default for *chains*: the steady state of the chain loop
          exposes the inter-kernel reuse the coupling value quantifies.
        * ``"replay"`` — the kernels that run between two executions of
          the chain in the application's cyclic flow stream their data
          through the caches first (state only, no simulated time). This
          re-creates the exact in-application start state; with it on both
          isolated and chain measurements all couplings collapse to ~1
          (exercised by the ablation tests).
    seed:
        Base noise seed; each distinct chain gets an independent stream.
    subtract_overhead:
        Subtract the empty-chain (harness) time from each sample.
    """

    repetitions: int = 8
    warmup: int = 1
    isolated_context: str = "flush"
    chain_context: str = "none"
    seed: int = 0
    subtract_overhead: bool = True

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise MeasurementError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.warmup < 0:
            raise MeasurementError(f"warmup must be >= 0, got {self.warmup}")
        for name, value in (
            ("isolated_context", self.isolated_context),
            ("chain_context", self.chain_context),
        ):
            if value not in ("replay", "flush", "none"):
                raise MeasurementError(
                    f"{name} must be replay/flush/none, got {value!r}"
                )

    def context_for(self, kernels: Sequence[str]) -> str:
        """Context mode applying to a measurement of ``kernels``."""
        return self.isolated_context if len(kernels) <= 1 else self.chain_context


@dataclass(frozen=True)
class Measurement:
    """One measured chain: per-iteration makespan of the kernels together."""

    benchmark: str
    problem_class: str
    nprocs: int
    kernels: tuple[str, ...]
    samples: tuple[float, ...]
    overhead: float
    counters: dict[str, KernelCounters] = field(default_factory=dict, compare=False)

    @property
    def mean(self) -> float:
        """Mean per-iteration time of the chain (overhead already removed)."""
        return sum(self.samples) / len(self.samples)

    @property
    def stats(self) -> Summary:
        """Sample statistics of the per-iteration times."""
        return summary(self.samples)


class ChainRunner:
    """Measures kernels and chains of kernels per the paper's protocol."""

    def __init__(
        self,
        benchmark: Benchmark,
        machine_config: MachineConfig,
        config: MeasurementConfig = MeasurementConfig(),
    ) -> None:
        self.benchmark = benchmark
        self.machine_config = machine_config
        self.config = config
        self._overhead: Optional[float] = None

    # -- internals -----------------------------------------------------------

    def _context_kernels(self, kernels: Sequence[str]) -> list[str]:
        """Kernels that run between two executions of this chain in the app.

        For a window of the cyclic loop flow, these are the remaining loop
        kernels starting after the window's last element and wrapping to
        its first. One-shot pre kernels see a cold machine (empty list:
        nothing precedes INITIALIZATION); one-shot post kernels see the
        whole loop's state.
        """
        names = self.benchmark.loop_kernel_names
        window = tuple(kernels)
        if not window:
            return []
        if all(k in self.benchmark.pre_kernel_names for k in window):
            return []
        if not all(k in names for k in window):
            return list(names)  # post kernels: the loop just ran
        n = len(names)
        for start in range(n):
            if tuple(names[(start + j) % n] for j in range(len(window))) == window:
                seq = []
                i = (start + len(window)) % n
                while i != start:
                    seq.append(names[i])
                    i = (i + 1) % n
                return seq
        raise MeasurementError(
            f"{window} is not a contiguous window of the loop flow {names}"
        )

    def _replay_context(self, ctx, context_kernels: Sequence[str]) -> None:
        """Stream the context kernels' data through this rank's caches."""
        bench = self.benchmark
        fields = bench.kernel_fields()
        for kernel in context_kernels:
            for field in fields[kernel]:
                ctx.memory.touch(bench.region(ctx.rank, field))

    def _run_loop(self, kernels: Sequence[str], run_id: str) -> Measurement:
        bench = self.benchmark
        cfg = self.config
        context = cfg.context_for(kernels)
        machine = Machine(
            self.machine_config, bench.nprocs, seed=cfg.seed, run_id=run_id
        )
        attach_world(machine)
        bodies = [bench.kernel(k) for k in kernels]
        total = cfg.warmup + cfg.repetitions
        samples: list[float] = []
        context_kernels = (
            self._context_kernels(kernels) if context == "replay" else []
        )

        def program(ctx) -> Generator[Any, Any, None]:
            comm = ctx.comm
            for rep in range(total):
                if context == "replay":
                    self._replay_context(ctx, context_kernels)
                    if ctx.rank == 0:
                        machine.drain_network()
                elif context == "flush":
                    ctx.memory.flush()
                    if ctx.rank == 0:
                        machine.drain_network()
                yield from comm.barrier()
                t0 = ctx.sim.now
                for body in bodies:
                    yield from body(ctx)
                yield from comm.barrier()
                if ctx.rank == 0 and rep >= cfg.warmup:
                    samples.append(ctx.sim.now - t0)

        machine.run(program, name=f"meas-{'+'.join(kernels) or 'empty'}-r")
        counters = {
            label: machine.counters_for(label) for label in machine.all_labels()
        }
        return Measurement(
            benchmark=bench.name,
            problem_class=bench.size.problem_class,
            nprocs=bench.nprocs,
            kernels=tuple(kernels),
            samples=tuple(samples),
            overhead=0.0,
            counters=counters,
        )

    def measure_overhead(self) -> float:
        """Per-iteration cost of the empty harness loop (cached)."""
        if self._overhead is None:
            raw = self._run_loop((), run_id="overhead")
            self._overhead = raw.mean
        return self._overhead

    def prime_overhead(self, value: float) -> None:
        """Preload the cached empty-loop overhead (memoization layers).

        The value must come from an identical configuration's
        :meth:`measure_overhead` — the simulator's determinism (REP001)
        makes such replayed values bit-identical to a fresh run.
        """
        self._overhead = value

    # -- public API --------------------------------------------------------------

    def measure(self, kernels: Sequence[str]) -> Measurement:
        """Measure a chain (or, with one name, an isolated kernel)."""
        if not kernels:
            raise MeasurementError("measure() needs at least one kernel")
        for k in kernels:
            self.benchmark.kernel(k)  # validate names early
        with obs.span(
            "measure.chain",
            benchmark=self.benchmark.name,
            kernels="+".join(kernels),
            nprocs=self.benchmark.nprocs,
        ):
            return self._measure(tuple(kernels))

    def _measure(self, kernels: tuple[str, ...]) -> Measurement:
        overhead = self.measure_overhead() if self.config.subtract_overhead else 0.0
        raw = self._run_loop(tuple(kernels), run_id="+".join(kernels))
        samples = tuple(max(0.0, s - overhead) for s in raw.samples)
        if all(s == 0.0 for s in samples):
            raise MeasurementError(
                f"chain {tuple(kernels)} measured as all-zero after overhead "
                "subtraction; the loop does not dominate the harness"
            )
        return Measurement(
            benchmark=raw.benchmark,
            problem_class=raw.problem_class,
            nprocs=raw.nprocs,
            kernels=raw.kernels,
            samples=samples,
            overhead=overhead,
            counters=raw.counters,
        )

    def measure_all_isolated(self, kernels: Sequence[str]) -> dict[str, Measurement]:
        """Isolated measurement of each kernel (the summation inputs)."""
        return {k: self.measure((k,)) for k in kernels}

    def measure_windows(
        self, windows: Sequence[tuple[str, ...]]
    ) -> dict[tuple[str, ...], Measurement]:
        """Measure every chain window (the coupling inputs)."""
        return {tuple(win): self.measure(win) for win in windows}


@dataclass(frozen=True)
class ApplicationResult:
    """Outcome of running the full application."""

    benchmark: str
    problem_class: str
    nprocs: int
    total_time: float
    pre_time: float
    loop_time: float
    post_time: float
    iterations: int
    measured_iterations: int
    extrapolated: bool
    counters: dict[str, KernelCounters] = field(default_factory=dict, compare=False)
    #: The run's event trace when the runner was built with ``trace`` on
    #: (``repro trace`` exports this); ``None`` otherwise.
    trace: Optional[Trace] = field(default=None, compare=False, repr=False)

    @property
    def per_iteration(self) -> float:
        """Average main-loop iteration time."""
        return self.loop_time / self.iterations


class ApplicationRunner:
    """Runs the complete application to produce the tables' "Actual" row."""

    #: Run the loop in full when the class has at most this many iterations.
    FULL_RUN_MAX_ITERATIONS = 60

    def __init__(
        self,
        benchmark: Benchmark,
        machine_config: MachineConfig,
        seed: int = 0,
        warmup_iterations: int = 2,
        measured_iterations: int = 6,
        trace: Union[bool, int, Trace] = False,
    ):
        self.benchmark = benchmark
        self.machine_config = machine_config
        self.seed = seed
        self.warmup_iterations = warmup_iterations
        self.measured_iterations = measured_iterations
        self.trace = trace

    def run(self, extrapolate: Optional[bool] = None) -> ApplicationResult:
        """Simulate the application.

        ``extrapolate=None`` (default) decides automatically: classes with
        few iterations run in full; long loops simulate
        ``warmup + measured`` iterations and extrapolate the steady-state
        rate (equivalence with full runs is covered by integration tests).
        """
        with obs.span(
            "app.run",
            benchmark=self.benchmark.name,
            cls=self.benchmark.size.problem_class,
            nprocs=self.benchmark.nprocs,
        ):
            return self._run(extrapolate)

    def _run(self, extrapolate: Optional[bool]) -> ApplicationResult:
        bench = self.benchmark
        iterations = bench.iterations
        if extrapolate is None:
            extrapolate = iterations > self.FULL_RUN_MAX_ITERATIONS
        simulate_iters = (
            self.warmup_iterations + self.measured_iterations
            if extrapolate
            else iterations
        )
        if extrapolate and simulate_iters > iterations:
            extrapolate = False
            simulate_iters = iterations

        machine = Machine(
            self.machine_config,
            bench.nprocs,
            seed=self.seed,
            run_id="application",
            trace=self.trace,
        )
        attach_world(machine)
        marks: dict[str, float] = {}

        def program(ctx) -> Generator[Any, Any, None]:
            comm = ctx.comm
            for k in bench.pre_kernel_names:
                yield from bench.kernel(k)(ctx)
            yield from comm.barrier()
            if ctx.rank == 0:
                marks["pre_end"] = ctx.sim.now
            for it in range(simulate_iters):
                if extrapolate and it == self.warmup_iterations:
                    yield from comm.barrier()
                    if ctx.rank == 0:
                        marks["steady_start"] = ctx.sim.now
                for k in bench.loop_kernel_names:
                    yield from bench.kernel(k)(ctx)
            yield from comm.barrier()
            if ctx.rank == 0:
                marks["loop_end"] = ctx.sim.now
            for k in bench.post_kernel_names:
                yield from bench.kernel(k)(ctx)

        total_sim = machine.run(program, name="app-r")
        pre_time = marks["pre_end"]
        post_time = total_sim - marks["loop_end"]
        if extrapolate:
            steady = marks["loop_end"] - marks["steady_start"]
            rate = steady / self.measured_iterations
            loop_time = rate * iterations
            total_time = pre_time + loop_time + post_time
        else:
            loop_time = marks["loop_end"] - marks["pre_end"]
            total_time = total_sim
        counters = {
            label: machine.counters_for(label) for label in machine.all_labels()
        }
        return ApplicationResult(
            benchmark=bench.name,
            problem_class=bench.size.problem_class,
            nprocs=bench.nprocs,
            total_time=total_time,
            pre_time=pre_time,
            loop_time=loop_time,
            post_time=post_time,
            iterations=iterations,
            measured_iterations=simulate_iters,
            extrapolated=extrapolate,
            counters=counters,
            trace=machine.trace,
        )
