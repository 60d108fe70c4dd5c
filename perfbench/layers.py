"""Per-layer measurement for the benchmark's traced run.

The traced run measures the public entry point of each program layer,
from the benchmark's own files: the program is not edited. It uses two
instruments, on separate rounds, so that neither distorts the other:

* :class:`CallCounter` wraps every entry point and counts its calls.
  Counts are exact and repeat for a seed.
* :class:`SpanSampler` measures *self time* -- the time inside an entry
  point minus the time inside the other entry points it calls -- by
  sampling the Python stack of every thread at a fixed period and
  charging each sample to the innermost entry point on that stack. The
  program runs unwrapped while it samples. A wrapper that timed each
  call would cost a microsecond or more per call, part of it outside
  its own clock reads and so in the self time of the caller or callee:
  on the simulator workloads, which make 100,000 and more wrapped calls
  a round, that is a fifth or more of the traced time.

Spans are per thread: the prediction service answers escalations on its
batcher thread, and a caller blocked in ``PredictionService.predict``
is charged while it waits. Generator entry points -- the ``simmpi``
collectives, which the event engine resumes step by step -- are on a
stack only while they run, so their self time is the Python work in
their bodies, not the simulated wait between steps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import signal
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

__all__ = [
    "SPAN_NAMES",
    "TARGETS",
    "CallCounter",
    "SpanSampler",
    "installed",
    "target_spans",
]

_COLLECTIVES = (
    "barrier", "bcast", "reduce", "allreduce", "allgather", "alltoall",
    "gather", "scatter",
)

#: ``(span name, module, attribute path, counts a call)``. Several entry
#: points may share one span name; a target that does not count calls
#: adds its time to a span whose calls are counted elsewhere
#: (``AnalyticPredictor.for_config`` is the first half of one analytic
#: answer, whose call is counted at ``.report``).
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("instrument.measure", "repro.instrument.runner", "ChainRunner.measure", True),
    ("instrument.app_run", "repro.instrument.runner", "ApplicationRunner.run", True),
    # The machine's run is the one way into the event engine on either
    # backend: it launches the rank processes and drains the event queue.
    ("engine.run", "repro.simmachine.process", "Machine.run", True),
    ("simmpi.isend", "repro.simmpi.comm", "Comm.isend", True),
    ("simmpi.irecv", "repro.simmpi.comm", "Comm.irecv", True),
    *(
        ("simmpi.collective", "repro.simmpi.comm", f"Comm.{name}", True)
        for name in _COLLECTIVES
    ),
    ("network.send_timing", "repro.simmachine.network",
     "NetworkModel.send_timing", True),
    ("memory.touch", "repro.simmachine.memory", "MemoryHierarchy.touch", True),
    ("memo.get", "repro.parallel.memo", "SimulationMemoStore.get", True),
    ("memo.put", "repro.parallel.memo", "SimulationMemoStore.put", True),
    ("core.predict", "repro.core.predictor", "CouplingPredictor.predict", True),
    ("core.predict", "repro.core.predictor", "SummationPredictor.predict", True),
    ("experiments.config_result", "repro.experiments.pipeline",
     "ExperimentPipeline.config_result", True),
    ("analytic.report", "repro.analytic.model", "AnalyticPredictor.report", True),
    ("analytic.report", "repro.analytic.model",
     "AnalyticPredictor.for_config", False),
    ("service.predict", "repro.service.engine", "PredictionService.predict", True),
    ("service.api.handle_line", "repro.service.api", "handle_line", True),
)

#: Every span name, in table order.
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: The sampler's period: about 1,000 ticks a second of wall time.
TICK_SECONDS = 0.001


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _function(attribute: Any) -> Callable:
    """The plain function behind a class attribute."""
    if isinstance(attribute, (classmethod, staticmethod)):
        return attribute.__func__
    return attribute


class CallCounter:
    """Counts the calls of wrapped entry points, from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call counted under ``name``.

        A generator function's call creates the generator, so it is
        counted once however often the engine resumes it.
        """
        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return call


@contextmanager
def installed(counter: CallCounter) -> Iterator[CallCounter]:
    """Wrap every counted entry point in :data:`TARGETS`; restore on exit."""
    originals: list[tuple[Any, str, Any]] = []
    try:
        for name, module_name, path, counted in TARGETS:
            if not counted:
                continue
            owner, attr = _resolve(module_name, path)
            original = inspect.getattr_static(owner, attr)
            wrapped: Any = counter.wrap(name, _function(original))
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(wrapped)
            originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield counter
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def target_spans() -> dict[Any, str]:
    """The code object of every entry point in :data:`TARGETS`, to its span."""
    spans: dict[Any, str] = {}
    for name, module_name, path, _counted in TARGETS:
        owner, attr = _resolve(module_name, path)
        fn = inspect.unwrap(_function(inspect.getattr_static(owner, attr)))
        spans[fn.__code__] = name
    return spans


class SpanSampler:
    """Self time per span, from periodic samples of every thread's stack.

    A wall-clock timer signal interrupts the program every
    :data:`TICK_SECONDS`. Each *tick* looks at the stack of every thread
    and charges the time since the previous tick to the innermost frame
    whose code is a span's (:func:`target_spans`); a stack with no such
    frame is outside every span. Python runs the handler in the main thread at the next
    bytecode boundary -- right after a long C call, or inside a blocking
    one, which it interrupts and resumes -- so the main thread is charged
    where it really was; the gap weighting covers ticks that a long C call
    delayed. ``spans`` is injectable so the attribution can be tested on
    synthetic stacks.
    """

    def __init__(self, spans: Optional[Mapping[Any, str]] = None):
        self._spans = dict(target_spans() if spans is None else spans)
        self.self_s: dict[str, float] = defaultdict(float)
        self.ticks = 0

    def span_of(self, frame: Any) -> Optional[str]:
        """The innermost span on the stack that ends in ``frame``."""
        while frame is not None:
            name = self._spans.get(frame.f_code)
            if name is not None:
                return name
            frame = frame.f_back
        return None

    def take(self, frames: Iterable[Any], seconds: float) -> None:
        """One tick: charge ``seconds`` to each thread's innermost span."""
        self.ticks += 1
        for frame in frames:
            name = self.span_of(frame)
            if name is not None:
                self.self_s[name] += seconds

    @contextmanager
    def sampling(self) -> Iterator[SpanSampler]:
        """Sample while the block runs (main thread only: it uses SIGALRM)."""
        clock = time.perf_counter
        last = clock()

        def tick(signum: int, frame: Any) -> None:
            nonlocal last
            now = clock()
            self.take(sys._current_frames().values(), now - last)
            last = now

        previous = signal.signal(signal.SIGALRM, tick)
        last = clock()
        timer = signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, *timer)
            signal.signal(signal.SIGALRM, previous)
