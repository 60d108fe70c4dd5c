"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from layers import (
    SPAN_NAMES,
    CallCounter,
    SpanSampler,
    installed,
    target_spans,
)
from workloads import (
    CampaignWarm,
    ServeMixed,
    SimCells,
    load_refs,
    serve_stream,
)
from run import end_to_end, traced_phase
import speed
from speed import REFERENCE_PROBE_S, SpeedClock


def _stack(*codes):
    """A synthetic stack, root first: frame-like objects ending in a leaf."""
    frame = None
    for code in codes:
        frame = SimpleNamespace(f_code=code, f_back=frame)
    return frame


def test_self_time_on_a_nested_span_tree():
    # Spans a > b > c, called from harness code; c calls an unmeasured
    # helper. Each tick charges its gap to every thread's innermost span.
    sampler = SpanSampler(spans={"a": "a", "b": "b", "c": "c"})
    ticks = [
        ([_stack("root", "a")], 1.0),
        ([_stack("root", "a", "b")], 2.0),
        ([_stack("root", "a", "b", "c")], 3.0),
        ([_stack("root", "a", "b", "c", "helper")], 0.5),
        ([_stack("root")], 5.0),
        # Two threads in spans at once: both are charged.
        ([_stack("root", "a"), _stack("thread", "b")], 0.25),
    ]
    for frames, seconds in ticks:
        sampler.take(frames, seconds)
    assert sampler.ticks == 6
    assert dict(sampler.self_s) == {"a": 1.25, "b": 2.25, "c": 3.5}


def test_the_sampler_charges_the_running_span():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    sampler = SpanSampler(spans={busy.__code__: "busy"})
    with sampler.sampling():
        busy()
        time.sleep(0.3)
    assert sampler.ticks > 10
    assert 0.2 < sampler.self_s["busy"] < 0.4


def test_the_speed_clock_runs_at_the_probed_speed(monkeypatch):
    host = [0.0]
    monkeypatch.setattr(speed.time, "perf_counter", lambda: host[0])

    def slow_probe():  # the host runs at half the reference speed
        host[0] += 2 * REFERENCE_PROBE_S

    clock = SpeedClock(probe=slow_probe)
    clock.tick()
    start = clock.now()
    host[0] += 1.0
    clock.tick()  # the probe's own time is not counted
    host[0] += 1.0
    assert clock.now() - start == pytest.approx(1.0)
    assert clock.probes == pytest.approx([2 * REFERENCE_PROBE_S] * 2)


def test_the_speed_clock_probes_while_running_and_restores_the_timer():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    clock = SpeedClock()
    with clock.running():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(clock.probes) > 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_installed_restores_every_entry_point():
    from repro.analytic.model import AnalyticPredictor
    from repro.simmpi.comm import Comm

    before = (Comm.__dict__["allreduce"], AnalyticPredictor.__dict__["for_config"])
    counter = CallCounter()
    with installed(counter):
        assert Comm.__dict__["allreduce"] is not before[0]
        # for_config adds time to analytic.report but counts no call.
        assert AnalyticPredictor.__dict__["for_config"] is before[1]
    assert (Comm.__dict__["allreduce"],
            AnalyticPredictor.__dict__["for_config"]) == before


def test_every_entry_point_has_a_span():
    assert set(target_spans().values()) == set(SPAN_NAMES)


def test_a_forced_reference_mismatch_counts_as_failed(tmp_path: Path):
    refs = load_refs()
    workload = CampaignWarm(1, tmp_path, refs, grid=[("BT", "S", 4)])
    workload.setup()
    workload.round(0)
    assert (workload.attempted, workload.failed) == (1, 0)

    tampered = copy.deepcopy(refs)
    tampered["campaign"]["BT.S.4"]["coupling"]["3"] += 1e-12
    workload.refs = tampered
    workload.round(1)
    assert (workload.attempted, workload.failed) == (2, 1)
    assert "coupling L=3" in workload.problems[0]
    workload.close()


def test_serve_responses_are_checked_against_their_tier(tmp_path: Path):
    refs = load_refs()
    workload = ServeMixed(1, tmp_path, refs, cells=[("BT", "S", 4)],
                          requests=40)
    workload.setup()
    workload.round(0)
    assert (workload.attempted, workload.failed) == (40, 0)
    tampered = copy.deepcopy(refs)
    tampered["serve"]["analytic"]["BT.S.4"]["actual"] *= 2
    workload.refs = tampered
    workload.round(1)
    assert workload.failed == 40
    workload.close()


def test_the_same_seed_gives_the_same_stream():
    assert serve_stream(5) == serve_stream(5)
    assert serve_stream(5) != serve_stream(6)
    assert len(serve_stream(5)) == 6000
    # Every key is asked in every pass, whatever the seed.
    keys = {tuple(sorted(r.items())) for r in serve_stream(5)}
    assert keys == {tuple(sorted(r.items())) for r in serve_stream(6)}


def _traced_counts(workload) -> dict:
    workload.setup()
    metrics = traced_phase(workload, sample_seconds=0.0)
    workload.close()
    return {key: value for key, (value, unit) in metrics.items()
            if not key.endswith("self_s") and not key.startswith("trace.")}


@pytest.mark.parametrize("make, nonzero", [
    (lambda tmp: SimCells("sim-bt-sp", 3, tmp, load_refs(),
                          cells=[(("BT", "S", 4), (2,))]),
     ("engine.events", "network.messages", "memory.touch.calls")),
    (lambda tmp: CampaignWarm(3, tmp, load_refs(), grid=[("SP", "S", 4)]),
     ("memo.get.calls", "memo.hit_frac")),
    (lambda tmp: ServeMixed(3, tmp, load_refs(),
                            cells=[("BT", "S", 4), ("LU", "W", 4)],
                            requests=120),
     ("service.l1_hit_frac", "analytic.report.calls")),
], ids=["sim", "campaign", "serve"])
def test_the_same_seed_gives_identical_counts(tmp_path: Path, make, nonzero):
    first = _traced_counts(make(tmp_path))
    second = _traced_counts(make(tmp_path))
    assert first == second
    for key in nonzero:
        assert first[key] > 0, key


def test_printed_metrics_are_the_ones_benchmark_json_names(tmp_path: Path):
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    workload = SimCells("sim-bt-sp", 1, tmp_path, load_refs(),
                        cells=[(("BT", "S", 4), (2,))])
    workload.setup()
    ops, latencies = workload.round(0)
    printed = end_to_end(workload, 1.0, [1.0], ops, latencies * 2)
    assert set(printed) == {m["name"] for m in spec["end_to_end"]}
    traced = traced_phase(workload, sample_seconds=0.0)
    assert set(traced) == {m["name"] for m in spec["per_layer"]}
