"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-bt-sp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced phase, then one round with call counters and a few seconds of
sampled rounds, and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment. ``--workload all`` runs every workload in its own
process, one after another, and ends with their results merged under
``<workload>/<metric>`` names. LAYERS.md describes the metrics.

Set-up and timed rounds are read from a :class:`speed.SpeedClock`, so
the end-to-end times are host times scaled to a reference host speed;
standard error shows the host times and probe times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any

from layers import SPAN_NAMES, CallCounter, SpanSampler, installed
from speed import REFERENCE_PROBE_S, SpeedClock

WORKLOAD_NAMES = ("sim-bt-sp", "sim-lu", "campaign-warm", "serve-mixed")
#: Every workload runs at least this many timed rounds.
MIN_ROUNDS = 3
#: Round indices of the traced phase start here, so the traced rounds
#: draw the same orders however many untraced rounds came before.
TRACE_INDEX = 1_000_000
#: The traced phase samples self times for at least this long.
SAMPLE_SECONDS = 5.0
#: Global obs counters the per-layer metrics are deltas of.
OBS_COUNTERS = (
    "sim_events",
    "sim_messages",
    "sim_message_bytes",
    "sim_cache_bytes_hit",
    "sim_cache_bytes_missed",
    "parallel_memo_hits",
    "parallel_memo_misses",
    "parallel_memo_corruption_detected",
)


def environment() -> dict[str, Any]:
    from repro.cli import _git_commit
    from repro.simmachine._backend import backend_info

    return {
        "engine": backend_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": _git_commit() or "unknown",
    }


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def timed_phase(workload, seconds: float) -> tuple[list[float], int, list[float]]:
    """Rounds until ``seconds`` of host time have passed: durations, ops
    and latencies, read from the workload's clock."""
    durations: list[float] = []
    latencies: list[float] = []
    ops = 0
    host: list[float] = []
    clock = workload.clock
    start = time.perf_counter()
    while len(durations) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        t0, h0 = clock(), time.perf_counter()
        done, samples = workload.round(len(durations))
        durations.append(clock() - t0)
        host.append(time.perf_counter() - h0)
        ops += done
        latencies.extend(samples)
    print(f"{len(durations)} rounds, median {statistics.median(durations):.4f}"
          f" s reference, {statistics.median(host):.4f} s host",
          file=sys.stderr)
    return durations, ops, latencies


def counters(workload) -> dict[str, float]:
    from repro import obs

    registry = obs.get_registry()
    values: dict[str, float] = {
        name: registry.counter(name).value for name in OBS_COUNTERS
    }
    values.update(workload.service_totals)
    return values


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_phase(
    workload, sample_seconds: float = SAMPLE_SECONDS
) -> dict[str, tuple[float, str]]:
    """Run the traced rounds and derive every per-layer metric.

    Calls and counters come from one round with every entry point
    wrapped, so they repeat exactly for a seed. Self times come from
    further rounds run unwrapped under the sampler, until
    ``sample_seconds`` have passed, and are reported per round. Each
    sampled round follows an untraced run of the same round, and the
    overhead compares the two, so host drift between them stays small.
    """
    counter = CallCounter()
    before = counters(workload)
    with installed(counter):
        workload.round(TRACE_INDEX)
    d = Counter({key: value - before.get(key, 0)
                 for key, value in counters(workload).items()})
    sampler = SpanSampler()
    untraced, sampled = [], []
    while not sampled or sum(sampled) < sample_seconds:
        index = TRACE_INDEX + 1 + len(sampled)
        t0 = time.perf_counter()
        workload.round(index)
        untraced.append(time.perf_counter() - t0)
        with sampler.sampling():
            t0 = time.perf_counter()
            workload.round(index)
            sampled.append(time.perf_counter() - t0)
    self_s = {name: value / len(sampled)
              for name, value in sampler.self_s.items()}
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (counter.calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    requests = d["requests"]
    metrics.update({
        "engine.events": (d["sim_events"], "count"),
        "network.messages": (d["sim_messages"], "count"),
        "network.bytes": (d["sim_message_bytes"], "bytes"),
        "memory.hit_frac": (ratio(
            d["sim_cache_bytes_hit"],
            d["sim_cache_bytes_hit"] + d["sim_cache_bytes_missed"],
        ), "ratio"),
        "memo.hit_frac": (ratio(
            d["parallel_memo_hits"],
            d["parallel_memo_hits"] + d["parallel_memo_misses"],
        ), "ratio"),
        "memo.corruptions": (d["parallel_memo_corruption_detected"], "count"),
        "analytic.escalation_frac": (ratio(
            d["analytic_escalations"],
            requests - d["l1_hits"],
        ), "ratio"),
        "service.l1_hit_frac": (ratio(d["l1_hits"], requests), "ratio"),
        "service.l2_hit_frac": (ratio(d["l2_hits"], requests), "ratio"),
        "service.batches": (d["batches"], "count"),
        "service.batch_size.mean": (ratio(
            d["batched_requests"], d["batches"]
        ), "count"),
        "service.simulations": (d["simulations"], "count"),
        "trace.overhead_frac": (sum(sampled) / sum(untraced) - 1.0, "ratio"),
        "trace.samples": (sampler.ticks, "count"),
    })
    wall = sum(sampled) / len(sampled)
    print(f"sampled {len(sampled)} round(s), {sampler.ticks} ticks, "
          f"{wall:.3f} s a round; self-time shares:", file=sys.stderr)
    for name in SPAN_NAMES:
        print(f"  {name:28s} {self_s.get(name, 0.0) / wall:7.1%}"
              f"  calls={counter.calls.get(name, 0)}", file=sys.stderr)
    return metrics


def mean_or_zero(values: list[float]) -> float:
    """The mean; 0 when every operation failed and left nothing to score."""
    return statistics.mean(values) if values else 0.0


def end_to_end(workload, setup_s, durations, ops, latencies):
    coupling_err, summation_err = workload.accuracy
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "ops_per_s": (ops / sum(durations), "1/s"),
        "latency_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms.tail": (
            percentile(latencies, workload.tail_pct) * 1e3, "ms"
        ),
        "coupling_err_pct": (mean_or_zero(coupling_err), "%"),
        "summation_err_pct": (mean_or_zero(summation_err), "%"),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    speed = SpeedClock()
    with speed.running():
        started = speed.now()
        try:
            import workloads
        except ImportError as exc:
            print(f"perfbench: cannot import the program: {exc}",
                  file=sys.stderr)
            return 2
        refs = workloads.load_refs()
        import_s = speed.now() - started
    workloads.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=workloads.WORK_ROOT))
    try:
        workload = workloads.make_workload(name, seed, workdir, refs)
        workload.clock = speed.now
        try:
            with speed.running():
                setups = []
                for _ in range(workload.setup_repeats):
                    t0 = speed.now()
                    workload.setup()
                    setups.append(speed.now() - t0)
                setup_s = import_s + statistics.median(setups)
                durations, ops, latencies = timed_phase(workload, seconds)
            print(f"set-up: imports {import_s:.3f} s, set-ups "
                  + ", ".join(f"{t:.3f}" for t in setups) + " s reference",
                  file=sys.stderr)
            print(f"{len(speed.probes)} probes, quartiles " + ", ".join(
                f"{q * 1e3:.4f}" for q in statistics.quantiles(speed.probes, n=4))
                + f" ms host; reference {REFERENCE_PROBE_S * 1e3:.4f} ms",
                file=sys.stderr)
            if trace:
                metrics = traced_phase(workload)
            else:
                metrics = end_to_end(workload, setup_s, durations, ops, latencies)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workloads.WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    for problem in workload.problems[:10]:
        print(f"mismatch: {problem}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a process of its own; results merged at the end."""
    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                              "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        print(f"== {name}")
        print("\n".join(lines))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
