"""The analytic model itself: descriptors, closed forms, confidence."""

from __future__ import annotations

import functools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.descriptors import SUPPORTED_BENCHMARKS, describe
from repro.analytic.model import (
    ANALYTIC_REL_ERROR_BOUND,
    AnalyticModel,
    AnalyticPredictor,
)
from repro.analytic.tiers import TIER_ANALYTIC
from repro.errors import PredictionError
from repro.npb import make_benchmark
from repro.simmachine.machine import ibm_sp_argonne


def _predictor(benchmark="BT", problem_class="W", nprocs=4):
    return AnalyticPredictor.for_config(
        ibm_sp_argonne(), benchmark, problem_class, nprocs
    )


#: The class-S and class-W cells of the serving grid.
SERVE_CELLS = tuple(
    (benchmark, problem_class, nprocs)
    for benchmark, procs in (
        ("BT", (4, 9, 16)),
        ("SP", (4, 9, 16)),
        ("LU", (4, 8, 16)),
    )
    for problem_class in ("S", "W")
    for nprocs in procs
)

#: ``report`` arguments a caller may pass: one length (a served request),
#: none (the service's cross-check), or several (a pipeline cell).
LENGTH_REQUESTS = ((), (2,), (3,), (4,), (2, 3, 4))

@functools.cache
def _fresh_report(cell, lengths):
    """The report of a predictor that has answered nothing before."""
    return _predictor(*cell).report(lengths)


def _assert_same_report(got, want):
    assert got.actual == want.actual
    assert got.inputs.loop_times == want.inputs.loop_times
    assert got.inputs.pre_times == want.inputs.pre_times
    assert got.inputs.post_times == want.inputs.post_times
    assert got.inputs.chain_times == want.inputs.chain_times
    assert got.expected_rel_error == want.expected_rel_error
    assert got.steady_cycle == want.steady_cycle


class TestDescriptors:
    def test_supported_benchmarks(self):
        assert set(SUPPORTED_BENCHMARKS) == {"BT", "SP", "LU"}

    @pytest.mark.parametrize("name", ["CG", "MG"])
    def test_unsupported_benchmark_raises_prediction_error(self, name):
        with pytest.raises(PredictionError, match=name):
            describe(make_benchmark(name, "S", 4))

    def test_descriptors_cover_every_kernel(self):
        for name in SUPPORTED_BENCHMARKS:
            bench = make_benchmark(name, "S", 4)
            desc = describe(bench)
            assert desc.loop_kernels == tuple(bench.loop_kernel_names)
            assert desc.pre_kernels == tuple(bench.pre_kernel_names)
            assert desc.post_kernels == tuple(bench.post_kernel_names)
            for kernel in desc.kernels.values():
                assert len(kernel.ranks) == 4


class TestAnalyticModel:
    def test_rank_classes_collapse_uniform_partitions(self):
        # 16 ranks of BT A decompose uniformly: one replayed hierarchy
        # serves them all — the reason the fast path is fast.
        predictor = _predictor("BT", "A", 16)
        model = AnalyticModel(predictor.profile, predictor.desc)
        assert len(model._hiers) < 16

    def test_isolated_times_positive_and_deterministic(self):
        predictor = _predictor()
        a = AnalyticModel(predictor.profile, predictor.desc)
        b = AnalyticModel(predictor.profile, predictor.desc)
        for kernel in predictor.desc.loop_kernels:
            ta, tb = a.isolated_time(kernel), b.isolated_time(kernel)
            assert ta > 0
            assert ta == tb

    def test_chain_state_is_cyclic_steady_after_one_warm_pass(self):
        # chain_time warms one full cycle; a second warm pass must leave
        # the evaluated cycle bit-identical, or the steady-state claim
        # (and the coupling ratios built on it) would be wrong.
        predictor = _predictor()
        desc = predictor.desc
        window = desc.loop_kernels[:2]
        one_warm = AnalyticModel(predictor.profile, desc).chain_time(window)

        extra = AnalyticModel(predictor.profile, desc)
        extra._flush()
        for _ in range(3):
            for k in window:
                extra._replay(k)
        fns = []
        messages = 0
        for k in window:
            fn, _work = extra._eval_kernel(k)
            fns.append(fn)
            messages += desc.kernels[k].messages
        three_warm = extra._settle(
            lambda c: sum(fn(c) for fn in fns), messages
        )
        assert one_warm == three_warm

    def test_expected_rel_error_is_positive_and_bounded_on_goldens(self):
        for benchmark in SUPPORTED_BENCHMARKS:
            predictor = _predictor(benchmark, "W", 4)
            model = AnalyticModel(predictor.profile, predictor.desc)
            err = model.expected_rel_error()
            assert 0 < err < 1


class TestAnalyticPredictor:
    def test_report_structure(self):
        report = _predictor().report((2,))
        desc = _predictor().desc
        assert set(report.inputs.loop_times) == set(desc.loop_kernels)
        assert set(report.inputs.pre_times) == set(desc.pre_kernels)
        assert set(report.inputs.post_times) == set(desc.post_kernels)
        assert len(report.inputs.chain_times) == len(desc.loop_kernels)
        assert report.actual > 0
        assert report.steady_cycle > 0
        assert 0 < report.expected_rel_error < 1

    def test_prediction_report_carries_the_analytic_tier(self):
        report = _predictor().report((2,)).prediction_report((2,))
        assert report.tier == TIER_ANALYTIC
        assert "Summation" in report.predictions
        assert "Coupling: 2 kernels" in report.predictions

    @pytest.mark.parametrize("length", [1, 99])
    def test_invalid_chain_length_raises(self, length):
        with pytest.raises(PredictionError, match="chain length"):
            _predictor().report((length,))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(order=st.lists(st.sampled_from(LENGTH_REQUESTS), min_size=1,
                          max_size=6))
    def test_reused_predictor_matches_fresh_reports(self, order):
        # The memo is exact: whatever a predictor answered before, each
        # report equals a fresh predictor's, float for float.
        for cell in SERVE_CELLS:
            predictor = _predictor(*cell)
            for lengths in order:
                _assert_same_report(
                    predictor.report(lengths), _fresh_report(cell, lengths)
                )

    def test_concurrent_reports_match_fresh_reports(self):
        # Four threads share one model's replayed cache state; a report
        # computed while another thread moves that state would differ.
        cell = ("LU", "W", 8)
        predictor = _predictor(*cell)
        barrier = threading.Barrier(4, timeout=30)
        results: dict = {}

        def ask(lengths):
            barrier.wait()
            results[lengths] = predictor.report(lengths)

        asks = ((2,), (3,), (4,), (2, 3, 4))
        threads = [threading.Thread(target=ask, args=(a,)) for a in asks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert set(results) == set(asks)
        for lengths, report in results.items():
            _assert_same_report(report, _fresh_report(cell, lengths))

    def test_invalid_chain_length_leaves_the_memo_usable(self):
        predictor = _predictor()
        with pytest.raises(PredictionError, match="chain length"):
            predictor.report((2, 99))
        _assert_same_report(
            predictor.report((2,)), _fresh_report(("BT", "W", 4), (2,))
        )

    def test_documented_bound_is_a_real_constant(self):
        assert 0 < ANALYTIC_REL_ERROR_BOUND <= 0.2
