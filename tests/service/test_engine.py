"""The prediction service engine: caching, coalescing, backpressure."""

import threading

import pytest

from repro.analytic.model import AnalyticModel
from repro.errors import ServiceError, ServiceSaturatedError
from repro.instrument import MeasurementConfig
from repro.service import PredictRequest, PredictionService
from repro.service import engine
from repro.service.workers import execute_cell

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)


def make_service(**kwargs):
    kwargs.setdefault("measurement", MEASUREMENT)
    return PredictionService(**kwargs)


class TestPredictRequest:
    def test_normalizes_case(self):
        request = PredictRequest("bt", "s", 4)
        assert request.benchmark == "BT"
        assert request.problem_class == "S"

    def test_key_includes_chain_length_and_seed(self):
        a = PredictRequest("BT", "S", 4, chain_length=2, seed=0)
        b = PredictRequest("BT", "S", 4, chain_length=3, seed=0)
        c = PredictRequest("BT", "S", 4, chain_length=2, seed=1)
        assert len({a.key, b.key, c.key}) == 3
        # …but the same measurement plan group for equal seeds:
        assert a.config_key == b.config_key
        assert a.config_key != c.config_key

    def test_analytic_key_ignores_only_the_seed(self):
        a = PredictRequest("BT", "S", 4, chain_length=2, seed=0)
        b = PredictRequest("BT", "S", 4, chain_length=3, seed=0)
        c = PredictRequest("BT", "S", 4, chain_length=2, seed=1)
        assert a.analytic_key == c.analytic_key
        assert a.analytic_key != b.analytic_key
        assert a.analytic_key not in {a.key, c.key}

    def test_validation(self):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            PredictRequest("XX", "S", 4)
        with pytest.raises(ServiceError, match="unknown problem class"):
            PredictRequest("BT", "Z", 4)
        with pytest.raises(ServiceError, match="nprocs"):
            PredictRequest("BT", "S", 0)
        with pytest.raises(ServiceError, match="chain_length"):
            PredictRequest("BT", "S", 4, chain_length=1)

    def test_dict_roundtrip(self):
        request = PredictRequest("BT", "W", 9, chain_length=3, seed=5)
        assert PredictRequest.from_dict(request.to_dict()) == request

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ServiceError, match="unknown request fields"):
            PredictRequest.from_dict({"benchmark": "BT", "bogus": 1})
        with pytest.raises(ServiceError, match="missing field"):
            PredictRequest.from_dict({"benchmark": "BT"})


class TestServing:
    def test_report_matches_one_shot_prediction(self):
        from repro import quick_prediction
        from repro.experiments import ExperimentSettings

        with make_service(executor="inline", batch_window=0.0) as service:
            served = service.predict(PredictRequest("BT", "S", 4, chain_length=2))
        one_shot = quick_prediction(
            "BT", "S", 4, 2, settings=ExperimentSettings(measurement=MEASUREMENT)
        )
        assert served.actual == pytest.approx(one_shot.actual)
        assert served.predictions == pytest.approx(one_shot.predictions)

    def test_repeat_request_hits_l1(self):
        with make_service(executor="inline", batch_window=0.0) as service:
            request = PredictRequest("BT", "S", 4)
            first = service.predict(request)
            second = service.predict(request)
            assert first == second
            stats = service.stats()
            assert stats["requests"] == 2
            assert stats["l1_hits"] == 1
            assert stats["misses"] == 1
            assert stats["cache_hit_ratio"] == pytest.approx(0.5)

    def test_chain_lengths_share_one_measurement_plan(self):
        with make_service(executor="inline", batch_window=0.05) as service:
            reports = service.predict_many(
                [
                    PredictRequest("BT", "S", 4, chain_length=2),
                    PredictRequest("BT", "S", 4, chain_length=3),
                ]
            )
            assert len(reports) == 2
            assert reports[0].actual == pytest.approx(reports[1].actual)
            stats = service.stats()
            assert stats["batches"] == 1
            assert stats["batch_size"]["max"] == 2.0

    def test_l2_reconstruction_across_restart(self, tmp_path):
        db = str(tmp_path / "perf.sqlite")
        request = PredictRequest("BT", "S", 4)
        with make_service(db_path=db, executor="inline", batch_window=0.0) as a:
            cold = a.predict(request)
            assert a.stats()["simulations"] > 0
        with make_service(db_path=db, executor="inline", batch_window=0.0) as b:
            warm = b.predict(request)
            stats = b.stats()
            assert stats["simulations"] == 0
            assert stats["l2_hits"] == 1
            assert warm == cold

    def test_ttl_expiry_falls_back_to_l2_not_resimulation(self):
        clock_now = [0.0]
        with make_service(
            executor="inline",
            batch_window=0.0,
            cache_ttl=60.0,
            clock=lambda: clock_now[0],
        ) as service:
            request = PredictRequest("BT", "S", 4)
            service.predict(request)
            simulations_cold = service.stats()["simulations"]
            clock_now[0] = 120.0  # L1 entry is stale now
            service.predict(request)
            stats = service.stats()
            assert stats["l1_hits"] == 0
            assert stats["l2_hits"] == 1
            assert stats["simulations"] == simulations_cold

    def test_execution_errors_propagate_and_count(self):
        def explode(task, store=None):
            raise RuntimeError("simulator on fire")

        with make_service(
            executor="inline", batch_window=0.0, execute=explode
        ) as service:
            with pytest.raises(RuntimeError, match="on fire"):
                service.predict(PredictRequest("BT", "S", 4))
            assert service.stats()["errors"] == 1

    def test_closed_service_rejects(self):
        service = make_service(executor="inline", batch_window=0.0)
        service.close()
        from repro.errors import ServiceClosedError

        with pytest.raises(ServiceClosedError):
            service.predict(PredictRequest("BT", "S", 4))

    def test_process_executor_requires_file_database(self):
        with pytest.raises(ServiceError, match="file-backed"):
            make_service(executor="process")


def fresh_answer(request):
    """What a brand-new service answers for one request."""
    with make_service(executor="inline", batch_window=0.0) as service:
        return service.predict(request)


class TestSeedIsolation:
    """Each seed is answered from its own measurements, never another's."""

    def test_second_seed_measures_its_own_samples(self):
        seed0 = PredictRequest("BT", "S", 4, seed=0)
        seed1 = PredictRequest("BT", "S", 4, seed=1)
        with make_service(executor="inline", batch_window=0.0) as service:
            first = service.predict(seed0)
            second = service.predict(seed1)
            simulations = service.stats()["simulations"]
            # Another length of seed 1 reuses seed 1's samples: only the
            # five triples are new.
            service.predict(PredictRequest("BT", "S", 4, chain_length=3, seed=1))
            assert service.stats()["simulations"] == simulations + 5
        fresh = fresh_answer(seed1)
        assert second.tier == "simulation"
        assert (second.actual, second.predictions) == (
            fresh.actual,
            fresh.predictions,
        )
        assert second.predictions != first.predictions

    def test_restarted_memo_serves_each_seed_its_own_numbers(self, tmp_path):
        memo = str(tmp_path / "memo")
        seed1 = PredictRequest("BT", "S", 4, seed=1)
        with make_service(
            executor="inline", batch_window=0.0, cache_dir=memo
        ) as service:
            service.predict(PredictRequest("BT", "S", 4, seed=0))
            service.predict(seed1)
        with make_service(
            executor="inline", batch_window=0.0, cache_dir=memo
        ) as restarted:
            warm = restarted.predict(seed1)
            assert restarted.stats()["simulations"] == 0
        fresh = fresh_answer(seed1)
        assert warm.tier == "memo"
        assert (warm.actual, warm.predictions) == (
            fresh.actual,
            fresh.predictions,
        )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_process_workers_reuse_the_store_at_every_seed(self, tmp_path, seed):
        """Every seed's cell task carries the shared sqlite file, so a later
        chain length re-simulates only its new windows at any seed."""
        costs = []
        with make_service(
            executor="process",
            max_workers=1,
            db_path=str(tmp_path / "perf.sqlite"),
            batch_window=0.0,
        ) as service:
            for length in (2, 3):
                before = service.stats()["simulations"]
                service.predict(
                    PredictRequest("BT", "S", 4, chain_length=length, seed=seed)
                )
                costs.append(service.stats()["simulations"] - before)
        assert costs == [13, 5]


class TestSharedStore:
    def test_two_thread_workers_share_one_sqlite_store(self, tmp_path):
        """Two cells measured at once by two worker threads through one
        sqlite store: exact per-cell work, and tier labels that follow it."""
        db = str(tmp_path / "perf.sqlite")
        outcomes = []
        lock = threading.Lock()

        def recording(task, store=None):
            outcome = execute_cell(task, store)
            with lock:
                outcomes.append(
                    (outcome.nprocs, outcome.simulations, outcome.reused)
                )
            return outcome

        def serve(lengths):
            with make_service(
                executor="thread",
                max_workers=2,
                db_path=db,
                batch_window=0.0,
                execute=recording,
            ) as service:
                reports = service.predict_many(
                    [
                        PredictRequest("BT", "S", n, chain_length=length)
                        for n in (1, 4)
                        for length in lengths
                    ]
                )
            outcomes.sort()
            work = list(outcomes)
            outcomes.clear()
            return [r.tier for r in reports], work

        # Cold: 12 measurements + the application run per cell.
        assert serve((2,)) == (["simulation"] * 2, [(1, 13, 0), (4, 13, 0)])
        # L=3 adds only the five triples; the rest comes from the store.
        assert serve((3,)) == (["simulation"] * 2, [(1, 5, 8), (4, 5, 8)])
        # A restarted service answers both lengths from the store alone.
        assert serve((2, 3)) == (["memo"] * 4, [(1, 0, 18), (4, 0, 18)])


@pytest.fixture
def model_calls(monkeypatch):
    """Counts AnalyticModel constructions and application_time runs."""
    calls = {"models": 0, "application_time": 0}
    init = AnalyticModel.__init__
    application_time = AnalyticModel.application_time

    def counted_init(self, *args, **kwargs):
        calls["models"] += 1
        init(self, *args, **kwargs)

    def counted_application_time(self):
        calls["application_time"] += 1
        return application_time(self)

    monkeypatch.setattr(AnalyticModel, "__init__", counted_init)
    monkeypatch.setattr(
        AnalyticModel, "application_time", counted_application_time
    )
    return calls


class TestAnalyticReuse:
    def test_one_evaluation_answers_every_seed_and_length(self, model_calls):
        with make_service(
            executor="inline", batch_window=0.0, tier_policy="balanced"
        ) as service:
            reports = {
                (seed, length): service.predict(
                    PredictRequest(
                        "BT", "S", 4, chain_length=length, seed=seed
                    )
                )
                for seed in range(4)
                for length in (2, 3)
            }
            stats = service.stats()
        assert model_calls == {"models": 1, "application_time": 1}
        assert stats["l1_hits"] == 6  # every seed after the first
        for (seed, length), report in reports.items():
            assert report.tier == "analytic"
            assert report == reports[(0, length)]

    def test_escalating_cell_builds_one_model(self, model_calls):
        # SP.S.16 misses the balanced budget: the escalation check and the
        # cross-check against the memo/simulated answer share one model.
        with make_service(
            executor="inline", batch_window=0.0, tier_policy="balanced"
        ) as service:
            report = service.predict(PredictRequest("SP", "S", 16))
            stats = service.stats()
        assert report.tier == "simulation"
        assert stats["analytic_escalations"] == 1
        assert stats["analytic_signed_rel_error"]["count"] == 1
        assert model_calls == {"models": 1, "application_time": 1}

    def test_memo_answers_keep_one_l1_entry_per_seed(self):
        with make_service(
            executor="inline", batch_window=0.0, tier_policy="balanced"
        ) as service:
            requests = [PredictRequest("SP", "S", 16, seed=s) for s in (0, 1)]
            first = [service.predict(r) for r in requests]
            again = [service.predict(r) for r in requests]
            stats = service.stats()
            l1 = service._reports
            assert all(r.key in l1 for r in requests)
            # Escalations leave no seed-free analytic entry behind.
            assert requests[0].analytic_key not in l1
        # Seed 1 measures its own samples (the store's keys carry the
        # seed) and gets an L1 entry of its own.
        assert [r.tier for r in first] == ["simulation", "simulation"]
        assert again[0] is first[0] and again[1] is first[1]
        assert stats["l1_hits"] == 2
        assert stats["analytic_escalations"] == 2

    def test_predictor_cache_is_bounded_and_released(
        self, monkeypatch, model_calls
    ):
        with make_service(
            executor="inline", batch_window=0.0, tier_policy="balanced"
        ) as service:
            assert (
                service._predictors.capacity
                == engine.ANALYTIC_PREDICTOR_CAPACITY
            )
        monkeypatch.setattr(engine, "ANALYTIC_PREDICTOR_CAPACITY", 2)
        service = make_service(
            executor="inline", batch_window=0.0, tier_policy="balanced"
        )
        for nprocs in (4, 9, 16):
            service.predict(PredictRequest("BT", "W", nprocs))
        predictors = service._predictors
        assert len(predictors) == 2
        assert predictors.stats()["evictions"] == 1
        # The evicted cell's next seed is an L1 hit; a new length needs a
        # fresh evaluation, on a fresh model.
        service.predict(PredictRequest("BT", "W", 4, seed=1))
        assert model_calls["models"] == 3
        service.predict(PredictRequest("BT", "W", 4, chain_length=3))
        assert model_calls["models"] == 4
        service.close()
        assert len(predictors) == 0

    def test_unsupported_cells_are_not_cached(self):
        with make_service(
            executor="inline", batch_window=0.0, tier_policy="balanced"
        ) as service:
            report = service.predict(PredictRequest("CG", "S", 4))
            assert report.tier == "simulation"
            assert len(service._predictors) == 0


class TestSingleFlight:
    def test_concurrent_identical_requests_simulate_once(self):
        calls = []
        lock = threading.Lock()

        def counting(task, store=None):
            with lock:
                calls.append(task)
            return execute_cell(task, store)

        with make_service(
            execute=counting, batch_window=0.05, max_workers=2
        ) as service:
            request = PredictRequest("BT", "S", 4)
            results = [None] * 8

            def worker(i):
                results[i] = service.predict(request, timeout=30)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(calls) == 1  # exactly one simulation for 8 requests
            assert all(r == results[0] for r in results)
            stats = service.stats()
            assert stats["coalesced"] == 7
            assert stats["misses"] == 1


class TestBackpressure:
    def test_saturated_service_rejects_with_retry_after(self):
        started = threading.Event()
        release = threading.Event()

        def blocking(task, store=None):
            started.set()
            assert release.wait(timeout=30)
            return execute_cell(task, store)

        service = make_service(
            execute=blocking,
            batch_window=0.0,
            max_workers=1,
            queue_depth=1,
        )
        try:
            first_result = []

            def first():
                first_result.append(
                    service.predict(PredictRequest("BT", "S", 4), timeout=30)
                )

            thread = threading.Thread(target=first)
            thread.start()
            assert started.wait(timeout=10)  # the pool is now saturated
            with pytest.raises(ServiceSaturatedError) as excinfo:
                service.predict(PredictRequest("BT", "S", 1))
            assert excinfo.value.retry_after > 0
            # Identical requests still coalesce instead of being rejected.
            coalesced_before = service.stats()["coalesced"]
            release.set()
            thread.join(timeout=30)
            assert first_result and first_result[0].actual > 0
            stats = service.stats()
            assert stats["rejected"] == 1
            assert stats["coalesced"] == coalesced_before
        finally:
            release.set()
            service.close()
