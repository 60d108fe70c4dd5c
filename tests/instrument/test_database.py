"""Prophesy-like performance database."""

import threading

import pytest

from repro import faults
from repro.errors import MeasurementError
from repro.faults import FaultPlan, FaultSpec
from repro.instrument import ChainRunner, MeasurementConfig, PerformanceDatabase
from repro.instrument.runner import Measurement
from repro.npb import make_benchmark
from repro.simmachine import ibm_sp_argonne


def meas(kernels=("A",), samples=(1.0, 1.1), cls="S", nprocs=4):
    return Measurement(
        benchmark="BT",
        problem_class=cls,
        nprocs=nprocs,
        kernels=tuple(kernels),
        samples=tuple(samples),
        overhead=0.01,
    )


class TestStoreAndGet:
    def test_roundtrip(self):
        with PerformanceDatabase() as db:
            original = meas()
            db.store(original)
            loaded = db.get("BT", "S", 4, ("A",))
            assert loaded.samples == original.samples
            assert loaded.overhead == original.overhead
            assert loaded.mean == pytest.approx(original.mean)

    def test_missing_returns_none(self):
        with PerformanceDatabase() as db:
            assert db.get("BT", "S", 4, ("A",)) is None

    def test_duplicate_rejected(self):
        with PerformanceDatabase() as db:
            db.store(meas())
            with pytest.raises(MeasurementError, match="already stored"):
                db.store(meas())

    def test_replace_allowed(self):
        with PerformanceDatabase() as db:
            db.store(meas(samples=(1.0,)))
            db.store(meas(samples=(2.0,)), replace=True)
            assert db.get("BT", "S", 4, ("A",)).samples == (2.0,)

    def test_key_includes_chain_order(self):
        with PerformanceDatabase() as db:
            db.store(meas(kernels=("A", "B")))
            db.store(meas(kernels=("B", "A")))
            assert len(db) == 2

    def test_iteration_in_insert_order(self):
        with PerformanceDatabase() as db:
            db.store(meas(kernels=("A",)))
            db.store(meas(kernels=("B",)))
            assert [m.kernels for m in db] == [("A",), ("B",)]

    def test_persists_to_file(self, tmp_path):
        path = str(tmp_path / "perf.sqlite")
        with PerformanceDatabase(path) as db:
            db.store(meas())
        with PerformanceDatabase(path) as db2:
            assert len(db2) == 1
            assert db2.get("BT", "S", 4, ("A",)) is not None


class TestMemoization:
    def test_get_or_measure_runs_once(self):
        bench = make_benchmark("BT", "S", 4)
        runner = ChainRunner(
            bench, ibm_sp_argonne(), MeasurementConfig(repetitions=2)
        )
        with PerformanceDatabase() as db:
            first = db.get_or_measure(runner, ("ADD",))
            second = db.get_or_measure(runner, ("ADD",))
            assert first.samples == second.samples
            assert len(db) == 1


class TestStoreIfAbsent:
    def test_first_write_wins_and_everyone_sees_it(self):
        with PerformanceDatabase() as db:
            winner = db.store_if_absent(meas(samples=(1.0,)))
            loser = db.store_if_absent(meas(samples=(2.0,)))
            assert winner.samples == (1.0,)
            assert loser.samples == (1.0,)  # the stored record, not its own
            assert len(db) == 1

    def test_plain_store_still_rejects_duplicates(self):
        with PerformanceDatabase() as db:
            db.store_if_absent(meas())
            with pytest.raises(MeasurementError, match="already stored"):
                db.store(meas())

    def test_rows_purged_by_a_concurrent_reader_do_not_spend_the_retry(
        self, tmp_path, monkeypatch
    ):
        """Between each of the writer's inserts and its re-read, a reader
        thread hits ``db.read.corrupt`` and purges the fresh row. The
        writer's own reads never see corruption, so it must not give up."""
        path = str(tmp_path / "perf.sqlite")
        key = ("BT", "S", 4, ("A",))
        read_corrupt = FaultPlan(
            specs=(FaultSpec(site="db.read.corrupt", every_nth=1),)
        )
        purges = []

        with PerformanceDatabase(path) as db, PerformanceDatabase(path) as other:

            def corrupt_read():
                with faults.active(read_corrupt):
                    purges.append(other.get(*key))

            class Connection:
                """The writer's connection: a reader runs after each insert."""

                def __init__(self, conn):
                    self._conn = conn
                    self._sql = ""

                def execute(self, sql, *args):
                    self._sql = sql
                    return self._conn.execute(sql, *args)

                def commit(self):
                    self._conn.commit()
                    if self._sql.startswith("INSERT") and len(purges) < 2:
                        reader = threading.Thread(target=corrupt_read)
                        reader.start()
                        reader.join(timeout=30.0)
                        assert not reader.is_alive()

            connection = db._connection
            monkeypatch.setattr(db, "_connection", lambda: Connection(connection()))
            stored = db.store_if_absent(meas(samples=(1.0,)))
            assert purges == [None, None]
            assert stored.samples == (1.0,)
            assert other.get(*key) == stored


class _StubRunner:
    """A fake ChainRunner that counts how many times it measures."""

    class _Size:
        problem_class = "S"

    class _Bench:
        name = "BT"
        nprocs = 4
        size = None  # filled in __init__

    def __init__(self):
        self.benchmark = self._Bench()
        self.benchmark.size = self._Size()
        self.calls = 0
        self._lock = threading.Lock()

    def measure(self, kernels):
        with self._lock:
            self.calls += 1
        return Measurement(
            benchmark="BT",
            problem_class="S",
            nprocs=4,
            kernels=tuple(kernels),
            samples=(1.0, 1.1),
            overhead=0.0,
        )


class TestConcurrency:
    """The serving layer hammers one database from a worker pool."""

    def _hammer(self, db, threads=8, keys=4, rounds=25):
        runner = _StubRunner()
        errors = []
        barrier = threading.Barrier(threads)

        def worker():
            try:
                barrier.wait(timeout=10)
                for i in range(rounds):
                    chain = (f"K{i % keys}",)
                    got = db.get_or_measure(runner, chain)
                    assert got.kernels == chain
            except Exception as exc:  # pragma: no cover — failure path
                errors.append(exc)

        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors
        return runner

    def test_threaded_get_or_measure_in_memory(self):
        with PerformanceDatabase() as db:
            self._hammer(db)
            assert len(db) == 4  # one row per distinct chain, no dupes

    def test_threaded_get_or_measure_file_backed(self, tmp_path):
        path = str(tmp_path / "hammer.sqlite")
        with PerformanceDatabase(path) as db:
            self._hammer(db)
            assert len(db) == 4
        with PerformanceDatabase(path) as reopened:
            assert len(reopened) == 4

    def test_racing_store_if_absent_keeps_one_row(self):
        with PerformanceDatabase() as db:
            barrier = threading.Barrier(8)
            results = []

            def worker(value):
                barrier.wait(timeout=10)
                results.append(db.store_if_absent(meas(samples=(value,))))

            threads = [
                threading.Thread(target=worker, args=(float(i),))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(db) == 1
            stored = db.get("BT", "S", 4, ("A",))
            assert all(r.samples == stored.samples for r in results)
