"""The sqlite memo store as the measurement database of campaigns.

``repro sweep --db`` and the prediction service keep their measurements in
a sqlite-backed :class:`~repro.parallel.memo.SimulationMemoStore`, written
through :func:`~repro.parallel.worker.recall_chain`: keyed by machine,
measurement protocol and chain, verified on read, last write wins.
"""

import threading
from contextlib import closing

from repro import faults
from repro.faults import FaultPlan, FaultSpec
from repro.instrument import ChainRunner, MeasurementConfig
from repro.instrument.runner import Measurement
from repro.npb import make_benchmark
from repro.parallel import SimulationMemoStore, measurement_key
from repro.parallel.worker import measure_chain, recall_chain
from repro.simmachine import ibm_sp_argonne

MACHINE = ibm_sp_argonne()
PROTOCOL = MeasurementConfig(repetitions=2)


def chain_key(kernels=("A",), nprocs=4, protocol=PROTOCOL):
    return measurement_key(MACHINE, protocol, "BT", "S", nprocs, kernels)


def payload(samples=(1.0, 1.1)):
    return {"samples": list(samples), "overhead": 0.01}


class TestStoreAndGet:
    def test_roundtrip(self):
        with closing(SimulationMemoStore(":memory:")) as db:
            db.put(chain_key(), payload())
            assert db.get(chain_key()) == payload()

    def test_missing_returns_none(self):
        with closing(SimulationMemoStore(":memory:")) as db:
            assert db.get(chain_key()) is None

    def test_replace_allowed(self):
        with closing(SimulationMemoStore(":memory:")) as db:
            db.put(chain_key(), payload(samples=(1.0,)))
            db.put(chain_key(), payload(samples=(2.0,)))
            assert db.get(chain_key())["samples"] == [2.0]
            assert len(db) == 1

    def test_key_includes_chain_order(self):
        with closing(SimulationMemoStore(":memory:")) as db:
            db.put(chain_key(("A", "B")), payload())
            db.put(chain_key(("B", "A")), payload())
            assert len(db) == 2

    def test_key_includes_the_measurement_protocol(self):
        """Samples of one protocol are never replayed for another."""
        with closing(SimulationMemoStore(":memory:")) as db:
            db.put(chain_key(), payload())
            for other in (
                MeasurementConfig(repetitions=6),
                MeasurementConfig(repetitions=2, seed=1),
            ):
                assert db.get(chain_key(protocol=other)) is None

    def test_persists_to_file(self, tmp_path):
        path = str(tmp_path / "perf.sqlite")
        with closing(SimulationMemoStore(path)) as db:
            db.put(chain_key(), payload())
        with closing(SimulationMemoStore(path)) as db2:
            assert len(db2) == 1
            assert db2.get(chain_key()) == payload()


class TestMemoization:
    def test_get_or_measure_runs_once(self):
        bench = make_benchmark("BT", "S", 4)
        runner = ChainRunner(bench, MACHINE, PROTOCOL)
        with closing(SimulationMemoStore(":memory:")) as db:
            first, first_reused = recall_chain(runner, ("ADD",), db)
            second, second_reused = recall_chain(runner, ("ADD",), db)
            assert (first_reused, second_reused) == (False, True)
            assert first.samples == second.samples
            assert first.overhead == second.overhead
            assert len(db) == 1


class TestPurgeRace:
    def test_rows_a_reader_purges_heal_on_the_next_put(
        self, tmp_path, monkeypatch
    ):
        """After each of the writer's puts a reader thread hits
        ``db.read.corrupt`` and purges the fresh row. Writers never re-read
        their own write, so the writer neither fails nor retries: its next
        lookup misses, and the next put heals the row for both handles."""
        path = tmp_path / "perf.sqlite"
        read_corrupt = FaultPlan(
            specs=(FaultSpec(site="db.read.corrupt", every_nth=1),)
        )
        purges = []

        with closing(SimulationMemoStore(path)) as db, closing(
            SimulationMemoStore(path)
        ) as other:

            def corrupt_read():
                with faults.active(read_corrupt):
                    purges.append(other.get(chain_key()))

            write = db._backend.write

            def write_then_read(name, body):
                write(name, body)
                if len(purges) < 2:
                    reader = threading.Thread(target=corrupt_read)
                    reader.start()
                    reader.join(timeout=30.0)
                    assert not reader.is_alive()

            monkeypatch.setattr(db._backend, "write", write_then_read)
            db.put(chain_key(), payload())
            assert db.get(chain_key()) is None
            db.put(chain_key(), payload())
            assert purges == [None, None]
            assert other.stats()["corruptions"] == 2
            db.put(chain_key(), payload())
            assert db.get(chain_key()) == payload()
            assert other.get(chain_key()) == payload()


class _StubRunner:
    """A fake ChainRunner that counts how many times it measures."""

    machine_config = MACHINE
    config = PROTOCOL

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
    """The serving layer hammers one store from a worker pool."""

    def _hammer(self, db, threads=8, keys=4, rounds=25):
        runner = _StubRunner()
        errors = []
        barrier = threading.Barrier(threads)

        def worker():
            try:
                barrier.wait(timeout=10)
                for i in range(rounds):
                    chain = (f"K{i % keys}",)
                    got = measure_chain(runner, chain, db)
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
        with closing(SimulationMemoStore(":memory:")) as db:
            self._hammer(db)
            assert len(db) == 4  # one row per distinct chain, no dupes
            assert db.stats()["corruptions"] == 0

    def test_threaded_get_or_measure_file_backed(self, tmp_path):
        path = str(tmp_path / "hammer.sqlite")
        with closing(SimulationMemoStore(path)) as db:
            self._hammer(db)
            assert len(db) == 4
        with closing(SimulationMemoStore(path)) as reopened:
            assert len(reopened) == 4

    def test_racing_store_if_absent_keeps_one_row(self):
        with closing(SimulationMemoStore(":memory:")) as db:
            barrier = threading.Barrier(8)

            def worker(value):
                barrier.wait(timeout=10)
                db.put(chain_key(), payload(samples=(value,)))

            threads = [
                threading.Thread(target=worker, args=(float(i),))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(db) == 1
            stored = db.get(chain_key())
            assert stored["samples"][0] in {float(i) for i in range(8)}


def test_a_changed_protocol_measures_afresh():
    """The store replays a chain only for the protocol that measured it."""
    bench = make_benchmark("BT", "S", 4)
    with closing(SimulationMemoStore(":memory:")) as db:
        recall_chain(ChainRunner(bench, MACHINE, PROTOCOL), ("ADD",), db)
        other = ChainRunner(bench, MACHINE, MeasurementConfig(repetitions=6))
        measured, reused = recall_chain(other, ("ADD",), db)
        assert not reused
        assert measured.samples == other.measure(("ADD",)).samples
        assert len(db) == 2
