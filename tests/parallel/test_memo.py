"""SimulationMemoStore: round-trips, verification, self-healing.

Every test runs on both containers: the plain classes on the directory
backend, their ``...Sqlite`` subclasses on a sqlite file, and
``...InMemory`` on ``":memory:"``. Corruption is planted through the
backend's raw ``read``/``write``, so the same wrapper text is attacked in
either container.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import obs
from repro.instrument import MeasurementConfig
from repro.parallel import SimulationMemoStore, digest, measurement_key
from repro.simmachine import ibm_sp_argonne


def open_store(backend, tmp_path):
    if backend == "dir":
        root = tmp_path / "memo"
        root.mkdir()
        return SimulationMemoStore(root)
    if backend == "sqlite":
        return SimulationMemoStore(tmp_path / "memo.sqlite")
    return SimulationMemoStore(":memory:")


class OnDirectory:
    backend = "dir"

    @pytest.fixture
    def store(self, tmp_path):
        store = open_store(self.backend, tmp_path)
        yield store
        store.close()


def key_for(kernels=("solve_x",), nprocs=4):
    return measurement_key(
        ibm_sp_argonne(), MeasurementConfig(), "BT", "S", nprocs, kernels
    )


def raw(store, key):
    """The stored wrapper text for ``key``."""
    return store._backend.read(digest(key))


def overwrite(store, key, text):
    """Replace the stored wrapper text for ``key``."""
    store._backend.write(digest(key), text)


class TestRoundTrip(OnDirectory):
    def test_get_before_put_is_a_miss(self, store):
        assert store.get(key_for()) is None
        assert store.stats()["misses"] == 1

    def test_put_then_get(self, store):
        payload = {"samples": [0.25, 0.5], "overhead": 0.002}
        store.put(key_for(), payload)
        assert store.get(key_for()) == payload
        assert store.stats() == {
            "hits": 1, "misses": 0, "stores": 1, "corruptions": 0,
        }

    def test_distinct_keys_do_not_alias(self, store):
        store.put(key_for(("solve_x",)), {"overhead": 1.0})
        store.put(key_for(("solve_y",)), {"overhead": 2.0})
        assert store.get(key_for(("solve_x",)))["overhead"] == 1.0
        assert store.get(key_for(("solve_y",)))["overhead"] == 2.0
        assert len(store) == 2

    def test_floats_survive_bit_exactly(self, store):
        samples = [0.1 + 0.2, 1e-17, 123456.789012345]
        store.put(key_for(), {"samples": samples, "overhead": 0.0})
        assert store.get(key_for())["samples"] == samples

    def test_last_write_wins(self, store):
        store.put(key_for(), {"overhead": 1.0})
        store.put(key_for(), {"overhead": 2.0})
        assert store.get(key_for())["overhead"] == 2.0
        assert len(store) == 1

    def test_sharded_layout(self, store):
        """The wrapper is the same canonical JSON in either container; a
        directory shards its files by the digest's first two characters."""
        store.put(key_for(), {"overhead": 1.0})
        wrapper = json.loads(raw(store, key_for()))
        assert set(wrapper) == {"schema", "key", "checksum", "payload"}
        assert raw(store, key_for()) == json.dumps(
            wrapper, sort_keys=True, separators=(",", ":")
        )
        if self.backend == "dir":
            path = store._backend.path(digest(key_for()))
            assert path.exists()
            assert path.parent.name == path.name[:2]
            assert path.parent.parent == store.root


class TestSelfHeal(OnDirectory):
    def test_truncated_entry_purged_and_missed(self, store):
        store.put(key_for(), {"overhead": 1.0})
        overwrite(store, key_for(), raw(store, key_for())[:10])
        assert store.get(key_for()) is None
        assert raw(store, key_for()) is None
        assert store.stats()["corruptions"] == 1

    def test_bitflip_fails_checksum_and_purges(self, store):
        counter = obs.get_registry().counter("cache_corruption_detected")
        before = counter.value
        store.put(key_for(), {"overhead": 1.0})
        wrapper = json.loads(raw(store, key_for()))
        wrapper["payload"]["overhead"] = 999.0  # checksum now stale
        overwrite(store, key_for(), json.dumps(wrapper))
        assert store.get(key_for()) is None
        assert raw(store, key_for()) is None
        assert store.stats()["corruptions"] == 1
        assert counter.value == before + 1

    def test_schema_bump_invalidates(self, store):
        store.put(key_for(), {"overhead": 1.0})
        wrapper = json.loads(raw(store, key_for()))
        wrapper["schema"] = 999
        overwrite(store, key_for(), json.dumps(wrapper))
        assert store.get(key_for()) is None

    def test_wrong_key_in_file_rejected(self, store):
        store.put(key_for(("solve_x",)), {"overhead": 1.0})
        overwrite(store, key_for(("solve_y",)), raw(store, key_for(("solve_x",))))
        assert store.get(key_for(("solve_y",))) is None

    def test_heal_after_purge(self, store):
        store.put(key_for(), {"overhead": 1.0})
        overwrite(store, key_for(), "garbage")
        assert store.get(key_for()) is None
        store.put(key_for(), {"overhead": 1.0})
        assert store.get(key_for()) == {"overhead": 1.0}


class TestConcurrentWriters(OnDirectory):
    def test_racing_writers_of_one_key_keep_one_entry(self, store):
        barrier = threading.Barrier(8)
        errors = []

        def writer():
            try:
                barrier.wait(timeout=10)
                for _ in range(20):
                    store.put(key_for(), {"overhead": 1.0})
                    assert store.get(key_for()) == {"overhead": 1.0}
            except Exception as exc:  # pragma: no cover — failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(store) == 1
        # No lost counter update under contention.
        assert store.stats() == {
            "hits": 160, "misses": 0, "stores": 160, "corruptions": 0,
        }


class TestRoundTripSqlite(TestRoundTrip):
    backend = "sqlite"


class TestSelfHealSqlite(TestSelfHeal):
    backend = "sqlite"


class TestConcurrentWritersSqlite(TestConcurrentWriters):
    backend = "sqlite"


class TestRoundTripInMemory(TestRoundTrip):
    backend = ":memory:"


class TestConcurrentWritersInMemory(TestConcurrentWriters):
    backend = ":memory:"


class TestBackendChoice:
    def test_an_existing_directory_opens_files_else_sqlite(self, tmp_path):
        root = tmp_path / "memo"
        root.mkdir()
        files = SimulationMemoStore(root)
        files.put(key_for(), {"overhead": 1.0})
        assert list(root.glob("*/*.json"))
        path = tmp_path / "memo.sqlite"
        rows = SimulationMemoStore(path)
        rows.put(key_for(), {"overhead": 1.0})
        rows.close()
        assert path.is_file()
        reopened = SimulationMemoStore(path)
        assert reopened.get(key_for()) == {"overhead": 1.0}
        reopened.close()

    def test_one_integrity_scheme_in_both_containers(self, tmp_path):
        """A directory entry copied into sqlite verifies there unchanged."""
        files = open_store("dir", tmp_path)
        rows = open_store("sqlite", tmp_path)
        files.put(key_for(), {"samples": [0.5], "overhead": 0.1})
        overwrite(rows, key_for(), raw(files, key_for()))
        assert rows.get(key_for()) == {"samples": [0.5], "overhead": 0.1}
        rows.close()
