"""Process-safe, content-addressed store for simulation results.

The unit is one memoized simulation payload, named by the SHA-256 digest
of its :mod:`repro.parallel.keys` description. Each record is a JSON
wrapper holding the schema version, the full key (so a digest collision or
stale entry is detected by comparison, not trusted), a CRC-32 checksum of
the canonical payload JSON, and the payload. Two containers hold the same
wrapper text, and the caller picks one by what it passes:

* an existing directory: one file per record,
  ``<root>/<digest[:2]>/<digest>.json``, written through a unique temp
  file + :func:`os.replace`, which is atomic on POSIX;
* ``":memory:"`` or any other path: a sqlite table
  ``memo(digest TEXT PRIMARY KEY, body TEXT)``, one row per record.

Concurrent writers racing on one digest simply last-write-win with
identical bytes (REP001 determinism means equal keys produce equal
payloads). Checksum on write, verify on read, purge on corruption: any
unreadable, mismatched, or checksum-failing entry is deleted on sight,
counted as ``cache_corruption_detected``, and reported as a miss — the next
simulation heals it. The ``db.write.corrupt`` and ``db.read.corrupt`` fault
sites rot a payload on its way in or out behind an honest checksum, so the
corruption they plant is always detectable.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import zlib
from pathlib import Path
from typing import Any, Mapping, Optional

from repro import faults, obs
from repro.parallel.keys import SCHEMA_VERSION, canonical_json, digest

__all__ = ["SimulationMemoStore"]


def _payload_checksum(payload: Any) -> int:
    return zlib.crc32(canonical_json(payload).encode("utf-8"))


def _tamper(payload: Any) -> Any:
    """Deterministic payload corruption used by the db.* fault sites."""
    return [666333.0, payload]


class _Files:
    """One JSON file per record under a root directory."""

    def __init__(self, root: Path):
        self.root = root

    def path(self, name: str) -> Path:
        return self.root / name[:2] / f"{name}.json"

    def read(self, name: str) -> Optional[str]:
        try:
            return self.path(name).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None

    def write(self, name: str, body: str) -> None:
        path = self.path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(body, encoding="utf-8")
        os.replace(tmp, path)

    def delete(self, name: str) -> None:
        try:
            self.path(name).unlink()
        except OSError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def close(self) -> None:
        pass


class _Sqlite:
    """One row per record; one connection shared by threads behind a lock.

    An in-memory database exists per connection, so sharing one is what
    lets the threads of a process see each other's records; other
    processes open the same file with connections of their own, and
    sqlite serializes their writers.
    """

    def __init__(self, path: str):
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._lock = threading.Lock()
        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS memo "
                "(digest TEXT PRIMARY KEY, body TEXT NOT NULL)"
            )
            self._conn.commit()

    def read(self, name: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT body FROM memo WHERE digest=?", (name,)
            ).fetchone()
        return None if row is None else row[0]

    def write(self, name: str, body: str) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO memo (digest, body) VALUES (?, ?)",
                (name, body),
            )
            self._conn.commit()

    def delete(self, name: str) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM memo WHERE digest=?", (name,))
            self._conn.commit()

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM memo"
            ).fetchone()
        return count

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class SimulationMemoStore:
    """Memo store keyed by content digests, in a directory or in sqlite.

    ``root`` names the container: an existing directory opens the file
    backend, ``":memory:"`` or any other path the sqlite backend (created
    on first use). Thread-safe; cross-process safety comes from atomic
    ``os.replace`` writes or sqlite's own locking, plus verify-on-read.
    """

    def __init__(self, root: str | os.PathLike[str]):
        self.root = Path(root)
        self._backend = (
            _Files(self.root)
            if str(root) != ":memory:" and self.root.is_dir()
            else _Sqlite(str(root))
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._corruptions = 0

    # -- read -------------------------------------------------------------

    def get(self, key: Mapping[str, Any]) -> Optional[Any]:
        """The memoized payload for ``key``, or None on miss.

        Every failure mode — missing entry, unparsable JSON, schema or key
        mismatch, checksum failure — is a miss; corrupt entries are removed
        so the store self-heals on the next :meth:`put`.
        """
        name = digest(key)
        try:
            raw = self._backend.read(name)
        except OSError:
            self._purge(name, "unreadable")
            return None
        if raw is None:
            self._miss()
            return None
        try:
            wrapper = json.loads(raw)
            payload = wrapper["payload"]
            if faults.check("db.read.corrupt") is not None:
                payload = _tamper(payload)
            # Compare keys as canonical JSON: the stored key went through a
            # JSON round-trip (tuples became lists), the queried one didn't.
            ok = (
                wrapper["schema"] == SCHEMA_VERSION
                and canonical_json(wrapper["key"]) == canonical_json(dict(key))
                and wrapper["checksum"] == _payload_checksum(payload)
            )
        except (json.JSONDecodeError, KeyError, TypeError):
            self._purge(name, "unparsable")
            return None
        if not ok:
            self._purge(name, "verification failed")
            return None
        with self._lock:
            self._hits += 1
        obs.get_registry().counter("parallel_memo_hits").inc()
        return payload

    # -- write ------------------------------------------------------------

    def put(self, key: Mapping[str, Any], payload: Any) -> None:
        """Store ``payload`` under ``key`` atomically (last write wins)."""
        checksum = _payload_checksum(payload)
        # Write corruption: the payload rots on its way to storage while
        # the checksum, taken from the pristine data, stays honest, so the
        # next read detects it.
        if faults.check("db.write.corrupt") is not None:
            payload = _tamper(payload)
        wrapper = {
            "schema": SCHEMA_VERSION,
            "key": dict(key),
            "checksum": checksum,
            "payload": payload,
        }
        self._backend.write(
            digest(key),
            json.dumps(wrapper, sort_keys=True, separators=(",", ":")),
        )
        with self._lock:
            self._stores += 1
        obs.get_registry().counter("parallel_memo_stores").inc()

    # -- stats / lifecycle ------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "corruptions": self._corruptions,
            }

    def __len__(self) -> int:
        return len(self._backend)

    def close(self) -> None:
        """Release the sqlite connection (a no-op for a directory)."""
        self._backend.close()

    # -- internals --------------------------------------------------------

    def _miss(self) -> None:
        with self._lock:
            self._misses += 1
        obs.get_registry().counter("parallel_memo_misses").inc()

    def _purge(self, name: str, reason: str) -> None:
        self._backend.delete(name)
        with self._lock:
            self._corruptions += 1
            self._misses += 1
        registry = obs.get_registry()
        registry.counter("parallel_memo_corruption_detected").inc()
        registry.counter("cache_corruption_detected").inc()
        registry.counter("parallel_memo_misses").inc()
        obs.log(
            "memo.corruption_detected",
            store=str(self.root),
            digest=name,
            reason=reason,
        )
