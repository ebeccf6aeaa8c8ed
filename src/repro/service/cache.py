"""The content-addressed result cache behind ``run_sweep(cache=...)``.

Keys are canonical content fingerprints (:mod:`repro.api.fingerprint`) of
everything that determines a task's results: the derived cell spec (seed
included), the executing backend's identity (class, engine,
configuration), the record mode, the task kind, and — for trial-batched
cells — the spawned seed set.
Nothing identity-derived (``id``/``hash``/``repr``) ever enters a key; the
CACHE002 lint rule enforces that repo-wide.

Two tiers:

* **Memory** holds every stored result verbatim, so within a process a
  cache hit returns the *identical* record objects the first run produced.
  Sharing them is safe because results are immutable: a caller cannot
  rebind a field of a returned result or edit its iteration log or a
  compacted result's ``summary_data``, so no edit reaches a later hit.
  Only a result's ``extras`` dict, its ``iteration_times`` and
  ``workers_heard`` lists and a ``training`` trace can still be edited in
  place.
* **Disk** (optional, a directory) persists results across processes —
  but only summary-form results whose payload survives a JSON round-trip
  unchanged. Full per-iteration logs and non-JSON-stable extras (e.g.
  float-keyed dicts, which JSON would silently stringify) stay
  memory-only rather than come back subtly different. Corrupted or
  unreadable disk entries count as misses and are recomputed, never
  trusted.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.api.fingerprint import (
    ClusterForms,
    backend_identity,
    canonical_text,
    canonical_value,
)
from repro.api.result import RunResult
from repro.exceptions import FingerprintError
from repro.scheduling.core import CellTask

__all__ = ["CacheStats", "ResultCache"]

#: Process-wide counter feeding writer-unique temp names (see
#: :meth:`ResultCache._tmp_path`): distinct writers — threads in one
#: process via the counter, separate processes via the pid — never share a
#: temp file, so a half-written entry can never be renamed over a key by a
#: concurrent store.
_TMP_COUNTER = itertools.count()


@dataclass
class CacheStats:
    """Running counters of one cache's traffic.

    Attributes
    ----------
    hits, misses:
        Lookup outcomes (a corrupted disk entry counts as a miss).
    stores:
        Successful stores (memory tier; the disk tier may decline).
    uncacheable:
        Tasks with no canonical fingerprint (e.g. custom runner
        backends) — computed normally, never keyed.
    disk_errors:
        Disk entries that failed to load: missing fields, invalid JSON,
        unreadable files. Each one was recomputed.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    uncacheable: int = 0
    disk_errors: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits as a fraction of lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


#: Fields of a disk-persisted result, in the order they are (de)serialised.
_RESULT_FIELDS = (
    "scheme_name",
    "backend",
    "iteration_times",
    "workers_heard",
    "total_seconds",
    "extras",
    "summary_data",
)


class ResultCache:
    """Memory + optional disk cache of task results, content-addressed.

    Parameters
    ----------
    directory:
        ``None`` keeps the cache in memory only. A path enables the disk
        tier: compact summary-form results persist there as one JSON file
        per key and survive across processes.
    """

    def __init__(self, directory: Optional[Union[str, os.PathLike]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, List[RunResult]] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #
    def task_keys(self, tasks: Sequence[CellTask]) -> List[Optional[str]]:
        """Every task's key in one pass: ``[task_key(t) for t in tasks]``.

        A plan's tasks share their cluster object, and its worker models
        are most of a key's bytes, so the pass canonicalises and encodes
        each distinct cluster once (matched by ``is``) and splices that
        text into every key's encoding; encoding is then about half of a
        key's cost. The memo lives only for this call: a model mutated
        between two calls is canonicalised afresh by the second.
        """
        clusters: ClusterForms = []
        return [self.task_key(task, clusters=clusters) for task in tasks]

    def task_key(
        self, task: CellTask, *, clusters: Optional[ClusterForms] = None
    ) -> Optional[str]:
        """The task's content fingerprint, or ``None`` if uncacheable.

        The key digests everything that determines the task's results:
        the derived cell spec (its seed included), the backend identity,
        the record mode, the task kind, and — for a trial-batched cell —
        the spawned seed set. ``None`` means some part has no canonical
        form — the scheduler then computes the task without caching it.
        ``clusters`` is a keying pass's memo (see :meth:`task_keys`); the
        key is the same with or without it.
        """
        try:
            fields = {
                "backend": backend_identity(task.backend),
                "kind": task.kind,
                "record": task.record,
                "seeds": (
                    None
                    if task.seeds is None
                    else canonical_value(list(task.seeds))
                ),
            }
            encoded = canonical_text(task.spec, fields, clusters)
        except FingerprintError:
            self.stats.uncacheable += 1
            return None
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def lookup(self, key: str) -> Optional[List[RunResult]]:
        """The cached results under ``key``, or ``None`` on a miss.

        Memory first; then the disk tier, whose entries are decoded
        defensively — anything malformed counts as a miss (and a
        ``disk_errors`` tick) so a corrupted file can only cost a
        recompute, never serve a wrong record.
        """
        cached = self._memory.get(key)
        if cached is not None:
            self.stats.hits += 1
            return list(cached)
        if self.directory is not None:
            loaded = self._load_disk(key)
            if loaded is not None:
                self._memory[key] = list(loaded)
                self.stats.hits += 1
                return loaded
        self.stats.misses += 1
        return None

    def store(self, key: str, results: List[RunResult]) -> None:
        """Store a task's results under ``key`` (memory always, disk if clean).

        The disk tier only accepts summary-form results whose payload
        survives a JSON round-trip unchanged; everything else stays
        memory-only so a future hit cannot differ from the original.
        """
        self._memory[key] = list(results)
        self.stats.stores += 1
        if self.directory is None:
            return
        encoded = [self._encode_result(result) for result in results]
        if any(entry is None for entry in encoded):
            return
        tmp_path = self._tmp_path(key)
        tmp_path.write_text(json.dumps({"results": encoded}), encoding="utf-8")
        tmp_path.replace(self._path(key))

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop the memory tier (disk entries, if any, remain)."""
        self._memory.clear()

    # ------------------------------------------------------------------ #
    # Disk tier
    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def _tmp_path(self, key: str) -> Path:
        """A writer-unique temp path for ``key``'s pending disk entry.

        Two caches sharing a directory (separate processes, or threads in
        one service) may store the same key concurrently; a fixed
        ``{key}.tmp`` name would let one writer atomically ``replace`` the
        *other* writer's half-written file into place. The pid + a
        process-wide counter make the temp name unique per write, so each
        ``replace`` publishes only the file its own writer finished.
        """
        assert self.directory is not None
        return self.directory / (
            f"{key}.{os.getpid()}-{next(_TMP_COUNTER)}.tmp"
        )

    @staticmethod
    def _encode_result(result: RunResult) -> Optional[dict]:
        """JSON payload of a result, or ``None`` if it cannot round-trip.

        Only summary-form results qualify: per-iteration logs and training
        traces carry objects JSON cannot represent. The round-trip equality
        check additionally rejects payloads JSON would silently distort
        (float dict keys become strings, tuples become lists), so a disk
        hit always reconstructs a record equal to the original.
        """
        if result.iterations or result.training is not None:
            return None
        payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
        if result.summary_data is not None:
            payload["summary_data"] = dict(result.summary_data)
        try:
            roundtrip = json.loads(json.dumps(payload))
        except (TypeError, ValueError):
            return None
        if roundtrip != payload:
            return None
        return payload

    def _load_disk(self, key: str) -> Optional[List[RunResult]]:
        """Decode a disk entry defensively; any defect is a counted miss."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            entries = payload["results"]
            results = []
            for entry in entries:
                results.append(
                    RunResult(**{name: entry[name] for name in _RESULT_FIELDS})
                )
            return results
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.disk_errors += 1
            return None
