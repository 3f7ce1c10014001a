"""Persistent, cross-process solver-query cache (the disk tier).

The in-memory :class:`~repro.solver.cache.SolverCache` dies with its
session.  This tier lets one session's proven results answer another's:
query results are keyed on *sets of canonical term digests*
(:func:`~repro.solver.terms.term_digest` over the injective
serialization) and appended to one shared JSONL file,
``solver-cache.jsonl``.  Its only user is the fleet service
(``FleetService(cache_dir=...)`` → ``ExecutionReconstructor(cache_dir=
...)``), as the layer benchmark's ``fleet`` workload runs it.

Appends happen under an advisory ``flock`` on a dedicated lock file,
one line per entry, so a crashed writer can only leave a torn *last*
line; readers skip it, and the next writer terminates it before
appending.  Corrupt lines are skipped too.  Deleting the file is always
safe: the store is a cache, not a database.

Lookups answer exact digest sets only.  A feasible entry's model comes
back only while the entry is among the newest :data:`MAX_MODEL_SCAN`
that carried one.  Callers re-verify every model and every value
enumeration against their live constraints before use, so even a
poisoned file costs a wasted check, never a wrong model.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import pathlib
import time
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple, Union

from .. import telemetry

try:
    import fcntl
except ImportError:  # non-POSIX: single-line appends are near-atomic
    fcntl = None

logger = logging.getLogger(__name__)

__all__ = ["DiskSolverCache", "FileLock"]

#: default file name inside a cache directory
CACHE_FILE = "solver-cache.jsonl"

#: feasible entries whose model an exact hit returns (the newest ones)
MAX_MODEL_SCAN = 256


class FileLock:
    """Advisory ``flock`` on a dedicated lock file.

    A shared lock guards reads of the store; every append takes it
    exclusive.  The time spent waiting for it is recorded in the
    ``solver.diskcache.lock_wait_seconds`` histogram, which ``repro
    stats`` shows as the "cache lock wait" overhead row.
    """

    def __init__(self, path: pathlib.Path):
        self.path = path

    @contextlib.contextmanager
    def acquire(self, exclusive: bool):
        with open(self.path, "a+") as fh:
            if fcntl is None:
                yield
                return
            waited = time.perf_counter()
            fcntl.flock(fh.fileno(),
                        fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            telemetry.histogram(
                "solver.diskcache.lock_wait_seconds").record(
                    time.perf_counter() - waited)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


class DiskSolverCache:
    """One append-only, advisory-locked, digest-keyed result file.

    ``path`` may be a directory (the store is ``solver-cache.jsonl``
    inside it) or a ``*.jsonl`` file path; the lock file sits next to
    the store as ``<stem>.lock``.  Instances are cheap; every
    reconstruction opens its own handle on the shared file.
    """

    def __init__(self, path: Union[str, pathlib.Path],
                 max_entries: int = 65536):
        path = pathlib.Path(path)
        if path.suffix != ".jsonl":
            path.mkdir(parents=True, exist_ok=True)
            path = path / CACHE_FILE
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self._lock = FileLock(path.with_suffix(".lock"))
        self.max_entries = max_entries
        #: digest set -> feasible?
        self._feasible: "OrderedDict[FrozenSet[str], bool]" = OrderedDict()
        #: digest set -> model, for the newest feasible entries with one
        self._models: "OrderedDict[FrozenSet[str], Dict[str, int]]" = \
            OrderedDict()
        #: (digest set, term digest, limit) -> (values, complete,
        #: reason, witnesses) — persisted ``feasible_values`` results;
        #: witnesses are re-verified by the loader, like models
        self._values: "OrderedDict[Tuple[FrozenSet[str], str, int], Tuple]" \
            = OrderedDict()
        #: bytes of the file already indexed
        self._offset = 0
        #: lines this handle appended past a torn tail: already indexed
        #: locally, so the eventual re-read of that region skips them
        #: instead of indexing them twice (see ``_absorb_new_lines``)
        self._pending: Set[str] = set()
        #: lookups answered by this handle, per kind
        self.hits_exact = 0
        self.hits_values = 0
        self.appended = 0
        self.refresh()

    @property
    def hits(self) -> int:
        """All lookups answered, verdicts and enumerations."""
        return self.hits_exact + self.hits_values

    # -- reading ---------------------------------------------------------

    def refresh(self) -> int:
        """Index entries appended since the last read (any process).

        Returns the number of new entries absorbed.  When nothing
        changed it costs one ``stat``.
        """
        try:
            size = os.stat(self.path).st_size
        except OSError:
            return 0
        if size <= self._offset:
            return 0
        with self._lock.acquire(exclusive=False):
            return self._refresh_locked()

    def _refresh_locked(self) -> int:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                return self._absorb_new_lines(fh)
        except OSError:
            return 0  # nothing written yet

    def _absorb_new_lines(self, fh) -> int:
        """Index complete lines between ``self._offset`` and EOF.

        The caller holds the lock.  Stops at a torn (newline-less) tail
        without advancing past it, so it is re-read once complete.
        Lines this handle itself appended past a torn tail are already
        indexed (``_pending``) and are skipped.
        """
        fh.seek(self._offset)
        absorbed = 0
        for line in fh:
            if not line.endswith("\n"):
                break  # torn tail: re-read it next refresh
            self._offset += len(line.encode("utf-8"))
            if line in self._pending:
                self._pending.discard(line)
                continue  # our own line, indexed at append time
            try:
                self._absorb(json.loads(line))
            except (ValueError, TypeError, AttributeError, KeyError):
                logger.warning("skipping corrupt cache line in %s",
                               self.path)
                continue
            absorbed += 1
        return absorbed

    def _absorb(self, entry: Dict) -> None:
        """Index one parsed line; raises on a malformed entry."""
        key = frozenset(entry["k"])
        if not key:
            raise ValueError("empty key")
        if "t" in entry:  # value-enumeration entry, not a verdict
            self._absorb_values(key, entry)
            return
        feasible = entry["f"]
        if not isinstance(feasible, bool):
            raise ValueError("verdict is not a boolean")
        model = entry.get("m")
        if feasible and model:
            model = {str(n): int(v) for n, v in model.items()}
            self._models.pop(key, None)
            self._models[key] = model
            while len(self._models) > MAX_MODEL_SCAN:
                self._models.popitem(last=False)
        self._feasible[key] = feasible
        self._feasible.move_to_end(key)
        while len(self._feasible) > self.max_entries:
            self._feasible.popitem(last=False)

    def _absorb_values(self, key: FrozenSet[str], entry: Dict) -> None:
        index = (key, str(entry["t"]), int(entry["l"]))
        values = [int(v) for v in entry.get("v", ())]
        witnesses = [{str(n): int(v) for n, v in w.items()}
                     for w in entry.get("w", ())]
        self._values[index] = (values, bool(entry.get("c")),
                               entry.get("r"), witnesses)
        self._values.move_to_end(index)
        while len(self._values) > self.max_entries:
            self._values.popitem(last=False)

    # -- writing ---------------------------------------------------------

    def _append(self, entry: Dict, already) -> None:
        """Append one entry under the exclusive lock and index it.

        ``already()`` re-checks, after absorbing other writers' lines,
        whether the entry became redundant while we waited for the
        lock; then nothing is written.

        If a torn tail sits between our offset and EOF (a crashed
        writer's fragment), the fragment is first terminated with a
        newline, so our line stays parseable on its own, and the line
        is remembered in ``_pending`` so the eventual re-read of that
        region does not index it twice.
        """
        line = json.dumps(entry, separators=(",", ":")) + "\n"
        try:
            with self._lock.acquire(exclusive=True):
                self._refresh_locked()
                if already():
                    return
                with open(self.path, "a+", encoding="utf-8") as fh:
                    end = fh.seek(0, os.SEEK_END)
                    if end != self._offset:
                        fh.write("\n" + line)
                        self._pending.add(line)
                    else:
                        fh.write(line)
                        self._offset = fh.tell()
        except OSError as exc:
            logger.warning("disk cache append failed (%s); continuing "
                           "without persistence", exc)
            return
        self.appended += 1
        self._absorb(entry)

    def store(self, digests: Iterable[str], feasible: bool,
              model: Optional[Dict[str, int]] = None) -> None:
        """Append one proven verdict (and index it locally).

        A key already stored is not written again.  Timeouts never
        reach this tier, so results for one key never disagree.
        """
        key = frozenset(digests)
        if not key or self._feasible.get(key) is not None:
            return  # empty query or already persisted: nothing to add
        entry = {"k": sorted(key), "f": bool(feasible)}
        if feasible and model:
            # str() on write, as the reader normalizes: a non-string
            # term name must not produce a differently-keyed local index
            entry["m"] = {str(name): int(value)
                          for name, value in model.items()}
        self._append(entry, lambda: self._feasible.get(key) is not None)

    def store_values(self, digests: Iterable[str], term_digest: str,
                     limit: int, values: Iterable[int], complete: bool,
                     reason: Optional[str],
                     witnesses: Iterable[Dict[str, int]]) -> None:
        """Append one ``feasible_values`` enumeration.

        Keyed like other entries (the constraint-set digests) plus the
        enumerated term's digest and the request limit.  Witness models
        — one per value — are stored alongside so loaders can re-verify
        each value against their live constraints; a file that lies
        about a value therefore costs a wasted check, never a wrong
        enumeration.
        """
        key = frozenset(digests)
        # normalized on write exactly as _absorb_values normalizes on
        # read, so the local index matches a replaying reader's
        index = (key, str(term_digest), int(limit))
        if not key or index in self._values:
            return
        entry = {"k": sorted(key), "t": str(term_digest),
                 "l": int(limit),
                 "v": [int(v) for v in values], "c": bool(complete),
                 "w": [{str(n): int(v) for n, v in w.items()}
                       for w in witnesses]}
        if reason is not None:
            entry["r"] = reason
        self._append(entry, lambda: index in self._values)

    # -- lookup ----------------------------------------------------------

    def lookup(self, digests: Iterable[str]):
        """Exact-key verdict lookup: ``(feasible, model_or_None)`` or
        ``None``.

        A model comes back only for a feasible key among the newest
        :data:`MAX_MODEL_SCAN` entries that carried one.
        """
        key = frozenset(digests)
        if not key:
            return None
        self.refresh()
        feasible = self._feasible.get(key)
        if feasible is None:
            return None
        self.hits_exact += 1
        model = self._models.get(key) if feasible else None
        return feasible, (dict(model) if model is not None else None)

    def lookup_values(self, digests: Iterable[str], term_digest: str,
                      limit: int):
        """Exact-key enumeration lookup.

        Returns ``(values, complete, reason, witnesses)`` or ``None``.
        The caller re-verifies every witness before trusting the result.
        """
        key = frozenset(digests)
        if not key:
            return None
        self.refresh()
        index = (key, str(term_digest), int(limit))
        found = self._values.get(index)
        if found is None:
            return None
        self._values.move_to_end(index)
        self.hits_values += 1
        values, complete, reason, witnesses = found
        return (list(values), complete, reason,
                [dict(w) for w in witnesses])

    # -- stats -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._feasible),
            "models": len(self._models),
            "value_entries": len(self._values),
            "hits": self.hits,
            "hits_exact": self.hits_exact,
            "hits_values": self.hits_values,
            "appended": self.appended,
        }

    def __len__(self) -> int:
        return len(self._feasible)

    def __repr__(self):
        return (f"DiskSolverCache({str(self.path)!r}, "
                f"{len(self._feasible)} entries)")
