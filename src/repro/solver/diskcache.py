"""Persistent, cross-process solver-query cache (the disk tier).

The in-memory :class:`~repro.solver.cache.SolverCache` dies with its
session; every batch worker and successive
``repro reproduce``/``repro bench`` invocation re-solves the same
queries from scratch.  This tier fixes that: query results are keyed on
*sets of canonical term digests* (:func:`~repro.solver.terms.term_digest`
over the injective serialization) and appended to a shared store, so
any process pointed at the same ``--cache-dir`` warm-starts from every
previous process's work.

Storage is a **segmented JSONL store** (:mod:`repro.solver.segments`):
an active append segment plus sealed immutable ones named in a tiny
manifest.  Appends happen under an advisory ``flock`` on a dedicated
lock file (single-line writes, so even lockless platforms only risk a
torn *last* line, which the reader skips); when the active segment
crosses ``seal_bytes`` it is sealed by one atomic manifest swap and the
sealed segments are compacted in place — duplicates, tombstoned
entries, and subsumed infeasible sets dropped — without any concurrent
reader or writer observing a torn state.  ``repro cache
stats|compact|merge|verify`` drive the same machinery from the command
line, and :func:`~repro.solver.segments.merge_caches` unions two
machines' stores.  There is no trust requirement; the store is a
cache, not a database, and deleting it is always safe.

Lookup answers three ways, strongest first:

1. **Exact** — the digest set was stored verbatim.
2. **Subset-infeasible** — some stored *infeasible* set is a subset of
   the query: every model of the query would satisfy the subset too, so
   the query is infeasible.
3. **Superset-model** — some stored *feasible* superset has a recorded
   model: that model satisfies every query constraint, so the query is
   feasible (and the model is returned for warm starts / direct reuse).

All three are sound by construction given the injective serialization;
callers that re-use a superset model for ``solve`` re-verify it against
the live constraints anyway, so even a corrupted file cannot produce a
wrong *model* — only a wrong feasibility verdict, which the poisoned
cache tests pin as impossible for well-formed files.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
from collections import OrderedDict, deque
from typing import (Deque, Dict, FrozenSet, Iterable, Optional, Set,
                    Tuple, Union)

from . import segments
from .segments import (AUTO_COMPACT_MIN_SEGMENTS, DEFAULT_SEAL_BYTES,
                       FileLock, SegmentLayout)

logger = logging.getLogger(__name__)

__all__ = ["DiskSolverCache"]

#: default file name inside a ``--cache-dir``
CACHE_FILE = "solver-cache.jsonl"

#: bounded scan windows for the subsumption passes (newest entries win;
#: exact lookups are unbounded dict hits and need no window)
MAX_INFEASIBLE_SCAN = 1024
MAX_MODEL_SCAN = 256

#: sentinel forcing the first refresh through the manifest path
_UNSET = object()


class DiskSolverCache:
    """Segmented, advisory-locked, digest-keyed solver-result store.

    ``path`` may be a directory (the conventional ``--cache-dir``; the
    store lives inside it) or a ``*.jsonl`` file path.  Instances are
    cheap; every worker opens its own against the shared store.

    ``seal_bytes`` caps the active append segment: crossing it seals
    the segment (one atomic manifest swap) and, with ``auto_compact``,
    compacts the sealed segments in place.  Concurrent handles detect
    the manifest generation change on their next refresh and rebuild —
    answering every previously-answerable query identically, because
    compaction only drops redundant entries.
    """

    def __init__(self, path: Union[str, pathlib.Path],
                 max_entries: int = 65536,
                 seal_bytes: int = DEFAULT_SEAL_BYTES,
                 auto_compact: bool = True):
        path = pathlib.Path(path)
        if path.suffix != ".jsonl":
            path.mkdir(parents=True, exist_ok=True)
            path = path / CACHE_FILE
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
        self._layout = SegmentLayout(path)
        self._lock = FileLock(self._layout.lock_path)
        #: the current *active* segment (kept up to date across seals;
        #: starts as the legacy single-file path)
        self.path = path
        self.max_entries = max_entries
        self.seal_bytes = seal_bytes
        self.auto_compact = auto_compact
        #: digest set -> feasible? (exact tier)
        self._feasible: "OrderedDict[FrozenSet[str], bool]" = OrderedDict()
        #: infeasible digest sets, newest last (subset-subsumption tier)
        self._infeasible_sets: Deque[FrozenSet[str]] = deque(
            maxlen=MAX_INFEASIBLE_SCAN)
        #: (feasible digest set, model) pairs (superset-model tier)
        self._models: Deque[Tuple[FrozenSet[str], Dict[str, int]]] = deque(
            maxlen=MAX_MODEL_SCAN)
        #: (digest set, term digest, limit) -> (values, complete,
        #: reason, witnesses) — persisted ``feasible_values`` results;
        #: witnesses are re-verified by the loader, like models
        self._values: "OrderedDict[Tuple[FrozenSet[str], str, int], Tuple]" \
            = OrderedDict()
        self._offset = 0
        #: lines this handle appended past a torn tail: already indexed
        #: locally, so the eventual re-read of that region skips them
        #: instead of double-indexing (see ``_absorb_new_lines``)
        self._pending: Set[str] = set()
        self._generation = -1
        self._manifest_sig = _UNSET
        #: lookups answered by this handle, split per answer tier
        self.hits_exact = 0
        self.hits_subsume = 0
        self.hits_values = 0
        self.appended = 0
        self.refresh()

    @property
    def hits(self) -> int:
        """All lookups answered (every tier) — the historical counter."""
        return self.hits_exact + self.hits_subsume + self.hits_values

    # -- file plumbing ---------------------------------------------------

    def refresh(self) -> int:
        """Index entries appended since the last read (any process).

        Returns the number of new entries absorbed.  Cheap when nothing
        changed: one ``stat`` of the manifest (its inode changes on
        every seal/compaction) and one of the active segment.
        """
        if self._layout.manifest_stat() == self._manifest_sig:
            try:
                size = os.stat(self.path).st_size
            except OSError:
                return 0
            if size <= self._offset:
                return 0
        with self._lock.acquire(exclusive=False):
            return self._refresh_locked()

    def _refresh_locked(self) -> int:
        """Absorb manifest changes and new active lines (lock held)."""
        absorbed = 0
        sig = self._layout.manifest_stat()
        if sig != self._manifest_sig:
            manifest = self._layout.load_manifest()
            if manifest.generation != self._generation:
                absorbed += self._rebuild(manifest)
            self._manifest_sig = sig
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                absorbed += self._absorb_new_lines(fh)
        except OSError:
            pass  # freshly-sealed store: active segment not created yet
        return absorbed

    def _rebuild(self, manifest) -> int:
        """Re-index from scratch after a seal/compaction/merge install.

        The sealed segments changed identity, so incremental offsets
        are meaningless; the indexes are cleared and every sealed
        segment is replayed in manifest order, then the (new) active
        segment picks up incremental absorption at offset zero.  Hit
        counters survive — only the view of the file changes.
        """
        self._feasible.clear()
        self._infeasible_sets.clear()
        self._models.clear()
        self._values.clear()
        self._pending.clear()
        self._offset = 0
        self._generation = manifest.generation
        self.path = self._layout.file(manifest.active
                                      or self._layout.default_active)
        absorbed = 0
        for name in manifest.segments:
            for line in segments.iter_lines(self._layout.file(name)):
                entry = segments.parse_entry(line)
                if entry is None:
                    logger.warning("skipping corrupt cache line in %s",
                                   name)
                    continue
                self._absorb(entry)
                absorbed += 1
        return absorbed

    def _absorb_new_lines(self, fh) -> int:
        """Index complete lines between ``self._offset`` and EOF.

        The caller holds the lock.  Stops at a torn (newline-less) tail
        without advancing past it, so it is re-read once complete.
        Lines this handle itself appended past a torn tail are already
        indexed (``_pending``) and are skipped, not double-absorbed —
        the old behavior duplicated them into the bounded
        infeasible/model scan windows and double-counted stats.
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
                entry = json.loads(line)
            except json.JSONDecodeError:
                logger.warning("skipping corrupt cache line in %s",
                               self.path)
                continue
            self._absorb(entry)
            absorbed += 1
        return absorbed

    def _absorb(self, entry: Dict) -> None:
        key = frozenset(entry.get("k", ()))
        if not key:
            return
        if entry.get("x"):  # tombstone: erase every trace of the key
            self._feasible.pop(key, None)
            if key in self._infeasible_sets:
                self._infeasible_sets = deque(
                    (stored for stored in self._infeasible_sets
                     if stored != key), maxlen=MAX_INFEASIBLE_SCAN)
            self._models = deque(
                ((stored, model) for stored, model in self._models
                 if stored != key), maxlen=MAX_MODEL_SCAN)
            for index in [i for i in self._values if i[0] == key]:
                del self._values[index]
            return
        if "t" in entry:  # value-enumeration entry, not a verdict
            self._absorb_values(key, entry)
            return
        feasible = bool(entry.get("f"))
        self._feasible[key] = feasible
        self._feasible.move_to_end(key)
        while len(self._feasible) > self.max_entries:
            self._feasible.popitem(last=False)
        if not feasible and key not in self._infeasible_sets:
            # replayed duplicates (merge unions, pre-compaction files)
            # must not burn bounded scan-window slots twice
            self._infeasible_sets.append(key)
        model = entry.get("m")
        if feasible and model:
            pair = (key, {str(n): int(v) for n, v in model.items()})
            if pair not in self._models:
                self._models.append(pair)

    def _absorb_values(self, key: FrozenSet[str], entry: Dict) -> None:
        try:
            index = (key, str(entry["t"]), int(entry["l"]))
            values = [int(v) for v in entry.get("v", ())]
            witnesses = [{str(n): int(v) for n, v in w.items()}
                         for w in entry.get("w", ())]
        except (KeyError, TypeError, ValueError):
            logger.warning("skipping malformed value entry in %s", self.path)
            return
        self._values[index] = (values, bool(entry.get("c")),
                               entry.get("r"), witnesses)
        self._values.move_to_end(index)
        while len(self._values) > self.max_entries:
            self._values.popitem(last=False)

    # -- writing ---------------------------------------------------------

    def _append(self, line: str, already) -> bool:
        """Append one line under the exclusive lock; maybe seal/compact.

        ``already()`` re-checks (after absorbing other writers' lines)
        whether the entry became redundant while we waited for the
        lock.  Returns True when the line was written.

        If a torn tail sits between our offset and EOF — a crashed
        writer's fragment — the fragment is first terminated with a
        newline so our line stays parseable on its own (previously the
        two concatenated into one corrupt line and the entry was lost
        to every other process), and the line is remembered in
        ``_pending`` so the eventual re-read of that region does not
        double-index it.
        """
        wrote = False
        size = 0
        try:
            with self._lock.acquire(exclusive=True):
                self._refresh_locked()
                if already():
                    return False
                with open(self.path, "a+", encoding="utf-8") as fh:
                    end = fh.seek(0, os.SEEK_END)
                    if end != self._offset:
                        fh.write("\n" + line)
                        self._pending.add(line)
                    else:
                        fh.write(line)
                    fh.flush()
                    if end == self._offset:
                        self._offset = fh.tell()
                    size = fh.tell()
                wrote = True
                if size >= self.seal_bytes:
                    self._seal_locked()
        except OSError as exc:
            logger.warning("disk cache append failed (%s); continuing "
                           "without persistence", exc)
            return False
        if wrote:
            self.appended += 1
        return wrote

    def _seal_locked(self) -> None:
        """Seal the active segment; auto-compact (exclusive lock held).

        Everything in the just-sealed segment is already in this
        handle's index, so no rebuild is needed here — the handle
        adopts the new manifest generation and starts the fresh active
        segment at offset zero.  Other handles rebuild on their next
        refresh when they see the generation change.
        """
        manifest = self._layout.load_manifest()
        manifest = segments.seal_locked(self._layout, manifest)
        if (self.auto_compact
                and len(manifest.segments) >= AUTO_COMPACT_MIN_SEGMENTS):
            manifest, stats = segments.compact_locked(self._layout,
                                                      manifest)
            logger.info("auto-compacted %s: %d -> %d entries",
                        self._layout.directory, stats.entries_in,
                        stats.entries_out)
        self._generation = manifest.generation
        self.path = self._layout.file(manifest.active)
        self._offset = 0
        self._pending.clear()
        self._manifest_sig = self._layout.manifest_stat()

    def store(self, digests: Iterable[str], feasible: bool,
              model: Optional[Dict[str, int]] = None) -> None:
        """Append one result (and index it locally).

        Duplicate appends are harmless — later lines win on replay, and
        results for one key never disagree (only proven verdicts are
        stored; timeouts never reach this tier).
        """
        key = frozenset(digests)
        if not key or self._feasible.get(key) is not None:
            return  # empty query or already persisted: nothing to add
        entry = {"k": sorted(key), "f": bool(feasible)}
        if feasible and model:
            # str() on write: the readers (_absorb here, JSON keys on
            # replay) only ever see string names, so a non-string term
            # name must not produce a differently-keyed local index
            entry["m"] = {str(name): int(value)
                          for name, value in model.items()}
        line = json.dumps(entry, separators=(",", ":")) + "\n"
        if self._append(
                line, lambda: self._feasible.get(key) is not None):
            self._absorb(entry)

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
        # normalize on write exactly as _absorb normalizes on read
        # (str() on the term digest and every witness-model key): a
        # non-string term name must round-trip to the same index and
        # witness mapping a replaying reader builds, or the local index
        # diverges from the persisted one
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
        line = json.dumps(entry, separators=(",", ":")) + "\n"
        if self._append(line, lambda: index in self._values):
            self._absorb(entry)

    def tombstone(self, digests: Iterable[str]) -> None:
        """Erase a key from the store (applied on replay, compacted
        away).

        The tombstone line makes every earlier entry for the key
        invisible to readers; the next compaction physically drops
        both.  Used to retract entries that should no longer be served
        (e.g. operator intervention via future tooling); soundness
        never requires it.
        """
        key = frozenset(digests)
        if not key:
            return
        entry = {"k": sorted(key), "x": True}
        line = json.dumps(entry, separators=(",", ":")) + "\n"

        def nothing_to_erase():
            return (self._feasible.get(key) is None
                    and not any(i[0] == key for i in self._values))

        if self._append(line, nothing_to_erase):
            self._absorb(entry)

    # -- lookup ----------------------------------------------------------

    def lookup(self, digests: Iterable[str]):
        """Answer a feasibility query from the store, strongest tier
        first.

        Returns ``(feasible, model_or_None, kind)`` where ``kind`` is
        ``"exact"`` or ``"subsume"`` — or ``None`` on a miss.  The model
        is only ever returned for *feasible* answers.
        """
        key = frozenset(digests)
        if not key:
            return None
        self.refresh()
        exact = self._feasible.get(key)
        if exact is not None:
            self.hits_exact += 1
            model = None
            if exact:
                for stored_key, stored_model in reversed(self._models):
                    if stored_key == key:
                        model = dict(stored_model)
                        break
            return exact, model, "exact"
        for infeasible in reversed(self._infeasible_sets):
            if infeasible <= key:
                self.hits_subsume += 1
                return False, None, "subsume"
        for stored_key, stored_model in reversed(self._models):
            if stored_key >= key:
                self.hits_subsume += 1
                return True, dict(stored_model), "subsume"
        return None

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

    # -- maintenance -----------------------------------------------------

    def compact(self) -> Dict:
        """Seal + compact this store now (the ``repro cache compact``
        path); the handle adopts the result immediately."""
        with self._lock.acquire(exclusive=True):
            manifest = self._layout.load_manifest()
            manifest = segments.seal_locked(self._layout, manifest)
            manifest, stats = segments.compact_locked(self._layout,
                                                      manifest)
            self._refresh_locked()
        return stats.to_dict()

    # -- stats -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._feasible),
            "infeasible_sets": len(self._infeasible_sets),
            "models": len(self._models),
            "value_entries": len(self._values),
            "hits": self.hits,
            "hits_exact": self.hits_exact,
            "hits_subsume": self.hits_subsume,
            "hits_values": self.hits_values,
            "appended": self.appended,
        }

    def __len__(self) -> int:
        return len(self._feasible)

    def __repr__(self):
        return (f"DiskSolverCache({str(self.path)!r}, "
                f"{len(self._feasible)} entries)")
