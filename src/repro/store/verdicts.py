"""Disk-backed verdict store: append-only, atomic, lock-free, degradable.

On-disk layout (one directory per store)::

    store/
      seg-<stamp>-<pid>-<n>.jsonl   published segments (immutable)
      .tmp-<pid>-<n>                in-flight segments (ignored by readers)

The store holds verdicts and nothing else; a ``hits/`` directory left by
an older version (hit-recency markers) is ignored.

Each segment is JSON Lines: a header line carrying the schema version and
the checker fingerprint the segment was written under, then one line per
verdict, ``{"k", "ok", "err", "ek"}``: the program's key digest, the
answer, and the rendered checker message with its error tag when failing.
A verdict depends on the checker and the program alone, so nothing else
addresses it.  Writers build a segment in a ``.tmp-*`` file and *publish*
it with an atomic :func:`os.replace` — readers therefore only ever see whole
segments, which is what lets concurrent batch runs and batch workers
share one store directory without locks.  A reader that still encounters a torn
or corrupt line (a crashed writer's leftovers, disk corruption, another
schema version) skips that line or segment and keeps going: the store degrades to
a smaller cache, it never raises (the :mod:`repro.core.resilience`
contract).

Segment I/O fails once: an ``OSError`` from a segment read or publish
degrades at once, with no retry, and counts in ``io_errors``.  A failed
read skips that segment for the session (its verdicts are recomputed); a
failed publish keeps its verdicts pending and served from memory, and
the session's next publish tries again under fresh names.

Entries whose header fingerprint does not match the current
:func:`~repro.store.fingerprint.checker_fingerprint` are counted as
invalidated and not indexed; ``compact`` deletes such segments outright
and enforces a byte-size cap by evicting the oldest-published segments
first (segment names begin with their publish stamp).

One open store can serve many searches (a batch process keeps one
session): :meth:`VerdictStore.refresh` loads only the segments published
since the store last looked, and :meth:`VerdictStore.flush` publishes a
search's verdicts without closing anything.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .fingerprint import STORE_SCHEMA_VERSION, checker_fingerprint, key_digest

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jsonl"
_TMP_PREFIX = ".tmp-"

#: Numbers this process's segments, across every store it opens: two
#: stores on one path publishing in the same millisecond must not pick the
#: same segment name (one would replace the other, unseen by readers that
#: already read that name).
_segment_numbers = itertools.count(1)

#: Pending writes that trigger an automatic publish (again at every
#: further multiple while a publish keeps failing).
FLUSH_EVERY = 512


@dataclass(frozen=True)
class StoredVerdict:
    """One persisted oracle answer."""

    ok: bool
    err: Optional[str] = None  # rendered checker message, when failing
    err_kind: Optional[str] = None  # error class tag (display fidelity)


@dataclass
class StoreStats:
    """Shape returned by :meth:`VerdictStore.stats` (and ``cache stats``)."""

    path: str
    segments: int = 0
    entries: int = 0
    bytes: int = 0
    invalidated: int = 0
    skipped_segments: int = 0
    skipped_lines: int = 0
    tmp_files: int = 0
    per_segment: List[Tuple[str, int, int]] = field(default_factory=list)


class VerdictStore:
    """A content-addressed verdict cache shared by many processes.

    Parameters
    ----------
    path:
        Store directory (created unless ``read_only``).
    read_only:
        Open for probing only: :meth:`put` and :meth:`flush` become
        no-ops (``repro cache stats`` inspects a store this way).

    Buffered writes are published as a segment automatically once
    :data:`FLUSH_EVERY` of them are pending (they are also visible to
    :meth:`get` at once, so a single process never misses its own work).
    """

    def __init__(self, path, *, read_only: bool = False):
        self.path = Path(path)
        self.read_only = read_only
        #: Segment reads and publishes that failed and degraded (read ->
        #: segment skipped, publish -> verdicts kept pending in memory).
        self.io_errors = 0
        self._fingerprint = checker_fingerprint()
        self._index: Dict[str, StoredVerdict] = {}
        #: Segment names already read or published by this store: the
        #: ones :meth:`refresh` never reads (again).
        self._seen: set = set()
        self._pending: List[dict] = []
        self.invalidated = 0
        self.skipped_segments = 0
        self.skipped_lines = 0
        self._invalidated_unreported = 0
        if not read_only:
            self.path.mkdir(parents=True, exist_ok=True)
        self.refresh()

    # ------------------------------------------------------------------
    # Loading (degrade, never raise)
    # ------------------------------------------------------------------

    def _segment_files(self) -> List[Path]:
        try:
            names = sorted(
                p
                for p in self.path.iterdir()
                if p.name.startswith(_SEGMENT_PREFIX)
                and p.name.endswith(_SEGMENT_SUFFIX)
            )
        except OSError:
            return []
        return names

    def refresh(self) -> None:
        """Load the segments published since this store last looked.

        A segment is read at most once per store: published segments are
        immutable, so one this store has read (even one it had to skip)
        or published itself never needs reading again.  Segments from
        concurrent processes therefore become servable without re-reading
        the whole store.
        """
        for segment in self._segment_files():
            if segment.name not in self._seen:
                self._seen.add(segment.name)
                self._load_segment(segment)

    def _read_segment_text(self, segment: Path) -> str:
        """The raw-read seam (overridden by fault injection)."""
        with open(segment, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def _write_segment_file(self, tmp: Path, final: Path, body: str) -> None:
        """The write-and-publish seam (overridden by fault injection)."""
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)

    def _load_segment(self, segment: Path) -> None:
        try:
            lines = self._read_segment_text(segment).splitlines()
        except OSError:
            self.io_errors += 1
            self.skipped_segments += 1
            return
        if not lines:
            self.skipped_segments += 1
            return
        try:
            header = json.loads(lines[0])
            version = header["v"]
            seg_fp = header["checker"]
        except Exception:
            self.skipped_segments += 1
            return
        if version != STORE_SCHEMA_VERSION:
            # Another schema: skip the whole segment, never misread it.
            self.skipped_segments += 1
            return
        stale = seg_fp != self._fingerprint
        for line in lines[1:]:
            if not line.strip():
                continue
            if stale:
                # Checker (or stdlib, or schema) changed since this was
                # written: the verdict may no longer be true.
                self.invalidated += 1
                self._invalidated_unreported += 1
                continue
            try:
                raw = json.loads(line)
                digest = str(raw["k"])
                entry = StoredVerdict(
                    ok=bool(raw["ok"]),
                    err=raw.get("err"),
                    err_kind=raw.get("ek"),
                )
            except Exception:
                # Torn tail of a crashed writer, or corruption: skip the
                # line, keep the rest of the segment.
                self.skipped_lines += 1
                continue
            self._index[digest] = entry

    # ------------------------------------------------------------------
    # The probe/write interface
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def get(self, structural_key: object) -> Optional[StoredVerdict]:
        """Probe for the current checker's verdict on one program."""
        return self._index.get(key_digest(structural_key))

    def put(
        self,
        structural_key: object,
        ok: bool,
        err: Optional[str] = None,
        err_kind: Optional[str] = None,
    ) -> bool:
        """Record a verdict; returns True when it was actually enqueued
        (False for a read-only store or a program already known)."""
        if self.read_only:
            return False
        digest = key_digest(structural_key)
        if digest in self._index:
            return False  # already known: verdicts are deterministic
        self._index[digest] = StoredVerdict(ok=ok, err=err, err_kind=err_kind)
        self._pending.append({"k": digest, "ok": ok, "err": err, "ek": err_kind})
        # On multiples only: after a failed publish the pending verdicts
        # stay pending, and retrying on every later put would rewrite the
        # whole growing segment once per verdict.
        if len(self._pending) % FLUSH_EVERY == 0:
            self.flush()
        return True

    def take_invalidated(self) -> int:
        """Invalidated-entry count not yet surfaced to metrics (once)."""
        n = self._invalidated_unreported
        self._invalidated_unreported = 0
        return n

    def take_io_errors(self) -> int:
        """Failed segment reads and publishes since the last call (the
        oracle drains these into ``oracle.store.io_errors`` and a
        ``store_io_error`` event)."""
        n = self.io_errors
        self.io_errors = 0
        return n

    # ------------------------------------------------------------------
    # Publication (atomic) and lifecycle
    # ------------------------------------------------------------------

    def _next_names(self) -> Tuple[Path, Path]:
        n = next(_segment_numbers)
        pid = os.getpid()
        stamp = int(time.time() * 1000)
        tmp = self.path / f"{_TMP_PREFIX}{pid}-{n}"
        # Zero-padded so that names sort in publish order within one
        # millisecond of one process (``-2`` before ``-10``).
        final = (
            self.path / f"{_SEGMENT_PREFIX}{stamp:013d}-{pid}-{n:09d}{_SEGMENT_SUFFIX}"
        )
        return tmp, final

    def flush(self) -> Optional[str]:
        """Publish buffered writes as one new segment (atomic rename).

        Returns the published segment name, or None when there was
        nothing to publish or publication failed (failure degrades: the
        verdicts stay pending, served from memory, for the next publish
        to try again).
        """
        if self.read_only or not self._pending:
            return None
        tmp, final = self._next_names()
        header = json.dumps({"v": STORE_SCHEMA_VERSION, "checker": self._fingerprint})
        body = "\n".join(
            [header] + [json.dumps(e, sort_keys=True) for e in self._pending]
        )
        try:
            self._write_segment_file(tmp, final, body)
        except OSError:
            self.io_errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        self._seen.add(final.name)
        self._pending = []
        return final.name

    def close(self) -> None:
        """Publish what is left (see :meth:`flush`)."""
        self.flush()

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Maintenance (the ``repro cache`` subcommand)
    # ------------------------------------------------------------------

    def stats(self) -> StoreStats:
        stats = StoreStats(
            path=str(self.path),
            invalidated=self.invalidated,
            skipped_segments=self.skipped_segments,
            skipped_lines=self.skipped_lines,
        )
        for segment in self._segment_files():
            try:
                size = segment.stat().st_size
                with open(segment, "r", encoding="utf-8", errors="replace") as fh:
                    entries = max(0, sum(1 for line in fh if line.strip()) - 1)
            except OSError:
                continue
            stats.segments += 1
            stats.bytes += size
            stats.entries += entries
            stats.per_segment.append((segment.name, entries, size))
        try:
            stats.tmp_files = sum(
                1 for p in self.path.iterdir() if p.name.startswith(_TMP_PREFIX)
            )
        except OSError:
            pass
        return stats

    def clear(self) -> int:
        """Delete every segment and temp file.  Returns the number of
        files removed."""
        removed = 0
        try:
            candidates = list(self.path.iterdir())
        except OSError:
            return 0
        for p in candidates:
            if p.name.startswith((_SEGMENT_PREFIX, _TMP_PREFIX)):
                removed += self._unlink(p)
        self._index = {}
        self._pending = []
        return removed

    @staticmethod
    def _unlink(p: Path) -> int:
        try:
            p.unlink()
            return 1
        except OSError:
            return 0

    def compact(self, max_bytes: Optional[int] = None) -> dict:
        """Trim the store: drop leftover temp files, delete segments whose
        schema version or checker fingerprint is stale, then — when ``max_bytes`` is given —
        evict the oldest-published segments until the cap is met."""
        removed_tmp = 0
        try:
            for p in list(self.path.iterdir()):
                if p.name.startswith(_TMP_PREFIX):
                    removed_tmp += self._unlink(p)
        except OSError:
            pass
        live: List[Tuple[Path, int]] = []
        evicted: List[Tuple[Path, int]] = []
        for segment in self._segment_files():
            try:
                size = segment.stat().st_size
                with open(segment, "r", encoding="utf-8", errors="replace") as fh:
                    first = fh.readline()
                header = json.loads(first)
                fresh = (
                    header.get("v") == STORE_SCHEMA_VERSION
                    and header.get("checker") == self._fingerprint
                )
            except Exception:
                fresh = False
                size = 0
            (live if fresh else evicted).append((segment, size))
        if max_bytes is not None:
            total = sum(size for _, size in live)
            # Oldest first: _segment_files() sorts by the publish stamp.
            while live and total > max_bytes:
                total -= live[0][1]
                evicted.append(live.pop(0))
        for segment, _ in evicted:
            self._unlink(segment)
        remaining = self._segment_files()
        remaining_bytes = 0
        for segment in remaining:
            try:
                remaining_bytes += segment.stat().st_size
            except OSError:
                continue
        return {
            "removed_segments": len(evicted),
            "removed_bytes": sum(size for _, size in evicted),
            "removed_tmp": removed_tmp,
            "remaining_segments": len(remaining),
            "remaining_bytes": remaining_bytes,
        }
