"""Disk-backed verdict store: append-only, atomic, lock-free, degradable.

On-disk layout (one directory per store)::

    store/
      seg-<stamp>-<pid>-<n>.jsonl   published segments (immutable)
      .tmp-<pid>-<n>                in-flight segments (ignored by readers)
      hits/<segment-name>           last-hit markers (compaction recency)

Each segment is JSON Lines: a header line carrying the schema version and
the checker fingerprint the segment was written under, then one line per
verdict.  Writers build a segment in a ``.tmp-*`` file and *publish* it
with an atomic :func:`os.replace` — readers therefore only ever see whole
segments, which is what lets concurrent batch runs and batch workers
share one store directory without locks.  A reader that still encounters a torn
or corrupt line (a crashed writer's leftovers, disk corruption, a future
schema) skips that line or segment and keeps going: the store degrades to
a smaller cache, it never raises (the :mod:`repro.core.resilience`
contract).

Entries whose header fingerprint does not match the current
:func:`~repro.store.fingerprint.checker_fingerprint` are counted as
invalidated and not indexed; ``compact`` deletes such segments outright
and enforces a byte-size cap by evicting the least-recently-hit segments
first.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .fingerprint import checker_fingerprint, key_digest

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jsonl"
_TMP_PREFIX = ".tmp-"
_HITS_DIR = "hits"

#: Verdict kinds that may be persisted.  Crash/fallback outcomes are
#: checker *failures*, not answers — they must be recomputed every run.
STORABLE_KINDS = ("full", "reused", "invalidated")


@dataclass(frozen=True)
class StoredVerdict:
    """One persisted oracle answer."""

    ok: bool
    kind: str  # accounting kind the verdict was computed under
    err: Optional[str] = None  # rendered checker message, when failing
    err_kind: Optional[str] = None  # error class tag (display fidelity)
    segment: Optional[str] = None  # which segment served it (recency)


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
    hits: int = 0
    misses: int = 0
    writes: int = 0
    per_segment: List[Tuple[str, int, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "segments": self.segments,
            "entries": self.entries,
            "bytes": self.bytes,
            "invalidated": self.invalidated,
            "skipped_segments": self.skipped_segments,
            "skipped_lines": self.skipped_lines,
            "tmp_files": self.tmp_files,
            "per_segment": [
                {"segment": name, "entries": entries, "bytes": size}
                for name, entries, size in self.per_segment
            ],
        }


class VerdictStore:
    """A content-addressed verdict cache shared by many processes.

    Parameters
    ----------
    path:
        Store directory (created unless ``read_only``).
    read_only:
        Open for probing only: :meth:`put` and :meth:`flush` become
        no-ops (``repro cache stats`` inspects a store this way).
    flush_every:
        Publish a segment automatically after this many buffered writes
        (buffered entries are also visible to :meth:`get` immediately,
        so a single process never misses its own work).
    """

    def __init__(
        self,
        path,
        *,
        read_only: bool = False,
        flush_every: int = 512,
        clock=time.time,
        retry_policy=None,
        sleep=time.sleep,
    ):
        self.path = Path(path)
        self.read_only = read_only
        self.flush_every = max(1, int(flush_every))
        self._clock = clock
        # Deferred import: repro.core's package __init__ imports the
        # oracle, which imports this module for STORABLE_KINDS — a
        # module-level ``from repro.core.retry import ...`` here would
        # close that cycle into an ImportError.
        if retry_policy is None:
            from repro.core.retry import RetryPolicy

            retry_policy = RetryPolicy(
                attempts=3, backoff_seconds=0.005, max_backoff_seconds=0.05
            )
        self._retry_policy = retry_policy
        self._sleep = sleep
        #: Transient segment I/O failures absorbed by a retry.
        self.io_retries = 0
        #: Segment I/O operations that exhausted their retries and
        #: degraded (read -> segment skipped, write -> cache miss later).
        self.io_errors = 0
        self._fingerprint = checker_fingerprint()
        self._index: Dict[Tuple[str, str], StoredVerdict] = {}
        self._pending: List[dict] = []
        self._segment_seq = 0
        self._hit_segments: Dict[str, float] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidated = 0
        self.skipped_segments = 0
        self.skipped_lines = 0
        self._invalidated_unreported = 0
        if not read_only:
            self.path.mkdir(parents=True, exist_ok=True)
        self._load()

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

    def _load(self) -> None:
        for segment in self._segment_files():
            self._load_segment(segment)

    def _with_retry(self, fn):
        """Wrap one I/O seam in the store's retry policy (lazy import —
        see ``__init__`` for the package-cycle note)."""
        from repro.core.retry import with_retry

        def note(attempt, err):
            self.io_retries += 1

        return with_retry(fn, self._retry_policy, sleep=self._sleep, on_retry=note)

    def _read_segment_text(self, segment: Path) -> str:
        """The raw-read seam (overridden by fault injection; retried)."""
        with open(segment, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def _write_segment_file(self, tmp: Path, final: Path, body: str) -> None:
        """The write-and-publish seam (overridden by fault injection;
        retried as a unit so a republished rename never sees a partial
        temp file — the temp is rewritten from scratch each attempt)."""
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)

    def _load_segment(self, segment: Path) -> None:
        try:
            lines = self._with_retry(self._read_segment_text)(segment).splitlines()
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
        if version != 1:
            # A future schema: skip the whole segment, never misread it.
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
                address = (str(raw["p"]), str(raw["k"]))
                entry = StoredVerdict(
                    ok=bool(raw["ok"]),
                    kind=str(raw["kind"]),
                    err=raw.get("err"),
                    err_kind=raw.get("ek"),
                    segment=segment.name,
                )
            except Exception:
                # Torn tail of a crashed writer, or corruption: skip the
                # line, keep the rest of the segment.
                self.skipped_lines += 1
                continue
            self._index[address] = entry

    # ------------------------------------------------------------------
    # The probe/write interface
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def get(self, prefix_fp: str, structural_key: object) -> Optional[StoredVerdict]:
        """Probe for a verdict under ``(checker, prefix regime, program)``."""
        entry = self._index.get((prefix_fp, key_digest(structural_key)))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if entry.segment is not None:
            self._hit_segments[entry.segment] = self._clock()
        return entry

    def put(
        self,
        prefix_fp: str,
        structural_key: object,
        ok: bool,
        kind: str,
        err: Optional[str] = None,
        err_kind: Optional[str] = None,
    ) -> bool:
        """Record a verdict; returns True when it was actually enqueued.

        Crash/fallback kinds and read-only stores are silently refused —
        only clean answers are worth remembering.
        """
        if self.read_only or kind not in STORABLE_KINDS:
            return False
        digest = key_digest(structural_key)
        if (prefix_fp, digest) in self._index:
            return False  # already known: verdicts are deterministic
        self._index[(prefix_fp, digest)] = StoredVerdict(
            ok=ok, kind=kind, err=err, err_kind=err_kind
        )
        self._pending.append(
            {"p": prefix_fp, "k": digest, "ok": ok, "kind": kind, "err": err, "ek": err_kind}
        )
        self.writes += 1
        if len(self._pending) >= self.flush_every:
            self.flush()
        return True

    def take_invalidated(self) -> int:
        """Invalidated-entry count not yet surfaced to metrics (once)."""
        n = self._invalidated_unreported
        self._invalidated_unreported = 0
        return n

    def take_io_counters(self) -> Tuple[int, int]:
        """``(retries, errors)`` accumulated since the last call (the
        oracle drains these into ``oracle.store.retries`` /
        ``oracle.store.io_errors`` and a ``store_io_error`` event)."""
        counters = (self.io_retries, self.io_errors)
        self.io_retries = 0
        self.io_errors = 0
        return counters

    # ------------------------------------------------------------------
    # Publication (atomic) and lifecycle
    # ------------------------------------------------------------------

    def _next_names(self) -> Tuple[Path, Path]:
        self._segment_seq += 1
        pid = os.getpid()
        stamp = int(self._clock() * 1000)
        tmp = self.path / f"{_TMP_PREFIX}{pid}-{self._segment_seq}"
        final = (
            self.path
            / f"{_SEGMENT_PREFIX}{stamp:013d}-{pid}-{self._segment_seq}{_SEGMENT_SUFFIX}"
        )
        return tmp, final

    def flush(self) -> Optional[str]:
        """Publish buffered writes as one new segment (atomic rename).

        Returns the published segment name, or None when there was
        nothing to publish or publication failed (failure degrades: the
        verdicts stay served from memory for this process and are simply
        recomputed by the next one).
        """
        if self.read_only or not self._pending:
            return None
        tmp, final = self._next_names()
        header = json.dumps({"v": 1, "checker": self._fingerprint})
        body = "\n".join(
            [header] + [json.dumps(e, sort_keys=True) for e in self._pending]
        )
        try:
            self._with_retry(self._write_segment_file)(tmp, final, body)
        except OSError:
            self.io_errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        self._pending = []
        return final.name

    def _write_hit_markers(self) -> None:
        if self.read_only or not self._hit_segments:
            return
        hits_dir = self.path / _HITS_DIR
        try:
            hits_dir.mkdir(exist_ok=True)
        except OSError:
            return
        for segment, stamp in self._hit_segments.items():
            marker = hits_dir / segment
            tmp = hits_dir / f"{_TMP_PREFIX}{os.getpid()}-{segment}"
            try:
                tmp.write_text(f"{stamp}\n", encoding="utf-8")
                os.replace(tmp, marker)
            except OSError:
                continue
        self._hit_segments = {}

    def close(self) -> None:
        """Flush pending writes and persist hit-recency markers."""
        self.flush()
        self._write_hit_markers()

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
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
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
        """Delete every segment, marker, and temp file.  Returns the
        number of files removed."""
        removed = 0
        try:
            candidates = list(self.path.iterdir())
        except OSError:
            return 0
        for p in candidates:
            if p.name == _HITS_DIR and p.is_dir():
                for marker in list(p.iterdir()):
                    removed += self._unlink(marker)
                continue
            if p.name.startswith((_SEGMENT_PREFIX, _TMP_PREFIX)):
                removed += self._unlink(p)
        self._index = {}
        self._pending = []
        self._hit_segments = {}
        return removed

    @staticmethod
    def _unlink(p: Path) -> int:
        try:
            p.unlink()
            return 1
        except OSError:
            return 0

    def _last_hit(self, segment: Path) -> float:
        """Recency key for eviction: the hit marker's stamp when present,
        else the segment's own mtime (never hit since written)."""
        marker = self.path / _HITS_DIR / segment.name
        try:
            return float(marker.read_text().strip())
        except (OSError, ValueError):
            pass
        try:
            return segment.stat().st_mtime
        except OSError:
            return 0.0

    def compact(self, max_bytes: Optional[int] = None) -> dict:
        """Trim the store: drop leftover temp files, delete segments whose
        checker fingerprint is stale, then — when ``max_bytes`` is given —
        evict least-recently-hit segments until the cap is met."""
        removed_segments = 0
        removed_bytes = 0
        removed_tmp = 0
        try:
            for p in list(self.path.iterdir()):
                if p.name.startswith(_TMP_PREFIX):
                    removed_tmp += self._unlink(p)
        except OSError:
            pass
        live: List[Tuple[Path, int]] = []
        for segment in self._segment_files():
            try:
                size = segment.stat().st_size
                with open(segment, "r", encoding="utf-8", errors="replace") as fh:
                    first = fh.readline()
                header = json.loads(first)
                fresh = header.get("v") == 1 and header.get("checker") == self._fingerprint
            except Exception:
                fresh = False
                size = 0
            if fresh:
                live.append((segment, size))
            else:
                removed_segments += 1
                removed_bytes += size
                self._unlink(segment)
                self._unlink(self.path / _HITS_DIR / segment.name)
        if max_bytes is not None:
            total = sum(size for _, size in live)
            # Coldest first; name as a deterministic tie-break.
            live.sort(key=lambda item: (self._last_hit(item[0]), item[0].name))
            while live and total > max_bytes:
                segment, size = live.pop(0)
                total -= size
                removed_segments += 1
                removed_bytes += size
                self._unlink(segment)
                self._unlink(self.path / _HITS_DIR / segment.name)
        remaining = self._segment_files()
        remaining_bytes = 0
        for segment in remaining:
            try:
                remaining_bytes += segment.stat().st_size
            except OSError:
                continue
        return {
            "removed_segments": removed_segments,
            "removed_bytes": removed_bytes,
            "removed_tmp": removed_tmp,
            "remaining_segments": len(remaining),
            "remaining_bytes": remaining_bytes,
        }
