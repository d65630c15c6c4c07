"""The flight recorder's event log: one JSON line per lifecycle event.

Where the tracer answers *when* (span timelines) and the metrics registry
answers *how much* (counters/histograms), the event log answers *what
happened*: a search started, a phase was shed, the oracle crashed (with a
traceback sample), a deadline fired, the final suggestions
came out ranked 1..n.  The record is append-only JSONL with a stable
schema version, so a run can be reconstructed — and regression-compared
via ``python -m repro report`` — long after the process is gone.

Schema (version :data:`SCHEMA_VERSION`): every line is a JSON object with

* ``v`` — the schema version (readers reject unknown versions);
* ``seq`` — a per-log monotonic sequence number starting at 0;
* ``t`` — seconds since the log was opened (monotonic clock, so event
  ordering survives wall-clock adjustments);
* ``type`` — the event name (``search_started``, ``phase_shed``,
  ``oracle_crash``, ``degraded``, ``degradation``, ``suggestions``,
  ``search_finished``, ``metrics``, ``store``, ``store_io_error``,
  ``profile``, ...);
* any event-specific fields (``store_io_error`` carries ``errors``, the
  verdict-store segment reads and publishes that failed and degraded;
  the closing ``metrics`` event carries ``counters`` and, when a tracer
  fed the registry, ``span_seconds`` — see :func:`metrics_fields`).

The first line is always a ``log_started`` header carrying the producing
pid and a wall-clock timestamp for human correlation.

As with the tracer and registry, a shared :data:`NULL_EVENTS` null object
is the default everywhere: instrumented code never branches on "is the
recorder on?".
"""

from __future__ import annotations

import io
import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Union

#: Bump on any backwards-incompatible change to the line format; readers
#: reject lines whose ``v`` they do not understand (no silent misparses).
SCHEMA_VERSION = 1


class EventSchemaError(ValueError):
    """An event line (or file) does not match a schema this reader knows."""


class EventLog:
    """Append-only JSONL lifecycle recorder.

    Parameters
    ----------
    sink:
        A path (opened for writing, closed by :meth:`close`) or any
        file-like object with ``write`` (left open — the caller owns it).
    """

    def __init__(self, sink: Union[str, os.PathLike, io.TextIOBase, Any]):
        if hasattr(sink, "write"):
            self._handle = sink
            self._owns_handle = False
        else:
            self._handle = open(sink, "w")
            self._owns_handle = True
        self._epoch = time.monotonic()
        self._seq = 0
        self._closed = False
        self.emit("log_started", pid=os.getpid(), wall_time=time.time())

    #: Instrumented code may consult this before building expensive fields.
    enabled = True

    def emit(self, type: str, **fields: Any) -> None:
        """Write one event line (no-op after :meth:`close`)."""
        if self._closed:
            return
        record: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "t": round(time.monotonic() - self._epoch, 6),
            "type": type,
        }
        record.update(fields)
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._seq += 1

    def close(self) -> None:
        if self._closed:
            return
        self.emit("log_closed", events=self._seq)
        self._closed = True
        try:
            self._handle.flush()
        except Exception:  # pragma: no cover - sink teardown best-effort
            pass
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class NullEventLog:
    """The do-nothing recorder instrumented code holds by default."""

    __slots__ = ()
    enabled = False

    def emit(self, type: str, **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullEventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared null instance — identity-comparable (``events is NULL_EVENTS``).
NULL_EVENTS = NullEventLog()


def read_events(source: Union[str, os.PathLike, Iterable[str]]) -> List[Dict[str, Any]]:
    """Parse an event-log file (or iterable of lines) back into dicts.

    Validates the schema version of every line and raises
    :class:`EventSchemaError` on an unknown version, a malformed line or
    a file that does not decode as text —
    a truncated or future-format log must fail loudly, not aggregate
    half a run silently.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source) as handle:
            try:
                lines = handle.readlines()
            except UnicodeDecodeError as err:
                raise EventSchemaError(f"not text ({err})") from None
    else:
        lines = list(source)
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise EventSchemaError(f"line {lineno}: not valid JSON ({err})")
        if not isinstance(record, dict) or "type" not in record:
            raise EventSchemaError(f"line {lineno}: not an event object")
        version = record.get("v")
        if version != SCHEMA_VERSION:
            raise EventSchemaError(
                f"line {lineno}: unknown event schema version {version!r} "
                f"(this reader understands {SCHEMA_VERSION})"
            )
        events.append(record)
    return events


def events_of(events: Iterable[Dict[str, Any]], type: str) -> List[Dict[str, Any]]:
    """Filter a parsed event list by ``type``."""
    return [e for e in events if e.get("type") == type]


def metrics_fields(counters: Dict[str, int], span_seconds: Dict[str, float]) -> Dict[str, Any]:
    """The fields of a log's closing ``metrics`` event.

    ``counters`` is the flat counter dict ``repro report --diff`` compares;
    ``span_seconds`` (per-span second totals, present only when a tracer
    fed the registry) is what ``repro report``'s time-share table reads.
    """
    fields: Dict[str, Any] = {"counters": dict(counters)}
    if span_seconds:
        fields["span_seconds"] = {
            name: round(seconds, 6) for name, seconds in sorted(span_seconds.items())
        }
    return fields


def degradation_as_dict(report) -> Dict[str, Any]:
    """A :class:`~repro.core.resilience.DegradationReport` as the fields of
    a ``degradation`` event."""
    return {
        "reasons": list(report.reasons),
        "oracle_crashes": report.oracle_crashes,
        "prefix_fallbacks": report.prefix_fallbacks,
        "depth_rejections": report.depth_rejections,
        "phases_shed": dict(report.phases_shed),
        "elapsed_seconds": report.elapsed_seconds,
        "deadline_seconds": report.deadline_seconds,
        "budget": report.budget,
        "crash_samples": list(report.crash_samples),
    }


def suggestion_rows(suggestions) -> List[Dict[str, Any]]:
    """Rank/kind/rule rows of a ``suggestions`` event (rank is 1-based)."""
    return [
        {
            "rank": rank,
            "kind": suggestion.kind,
            "rule": suggestion.change.rule or "",
        }
        for rank, suggestion in enumerate(suggestions, start=1)
    ]
