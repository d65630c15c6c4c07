"""Structured tracing: where the seconds (and oracle calls) go.

:class:`Tracer` records *spans* — named, nested, timed regions such as one
recursive descent into a subtree or one triage round.  The in-memory record serializes to the Chrome Trace Event Format (the JSON
understood by ``chrome://tracing`` and https://ui.perfetto.dev), so a search
run can be inspected as a flame graph: localization, descent per AST path,
enumerator rule firing, adaptation, and triage rounds, each annotated with
the node size and the oracle calls it consumed.

Timing uses :func:`time.perf_counter_ns` (monotonic, nanosecond
resolution).  When the tracer is constructed with a
:class:`~repro.obs.metrics.MetricsRegistry`, every closed span also
observes ``span.<name>.seconds`` there, so per-phase duration histograms
exist even when event recording is off (``keep_events=False`` — the mode
the timing study uses).

The default tracer everywhere is :data:`NULL_TRACER`, whose ``span()``
returns a shared, stateless context manager: instrumenting a hot path costs
one method call and no allocation when tracing is off.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from .metrics import MetricsRegistry

#: Trace-event category; Perfetto groups by this.
_CATEGORY = "seminal"


class Span:
    """One open region; use via ``with tracer.span(...) as sp:``.

    ``sp.set(key, value)`` attaches arguments discovered mid-span (e.g. the
    oracle calls a descent consumed).  The span closes — and its event is
    emitted — even when the body raises (notably ``BudgetExceeded``, which
    the searcher uses for non-local exit).
    """

    __slots__ = ("_tracer", "name", "args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_ns = 0

    def set(self, key: str, value: Any) -> None:
        self.args[key] = value

    def __enter__(self) -> "Span":
        self._tracer._depth += 1
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.args["aborted"] = exc_type.__name__
        self._tracer._close(self, end_ns)
        return False


class Tracer:
    """Collects spans/events; serializes to Chrome/Perfetto trace JSON.

    Parameters
    ----------
    metrics:
        Optional registry; closed spans observe ``span.<name>.seconds``.
    keep_events:
        When False, no event objects are retained (duration histograms via
        ``metrics`` still work) — the timing study's low-overhead mode.
        Hot paths consult :attr:`enabled` before computing expensive span
        arguments (pretty-printed paths, subtree sizes), so metrics-only
        tracers skip that work too.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        keep_events: bool = True,
    ):
        self._metrics = metrics
        self._keep_events = keep_events
        #: Span *arguments* are only worth building when events are kept.
        self.enabled = keep_events
        self._events: List[Dict[str, Any]] = []
        self._epoch_ns = time.perf_counter_ns()
        self._depth = 0

    # -- recording -------------------------------------------------------

    def span(self, name: str, **args: Any) -> Span:
        """Open a nested timed region (context manager)."""
        return Span(self, name, args)

    def _close(self, span: Span, end_ns: int) -> None:
        self._depth -= 1
        duration_ns = end_ns - span._start_ns
        if self._metrics is not None:
            self._metrics.observe(f"span.{span.name}.seconds", duration_ns / 1e9)
        if self._keep_events:
            self._events.append(
                {
                    "name": span.name,
                    "cat": _CATEGORY,
                    "ph": "X",
                    "ts": (span._start_ns - self._epoch_ns) / 1000.0,
                    "dur": duration_ns / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": span.args,
                }
            )

    # -- reading / serialization ----------------------------------------

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Recorded events (one complete span ``ph=X`` per closed span)."""
        return self._events

    @property
    def open_spans(self) -> int:
        """Currently open (entered, not yet exited) spans — 0 when idle."""
        return self._depth

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Closed span events, optionally filtered by name."""
        return [
            e for e in self._events
            if e["ph"] == "X" and (name is None or e["name"] == name)
        ]

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The Chrome Trace Event Format object Perfetto loads directly."""
        return {
            "traceEvents": self._events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs (SEMINAL reproduction)"},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_chrome_trace(), default=str)

    def write(self, path) -> None:
        """Write the trace JSON to ``path`` (open in ui.perfetto.dev)."""
        with open(path, "w") as handle:
            handle.write(self.to_json())

    def reset(self) -> None:
        self._events = []
        self._epoch_ns = time.perf_counter_ns()
        self._depth = 0


class _NullSpan:
    """Shared, stateless stand-in for :class:`Span` — nothing to enter,
    nothing to time, nothing to free."""

    __slots__ = ()
    name = ""
    args: Dict[str, Any] = {}

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: every operation is a no-op.

    ``span()`` returns a process-wide singleton context manager, so the
    instrumented hot path allocates nothing when tracing is off.  Hot paths
    that would compute span arguments (pretty-printed AST paths, subtree
    sizes) check :attr:`enabled` first and skip the work entirely.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    @property
    def events(self) -> List[Dict[str, Any]]:
        return []

    @property
    def open_spans(self) -> int:
        return 0

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return []

    def reset(self) -> None:
        pass


#: Shared null instance — identity-comparable (``tracer is NULL_TRACER``).
NULL_TRACER = NullTracer()


def format_path(path) -> str:
    """Human/Perfetto-friendly rendering of a :data:`repro.tree.Path`.

    ``(("decls", 0), ("bindings", 0), "expr")`` -> ``decls[0].bindings[0].expr``.
    """
    parts: List[str] = []
    for step in path:
        if isinstance(step, tuple):
            parts.append(f"{step[0]}[{step[1]}]")
        else:
            parts.append(str(step))
    return ".".join(parts) if parts else "<root>"
