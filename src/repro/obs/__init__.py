"""``repro.obs`` — the observability layer: tracing, metrics, profiling hooks.

The paper's efficiency claims (Section 3.2, Figures 5-7) are about oracle
-call counts and wall-clock tails; this subsystem makes both visible
*inside* a search instead of only at its end:

* :class:`Tracer` — structured span/event records in Chrome Trace Event
  Format (load the ``--trace`` output at https://ui.perfetto.dev) for every
  search phase: prefix localization, recursive descent, enumerator rule
  firing, adaptation, triage rounds.
* :class:`MetricsRegistry` — named counters and histograms (oracle calls by
  outcome, verdict-store hits/misses, prefix-reuse accounting —
  ``oracle.prefix.armed``/``.reused`` vs
  ``oracle.full_checks`` — changes generated vs. tested per rule, triage
  depth, suggestions ranked, span durations) rendered as a flat dict or a
  text table.
  The resilience layer (:mod:`repro.core.resilience`) counts through the
  same registry: ``oracle.crashes`` (isolated oracle failures),
  ``oracle.prefix.fallbacks`` (self-healing incremental retries),
  ``oracle.depth_rejected`` (depth-guard rejections), ``search.shed.*``
  (phases shed past the soft deadline) and ``search.degraded``.
* :class:`EventLog` — the flight recorder's JSONL lifecycle log
  (``--events``): one schema-versioned line per event (search started /
  finished, phase shed, oracle crash with traceback sample, deadline hit,
  degradation report, final suggestion ranks, and a closing ``metrics``
  event with the counters and per-span seconds).
* ``python -m repro report`` (:mod:`repro.obs.report`) — aggregates
  event logs into summary tables, regression-diffs them against a
  baseline log (``--diff``) and writes the aggregate back out as one
  (``--save``).  The event log is the one run record.
* Null objects (:data:`NULL_TRACER`, :data:`NULL_METRICS`,
  :data:`NULL_EVENTS`) — the defaults threaded through the hot paths, so
  instrumentation costs one no-op method call and zero allocation when
  telemetry is off.

Zero dependencies, pure stdlib.
"""

from .metrics import (  # noqa: F401
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from .tracer import (  # noqa: F401
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    format_path,
)
from .events import (  # noqa: F401
    EventLog,
    EventSchemaError,
    NULL_EVENTS,
    NullEventLog,
    SCHEMA_VERSION,
    degradation_as_dict,
    events_of,
    metrics_fields,
    read_events,
    suggestion_rows,
)
