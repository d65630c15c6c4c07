"""Exporters: Prometheus text exposition and the RunReport JSON document.

Two ways a run's telemetry leaves the process:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# TYPE``/``# HELP`` headers, counters as gauges-of-monotonic-counts,
  histograms as cumulative ``_bucket{le=...}``/``_sum``/``_count`` series
  over the fixed :data:`~repro.obs.metrics.DEFAULT_BUCKETS` boundaries).
  Deterministic output (names sorted, stable float formatting) so golden
  -file tests and scrape diffs are meaningful.
* :class:`RunReport` — one JSON document unifying everything the flight
  recorder knows about a run: the metrics snapshot (counters + histogram
  summaries), the degradation report, wall-clock timing, and (for batch
  runs) the per-program entries.  Versioned with
  :data:`RUN_REPORT_SCHEMA`; :meth:`RunReport.load` rejects unknown
  versions — ``python -m repro report`` consumes these files (and event
  logs) and diffs them against checked-in baselines.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from .metrics import Histogram, MetricsRegistry

#: Bump on any backwards-incompatible change to the document layout.
RUN_REPORT_SCHEMA = 1

#: Quantiles summarised per histogram in a RunReport (and printed by
#: ``repro report``'s time tables).
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


class ReportSchemaError(ValueError):
    """A RunReport document does not match a schema this reader knows."""


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _prom_name(name: str, namespace: str) -> str:
    """``oracle.prefix.reused`` -> ``repro_oracle_prefix_reused``."""
    sanitized = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    return f"{namespace}_{sanitized}" if namespace else sanitized


def _prom_float(value: float) -> str:
    """Stable float rendering (no exponent churn, no trailing zeros)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry, namespace: str = "repro") -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters become ``counter`` series (already monotonic within a run);
    histograms become classic cumulative-bucket histogram series over
    their fixed boundaries, ending with the implicit ``+Inf`` bucket, a
    ``_sum`` and a ``_count``.  Output order is sorted by metric name, so
    the text is byte-stable for a given registry state.
    """
    lines: List[str] = []
    for name, value in sorted(registry.counters().items()):
        prom = _prom_name(name, namespace)
        lines.append(f"# HELP {prom} repro counter {name}")
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name in registry.histogram_names():
        hist = registry.histogram(name)
        prom = _prom_name(name, namespace)
        lines.append(f"# HELP {prom} repro histogram {name}")
        lines.append(f"# TYPE {prom} histogram")
        counts = hist.bucket_counts()
        for bound, count in zip(hist.buckets, counts):
            lines.append(f'{prom}_bucket{{le="{_prom_float(bound)}"}} {count}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {counts[-1]}')
        lines.append(f"{prom}_sum {_prom_float(hist.total)}")
        lines.append(f"{prom}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# RunReport
# ---------------------------------------------------------------------------


def summarize_histogram(hist: Histogram) -> Dict[str, float]:
    """The compact per-histogram summary a RunReport stores."""
    summary = {
        "count": hist.count,
        "total": hist.total,
        "mean": hist.mean,
        "min": hist.min,
        "max": hist.max,
    }
    for q in SUMMARY_QUANTILES:
        summary[f"p{int(q * 100)}"] = hist.quantile(q)
    return summary


@dataclass
class RunReport:
    """The run-summary document: metrics + degradation + timing + entries.

    ``counters`` is the full flat counter dict (the deterministic part a
    ``--diff`` baseline compares); ``histograms`` maps names to the
    summary statistics of :func:`summarize_histogram` (timing — never
    diffed, machines differ); ``degradation`` is the
    :class:`~repro.core.resilience.DegradationReport` as a dict;
    ``entries`` carries per-program rows for batch runs.
    """

    schema: int = RUN_REPORT_SCHEMA
    label: str = ""
    jobs: int = 1
    elapsed_seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    degradation: Dict[str, Any] = field(default_factory=dict)
    entries: List[Dict[str, Any]] = field(default_factory=list)
    #: Final suggestion ranks: list of {"rank", "kind", "rule"} rows.
    suggestions: List[Dict[str, Any]] = field(default_factory=list)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_run(
        cls,
        metrics: Optional[MetricsRegistry] = None,
        *,
        label: str = "",
        jobs: int = 1,
        elapsed_seconds: float = 0.0,
        degradation=None,
        entries: Optional[List[Dict[str, Any]]] = None,
        suggestions: Optional[List[Dict[str, Any]]] = None,
    ) -> "RunReport":
        report = cls(label=label, jobs=jobs, elapsed_seconds=elapsed_seconds)
        if metrics is not None:
            report.counters = dict(metrics.counters())
            for name in metrics.histogram_names():
                report.histograms[name] = summarize_histogram(
                    metrics.histogram(name)
                )
        if degradation is not None:
            report.degradation = degradation_as_dict(degradation)
        if entries:
            report.entries = list(entries)
        if suggestions:
            report.suggestions = list(suggestions)
        return report

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "label": self.label,
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed_seconds,
            "counters": self.counters,
            "histograms": self.histograms,
            "degradation": self.degradation,
            "entries": self.entries,
            "suggestions": self.suggestions,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path: Union[str, os.PathLike]) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        if not isinstance(data, dict):
            raise ReportSchemaError("RunReport document is not a JSON object")
        version = data.get("schema")
        if version != RUN_REPORT_SCHEMA:
            raise ReportSchemaError(
                f"unknown RunReport schema version {version!r} "
                f"(this reader understands {RUN_REPORT_SCHEMA})"
            )
        return cls(
            schema=version,
            label=data.get("label", ""),
            jobs=data.get("jobs", 1),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            counters=dict(data.get("counters", {})),
            histograms=dict(data.get("histograms", {})),
            degradation=dict(data.get("degradation", {})),
            entries=list(data.get("entries", [])),
            suggestions=list(data.get("suggestions", [])),
        )

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "RunReport":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except json.JSONDecodeError as err:
            raise ReportSchemaError(f"{path}: not valid JSON ({err})")
        return cls.from_dict(data)


def degradation_as_dict(report) -> Dict[str, Any]:
    """A :class:`~repro.core.resilience.DegradationReport` as plain data."""
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
    """Rank/kind/rule rows for a ranked suggestion list (rank is 1-based)."""
    return [
        {
            "rank": rank,
            "kind": suggestion.kind,
            "rule": suggestion.change.rule or "",
        }
        for rank, suggestion in enumerate(suggestions, start=1)
    ]
