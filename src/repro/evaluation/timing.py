"""The Figure 7 timing study: running-time CDFs under three configurations.

The paper's three curves:

* bottom — the full tool;
* middle — one constructive change with a performance bug disabled (the
  nested-match reparenthesizer; our enumerator tags it ``reparen-match``);
* top — triage disabled ("not a single file takes longer than 4 seconds").

Absolute numbers depend on hardware and substrate speed (a 2007 laptop
running OCaml vs a Python MiniML checker), so the *claims* we reproduce are
relative: the full CDF has a long tail, disabling the one slow change trims
roughly a third of the tail, and disabling triage collapses it.

Measurement goes through :mod:`repro.obs` rather than raw timers: each
configuration gets a :class:`~repro.obs.MetricsRegistry` and a
metrics-only :class:`~repro.obs.Tracer` (``keep_events=False``, built on
the monotonic ``time.perf_counter_ns`` clock), so every curve comes with a
per-phase breakdown — oracle calls by phase and seconds by span — instead
of a single opaque wall-clock number.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.seminal import explain
from repro.corpus.generator import Corpus
from repro.obs import MetricsRegistry, Tracer

#: Configuration name -> explain() keyword arguments.
CONFIGURATIONS: Dict[str, dict] = {
    "full tool": {},
    "no reparen-match change": {"disabled_rules": ("reparen-match",)},
    "no triage": {"enable_triage": False},
}

#: The per-file wall-clock histogram each curve is read from.
_FILE_SPAN = "explain.file"

#: The oracle-call phase counters reported in breakdowns.
_PHASE_COUNTERS = (
    "search.prefix_tests",
    "search.removal_tests",
    "search.constructive_tests",
    "search.adaptation_tests",
    "search.triage_tests",
)

#: Prefix-reuse accounting (how many oracle calls rode the incremental
#: fast path vs paid a full from-scratch inference), plus the resilience
#: counters (crashes isolated, self-healing fallbacks, depth rejections).
_ORACLE_COUNTERS = (
    "oracle.full_checks",
    "oracle.prefix.reused",
    "oracle.crashes",
    "oracle.prefix.fallbacks",
    "oracle.depth_rejected",
)


@dataclass
class TimingResult:
    """Per-configuration sorted run times (seconds) plus phase telemetry."""

    curves: Dict[str, List[float]] = field(default_factory=dict)
    oracle_calls: Dict[str, List[int]] = field(default_factory=dict)
    #: Configuration name -> how many files returned degraded (best-effort)
    #: results — nonzero when the study runs with a deadline or tight budget.
    degraded_runs: Dict[str, int] = field(default_factory=dict)
    #: Configuration name -> the aggregate registry of the whole run
    #: (oracle calls by outcome/phase, per-rule counts, span durations).
    metrics: Dict[str, MetricsRegistry] = field(default_factory=dict)

    def curve(self, name: str) -> List[float]:
        return self.curves[name]

    def phase_breakdown(self, name: str) -> Dict[str, int]:
        """Oracle calls by search phase for one configuration."""
        registry = self.metrics[name]
        return {counter: registry.value(counter) for counter in _PHASE_COUNTERS}

    def oracle_breakdown(self, name: str) -> Dict[str, int]:
        """Incremental-vs-full oracle accounting for one configuration."""
        registry = self.metrics[name]
        return {counter: registry.value(counter) for counter in _ORACLE_COUNTERS}

    def phase_seconds(self, name: str) -> Dict[str, float]:
        """Total seconds by span name for one configuration."""
        return {
            span: seconds
            for span, seconds in self.metrics[name].span_seconds().items()
            if span != _FILE_SPAN
        }


def run_timing_study(
    corpus: Corpus,
    max_files: Optional[int] = None,
    configurations: Optional[Dict[str, dict]] = None,
    max_oracle_calls: Optional[int] = 20000,
    deadline_seconds: Optional[float] = None,
) -> TimingResult:
    """Time :func:`explain` on every representative under each configuration.

    Wall clock per file is the ``explain.file`` span duration observed into
    the configuration's registry (monotonic ``perf_counter_ns`` under the
    hood); the same registry simultaneously collects the per-phase oracle
    -call and span-duration breakdowns.

    ``deadline_seconds`` puts a per-file wall-clock cap on each search;
    files that hit it (or the oracle budget) still contribute a time and a
    best-effort outcome, and are counted in ``TimingResult.degraded_runs``
    — the CDF's tail is then the deadline by construction.
    """
    configurations = configurations if configurations is not None else CONFIGURATIONS
    files = corpus.representatives
    if max_files is not None:
        files = files[:max_files]
    result = TimingResult()
    tracers = {}
    for name in configurations:
        result.metrics[name] = MetricsRegistry()
        tracers[name] = Tracer(metrics=result.metrics[name], keep_events=False)
        result.oracle_calls[name] = []
        result.degraded_runs[name] = 0
    # Files outermost, configurations inside: a file's runs sit next to
    # each other in time, so host drift over the study spreads over every
    # curve instead of landing on whichever configuration ran last.  Each
    # run starts from a full collection: otherwise the collector's full
    # passes, which recur with the allocation pattern of one file's runs,
    # keep charging one configuration for the garbage of the others.
    for corpus_file in files:
        for name, kwargs in configurations.items():
            gc.collect()
            with tracers[name].span(_FILE_SPAN):
                outcome = explain(
                    corpus_file.program,
                    max_oracle_calls=max_oracle_calls,
                    deadline_seconds=deadline_seconds,
                    tracer=tracers[name],
                    metrics=result.metrics[name],
                    **kwargs,
                )
            result.oracle_calls[name].append(outcome.oracle_calls)
            if outcome.degraded:
                result.degraded_runs[name] += 1
    for name, registry in result.metrics.items():
        result.curves[name] = sorted(registry.values_of(f"span.{_FILE_SPAN}.seconds"))
    return result
