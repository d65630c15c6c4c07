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
    "oracle.prefix.invalidated",
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
        registry = self.metrics[name]
        out: Dict[str, float] = {}
        for hist_name in registry.histogram_names("span."):
            if not hist_name.endswith(".seconds"):
                continue
            phase = hist_name[len("span."):-len(".seconds")]
            if phase != _FILE_SPAN:
                out[phase] = registry.histogram(hist_name).total
        return out

    def to_run_report(self, name: str) -> "RunReport":
        """One configuration's registry as a :class:`~repro.obs.RunReport`.

        The resulting document is what ``repro report --diff`` consumes, so
        a timing-study configuration can serve as a checked-in regression
        baseline: counters are the deterministic diff surface, histogram
        summaries carry the (machine-dependent) timing.
        """
        from repro.obs import RunReport

        registry = self.metrics[name]
        return RunReport.from_run(
            registry,
            label=name,
            elapsed_seconds=sum(self.curves.get(name, ())),
        )

    def render_breakdown(self, name: str) -> str:
        """One-configuration per-phase summary (calls and seconds)."""
        calls = self.phase_breakdown(name)
        seconds = self.phase_seconds(name)
        lines = [f"{name}:"]
        lines.append(
            "  oracle calls by phase: "
            + " ".join(f"{k.split('.')[-1]}={v}" for k, v in calls.items())
        )
        reuse = self.oracle_breakdown(name)
        if any(reuse.values()):
            lines.append(
                "  prefix reuse: "
                + " ".join(f"{k.split('.')[-1]}={v}" for k, v in reuse.items())
            )
        degraded = self.degraded_runs.get(name, 0)
        if degraded:
            lines.append(f"  degraded runs: {degraded}")
        if seconds:
            lines.append(
                "  seconds by span: "
                + " ".join(f"{k}={v:.3f}" for k, v in sorted(seconds.items()))
            )
        return "\n".join(lines)


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
    for name, kwargs in configurations.items():
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry, keep_events=False)
        calls: List[int] = []
        degraded = 0
        for corpus_file in files:
            with tracer.span(_FILE_SPAN):
                outcome = explain(
                    corpus_file.program,
                    max_oracle_calls=max_oracle_calls,
                    deadline_seconds=deadline_seconds,
                    tracer=tracer,
                    metrics=registry,
                    **kwargs,
                )
            calls.append(outcome.oracle_calls)
            if outcome.degraded:
                degraded += 1
        result.curves[name] = sorted(registry.values_of(f"span.{_FILE_SPAN}.seconds"))
        result.oracle_calls[name] = calls
        result.degraded_runs[name] = degraded
        result.metrics[name] = registry
    return result
