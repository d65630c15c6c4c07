"""``python -m repro report`` — aggregate flight-recorder output.

Reads one or more RunReport JSON documents and/or JSONL event logs (the
``--report``/``--events`` outputs of an ``explain`` run), normalizes them
into one aggregate, and prints the tables the paper's efficiency story is
told in: per-phase oracle-call and time shares, the incremental-oracle
breakdown (prefix reuse, cache rates), resilience counts (crashes, sheds,
store I/O retries), and the rank distribution of the final suggestions.

``--diff BASELINE`` compares the aggregate against a checked-in baseline
(itself a RunReport, e.g. ``benchmarks/results/report_baseline.json``) and
exits non-zero when any *cost* counter — oracle calls, full checks,
crashes, per-phase tests — grew beyond ``--threshold`` (relative, default
exact).  Counters are deterministic for a given corpus program (batch
runs merge per-file snapshots to the serial totals), so the diff is a real regression gate, not a noise filter; timings are
summarised but never diffed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import EventSchemaError, read_events
from .export import ReportSchemaError, RunReport

#: Counters where "bigger" means "worse" — the regression surface of
#: ``--diff``.  Prefix match; everything else is reported but never fails
#: the gate (e.g. ``oracle.prefix.reused`` growing is an improvement).
COST_COUNTER_PREFIXES: Tuple[str, ...] = (
    "oracle.calls",
    "oracle.full_checks",
    "oracle.crashes",
    "oracle.depth_rejected",
    "oracle.prefix.fallbacks",
    "oracle.prefix.invalidated",
    "oracle.trail.fallbacks",
    "oracle.budget_exceeded",
    "oracle.cache.misses",
    "oracle.decl.checked",
    "search.prefix_tests",
    "search.removal_tests",
    "search.constructive_tests",
    "search.adaptation_tests",
    "search.triage_tests",
    "search.shed.",
    "search.degraded",
    "enum.tested.",
)

#: The per-phase oracle-call counters (and their display names).
PHASE_COUNTERS = (
    ("search.prefix_tests", "prefix"),
    ("search.removal_tests", "removal"),
    ("search.constructive_tests", "constructive"),
    ("search.adaptation_tests", "adaptation"),
    ("search.triage_tests", "triage"),
)

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_INPUT_ERROR = 2


@dataclass
class RunAggregate:
    """One or more runs, folded into a single comparable summary."""

    sources: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    #: Histogram name -> summed ``total`` seconds (from RunReport files).
    span_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-search rows: label, ok, suggestions, oracle_calls, degraded,
    #: elapsed_seconds (from entries / search_finished events).
    searches: List[Dict[str, Any]] = field(default_factory=list)
    #: Suggestion rank -> count across all searches.
    rank_counts: Dict[int, int] = field(default_factory=dict)
    #: Phase -> shed count (from degradation reports / events).
    phases_shed: Dict[str, int] = field(default_factory=dict)
    crash_samples: List[str] = field(default_factory=list)
    degraded_runs: int = 0
    elapsed_seconds: float = 0.0
    #: Function -> summed profile row (``--profile`` events), keyed by the
    #: ``file:line(name)`` string so multi-run profiles fold together.
    profile_rows: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # -- folding ---------------------------------------------------------

    def add_counters(self, counters: Dict[str, int]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + int(value)

    def add_search(self, row: Dict[str, Any]) -> None:
        self.searches.append(row)
        if row.get("degraded"):
            self.degraded_runs += 1

    def add_ranks(self, rows: Sequence[Dict[str, Any]]) -> None:
        for row in rows:
            rank = int(row.get("rank", 0))
            self.rank_counts[rank] = self.rank_counts.get(rank, 0) + 1

    def add_profile(self, rows: Sequence[Dict[str, Any]]) -> None:
        for row in rows:
            func = row.get("func")
            if not func:
                continue
            slot = self.profile_rows.setdefault(
                func, {"calls": 0, "tottime": 0.0, "cumtime": 0.0}
            )
            slot["calls"] += int(row.get("calls", 0) or 0)
            slot["tottime"] += float(row.get("tottime", 0.0) or 0.0)
            slot["cumtime"] += float(row.get("cumtime", 0.0) or 0.0)

    def add_degradation(self, deg: Dict[str, Any]) -> None:
        for phase, count in (deg.get("phases_shed") or {}).items():
            self.phases_shed[phase] = self.phases_shed.get(phase, 0) + count
        self.crash_samples.extend(deg.get("crash_samples") or [])

    def add_report(self, report: RunReport, source: str) -> None:
        self.sources.append(source)
        self.add_counters(report.counters)
        for name, summary in report.histograms.items():
            if name.startswith("span.") and name.endswith(".seconds"):
                span = name[len("span."):-len(".seconds")]
                self.span_seconds[span] = (
                    self.span_seconds.get(span, 0.0) + summary.get("total", 0.0)
                )
        if report.entries:
            for entry in report.entries:
                self.add_search(dict(entry))
        elif report.label:
            self.add_search(
                {
                    "label": report.label,
                    "ok": not report.suggestions
                    and not report.counters.get("search.suggestions"),
                    "suggestions": len(report.suggestions),
                    "oracle_calls": report.counters.get("oracle.calls", 0),
                    "degraded": bool((report.degradation or {}).get("reasons")),
                    "elapsed_seconds": report.elapsed_seconds,
                }
            )
        if report.degradation:
            self.add_degradation(report.degradation)
        self.add_ranks(report.suggestions)
        self.elapsed_seconds += report.elapsed_seconds

    def add_events(self, events: List[Dict[str, Any]], source: str) -> None:
        self.sources.append(source)
        for event in events:
            kind = event.get("type")
            if kind == "metrics":
                self.add_counters(event.get("counters") or {})
            elif kind == "search_finished":
                self.add_search(
                    {
                        "label": event.get("label", ""),
                        "ok": event.get("ok", False),
                        "suggestions": event.get("suggestions", 0),
                        "oracle_calls": event.get("oracle_calls", 0),
                        "degraded": event.get("degraded", False),
                        "elapsed_seconds": event.get("elapsed_seconds", 0.0),
                    }
                )
                self.elapsed_seconds += event.get("elapsed_seconds", 0.0) or 0.0
            elif kind == "suggestions":
                self.add_ranks(event.get("ranks") or [])
            elif kind == "degradation":
                self.add_degradation(event)
            elif kind == "profile":
                self.add_profile(event.get("hotspots") or [])
            elif kind == "oracle_crash":
                sample = event.get("error")
                if sample:
                    self.crash_samples.append(sample)

    # -- derived ---------------------------------------------------------

    def value(self, name: str) -> int:
        return self.counters.get(name, 0)

    def rate(self, numerator: str, denominator_names: Sequence[str]) -> Optional[float]:
        total = sum(self.value(n) for n in denominator_names)
        if total == 0:
            return None
        return self.value(numerator) / total


def load_any(path: str) -> RunAggregate:
    """Load one file — RunReport JSON or JSONL event log — by sniffing.

    A file whose first non-blank character is ``{`` *and* that parses as
    a single JSON object is a RunReport; otherwise it is treated as an
    event log.  Schema errors from either reader propagate.
    """
    aggregate = RunAggregate()
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    as_report = None
    if stripped.startswith("{"):
        try:
            as_report = json.loads(text)
        except json.JSONDecodeError:
            as_report = None  # JSONL: line 2+ breaks the single-object parse
    if isinstance(as_report, dict) and "type" not in as_report:
        aggregate.add_report(RunReport.from_dict(as_report), path)
    else:
        aggregate.add_events(read_events(text.splitlines()), path)
    return aggregate


def aggregate_files(paths: Sequence[str]) -> RunAggregate:
    total = RunAggregate()
    for path in paths:
        part = load_any(path)
        total.sources.extend(part.sources)
        total.add_counters(part.counters)
        for span, seconds in part.span_seconds.items():
            total.span_seconds[span] = total.span_seconds.get(span, 0.0) + seconds
        for row in part.searches:
            total.add_search(dict(row))
        for rank, count in part.rank_counts.items():
            total.rank_counts[rank] = total.rank_counts.get(rank, 0) + count
        for phase, count in part.phases_shed.items():
            total.phases_shed[phase] = total.phases_shed.get(phase, 0) + count
        total.crash_samples.extend(part.crash_samples)
        total.elapsed_seconds += part.elapsed_seconds
        for func, row in part.profile_rows.items():
            total.add_profile([dict(row, func=func)])
    return total


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _table(rows: List[Tuple[str, str]], indent: str = "  ") -> List[str]:
    if not rows:
        return []
    width = max(len(label) for label, _ in rows)
    return [f"{indent}{label.ljust(width)}  {value}" for label, value in rows]


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    -"


#: Hotspot rows kept when extracting / printing a profile (``--profile``).
PROFILE_TOP_N = 15


def profile_hotspots(stats: Any, top: int = PROFILE_TOP_N) -> List[Dict[str, Any]]:
    """The top-``top`` hotspots of a ``pstats.Stats`` as plain dicts.

    Rows are sorted by exclusive time (``tottime``) and keyed the way
    cProfile prints them — ``file:line(name)`` — with the path trimmed to
    its last two components so event logs stay readable and comparable
    across machines.
    """
    rows: List[Dict[str, Any]] = []
    for (filename, line, name), (_cc, nc, tt, ct, _callers) in stats.stats.items():
        if filename == "~":
            func = name  # builtins: pstats prints them as ~:0(<...>)
        else:
            parts = filename.replace("\\", "/").split("/")
            func = f"{'/'.join(parts[-2:])}:{line}({name})"
        rows.append(
            {
                "func": func,
                "calls": int(nc),
                "tottime": round(float(tt), 6),
                "cumtime": round(float(ct), 6),
            }
        )
    rows.sort(key=lambda r: (-r["tottime"], r["func"]))
    return rows[:top]


def render_profile_rows(
    rows: Sequence[Dict[str, Any]], top: int = PROFILE_TOP_N
) -> List[str]:
    """Aligned ``func  calls  tottime  cumtime`` lines for hotspot rows."""
    ordered = sorted(
        rows,
        key=lambda r: (-float(r.get("tottime", 0.0) or 0.0), str(r.get("func"))),
    )[:top]
    body = [
        (
            str(row.get("func", "?")),
            f"{int(row.get('calls', 0) or 0):>9}  "
            f"{float(row.get('tottime', 0.0) or 0.0):9.4f}s  "
            f"{float(row.get('cumtime', 0.0) or 0.0):9.4f}s",
        )
        for row in ordered
    ]
    return _table([("function", "    calls    tottime    cumtime")] + body)


def render_aggregate(agg: RunAggregate) -> str:
    """The human-readable aggregate tables."""
    lines: List[str] = []
    n_searches = len(agg.searches)
    n_ok = sum(1 for s in agg.searches if s.get("ok"))
    lines.append(
        f"flight recorder: {len(agg.sources)} file(s), "
        f"{n_searches} search(es), {n_ok} ok, "
        f"{n_searches - n_ok} ill-typed, {agg.degraded_runs} degraded"
    )
    if agg.elapsed_seconds:
        lines[-1] += f", {agg.elapsed_seconds:.2f}s total"

    phase_rows = [
        (label, agg.value(counter))
        for counter, label in PHASE_COUNTERS
    ]
    phase_total = sum(v for _, v in phase_rows)
    if phase_total:
        lines.append("")
        lines.append("oracle calls by phase:")
        lines.extend(
            _table(
                [
                    (label, f"{value:>8}  {_pct(value, phase_total)}")
                    for label, value in phase_rows
                ]
            )
        )

    if agg.value("oracle.calls"):
        lines.append("")
        lines.append("oracle breakdown:")
        rows = [
            ("calls", str(agg.value("oracle.calls"))),
            ("  ok / fail",
             f"{agg.value('oracle.calls.ok')} / {agg.value('oracle.calls.fail')}"),
            ("full checks", str(agg.value("oracle.full_checks"))),
            ("prefix reused", str(agg.value("oracle.prefix.reused"))),
        ]
        reuse = agg.rate(
            "oracle.prefix.reused", ("oracle.prefix.reused", "oracle.full_checks")
        )
        if reuse is not None:
            rows.append(("prefix-reuse rate", f"{100.0 * reuse:.1f}%"))
        t_spec = agg.value("oracle.trail.speculated")
        t_fallbacks = agg.value("oracle.trail.fallbacks")
        if t_spec or t_fallbacks:
            rows.append(("trail speculated", str(t_spec)))
            rows.append(
                ("trail rolled back", str(agg.value("oracle.trail.rolled_back")))
            )
            if t_fallbacks:
                rows.append(("trail fallbacks", str(t_fallbacks)))
        hits, misses = agg.value("oracle.cache.hits"), agg.value("oracle.cache.misses")
        if hits or misses:
            rows.append(("cache hits / misses", f"{hits} / {misses}"))
            rows.append(
                ("cache hit rate", f"{100.0 * hits / (hits + misses):.1f}%")
            )
        d_replayed = agg.value("oracle.decl.replayed")
        d_checked = agg.value("oracle.decl.checked")
        d_degraded = agg.value("oracle.decl.degraded")
        if d_replayed or d_degraded:
            rows.append(("decls replayed / checked", f"{d_replayed} / {d_checked}"))
            total = d_replayed + d_checked
            if total:
                rows.append(
                    ("decl-replay rate", f"{100.0 * d_replayed / total:.1f}%")
                )
            if d_degraded:
                rows.append(("decls degraded", str(d_degraded)))
        dedup = agg.value("search.dedup_skipped")
        if dedup:
            rows.append(("dedup skipped", str(dedup)))
        lines.extend(_table(rows))

    s_hits = agg.value("oracle.store.hits")
    s_misses = agg.value("oracle.store.misses")
    s_writes = agg.value("oracle.store.writes")
    s_invalidated = agg.value("oracle.store.invalidated")
    if s_hits or s_misses or s_writes or s_invalidated:
        lines.append("")
        lines.append("persistent store:")
        rows = [
            ("hits / misses", f"{s_hits} / {s_misses}"),
            ("writes", str(s_writes)),
        ]
        if s_hits or s_misses:
            rows.insert(
                1,
                ("hit rate", f"{100.0 * s_hits / (s_hits + s_misses):.1f}%"),
            )
        if s_invalidated:
            rows.append(("invalidated", str(s_invalidated)))
        lines.extend(_table(rows))

    crash_rows = [
        ("oracle crashes", agg.value("oracle.crashes")),
        ("depth rejections", agg.value("oracle.depth_rejected")),
        ("prefix fallbacks", agg.value("oracle.prefix.fallbacks")),
    ]
    shed_total = sum(agg.phases_shed.values())
    if any(v for _, v in crash_rows) or shed_total:
        lines.append("")
        lines.append("resilience:")
        lines.extend(
            _table([(label, str(v)) for label, v in crash_rows if v])
        )
        if shed_total:
            shed = ", ".join(
                f"{phase}x{count}"
                for phase, count in sorted(agg.phases_shed.items())
            )
            lines.extend(_table([("phases shed", shed)]))

    io_retries = agg.value("oracle.store.retries")
    io_errors = agg.value("oracle.store.io_errors")
    if io_retries or io_errors:
        lines.append("")
        lines.append("supervision:")
        lines.extend(
            _table(
                [("store io retries / errors", f"{io_retries} / {io_errors}")]
            )
        )

    if agg.span_seconds:
        span_total = sum(agg.span_seconds.values())
        lines.append("")
        lines.append("time share by span:")
        lines.extend(
            _table(
                [
                    (span, f"{seconds:8.3f}s  {_pct(seconds, span_total)}")
                    for span, seconds in sorted(
                        agg.span_seconds.items(), key=lambda kv: -kv[1]
                    )[:12]
                ]
            )
        )

    if agg.profile_rows:
        lines.append("")
        lines.append("profile hotspots (by tottime):")
        lines.extend(
            render_profile_rows(
                [dict(row, func=func) for func, row in agg.profile_rows.items()]
            )
        )

    if agg.rank_counts:
        lines.append("")
        lines.append("suggestion rank distribution:")
        lines.extend(
            _table(
                [
                    (f"rank {rank}", str(count))
                    for rank, count in sorted(agg.rank_counts.items())
                ]
            )
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------


@dataclass
class CounterDelta:
    name: str
    baseline: int
    current: int
    #: Relative change ((current - baseline) / baseline; inf for 0 -> n).
    relative: float
    is_cost: bool

    @property
    def regressed(self) -> bool:
        return self.is_cost and self.current > self.baseline


def _is_cost(name: str) -> bool:
    return name.startswith(COST_COUNTER_PREFIXES)


def diff_against(
    agg: RunAggregate, baseline: RunAggregate, threshold: float = 0.0
) -> Tuple[List[CounterDelta], List[CounterDelta]]:
    """Compare aggregate counters to a baseline.

    Returns ``(regressions, changes)``: *regressions* are cost counters
    that grew beyond ``threshold`` (relative — 0.05 tolerates 5% growth);
    *changes* are all compared counters whose value moved at all (for the
    report).  Counters absent from the baseline are never regressions —
    new telemetry must not fail old baselines.
    """
    regressions: List[CounterDelta] = []
    changes: List[CounterDelta] = []
    for name in sorted(baseline.counters):
        base = baseline.counters[name]
        cur = agg.counters.get(name, 0)
        if cur == base:
            continue
        relative = (cur - base) / base if base else float("inf")
        delta = CounterDelta(name, base, cur, relative, _is_cost(name))
        changes.append(delta)
        if delta.regressed and (
            base == 0 or (cur - base) / base > threshold
        ):
            regressions.append(delta)
    return regressions, changes


def render_diff(
    regressions: List[CounterDelta],
    changes: List[CounterDelta],
    baseline_path: str,
    threshold: float,
) -> str:
    lines = [f"diff vs {baseline_path} (threshold {threshold:g}):"]
    if not changes:
        lines.append("  no counter changes")
        return "\n".join(lines)
    for delta in changes:
        rel = (
            f"{100.0 * delta.relative:+.1f}%"
            if delta.relative != float("inf")
            else "new"
        )
        marker = "  REGRESSION" if delta in regressions else ""
        lines.append(
            f"  {delta.name}: {delta.baseline} -> {delta.current} "
            f"({rel}){marker}"
        )
    lines.append(
        f"{len(regressions)} regression(s), {len(changes)} changed counter(s)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Aggregate flight-recorder output (RunReport JSON and "
                    "JSONL event logs) into summary tables; optionally "
                    "regression-diff against a baseline report.",
        epilog="exit codes: 0 ok; 1 at least one counter regressed beyond "
               "--threshold; 2 unreadable input or unknown schema version",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="RunReport .json and/or event-log .jsonl files")
    parser.add_argument("--diff", metavar="BASELINE", default=None,
                        help="baseline RunReport (or event log) to compare "
                             "cost counters against")
    parser.add_argument("--threshold", type=float, default=0.0, metavar="FRAC",
                        help="relative growth a cost counter may show before "
                             "--diff fails (default 0 = exact)")
    parser.add_argument("--save", metavar="PATH", default=None,
                        help="write the aggregate back out as a RunReport "
                             "JSON (the way baselines are produced)")
    return parser


def aggregate_to_report(agg: RunAggregate) -> RunReport:
    """The aggregate as a RunReport document (for ``--save`` baselines)."""
    report = RunReport(
        label=",".join(agg.sources),
        elapsed_seconds=agg.elapsed_seconds,
        counters=dict(sorted(agg.counters.items())),
        entries=list(agg.searches),
    )
    report.suggestions = [
        {"rank": rank, "kind": "", "rule": ""}
        for rank, count in sorted(agg.rank_counts.items())
        for _ in range(count)
    ]
    if agg.phases_shed or agg.crash_samples:
        report.degradation = {
            "reasons": [],
            "oracle_crashes": agg.value("oracle.crashes"),
            "prefix_fallbacks": agg.value("oracle.prefix.fallbacks"),
            "depth_rejections": agg.value("oracle.depth_rejected"),
            "phases_shed": dict(agg.phases_shed),
            "elapsed_seconds": agg.elapsed_seconds,
            "deadline_seconds": None,
            "budget": None,
            "crash_samples": list(agg.crash_samples),
        }
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_report_parser().parse_args(argv)
    try:
        aggregate = aggregate_files(args.files)
        baseline = load_any(args.diff) if args.diff else None
    except (OSError, EventSchemaError, ReportSchemaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(render_aggregate(aggregate))
    if args.save:
        aggregate_to_report(aggregate).write(args.save)
        print(f"[aggregate report written to {args.save}]", file=sys.stderr)
    if baseline is None:
        return EXIT_OK
    regressions, changes = diff_against(
        aggregate, baseline, threshold=args.threshold
    )
    print()
    print(render_diff(regressions, changes, args.diff, args.threshold))
    return EXIT_REGRESSION if regressions else EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
