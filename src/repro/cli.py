"""Command-line interface: ``python -m repro [options] file``.

Plays the role of the compiler wrapper in the paper's Figure 1: files that
type-check pass straight through; ill-typed files get the conventional
message *and* the ranked search suggestions.  ``--fix`` additionally applies
the top suggestion(s) and prints the patched source (the quick-fix flow).

Batch mode: ``python -m repro explain [--jobs N] FILE... [--dir DIR]``
explains many programs per invocation — concurrently across worker
processes with ``--jobs``, one whole search per file — and prints one
summary table (plus full reports with ``--verbose``).  The answers are
byte-identical to a serial run (see :mod:`repro.core.parallel`).

MiniML is assumed for ``.ml`` files; ``--cpp`` (or a ``.cpp``/``.cc``
extension) selects the MiniCpp front end.

Observability (see :mod:`repro.obs`): ``--trace out.json`` records a
Perfetto-loadable span trace of the whole search, ``--metrics`` prints the
full counter/histogram table.
The flight recorder adds ``--events out.jsonl`` (one schema-versioned JSON
line per lifecycle event, closed by a ``metrics`` event carrying the
counters and, with ``--trace``, the seconds per span);
``python -m repro report FILE... [--diff BASELINE]`` reads event logs back
and prints aggregate tables / regression diffs.
``--profile`` runs the search under cProfile and prints the top hotspots
(recorded as a ``profile`` event in the event log when one is open, so
``repro report`` folds them into its tables).

Robustness (see :mod:`repro.core.resilience`): ``--deadline SECONDS`` puts
a wall-clock budget on the search; budget/deadline exhaustion and oracle
crashes degrade to best-effort suggestions (noted on stderr) instead of
aborting.  Exit codes distinguish the outcomes — see ``--help``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Sequence, Tuple

#: Exit codes (documented in ``--help``): the CLI never leaks a raw
#: traceback for input problems or exhausted search budgets.
EXIT_OK = 0
EXIT_SUGGESTIONS = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_ANSWER = 3
#: Conventional 128+SIGINT: Ctrl-C tears batch workers down and exits
#: cleanly.
EXIT_INTERRUPTED = 130

_EPILOG = """\
exit codes:
  0  the program type-checks (or --fix fully repaired it)
  1  ill-typed; the type-error report (and any suggestions) was printed
  2  input error: unreadable/undecodable file, or a parse error
  3  ill-typed but no suggestion found — including searches degraded by
     --max-calls, --deadline, or oracle crashes (noted on stderr)
  130  interrupted (Ctrl-C): worker processes are torn down promptly

batch mode:
  python -m repro explain [--jobs N] FILE... [--dir DIR]
  explains many files per invocation (see `repro explain --help`)

report mode:
  python -m repro report FILE... [--diff BASELINE]
  aggregates --events output (see `repro report --help`)

cache mode:
  python -m repro cache stats|clear|compact --store PATH
  inspects/maintains a persistent verdict store (see `repro cache --help`)
"""

_BATCH_EPILOG = """\
exit codes (aggregated over the whole batch, worst wins):
  0  every program type-checks
  1  at least one program is ill-typed (suggestions were found for all
     ill-typed programs)
  2  at least one input error (unreadable file or parse error)
  3  at least one ill-typed program got no suggestions
"""


def _jobs_arg(value: str):
    """``--jobs`` accepts a positive integer or the string ``auto``."""
    if value == "auto":
        return value
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        )
    if n < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Search-based type-error messages (SEMINAL, PLDI 2007).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("file", help="source file (.ml for MiniML, .cpp for MiniCpp)")
    parser.add_argument("--cpp", action="store_true", help="treat the input as MiniCpp")
    parser.add_argument("--top", type=int, default=3, metavar="N",
                        help="number of suggestions to print (default 3)")
    parser.add_argument("--no-triage", action="store_true",
                        help="disable triage (the paper's Section 3 baseline)")
    parser.add_argument("--checker-only", action="store_true",
                        help="print only the conventional type-checker message")
    parser.add_argument("--fix", action="store_true",
                        help="apply suggestions until the program type-checks "
                             "and print the patched source (MiniML only)")
    parser.add_argument("--max-calls", type=int, default=20000, metavar="N",
                        help="oracle-call budget (default 20000)")
    parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="wall-clock budget for the search; on expiry the "
                             "best-so-far suggestions are reported with a "
                             "degradation note (MiniML only)")
    parser.add_argument("--stats", action="store_true",
                        help="print oracle-call statistics")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome/Perfetto trace of the search "
                             "(open at https://ui.perfetto.dev)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the full telemetry counter table")
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="write the flight-recorder event log (JSONL, "
                             "one lifecycle event per line; read it back "
                             "with `python -m repro report`) (MiniML only)")
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="persistent cross-run verdict store directory: "
                             "warm-start the oracle from verdicts persisted "
                             "by earlier runs, and persist this run's "
                             "(answers are byte-identical either way; "
                             "maintain with `python -m repro cache`) "
                             "(MiniML only)")
    parser.add_argument("--profile", action="store_true",
                        help="run the search under cProfile and print the "
                             "top hotspots; with --events the profile "
                             "table also lands in the event log (and in "
                             "`repro report`)")
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Batch mode: search-based type-error messages for many "
                    "files per invocation, optionally in parallel.",
        epilog=_BATCH_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("files", nargs="*", metavar="FILE",
                        help="MiniML source files")
    parser.add_argument("--dir", metavar="DIR", default=None,
                        help="also explain every .ml file under DIR "
                             "(recursive, sorted order)")
    parser.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                        help="explain up to N programs concurrently in "
                             "worker processes ('auto' = one per CPU)")
    parser.add_argument("--top", type=int, default=3, metavar="N",
                        help="suggestions per program in --verbose reports")
    parser.add_argument("--no-triage", action="store_true",
                        help="disable triage in every search")
    parser.add_argument("--profile", action="store_true",
                        help="run the whole batch under cProfile and print "
                             "the top hotspots; with --events the profile "
                             "table also lands in the event log")
    parser.add_argument("--max-calls", type=int, default=20000, metavar="N",
                        help="per-program oracle-call budget (default 20000)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-program wall-clock budget")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="print the full report for every ill-typed "
                             "program after the summary table")
    parser.add_argument("--stats", action="store_true",
                        help="print aggregate oracle-call/wall-time totals")
    parser.add_argument("--metrics", action="store_true",
                        help="collect a metrics registry per program (in "
                             "the process that ran it), merge the "
                             "snapshots, and print the combined table")
    parser.add_argument("--events", metavar="PATH", default=None,
                        help="write a flight-recorder event log for the "
                             "batch: one search_finished line per program "
                             "plus the merged metrics (read it back with "
                             "`python -m repro report`)")
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="persistent cross-run verdict store directory "
                             "shared by every program in the batch (and by "
                             "future runs); answers are byte-identical "
                             "with or without it")
    return parser


def _telemetry(args: argparse.Namespace) -> Tuple[object, object]:
    """Build the (tracer, metrics) pair the flags ask for (else nulls).

    The event log (``--events``) needs a real registry even without
    ``--metrics``/``--stats``: its closing ``metrics`` event carries the
    counter dict.
    """
    from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer

    want_metrics = args.metrics or args.stats or getattr(args, "events", None)
    metrics = MetricsRegistry() if want_metrics else NULL_METRICS
    tracer = Tracer(metrics=metrics if metrics is not NULL_METRICS else None) \
        if args.trace else NULL_TRACER
    return tracer, metrics


def _emit_telemetry(args: argparse.Namespace, tracer, metrics) -> None:
    """Write the trace file / print the metrics table after a run."""
    from repro.obs import NULL_TRACER

    if args.trace and tracer is not NULL_TRACER:
        tracer.write(args.trace)
        print(f"[trace written to {args.trace} — open at https://ui.perfetto.dev]",
              file=sys.stderr)
    if args.metrics:
        print(metrics.render_table(title="telemetry"), file=sys.stderr)


def _event_log(args: argparse.Namespace):
    """The flight-recorder event log ``--events`` asks for (else the null)."""
    from repro.obs import EventLog, NULL_EVENTS

    if getattr(args, "events", None):
        return EventLog(args.events)
    return NULL_EVENTS


def _close_events(args: argparse.Namespace, events, metrics) -> None:
    """Seal the event log: append the counter dict and any per-span
    seconds (so the JSONL file is self-contained for ``repro report`` and
    its ``--diff``) and close it."""
    from repro.obs import NULL_EVENTS, NULL_METRICS, metrics_fields

    if events is NULL_EVENTS:
        return
    if metrics is not NULL_METRICS:
        events.emit(
            "metrics", **metrics_fields(metrics.counters(), metrics.span_seconds())
        )
    events.close()
    print(f"[event log written to {args.events}]", file=sys.stderr)


def _start_profile(args: argparse.Namespace):
    """Start a cProfile session when ``--profile`` asks for one (else None)."""
    if not getattr(args, "profile", False):
        return None
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def _finish_profile(profiler, events=None):
    """Stop the profiler, print the hotspot table to stderr, and (when a
    live event log is passed) record the rows as a ``profile`` event so
    ``repro report`` can aggregate them.  Returns the rows (or None)."""
    if profiler is None:
        return None
    import pstats

    from repro.obs import NULL_EVENTS
    from repro.obs.report import profile_hotspots, render_profile_rows

    profiler.disable()
    rows = profile_hotspots(pstats.Stats(profiler))
    print("profile hotspots (by tottime):", file=sys.stderr)
    print("\n".join(render_profile_rows(rows)), file=sys.stderr)
    if events is not None and events is not NULL_EVENTS:
        events.emit("profile", hotspots=rows)
    return rows


def _checker_only_miniml(source: str) -> int:
    """``--checker-only``: one typecheck, no search machinery at all.

    The search (and its budget/deadline) is pure overhead when only the
    conventional message is wanted — and running it here used to expose
    this path to search-side failures like ``BudgetExceeded``.
    """
    from repro.miniml import match_warnings_source
    from repro.miniml.infer import typecheck_source

    result = typecheck_source(source)
    if result.ok:
        print("The program type-checks.")
        for warning in match_warnings_source(source):
            print(warning.render())
        return EXIT_OK
    print("Type-checker:")
    message = result.error.render() if result.error is not None else ""
    print("    " + message.replace("\n", "\n    "))
    return EXIT_SUGGESTIONS


def _note_degradation(result) -> None:
    """One stderr line whenever the answer is best-effort, flags or not."""
    if result.degradation is not None and result.degradation.degraded:
        print(f"[degraded: {result.degradation.summary()}]", file=sys.stderr)


def _run_miniml(source: str, args: argparse.Namespace) -> int:
    from repro.core import explain, fix_all

    if args.checker_only and not args.fix:
        return _checker_only_miniml(source)

    tracer, metrics = _telemetry(args)
    events = _event_log(args)
    telemetry_kwargs = dict(tracer=tracer, metrics=metrics, store=args.store)

    if args.fix:
        profiler = _start_profile(args)
        result = fix_all(
            source,
            enable_triage=not args.no_triage,
            max_oracle_calls=args.max_calls,
            deadline_seconds=args.deadline,
            **telemetry_kwargs,
        )
        _finish_profile(profiler, events)
        for step in result.applied:
            print(f"applied: {step}")
        print()
        print(result.source, end="" if result.source.endswith("\n") else "\n")
        _emit_telemetry(args, tracer, metrics)
        _close_events(args, events, metrics)
        if result.ok:
            print("-- the program now type-checks", file=sys.stderr)
            return EXIT_OK
        print("-- could not fully repair the program", file=sys.stderr)
        return EXIT_SUGGESTIONS if result.applied else EXIT_NO_ANSWER

    profiler = _start_profile(args)
    result = explain(
        source,
        enable_triage=not args.no_triage,
        max_oracle_calls=args.max_calls,
        deadline_seconds=args.deadline,
        events=events,
        label=args.file,
        **telemetry_kwargs,
    )
    _finish_profile(profiler, events)
    if result.ok:
        print("The program type-checks.")
        from repro.miniml import match_warnings_source

        for warning in match_warnings_source(source):
            print(warning.render())
        _emit_telemetry(args, tracer, metrics)
        _close_events(args, events, metrics)
        return EXIT_OK
    print("Type-checker:")
    print("    " + (result.checker_message or "").replace("\n", "\n    "))
    print()
    print("Search suggestions:")
    print("    " + result.render(limit=args.top).replace("\n", "\n    "))
    _note_degradation(result)
    if args.stats:
        print(f"\n[{result.oracle_calls} oracle calls"
              + (", budget exhausted" if result.budget_exhausted else "") + "]",
              file=sys.stderr)
        if result.stats is not None:
            print(result.stats.summary(), file=sys.stderr)
        if result.degradation is not None:
            print(result.degradation.summary(), file=sys.stderr)
        _print_checker_work(metrics, with_prefix=True)
    _emit_telemetry(args, tracer, metrics)
    _close_events(args, events, metrics)
    return EXIT_SUGGESTIONS if result.suggestions else EXIT_NO_ANSWER


def _print_checker_work(metrics, *, with_prefix: bool) -> None:
    """The ``--stats`` lines counting work the checker actually did (so
    they read 0 on a fully warm store run); batch mode has no prefix
    line."""
    if with_prefix:
        reused = metrics.value("oracle.prefix.reused")
        full = metrics.value("oracle.full_checks")
        print(f"oracle prefix reuse: {reused} incremental, {full} full checks",
              file=sys.stderr)
    replayed = metrics.value("oracle.decl.replayed")
    checked = metrics.value("oracle.decl.checked")
    skipped = metrics.value("oracle.decl.skipped")
    print(f"oracle decl reuse: {replayed} replayed, {checked} checked, "
          f"{skipped} prefix-skipped", file=sys.stderr)
    speculated = metrics.value("oracle.trail.speculated")
    rolled = metrics.value("oracle.trail.rolled_back")
    print(f"oracle trail speculation: {speculated} speculated, "
          f"{rolled} entries rolled back", file=sys.stderr)


def _run_cpp(source: str, args: argparse.Namespace) -> int:
    from repro.cpptemplates import explain_cpp

    tracer, metrics = _telemetry(args)
    result = explain_cpp(
        source, max_checker_calls=args.max_calls, tracer=tracer, metrics=metrics
    )
    if result.ok:
        print("The program compiles.")
        _emit_telemetry(args, tracer, metrics)
        return EXIT_OK
    print("Compiler errors:")
    print("    " + result.check.render(args.file).replace("\n", "\n    "))
    if not args.checker_only:
        print()
        print("Search suggestions:")
        for i, suggestion in enumerate(result.suggestions[: args.top], start=1):
            print(f"    {i}. " + suggestion.render().replace("\n", "\n       "))
        if not result.suggestions:
            print("    (none found)")
    if args.stats:
        print(f"\n[{result.checker_calls} compiler calls]", file=sys.stderr)
    _emit_telemetry(args, tracer, metrics)
    if args.checker_only or result.suggestions:
        return EXIT_SUGGESTIONS
    return EXIT_NO_ANSWER


def _batch_status(entry) -> str:
    if entry.error is not None:
        return "input-error"
    if entry.ok:
        return "ok"
    if entry.suggestions:
        return "ill-typed"
    return "no-answer"


def _run_batch(argv: Sequence[str]) -> int:
    """``python -m repro explain``: many programs, one summary table."""
    args = build_batch_parser().parse_args(argv)
    paths = [pathlib.Path(f) for f in args.files]
    if args.dir is not None:
        directory = pathlib.Path(args.dir)
        # Both the existence probe and the walk can raise OSError (missing
        # mount, permission, too-long name ...): any of it is an input
        # error — one stderr line and exit 2, never a traceback.
        try:
            if not directory.is_dir():
                print(f"error: not a directory: {args.dir}", file=sys.stderr)
                return EXIT_INPUT_ERROR
            paths.extend(sorted(directory.rglob("*.ml")))
        except (OSError, ValueError) as err:
            print(f"error: cannot scan {args.dir}: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    # One row (and one search) per distinct file: a path given as FILE that
    # also lives under --dir — or simply listed twice — is explained once,
    # under its first-seen spelling.  Dedup by resolved path so `a.ml`,
    # `./a.ml`, and the --dir walk's absolute form all collapse.
    seen_resolved = set()
    unique_paths = []
    for path in paths:
        try:
            resolved = path.resolve()
        except OSError:
            resolved = path
        if resolved in seen_resolved:
            continue
        seen_resolved.add(resolved)
        unique_paths.append(path)
    paths = unique_paths
    if not paths:
        print("error: no input files (pass FILE... and/or --dir DIR)",
              file=sys.stderr)
        return EXIT_INPUT_ERROR

    from repro.core.seminal import BatchEntry, explain_many

    # Read everything up front; unreadable files become error entries in
    # place (one bad file must not sink the batch), the rest go through
    # explain_many in input order.
    labels = [str(p) for p in paths]
    sources: List[Optional[str]] = []
    for path in paths:
        try:
            sources.append(path.read_text())
        except (OSError, UnicodeDecodeError) as err:
            sources.append(None)
            print(f"error: cannot read {path}: {err}", file=sys.stderr)
    readable = [i for i, s in enumerate(sources) if s is not None]
    collect_metrics = bool(args.metrics or args.events or args.stats)
    profiler = _start_profile(args)
    explained = explain_many(
        [sources[i] for i in readable],
        [labels[i] for i in readable],
        jobs=args.jobs,
        top=args.top,
        enable_triage=not args.no_triage,
        max_oracle_calls=args.max_calls,
        deadline_seconds=args.deadline,
        collect_metrics=collect_metrics,
        store=args.store,
    )
    profile_rows = _finish_profile(profiler)
    entries = [
        BatchEntry(label=label, error="unreadable file", report="")
        for label in labels
    ]
    for i, entry in zip(readable, explained):
        entries[i] = entry

    width = max(len(e.label) for e in entries)
    print(f"{'file'.ljust(width)}  {'status':<11}  {'sugg':>4}  {'calls':>6}  {'time':>7}")
    for e in entries:
        status = _batch_status(e)
        if e.error is not None:
            sugg = calls = elapsed = "-"
        else:
            sugg = str(e.suggestions)
            calls = str(e.oracle_calls)
            elapsed = f"{e.elapsed_seconds:.2f}s"
        mark = " [degraded]" if e.degraded else ""
        print(f"{e.label.ljust(width)}  {status:<11}  {sugg:>4}  {calls:>6}  {elapsed:>7}{mark}")
    n_ok = sum(1 for e in entries if e.error is None and e.ok)
    n_err = sum(1 for e in entries if e.error is not None)
    n_ill = sum(1 for e in entries if e.error is None and not e.ok)
    n_no_answer = sum(
        1 for e in entries if e.error is None and not e.ok and not e.suggestions
    )
    total_time = sum(e.elapsed_seconds for e in entries)
    print(f"{len(entries)} files: {n_ok} ok, {n_ill} ill-typed "
          f"({n_no_answer} without suggestions), {n_err} input errors")
    if args.stats:
        total_calls = sum(e.oracle_calls for e in entries)
        print(f"[{total_calls} oracle calls, {total_time:.2f}s search time, "
              f"jobs={args.jobs}]", file=sys.stderr)
    if collect_metrics:
        # Per-entry registries were snapshotted where each search ran
        # (possibly a worker process); merge them deterministically here.
        from repro.obs import MetricsRegistry

        merged = MetricsRegistry()
        for e in entries:
            if e.metrics:
                merged.merge_snapshot(e.metrics)
        if args.stats:
            _print_checker_work(merged, with_prefix=False)
        if args.metrics:
            print(merged.render_table(title="batch telemetry"), file=sys.stderr)
        if args.events:
            from repro.obs import EventLog, metrics_fields

            with EventLog(args.events) as events:
                for e in entries:
                    events.emit(
                        "search_finished",
                        label=e.label,
                        ok=e.ok,
                        suggestions=e.suggestions,
                        oracle_calls=e.oracle_calls,
                        degraded=e.degraded,
                        elapsed_seconds=round(e.elapsed_seconds, 6),
                        error=e.error,
                    )
                events.emit(
                    "metrics",
                    **metrics_fields(merged.counters(), merged.span_seconds()),
                )
                if profile_rows:
                    events.emit("profile", hotspots=profile_rows)
            print(f"[event log written to {args.events}]", file=sys.stderr)
    if args.verbose:
        for e in entries:
            if e.error is None and e.ok:
                continue
            print(f"\n== {e.label} ==")
            print(e.report)
    if n_err:
        return EXIT_INPUT_ERROR
    if n_no_answer:
        return EXIT_NO_ANSWER
    if n_ill:
        return EXIT_SUGGESTIONS
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _dispatch(argv)
    except KeyboardInterrupt:
        # explain_many terminates its batch workers on the way up; the
        # user gets the conventional 128+SIGINT status, not a traceback.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def _dispatch(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "explain":
        return _run_batch(argv[1:])
    if argv and argv[0] == "report":
        from repro.obs.report import main as report_main

        return report_main(argv[1:])
    if argv and argv[0] == "cache":
        from repro.store.cli import cache_main

        return cache_main(argv[1:])
    args = build_parser().parse_args(argv)
    path = pathlib.Path(args.file)
    try:
        source = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        # UnicodeDecodeError: a binary or wrongly-encoded file is an input
        # error like any other, not a traceback.
        print(f"error: cannot read {args.file}: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    is_cpp = args.cpp or path.suffix in (".cpp", ".cc", ".cxx", ".C")
    try:
        if is_cpp:
            return _run_cpp(source, args)
        return _run_miniml(source, args)
    except Exception as err:  # parse errors etc.
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
