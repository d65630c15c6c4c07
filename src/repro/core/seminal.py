"""The top-level SEMINAL driver: one call from ill-typed source to messages.

This is the public API a compiler front end would call between parsing and
type-checking (paper Figure 1): files that type-check bypass it entirely;
for the rest it returns the conventional checker message *and* the ranked
search-based suggestions, so callers (like the empirical study in
:mod:`repro.evaluation`) can compare the two.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.miniml.ast_nodes import Program
from repro.miniml.errors import MiniMLTypeError
from repro.miniml.parser import parse_program
from repro.obs import (
    NULL_EVENTS,
    NULL_METRICS,
    NULL_TRACER,
    degradation_as_dict,
    suggestion_rows,
)

from .changes import Suggestion
from .enumerator import MiniMLEnumerator
from .messages import render_report, render_suggestion
from .oracle import Oracle
from .ranker import rank
from .resilience import DegradationReport
from .searcher import SearchConfig, Searcher, SearchStats


@dataclass
class ExplainResult:
    """Outcome of :func:`explain` on one program."""

    ok: bool
    program: Program
    #: The conventional type-checker's error (None when ``ok``).
    checker_error: Optional[MiniMLTypeError] = None
    #: Ranked suggestions, best first (empty when ``ok`` or nothing found).
    suggestions: List[Suggestion] = field(default_factory=list)
    #: Index of the first failing top-level declaration.
    bad_decl_index: Optional[int] = None
    #: Total type-checker invocations the search performed.
    oracle_calls: int = 0
    #: True if the search stopped early on its oracle budget.
    budget_exhausted: bool = False
    #: Per-phase oracle-call breakdown and per-rule success counts.
    stats: Optional[SearchStats] = None
    #: The metrics registry the search counted into (None unless the caller
    #: passed one to :func:`explain` — see ``repro.obs``).
    metrics: Optional[object] = None
    #: What (if anything) the search gave up — budget, deadline, isolated
    #: oracle crashes, prefix fallbacks (see :mod:`repro.core.resilience`).
    degradation: Optional[DegradationReport] = None

    @property
    def degraded(self) -> bool:
        """True when the suggestions are best-effort rather than complete."""
        return self.degradation is not None and self.degradation.degraded

    @property
    def best(self) -> Optional[Suggestion]:
        """The top-ranked suggestion (the message we lead with)."""
        return self.suggestions[0] if self.suggestions else None

    @property
    def checker_message(self) -> Optional[str]:
        return self.checker_error.render() if self.checker_error else None

    def render(self, limit: int = 3) -> str:
        """Human-readable report (ranked suggestions or the checker error)."""
        if self.ok:
            return "The program type-checks."
        return render_report(self.suggestions, self.checker_message, limit=limit)

    def render_best(self) -> str:
        """Just the single best message."""
        if self.ok:
            return "The program type-checks."
        if self.best is None:
            return self.checker_message or "Ill-typed, and no suggestion found."
        return render_suggestion(self.best)


def explain(
    source: Union[str, Program],
    *,
    enable_triage: bool = True,
    enable_adaptation: bool = True,
    incremental: bool = True,
    depprune: bool = True,
    speculate: bool = True,
    max_oracle_calls: Optional[int] = 20000,
    deadline_seconds: Optional[float] = None,
    triage_threshold: int = 5,
    disabled_rules: Sequence[str] = (),
    oracle: Optional[Oracle] = None,
    triage_strategy: str = "greedy",
    eager_enumeration: bool = False,
    custom_rules: Sequence = (),
    tracer=None,
    metrics=None,
    events=None,
    label: str = "",
    dedup: bool = True,
    store=None,
    shed_fraction: float = 0.85,
) -> ExplainResult:
    """Search for type-error messages for ``source``.

    Parameters mirror the knobs the paper evaluates: ``enable_triage=False``
    reproduces the "without triage" configuration of Section 3, and
    ``disabled_rules`` supports the Figure 7 constructive-change ablation.
    ``incremental=False`` disables the prefix-reuse oracle (every candidate
    is re-inferred from the empty environment — the pre-optimization
    behaviour, kept as an escape hatch and for benchmarking the win).
    ``depprune=False`` disables the declaration outcome table (the second
    reuse tier: full-path checks replay recorded schemes for declarations a
    change cannot affect) — answers are identical either way; only the
    ``oracle.decl.*`` telemetry and wall time differ.
    ``speculate=False`` disables trail-based speculative inference (the
    third reuse tier: candidates checked against the live armed state with
    undo-trail rollback instead of per-check environment copies) — again
    answer-preserving; only ``oracle.trail.*`` telemetry and wall time
    differ.

    The call is best-effort by contract (see :mod:`repro.core.resilience`):
    running out of the oracle budget or the optional wall-clock
    ``deadline_seconds``, and any oracle crash on a pathological candidate,
    never raises — the result carries whatever suggestions were found plus
    a :class:`~repro.core.resilience.DegradationReport` in ``degradation``
    saying exactly what was given up.  Parse errors of ``source`` still
    raise (they are input errors, not search failures).

    ``dedup=False`` disables the per-search duplicate-candidate memo (an
    ablation/debugging escape hatch — the memo never changes answers).
    ``shed_fraction`` sets the point inside ``deadline_seconds`` at which
    optional phases start shedding (default 0.85 — the historical
    behaviour).  The search itself is always serial; to use several
    processes, explain several programs with :func:`explain_many`.

    ``tracer``/``metrics``/``events`` (see :mod:`repro.obs`) switch on
    telemetry: a :class:`~repro.obs.Tracer` records a Perfetto-loadable
    span tree of the whole search, a :class:`~repro.obs.MetricsRegistry`
    accumulates the counters (oracle calls by outcome, per-rule change
    accounting, triage rounds, suggestions ranked), and an
    :class:`~repro.obs.EventLog` receives the lifecycle record
    (``search_started``/``search_finished``, oracle crashes, shed phases,
    the ranked ``suggestions``, a ``degradation`` event when the search
    gave anything up).  All default to shared null objects with no
    measurable overhead.  ``label`` names the run in event lines.

    ``store`` enables the persistent cross-run verdict cache (see
    :mod:`repro.store`): a directory path (opened here and closed on the
    way out) or an already-open
    :class:`~repro.store.VerdictStore` (flushed, but left open for the
    caller).  Warm runs skip re-checking candidates seen by any earlier
    run while keeping suggestions, ranks, and ``--stats`` byte-identical
    to a cold or store-less run; a ``store`` event with hit/miss/write
    counts is emitted to the event log.

    >>> result = explain('let x = 1 + true')
    >>> result.ok
    False
    >>> result.best is not None
    True
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    registry = metrics if metrics is not None else NULL_METRICS
    events = events if events is not None else NULL_EVENTS
    start = time.perf_counter()
    if isinstance(source, str):
        with tracer.span("parse", chars=len(source)):
            program = parse_program(source)
    else:
        program = source
    events.emit("search_started", label=label, decls=len(program.decls))
    store_obj = None
    owns_store = False
    if store is not None:
        from repro.store import VerdictStore

        if isinstance(store, VerdictStore):
            store_obj = store
        else:
            store_obj = VerdictStore(store)
            owns_store = True
        if oracle is None:
            oracle = Oracle(
                max_calls=max_oracle_calls,
                metrics=registry,
                incremental=incremental,
                depprune=depprune,
                speculate=speculate,
                store=store_obj,
            )
        else:
            oracle.attach_store(store_obj)
    config = SearchConfig(
        max_oracle_calls=max_oracle_calls,
        deadline_seconds=deadline_seconds,
        enable_triage=enable_triage,
        enable_adaptation=enable_adaptation,
        incremental=incremental,
        depprune=depprune,
        speculate=speculate,
        triage_threshold=triage_threshold,
        disabled_rules=disabled_rules,
        triage_strategy=triage_strategy,
        eager_enumeration=eager_enumeration,
        custom_rules=custom_rules,
        dedup=dedup,
        shed_fraction=shed_fraction,
    )
    searcher = Searcher(
        oracle=oracle,
        config=config,
        tracer=tracer,
        metrics=registry,
        events=events,
    )
    outcome = searcher.search_program(program)
    with tracer.span("rank", candidates=len(outcome.suggestions)):
        ranked = rank(outcome.suggestions)
    registry.incr("rank.suggestions_ranked", len(ranked))
    if store_obj is not None:
        try:
            if owns_store:
                store_obj.close()
            else:
                store_obj.flush()
        except Exception:
            pass  # persisting the cache is best-effort; answers stand
        if events.enabled:
            events.emit(
                "store",
                label=label,
                path=str(store_obj.path),
                hits=searcher.oracle.store_hits,
                misses=searcher.oracle.store_misses,
                writes=searcher.oracle.store_writes,
            )
    if events.enabled:
        if ranked:
            events.emit("suggestions", label=label, ranks=suggestion_rows(ranked))
        if outcome.degradation is not None and outcome.degradation.degraded:
            events.emit(
                "degradation", **degradation_as_dict(outcome.degradation)
            )
        events.emit(
            "search_finished",
            label=label,
            ok=outcome.ok,
            suggestions=len(ranked),
            oracle_calls=outcome.oracle_calls,
            degraded=bool(
                outcome.degradation is not None and outcome.degradation.degraded
            ),
            elapsed_seconds=round(time.perf_counter() - start, 6),
        )
    return ExplainResult(
        ok=outcome.ok,
        program=program,
        checker_error=outcome.checker_error,
        suggestions=ranked,
        bad_decl_index=outcome.bad_decl_index,
        oracle_calls=outcome.oracle_calls,
        budget_exhausted=outcome.budget_exhausted,
        stats=outcome.stats,
        metrics=metrics,
        degradation=outcome.degradation,
    )


# ---------------------------------------------------------------------------
# Batch mode: many programs per invocation
# ---------------------------------------------------------------------------


@dataclass
class BatchEntry:
    """Outcome of one program in an :func:`explain_many` batch.

    The rendered ``report``/``best`` strings are produced where the search
    ran (possibly a worker process), so the human-readable summary is
    always available even if the full :class:`ExplainResult` could not be
    shipped back (then ``result`` is None).  ``error`` is set for *input*
    failures — a parse error or an unreadable source — which are recorded
    per entry, never raised: one bad file must not sink the batch.
    """

    label: str
    ok: bool = False
    #: Input-error text (parse failure etc.); None when the search ran.
    error: Optional[str] = None
    #: The full rendered report (checker message + ranked suggestions).
    report: str = ""
    #: Just the single best message.
    best: str = ""
    suggestions: int = 0
    oracle_calls: int = 0
    degraded: bool = False
    elapsed_seconds: float = 0.0
    #: PID of the process that ran the search (the parent's for serial).
    worker_pid: int = 0
    #: The per-entry metrics snapshot (``MetricsRegistry.snapshot()``) when
    #: the batch was run with ``collect_metrics=True`` — plain picklable
    #: data, so it crosses process boundaries even when ``result`` cannot.
    metrics: Optional[Dict] = None
    #: The full result when available (always for serial batches).
    result: Optional[ExplainResult] = None


def _explain_entry(
    label: str, source: str, top: int, kwargs: Dict
) -> BatchEntry:
    """Run one :func:`explain` call and package it as a :class:`BatchEntry`
    (exceptions become error entries — this must never raise).

    ``collect_metrics=True`` in ``kwargs`` (consumed here, not forwarded)
    runs the search under a fresh :class:`~repro.obs.MetricsRegistry` and
    ships its snapshot in :attr:`BatchEntry.metrics` — the route batch
    telemetry takes home from worker processes, since a live registry
    cannot cross the boundary.
    """
    start = time.perf_counter()
    entry = BatchEntry(label=label, worker_pid=os.getpid())
    registry = None
    if kwargs.pop("collect_metrics", False) and kwargs.get("metrics") is None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        kwargs["metrics"] = registry
    kwargs.setdefault("label", label)
    try:
        result = explain(source, **kwargs)
    except Exception as err:
        entry.error = str(err) or type(err).__name__
        entry.report = f"error: {entry.error}"
    else:
        entry.ok = result.ok
        entry.report = result.render(limit=top)
        entry.best = result.render_best()
        entry.suggestions = len(result.suggestions)
        entry.oracle_calls = result.oracle_calls
        entry.degraded = result.degraded
        entry.result = result
    if registry is not None:
        entry.metrics = registry.snapshot()
    entry.elapsed_seconds = time.perf_counter() - start
    return entry


def explain_many(
    sources: Iterable[str],
    labels: Optional[Sequence[str]] = None,
    *,
    jobs: Union[int, str, None] = 1,
    top: int = 3,
    **kwargs,
) -> List[BatchEntry]:
    """Explain many programs in one call — the batch mode behind
    ``python -m repro explain --jobs N FILE...``.

    Entries come back in input order, one per source, regardless of which
    worker finished when.  ``jobs`` parallelizes *across programs*: each
    worker process runs a whole serial ``explain`` per task (see
    :mod:`repro.core.parallel`).  Remaining keyword arguments are forwarded
    to :func:`explain` verbatim; with ``jobs > 1`` they must be picklable
    (in particular ``oracle``/``tracer``/``metrics``/``events`` objects
    cannot cross process boundaries — leave them unset for parallel
    batches).  ``collect_metrics=True`` instead runs each entry under a
    fresh registry *where the search runs* and ships the snapshot back in
    :attr:`BatchEntry.metrics` for the caller to merge
    (``MetricsRegistry.merge_snapshot``).

    Crash isolation is per file: a worker-process failure degrades, never
    raises — every program whose entry did not come back is re-run
    serially in the parent, so every entry carries the serial answer
    either way.
    """
    source_list = list(sources)
    if labels is None:
        label_list = [f"program[{i}]" for i in range(len(source_list))]
    else:
        label_list = [str(label) for label in labels]
        if len(label_list) != len(source_list):
            raise ValueError(
                f"got {len(source_list)} sources but {len(label_list)} labels"
            )
    from .parallel import _fork_context, explain_batch_worker, resolve_jobs

    n_jobs = min(resolve_jobs(jobs), max(1, len(source_list)))
    if n_jobs <= 1:
        return [
            _explain_entry(label, source, top, dict(kwargs))
            for label, source in zip(label_list, source_list)
        ]

    import pickle
    from concurrent.futures import ProcessPoolExecutor

    from .parallel import terminate_executor

    kwargs_blob = pickle.dumps(dict(kwargs))
    entries: List[Optional[BatchEntry]] = [None] * len(source_list)
    pool = ProcessPoolExecutor(max_workers=n_jobs, mp_context=_fork_context())
    try:
        futures = [
            pool.submit(explain_batch_worker, label, source, top, kwargs_blob)
            for label, source in zip(label_list, source_list)
        ]
        for i, future in enumerate(futures):
            try:
                entries[i] = pickle.loads(future.result())
            except Exception:
                entries[i] = None  # worker died: parent re-runs below
    except Exception:
        pass  # a broken executor degrades every pending entry to serial
    except BaseException:
        # KeyboardInterrupt (or another teardown signal) mid-batch: kill
        # the workers *now* — shutdown(wait=True) would block on checks
        # already in flight — then let the interrupt propagate.
        terminate_executor(pool)
        raise
    pool.shutdown(wait=True)
    for i, entry in enumerate(entries):
        if entry is None:
            entries[i] = _explain_entry(
                label_list[i], source_list[i], top, dict(kwargs)
            )
    return entries
