"""The reference check: every production answer against a from-scratch one.

The reference is ``explain`` under an :class:`~repro.core.oracle.Oracle`
given a plain function around ``typecheck_program``.  A custom checker opts
the oracle out of every reuse tier (prefix snapshot, decl-table replay,
trail), and the reference runs with no store and no pool, so it shares only
the search and the checker core with production.  It runs about three times
slower than production, so each distinct source is checked once, after the
timed region, in a pool of fresh (spawned) processes.
"""

from __future__ import annotations

import dataclasses
import gc
import io
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Tuple

from repro.core.oracle import Oracle
from repro.core.seminal import explain
from repro.miniml.infer import typecheck_program
from repro.miniml.parser import parse_program
from repro.tree import Node

#: ``explain``'s default oracle budget, which production runs under.
MAX_ORACLE_CALLS = 20000
#: Suggestions per rendered report (the CLI's and ``explain_many``'s default).
REPORT_LIMIT = 3


def plain_typecheck(program):
    """``typecheck_program`` behind a plain function, so an ``Oracle`` built
    on it uses no reuse tier."""
    return typecheck_program(program)


def reference_answer(source: str) -> Tuple[str, bool]:
    """The reference report for ``source`` and whether it type-checks."""
    program = parse_program(source)
    oracle = Oracle(typecheck=plain_typecheck, max_calls=MAX_ORACLE_CALLS)
    result = explain(program, oracle=oracle)
    return result.render(limit=REPORT_LIMIT), typecheck_program(program).ok


def _check_source(job) -> Tuple[str, bool, int]:
    source, programs = job
    report, ok = reference_answer(source)
    rejected = sum(
        1 for program in pickle.loads(programs) if not typecheck_program(program).ok
    )
    return report, ok, rejected


def _reference_answers(jobs_in, jobs: int) -> List[Tuple[str, bool, int]]:
    """``_check_source`` on every job, in a pool of spawned processes that
    is shut down, its workers joined, before this returns."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        return list(pool.map(_check_source, jobs_in, chunksize=4))


def _stop_resource_tracker() -> None:
    """Stop the resource tracker process a spawn pool starts, and reap it.

    Left running, the tracker outlives this process by design and ends only
    once it notices the exit; stopping it here means no process of the run
    survives the run.  The pool's semaphores are collected first, so none
    is left for the tracker to report or to start it again.
    """
    gc.collect()
    resource_tracker._resource_tracker._stop()


def _rebuild(cls, values, synthetic):
    node = cls.__new__(cls)
    for field, value in zip(dataclasses.fields(cls), values):
        setattr(node, field.name, value)
    node.synthetic = synthetic
    return node


class _ProgramPickler(pickle.Pickler):
    """Pickles AST nodes field by field, reading no ``__dict__``.

    The default reduction reads each node's ``__dict__``, which Python
    materializes on first access as a new dict the collector tracks.  A
    suggestion shares most of its nodes with the input program, so pickling
    it that way would leave tens of thousands of such dicts on the inputs,
    and every full collection in the timed calls after it would scan them.
    Source spans are left out: type-checking does not read them.
    """

    def reducer_override(self, obj):
        if isinstance(obj, Node):
            values = tuple(getattr(obj, field.name) for field in dataclasses.fields(obj))
            return _rebuild, (type(obj), values, obj.synthetic)
        return NotImplemented


def _dumps_programs(programs) -> bytes:
    buffer = io.BytesIO()
    _ProgramPickler(buffer).dump(list(programs))
    return buffer.getvalue()


@dataclass
class Answer:
    """Production's first complete answer for one distinct source."""

    report: str
    ok: bool
    #: The program of every suggestion, each of which must type-check,
    #: pickled by :class:`_ProgramPickler`: kept as bytes, they add nothing
    #: for the collector to scan while the timed passes run.
    programs: bytes


def _answer(report: str, result) -> Answer:
    return Answer(report, result.ok, _dumps_programs(s.program for s in result.suggestions))


class AnswerLog:
    """Every production answer of a run, checked once the timing is done.

    An attempt fails when it raised, came back degraded, rendered a report
    different from the first answer for the same source, or when that first
    answer disagrees with the reference.
    """

    def __init__(self) -> None:
        self.first: Dict[str, Answer] = {}
        #: (source, rendered report) per attempt; None when it raised or
        #: degraded.
        self.attempts: List[Tuple[str, Optional[str]]] = []
        self.problems: List[str] = []

    def record(self, source: str, result) -> None:
        """Log one ``ExplainResult`` (or the exception ``explain`` raised)."""
        if isinstance(result, BaseException) or result.degraded:
            self.attempts.append((source, None))
            return
        report = result.render(limit=REPORT_LIMIT)
        self.attempts.append((source, report))
        if source not in self.first:
            self.first[source] = _answer(report, result)

    def record_entry(self, source: str, entry) -> None:
        """Log one ``BatchEntry`` from ``explain_many``."""
        if entry.error is not None or entry.degraded or entry.result is None:
            self.attempts.append((source, None))
            return
        self.attempts.append((source, entry.report))
        if source not in self.first:
            self.first[source] = _answer(entry.report, entry.result)

    def failed(self, jobs: int) -> int:
        """Check the first answer per source against the reference; return
        how many attempts failed."""
        sources = list(self.first)
        jobs_in = [(s, self.first[s].programs) for s in sources]
        try:
            checked = _reference_answers(jobs_in, jobs)
        finally:
            _stop_resource_tracker()
        wrong = set()
        for source, (report, ok, rejected) in zip(sources, checked):
            answer = self.first[source]
            if answer.report != report:
                self.problems.append(f"report differs from the reference:\n{source}")
            elif answer.ok != ok:
                self.problems.append(f"ok={answer.ok} but the checker says {ok}:\n{source}")
            elif rejected:
                self.problems.append(f"{rejected} suggestion(s) do not type-check:\n{source}")
            else:
                continue
            wrong.add(source)
        failed = 0
        for source, report in self.attempts:
            if report is None or source in wrong or report != self.first[source].report:
                failed += 1
        raised = sum(1 for _, report in self.attempts if report is None)
        if raised:
            self.problems.append(f"{raised} attempt(s) raised or degraded")
        return failed
