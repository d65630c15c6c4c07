"""Fault tolerance for the search: deadlines and graceful degradation.

SEMINAL's architecture treats the type-checker as an opaque yes/no oracle;
this module extends that stance to *failures*: the oracle (or the search
itself) may run out of budget, blow a wall-clock deadline, crash on a
pathological candidate, or discover that its incremental fast path lied.
None of those may abort an ``explain()`` call — the contract is strictly
best-effort, the way SMT-based localizers bound solver effort per query
(Pavlinovic et al.) and Charguéraud's OCaml work layers message generation
atop an unmodified checker.  Instead every search returns the suggestions
found so far plus a :class:`DegradationReport` saying exactly what was
given up and why.

Pieces:

* :class:`Deadline` — a monotonic wall-clock budget with a *soft* horizon:
  past :data:`SHED_FRACTION` of the deadline the searcher sheds its expensive
  phases (constructive enumeration, adaptation, triage) so the cheap
  removal results already in hand survive; past the full deadline the next
  oracle tick raises :class:`DeadlineExceeded`, which the searcher catches
  at the top the same way it catches ``BudgetExceeded``.
* :class:`DegradationReport` — the structured account attached to every
  :class:`~repro.core.searcher.SearchOutcome` / ``ExplainResult``:
  which reasons fired (``budget``/``deadline``/``crash``/``fallback``),
  how many oracle crashes and prefix fallbacks occurred, which phases were
  shed, elapsed wall clock, and a bounded sample of crash tracebacks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The four ways a search degrades (``DegradationReport.reasons`` entries).
REASON_BUDGET = "budget"
REASON_DEADLINE = "deadline"
REASON_CRASH = "crash"
REASON_FALLBACK = "fallback"

ALL_REASONS = (REASON_BUDGET, REASON_DEADLINE, REASON_CRASH, REASON_FALLBACK)

#: The soft horizon: the share of a deadline after which the searcher sheds
#: its optional phases — late enough to matter only when the hard deadline
#: is a real threat, early enough to leave time for wrapping up cheap work.
SHED_FRACTION = 0.85


class DeadlineExceeded(Exception):
    """The search blew its wall-clock deadline.

    Raised by :meth:`Searcher._tick <repro.core.searcher.Searcher._tick>`
    between oracle tests and caught in ``search_program`` — it never
    escapes ``explain()``.
    """

    def __init__(self, seconds: float, elapsed: float):
        super().__init__(
            f"search deadline of {seconds:g}s exceeded ({elapsed:.3f}s elapsed)"
        )
        self.seconds = seconds
        self.elapsed = elapsed


class Deadline:
    """A wall-clock budget on the monotonic clock.

    ``seconds=None`` means "no deadline": :meth:`expired` and
    :meth:`soft_expired` are constant ``False`` and only :meth:`elapsed`
    does any timekeeping.  The soft horizon, at which the searcher starts
    shedding optional phases, is :data:`SHED_FRACTION` of the budget.
    """

    __slots__ = ("seconds", "_start")

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self._start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def remaining(self) -> Optional[float]:
        if self.seconds is None:
            return None
        return max(0.0, self.seconds - self.elapsed())

    def expired(self) -> bool:
        return self.seconds is not None and self.elapsed() >= self.seconds

    def soft_expired(self) -> bool:
        return (
            self.seconds is not None
            and self.elapsed() >= self.seconds * SHED_FRACTION
        )


@dataclass
class DegradationReport:
    """What a search gave up, and why — attached to every outcome.

    ``reasons`` is the deduplicated, first-fired-first order list of
    degradation causes (subset of :data:`ALL_REASONS`); an empty list
    means the search ran to completion at full fidelity.  The counters
    mirror the oracle's resilience accounting at the moment the search
    finished, so the report is self-contained even after the oracle is
    reset for the next search.
    """

    reasons: List[str] = field(default_factory=list)
    #: Oracle invocations whose crash was converted to "candidate rejected".
    oracle_crashes: int = 0
    #: Prefix-reuse checks that crashed and were re-run from scratch.
    prefix_fallbacks: int = 0
    #: Candidates rejected by the depth pre-check (never typechecked).
    depth_rejections: int = 0
    #: Phase name -> number of times the soft deadline shed it.
    phases_shed: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    deadline_seconds: Optional[float] = None
    budget: Optional[int] = None
    #: Bounded sample of crash tracebacks (see ``Oracle.crash_samples``).
    crash_samples: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        # The flight-recorder hook; not a dataclass field so it stays out
        # of __eq__/repr and (via __getstate__) out of pickles — reports
        # cross process boundaries in batch mode, event sinks do not.
        self._events = None

    def attach_events(self, events) -> None:
        """Hook a :class:`~repro.obs.EventLog`: every newly noted reason
        emits a ``degraded`` event, every first shed of a phase a
        ``phase_shed`` event, as they happen."""
        self._events = events

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_events", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._events = None

    @property
    def degraded(self) -> bool:
        return bool(self.reasons)

    def note(self, reason: str) -> None:
        """Record one degradation cause (idempotent)."""
        if reason not in self.reasons:
            self.reasons.append(reason)
            if self._events is not None:
                self._events.emit("degraded", reason=reason)

    def note_shed(self, phase: str) -> None:
        """Record that the soft deadline shed one unit of ``phase`` work."""
        first = phase not in self.phases_shed
        self.phases_shed[phase] = self.phases_shed.get(phase, 0) + 1
        if first and self._events is not None:
            self._events.emit("phase_shed", phase=phase)

    def summary(self) -> str:
        """One-line human-readable account (the ``--stats`` line)."""
        if not self.degraded:
            return "search degradation: none"
        parts = [f"search degradation: degraded ({'+'.join(self.reasons)})"]
        if self.oracle_crashes:
            parts.append(f"crashes={self.oracle_crashes}")
        if self.prefix_fallbacks:
            parts.append(f"prefix_fallbacks={self.prefix_fallbacks}")
        if self.depth_rejections:
            parts.append(f"depth_rejections={self.depth_rejections}")
        if self.phases_shed:
            shed = ",".join(f"{k}x{v}" for k, v in sorted(self.phases_shed.items()))
            parts.append(f"shed={shed}")
        parts.append(f"elapsed={self.elapsed_seconds:.3f}s")
        if self.deadline_seconds is not None:
            parts.append(f"deadline={self.deadline_seconds:g}s")
        return " ".join(parts)
