"""SEMINAL's core: search-based type-error messages (the paper's contribution).

Public surface:

* :func:`explain` — one call from source text to ranked suggestions.
* :func:`explain_many` — the batch mode: many programs per invocation,
  optionally fanned across worker processes (``jobs=``; see
  :func:`resolve_jobs` and :mod:`repro.core.parallel`).
* :class:`Searcher`, :class:`SearchConfig` — the search procedure.
* :class:`Oracle` — the boolean type-checker interface.
* :class:`MiniMLEnumerator` — the constructive-change catalog.
* :func:`rank` and the message renderers.
* :class:`DegradationReport`/:class:`Deadline` — the fault-tolerance layer
  (:mod:`repro.core.resilience`): every search is best-effort under
  budget, deadline, or oracle crashes.
* :class:`RetryPolicy`/:func:`with_retry` (:mod:`repro.core.retry`) —
  retrying transient I/O deterministically.
"""

from .changes import (  # noqa: F401
    KIND_ADAPT,
    KIND_CONSTRUCTIVE,
    KIND_REMOVE,
    Change,
    ChangeNode,
    Suggestion,
)
from .enumerator import (  # noqa: F401
    MiniMLEnumerator,
    adapt_expr,
    constructive_change,
    wildcard_expr,
    wildcard_pattern,
)
from .quickfix import AppliedFix, FixAllResult, apply_suggestion, fix_all  # noqa: F401
from .messages import render_report, render_suggestion, replacement_type  # noqa: F401
from .oracle import BudgetExceeded, IncrementalMismatch, Oracle  # noqa: F401
from .parallel import AUTO_JOBS, resolve_jobs  # noqa: F401
from .ranker import rank  # noqa: F401
from .resilience import (  # noqa: F401
    Deadline,
    DeadlineExceeded,
    DegradationReport,
    REASON_BUDGET,
    REASON_CRASH,
    REASON_DEADLINE,
    REASON_FALLBACK,
)
from .retry import RetryPolicy, retry, with_retry  # noqa: F401
from .searcher import SearchConfig, Searcher, SearchOutcome, SearchStats  # noqa: F401
from .seminal import BatchEntry, ExplainResult, explain, explain_many  # noqa: F401
