"""File-level fan-out: one whole search per worker process.

SEMINAL's searches are embarrassingly parallel *across files* (paper
Section 5): every program is explained independently.  This module holds
the process plumbing behind :func:`repro.core.seminal.explain_many` (and
so ``python -m repro explain --jobs N``):

* :func:`resolve_jobs` — normalize a ``jobs`` knob to a worker count;
* :func:`explain_batch_worker` — the per-*program* worker task: one whole
  serial ``explain()`` call, its :class:`~repro.core.seminal.BatchEntry`
  pickled for the trip home;
* :func:`terminate_executor` — prompt teardown on interrupt.

Candidate checks inside one search always run serially in the process
doing the search: a median search takes a few milliseconds, so a single
check costs less than the pickle round trip that would ship it to a
worker.

Crash isolation is per file: a worker that dies breaks the executor, and
``explain_many`` re-runs every file whose entry did not come back serially
in the parent, so the batch's answers are the serial answers either way.
"""

from __future__ import annotations

import os
import pickle
from typing import Union

#: ``jobs`` sentinel: use one worker per CPU.
AUTO_JOBS = "auto"

Jobs = Union[int, str, None]


def resolve_jobs(jobs: Jobs) -> int:
    """Normalize a ``jobs`` knob to a worker count (1 = serial).

    ``None`` and ``1`` mean serial; :data:`AUTO_JOBS` means one worker per
    CPU (so on a single-core machine ``"auto"`` *is* serial); an integer
    is used as given.  Anything else raises ``ValueError``.
    """
    if jobs is None or jobs == 1:
        return 1
    if jobs == AUTO_JOBS:
        return max(1, os.cpu_count() or 1)
    try:
        n = int(jobs)
        integral = float(jobs) == n
    except (TypeError, ValueError):
        raise ValueError(f"jobs must be a positive int or {AUTO_JOBS!r}, got {jobs!r}")
    if not integral or n < 1:
        raise ValueError(f"jobs must be a positive int or {AUTO_JOBS!r}, got {jobs!r}")
    return n


def _fork_context():
    """Prefer ``fork`` workers (fast start, inherits imports); fall back to
    the platform default where fork is unavailable."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def terminate_executor(executor) -> None:
    """Tear a process pool down *promptly*: terminate worker processes
    (a hung worker would otherwise survive ``shutdown``), then release the
    executor without waiting.  Never raises — teardown is best-effort."""
    try:
        procs = list(getattr(executor, "_processes", {}).values())
    except Exception:  # pragma: no cover - executor internals moved
        procs = []
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - teardown best-effort
        pass



def explain_batch_worker(
    label: str, source: str, top: int, kwargs_blob: bytes
) -> bytes:
    """One whole ``explain()`` call, packaged for a worker process.

    Returns a pickled :class:`repro.core.seminal.BatchEntry` — rendering
    happens worker-side so the summary survives even if the full
    :class:`ExplainResult` cannot cross the process boundary (the entry is
    then shipped with ``result=None``).  Input failures (parse errors,
    undecodable text) become ``error`` entries, not exceptions: one bad
    file must never sink the batch.
    """
    from repro.core.seminal import _explain_entry

    entry = _explain_entry(label, source, top, pickle.loads(kwargs_blob))
    try:
        return pickle.dumps(entry)
    except Exception:
        entry.result = None
        return pickle.dumps(entry)
