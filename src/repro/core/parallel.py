"""File-level fan-out: one whole search per worker process.

SEMINAL's searches are embarrassingly parallel *across files* (paper
Section 5): every program is explained independently.  This module holds
the process plumbing behind :func:`repro.core.seminal.explain_many` (and
so ``python -m repro explain --jobs N``):

* :func:`resolve_jobs` — normalize a ``jobs`` knob to a worker count;
* :func:`adopt_store_session` — the pool initializer that hands each
  worker the batch's one verdict-store session (inherited across the
  fork, so a worker never re-reads what the parent already loaded);
* :func:`explain_batch_worker` — the per-*program* worker task: one whole
  serial ``explain()`` call, its :class:`~repro.core.seminal.BatchEntry`
  pickled for the trip home;
* :func:`sigint_deferred` and :func:`terminate_executor` — prompt,
  orphan-free teardown on interrupt.

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
import signal
from contextlib import contextmanager
from typing import Iterator, Union

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


@contextmanager
def sigint_deferred() -> Iterator[None]:
    """Hold SIGINT back while a pool forks its workers.

    A Ctrl-C landing between a worker's fork and the executor recording
    it would leave a worker that :func:`terminate_executor` cannot see:
    orphaned, blocked on the task queue forever.  Blocked across the
    forks, the signal is delivered once every worker is recorded.  The
    workers inherit the mask, so only the parent ever acts on Ctrl-C.
    """
    if not hasattr(signal, "pthread_sigmask"):  # pragma: no cover - non-POSIX
        yield
        return
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


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


#: The verdict-store session this worker process shares across its files
#: (set by :func:`adopt_store_session`; None outside workers and for
#: batches without a store).
_store_session = None


def adopt_store_session(session) -> None:
    """Pool initializer: make ``session`` the store every task of this
    worker uses in place of the pickled ``store`` argument."""
    global _store_session
    _store_session = session


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

    kwargs = pickle.loads(kwargs_blob)
    if _store_session is not None:
        kwargs["store"] = _store_session
    entry = _explain_entry(label, source, top, kwargs)
    try:
        return pickle.dumps(entry)
    except Exception:
        entry.result = None
        return pickle.dumps(entry)
