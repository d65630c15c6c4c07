"""Interrupting a live search must shut the pool down, not orphan it.

These tests run the real CLI in a subprocess (its own session, so the
test runner's terminal is untouched), deliver SIGINT to the *parent
process only* — the workers are forked children that never see the
signal themselves — and assert the contract: exit code 130, a one-line
notice on stderr, and no worker processes left behind.

The interrupt lands early, while the parent is forking its pool.  A
SIGINT inside ``os.fork()`` can surface in an at-fork callback, where
CPython suppresses it ("Exception ignored in..."), and one landing just
after a fork could orphan the new worker, so ``explain_many`` holds
SIGINT back until every worker is forked and recorded
(:func:`repro.core.parallel.sigint_deferred`); the harness still retries
a run that completed normally despite the signal.

The harness spots a worker by scanning ``/proc``, so a worker must live
for many scans: each file is a search of tens of milliseconds, and the
scan repeats every :data:`SPAWN_POLL_S`.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Sixty helpers, then a forty-term sum ending in the ill-typed
#: ``f0 true``: enough search per file that a worker outlives many polls.
ILL_TYPED = (
    "".join(f"let f{i} x = x + {i}\n" for i in range(60))
    + "let b = "
    + " + ".join(f"f{i} {i}" for i in range(40))
    + " + f0 true\n"
)

#: How often the harness scans for the first forked worker.
SPAWN_POLL_S = 0.005


def _procs_mentioning(token: str):
    """PIDs whose command line contains ``token`` (fork workers inherit
    the parent's cmdline, so the unique tmp path tags the whole tree)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = (Path("/proc") / entry / "cmdline").read_bytes()
        except OSError:
            continue
        if token.encode() in cmdline:
            pids.append(int(entry))
    return pids


def _wait_until(predicate, timeout: float, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _interrupt_run(argv, token, attempts: int = 5):
    """Run ``argv``, SIGINT the parent the moment its pool starts
    forking, and return ``(returncode, stdout, stderr)``.

    Retries when the interrupt was provably swallowed by the fork race
    (the run completed normally despite the signal).  Each attempt
    starts from a clean process table so the token scan never counts a
    previous attempt's dying workers.
    """
    last = None
    for _ in range(attempts):
        assert _wait_until(
            lambda: _procs_mentioning(token) == [], timeout=30.0
        ), "previous attempt's processes never exited"
        proc = subprocess.Popen(
            argv,
            env={"PYTHONPATH": SRC,
                 "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # our own terminal must not see the ^C
        )
        try:
            spawned = _wait_until(
                lambda: len(_procs_mentioning(token)) >= 2,
                timeout=30.0,
                interval=SPAWN_POLL_S,
            )
            assert spawned, "the batch pool never spawned a worker"
            os.kill(proc.pid, signal.SIGINT)  # the parent ONLY
            out, err = proc.communicate(timeout=60)
            last = (proc.returncode, out, err)
        except subprocess.TimeoutExpired:
            last = None  # wedged: kill and retry below
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if last is not None and last[0] == 130:
            return last
    assert last is not None, "every attempt timed out waiting for exit"
    return last


@pytest.fixture
def corpus_dir(tmp_path):
    # Enough work that the batch is reliably still running when the
    # interrupt lands (each file is an independent full search).
    directory = tmp_path / "sigint-corpus"
    directory.mkdir()
    for i in range(24):
        (directory / f"prog{i:02d}.ml").write_text(ILL_TYPED)
    return directory


class TestSigintMidSearch:
    def test_interrupt_exits_130_and_leaves_no_orphans(self, corpus_dir):
        token = str(corpus_dir)
        code, out, err = _interrupt_run(
            [sys.executable, "-m", "repro", "explain", "--dir", token,
             "--jobs", "2"],
            token,
        )
        assert code == 130, (out, err)
        assert "interrupted" in err
        # Prompt shutdown took the workers with it: nothing in the
        # process table still mentions our unique corpus path.
        assert _wait_until(
            lambda: _procs_mentioning(token) == [], timeout=10.0
        ), f"orphan workers: {_procs_mentioning(token)}"

    def test_interrupted_store_is_usable_next_run(self, corpus_dir, tmp_path):
        from repro.store import VerdictStore

        token = str(corpus_dir)
        store_dir = tmp_path / "store"
        code, out, err = _interrupt_run(
            [sys.executable, "-m", "repro", "explain", "--dir", token,
             "--jobs", "2", "--store", str(store_dir)],
            token,
        )
        assert code == 130, (out, err)
        # Whatever the interrupted run managed to publish is served; any
        # half-written leftovers are invisible (never a raise, no torn
        # segments indexed).
        store = VerdictStore(store_dir)
        assert store.skipped_lines == 0
        store.close()
