"""Crash consistency: a writer killed mid-run must never poison the store.

The store's publication discipline (build in ``.tmp-*``, publish with one
atomic rename) means a reader can only ever observe whole segments.  These
tests kill a writing process for real — ``os._exit``, the kill no
``except`` can catch — and then assert the recovery story: the next reader opens cleanly, serves
whatever was published, ignores the dead writer's leftovers, and the next
run backfills the verdicts the crash lost.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"

#: Runs in a child process: checks programs against an oracle that
#: hard-exits the whole process on the Nth call, with the verdict store
#: publishing a segment per verdict (``FLUSH_EVERY`` set to 1) so earlier
#: answers are already on disk when the kill lands.
WRITER_SCRIPT = """
import os
import sys
from repro.core.oracle import Oracle
from repro.miniml.parser import parse_program
from repro.store import VerdictStore, verdicts

store_dir, crash_every = sys.argv[1], int(sys.argv[2])
verdicts.FLUSH_EVERY = 1


class KillingOracle(Oracle):
    def _check_once(self, program):
        if self.calls % crash_every == 0:
            os._exit(23)
        return super()._check_once(program)


store = VerdictStore(store_dir)
oracle = KillingOracle(store=store)
programs = [
    "let a = 1 + 2",
    "let b = true && false",
    "let c = [1; 2; 3]",
    "let d = 1 + true",
    "let e = if 1 then 2 else 3",
    "let f x = x + 1\\nlet g = f true",
]
for source in programs:
    oracle.check(parse_program(source))
print("survived", oracle.calls)
"""


def _run_writer(store_dir, crash_every):
    return subprocess.run(
        [sys.executable, "-c", WRITER_SCRIPT, str(store_dir), str(crash_every)],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestHardExitWriter:
    def test_killed_writer_leaves_usable_store(self, tmp_path):
        from repro.store import VerdictStore

        store_dir = tmp_path / "s"
        proc = _run_writer(store_dir, crash_every=4)
        assert proc.returncode == 23  # hard-exit fired, writer is dead
        assert "survived" not in proc.stdout

        store = VerdictStore(store_dir)
        # Verdicts published before the kill are served; the run after the
        # kill never raises on whatever the corpse left behind.
        assert len(store) == 3
        assert store.skipped_segments == 0
        assert store.invalidated == 0

    def test_next_run_backfills_lost_verdicts(self, tmp_path):
        from repro.core.oracle import Oracle
        from repro.miniml.parser import parse_program
        from repro.store import VerdictStore

        store_dir = tmp_path / "s"
        assert _run_writer(store_dir, crash_every=4).returncode == 23
        before = len(VerdictStore(store_dir, read_only=True))

        oracle = Oracle(store=VerdictStore(store_dir))
        oracle.check(parse_program(ILL_TYPED))
        oracle.store.close()

        after = VerdictStore(store_dir, read_only=True)
        assert len(after) > before  # the crash-lost verdicts re-accumulate
        assert after.skipped_segments == 0

    def test_torn_tmp_from_dead_writer_is_invisible(self, tmp_path):
        from repro.store import VerdictStore

        store_dir = tmp_path / "s"
        with VerdictStore(store_dir) as store:
            store.put(("key",), True)
        # A writer that died between write() and the atomic rename leaves
        # a half-written temp file; readers must not even look at it.
        (store_dir / ".tmp-31337-1").write_text('{"v": 1, "chec')

        reader = VerdictStore(store_dir)
        assert len(reader) == 1
        assert reader.skipped_segments == 0
        assert reader.skipped_lines == 0
        # Compaction sweeps the corpse.
        assert VerdictStore(store_dir).compact()["removed_tmp"] == 1


#: Runs in a child process: publishes some verdicts, then starts a
#: segment write that blocks *between* the temp-file write and the
#: atomic rename, prints a marker, and waits for the parent's SIGINT.
#: The interrupt therefore provably lands mid-publication — the worst
#: possible moment — leaving a fully-written ``.tmp-*`` corpse behind.
INTERRUPTED_WRITER_SCRIPT = """
import os, sys, time
from repro.store import VerdictStore, verdicts

verdicts.FLUSH_EVERY = 1

class MidWriteStall(VerdictStore):
    def _write_segment_file(self, tmp, final, body):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(body + "\\n")
        if getattr(self, "stall", False):
            print("MID-WRITE", flush=True)
            time.sleep(30)  # SIGINT lands here
        os.replace(tmp, final)

store = MidWriteStall(sys.argv[1])
store.put(("published-1",), True)
store.put(("published-2",), False)
store.stall = True
store.put(("torn",), True)
print("UNREACHED", flush=True)
"""


class TestSigintWriter:
    def test_interrupt_mid_publication_leaves_store_clean(self, tmp_path):
        import os
        import signal
        import time

        from repro.store import VerdictStore

        store_dir = tmp_path / "s"
        proc = subprocess.Popen(
            [sys.executable, "-c", INTERRUPTED_WRITER_SCRIPT, str(store_dir)],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        line = proc.stdout.readline().strip()
        assert line == "MID-WRITE"
        os.kill(proc.pid, signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert "UNREACHED" not in out  # the interrupt really killed it
        assert proc.returncode != 0

        # The corpse is there — and invisible to the next run.
        tmps = list(store_dir.glob(".tmp-*"))
        assert len(tmps) == 1
        reader = VerdictStore(store_dir)
        assert len(reader) == 2  # both published verdicts, nothing torn
        assert reader.skipped_segments == 0
        assert reader.skipped_lines == 0
        assert reader.compact()["removed_tmp"] == 1
        assert list(store_dir.glob(".tmp-*")) == []
