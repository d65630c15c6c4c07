"""Tests for ``python -m repro cache`` and the ``--store`` CLI flag."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.store import VerdictStore

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"


@pytest.fixture
def seeded_store(tmp_path):
    store_dir = tmp_path / "store"
    with VerdictStore(store_dir) as store:
        store.put(("a",), True)
        store.put(("b",), False, err="no")
    return store_dir


class TestCacheSubcommand:
    def test_stats(self, seeded_store, capsys):
        assert main(["cache", "stats", "--store", str(seeded_store)]) == 0
        out = capsys.readouterr().out
        assert f"store: {seeded_store}" in out
        assert "segments: 1  entries: 2" in out
        assert "invalidated: 0" in out

    def test_clear(self, seeded_store, capsys):
        assert main(["cache", "clear", "--store", str(seeded_store)]) == 0
        assert "cleared 1 file(s)" in capsys.readouterr().out
        assert not list(seeded_store.glob("seg-*"))

    def test_compact(self, seeded_store, capsys):
        (seeded_store / ".tmp-1-1").write_text("torn")
        assert main(["cache", "compact", "--store", str(seeded_store)]) == 0
        out = capsys.readouterr().out
        assert "1 temp file(s)" in out
        assert "1 segment(s)" in out

    def test_compact_max_bytes_zero_evicts_all(self, seeded_store, capsys):
        code = main(
            ["cache", "compact", "--store", str(seeded_store),
             "--max-bytes", "0"]
        )
        assert code == 0
        assert not list(seeded_store.glob("seg-*"))

    def test_missing_action_usage_error(self, capsys):
        assert main(["cache"]) == 2

    def test_missing_store_usage_error(self, capsys):
        assert main(["cache", "stats"]) == 2


@pytest.mark.parametrize("action", ["stats", "clear", "compact"])
class TestNotAStore:
    """The subcommands inspect and trim a store; a ``--store`` that is not
    an existing directory is a usage error that creates nothing."""

    def test_missing_directory(self, tmp_path, capsys, action):
        path = tmp_path / "typo" / "dir"
        assert main(["cache", action, "--store", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_regular_file(self, tmp_path, capsys, action):
        path = tmp_path / "store"
        path.write_text("not a store")
        assert main(["cache", action, "--store", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert path.read_text() == "not a store"


class TestStoreFlag:
    def test_single_mode_warm_output_identical(self, tmp_path, capsys):
        source = tmp_path / "bad.ml"
        source.write_text(ILL_TYPED)
        store = tmp_path / "store"

        code_cold = main([str(source), "--store", str(store)])
        cold_out = capsys.readouterr().out
        code_warm = main([str(source), "--store", str(store)])
        warm_out = capsys.readouterr().out

        assert code_cold == code_warm
        assert warm_out == cold_out
        assert list(store.glob("seg-*.jsonl"))  # verdicts persisted

    def test_batch_mode_warm_output_identical(self, tmp_path, capsys):
        bad = tmp_path / "bad.ml"
        bad.write_text(ILL_TYPED)
        ok = tmp_path / "ok.ml"
        ok.write_text("let x = 1 + 2\n")
        store = tmp_path / "store"
        argv = ["explain", str(bad), str(ok), "--store", str(store)]

        code_cold = main(argv)
        cold_out = capsys.readouterr().out
        code_warm = main(argv)
        warm_out = capsys.readouterr().out

        assert code_cold == code_warm == 1
        # Identical up to the per-file wall-time column — the one thing a
        # cache is supposed to change.
        strip = lambda text: [
            line.rsplit("  ", 1)[0] for line in text.splitlines()
        ]
        assert strip(warm_out) == strip(cold_out)

    def test_stats_line_identical_cold_and_warm(self, tmp_path, capsys):
        source = tmp_path / "bad.ml"
        source.write_text(ILL_TYPED)
        store = tmp_path / "store"

        main([str(source), "--stats", "--store", str(store)])
        cold_out = capsys.readouterr().out
        main([str(source), "--stats", "--store", str(store)])
        warm_out = capsys.readouterr().out
        main([str(source), "--stats"])
        absent_out = capsys.readouterr().out

        assert warm_out == cold_out == absent_out
