"""Tests for the batch front end: ``python -m repro explain``."""

from __future__ import annotations

import pytest

from repro.cli import main

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"
WELL_TYPED = "let x = 1 + 2\n"
NO_ANSWER_BUDGET = ILL_TYPED  # paired with --max-calls 1 below
PARSE_ERROR = "let let = (\n"


@pytest.fixture
def batch_dir(tmp_path):
    (tmp_path / "bad.ml").write_text(ILL_TYPED)
    (tmp_path / "ok.ml").write_text(WELL_TYPED)
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "nested.ml").write_text(WELL_TYPED)
    return tmp_path


class TestExplainSubcommand:
    def test_table_and_exit_code(self, batch_dir, capsys):
        code = main(["explain", str(batch_dir / "bad.ml"), str(batch_dir / "ok.ml")])
        out = capsys.readouterr().out
        assert code == 1
        assert "ill-typed" in out
        assert "1 ok, 1 ill-typed" in out

    def test_all_ok_exit_zero(self, batch_dir, capsys):
        assert main(["explain", str(batch_dir / "ok.ml")]) == 0
        assert "1 ok, 0 ill-typed" in capsys.readouterr().out

    def test_dir_recurses_sorted(self, batch_dir, capsys):
        code = main(["explain", "--dir", str(batch_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "bad.ml" in out
        assert "nested.ml" in out
        assert "3 files" in out
        # sorted order: bad.ml before ok.ml before sub/nested.ml
        assert out.index("bad.ml") < out.index("ok.ml") < out.index("nested.ml")

    def test_parse_error_exit_two(self, batch_dir, capsys):
        broken = batch_dir / "broken.ml"
        broken.write_text(PARSE_ERROR)
        code = main(["explain", str(broken), str(batch_dir / "ok.ml")])
        out = capsys.readouterr().out
        assert code == 2
        assert "input-error" in out

    def test_missing_file_exit_two(self, batch_dir, capsys):
        code = main(["explain", str(batch_dir / "nope.ml"), str(batch_dir / "ok.ml")])
        capsys.readouterr()
        assert code == 2

    def test_no_inputs_exit_two(self, capsys):
        assert main(["explain"]) == 2
        assert "no input files" in capsys.readouterr().err

    def test_bad_dir_exit_two(self, tmp_path, capsys):
        assert main(["explain", "--dir", str(tmp_path / "missing")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_no_answer_exit_three(self, batch_dir, capsys):
        code = main(
            ["explain", str(batch_dir / "bad.ml"), "--max-calls", "1"]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "no-answer" in out
        assert "[degraded]" in out

    def test_jobs_2_matches_serial(self, batch_dir, capsys):
        main(["explain", "--dir", str(batch_dir)])
        serial_out = capsys.readouterr().out
        code = main(["explain", "--dir", str(batch_dir), "--jobs", "2"])
        parallel_out = capsys.readouterr().out
        assert code == 1
        # The table includes per-file wall times; compare everything else.
        strip = lambda text: [
            line.split("0.")[0] for line in text.splitlines()
        ]
        assert strip(parallel_out) == strip(serial_out)

    def test_verbose_prints_reports(self, batch_dir, capsys):
        main(["explain", str(batch_dir / "bad.ml"), "--verbose"])
        out = capsys.readouterr().out
        assert "== " in out
        assert "within context" in out  # a rendered suggestion made it out

    def test_stats_totals(self, batch_dir, capsys):
        main(["explain", str(batch_dir / "bad.ml"), "--stats"])
        err = capsys.readouterr().err
        assert "oracle calls" in err

    def test_jobs_rejects_garbage(self, batch_dir, capsys):
        with pytest.raises(SystemExit):
            main(["explain", str(batch_dir / "ok.ml"), "--jobs", "zero"])

    @pytest.mark.parametrize("bad", ["0", "-1", "1.5"])
    def test_jobs_rejects_non_positive_counts(self, batch_dir, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explain", str(batch_dir / "ok.ml"), "--jobs", bad])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_auto_matches_serial(self, batch_dir, capsys):
        main(["explain", "--dir", str(batch_dir), "--verbose"])
        serial_out = capsys.readouterr().out
        code = main(["explain", "--dir", str(batch_dir), "--verbose",
                     "--jobs", "auto"])
        auto_out = capsys.readouterr().out
        assert code == 1
        # The table includes per-file wall times; compare everything else.
        strip = lambda text: [
            line.split("0.")[0] for line in text.splitlines()
        ]
        assert strip(auto_out) == strip(serial_out)

    def test_duplicate_file_listed_once(self, batch_dir, capsys):
        bad = str(batch_dir / "bad.ml")
        code = main(["explain", bad, bad])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("bad.ml") == 1
        assert "1 files" in out

    def test_file_also_under_dir_listed_once(self, batch_dir, capsys):
        # bad.ml passed explicitly AND found by the --dir walk: one row,
        # under its first-seen spelling (the explicit argument).
        code = main(
            ["explain", str(batch_dir / "bad.ml"), "--dir", str(batch_dir)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("bad.ml") == 1
        assert "3 files" in out
        assert "1 ok" not in out.splitlines()[0]  # summary is the last line
        assert "2 ok, 1 ill-typed" in out

    def test_dedup_is_spelling_insensitive(self, batch_dir, capsys):
        # `bad.ml` and `sub/../bad.ml` are the same file.
        alias = str(batch_dir / "sub" / ".." / "bad.ml")
        code = main(["explain", str(batch_dir / "bad.ml"), alias])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 files" in out


class TestSingleFileJobs:
    def test_metrics_flag_prints_merged_telemetry(self, batch_dir, capsys):
        code = main(["explain", "--dir", str(batch_dir), "--metrics"])
        err = capsys.readouterr().err
        assert code == 1
        assert "batch telemetry" in err
        assert "oracle.calls" in err

    def test_events_flag_writes_per_file_events(self, batch_dir, tmp_path, capsys):
        from repro.obs import events_of, read_events

        path = tmp_path / "batch.jsonl"
        code = main(["explain", "--dir", str(batch_dir), "--events", str(path)])
        assert code == 1
        events = read_events(path)
        finished = events_of(events, "search_finished")
        # One search_finished row per input file, in table order.
        assert len(finished) == 3
        labels = [e["label"] for e in finished]
        assert labels == sorted(labels)
        assert {e["ok"] for e in finished} == {True, False}
        metrics = events_of(events, "metrics")
        assert len(metrics) == 1
        assert metrics[0]["counters"]["oracle.calls"] > 0

    def test_batch_events_feed_report_subcommand(self, batch_dir, tmp_path, capsys):
        path = tmp_path / "batch.jsonl"
        main(["explain", "--dir", str(batch_dir), "--events", str(path)])
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 search(es)" in out


class TestDirScanHardening:
    def test_missing_dir_one_line_stderr_no_traceback(self, tmp_path, capsys):
        code = main(["explain", "--dir", str(tmp_path / "nope")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: not a directory:")
        assert "Traceback" not in err

    def test_dir_pointing_at_file_exit_two(self, batch_dir, capsys):
        code = main(["explain", "--dir", str(batch_dir / "bad.ml")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_unreadable_dir_scan_exit_two(self, batch_dir, monkeypatch, capsys):
        # Root can read chmod-0 dirs, so inject the scan failure instead.
        import pathlib

        def explode(self, pattern):
            raise OSError("injected permission failure")

        monkeypatch.setattr(pathlib.Path, "rglob", explode)
        code = main(["explain", "--dir", str(batch_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot scan")
        assert "Traceback" not in err
