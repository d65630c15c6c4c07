"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

#: The ``--stats`` lines counting the checker's own work, in print order.
CHECKER_WORK = ("oracle prefix reuse", "oracle decl reuse", "oracle trail speculation")


def _checker_work_lines(err):
    return [line for line in err.splitlines() if line.startswith(CHECKER_WORK)]


@pytest.fixture
def ml_file(tmp_path):
    path = tmp_path / "prog.ml"
    path.write_text(
        "let add str lst = if List.mem str lst then lst else str :: lst\n"
        'let r = add ["a"; "b"] "hello"\n'
    )
    return path


@pytest.fixture
def ok_file(tmp_path):
    path = tmp_path / "ok.ml"
    path.write_text("let x = 1 + 2\n")
    return path


@pytest.fixture
def cpp_file(tmp_path):
    path = tmp_path / "prog.cpp"
    path.write_text(
        "void myFun(vector<long>& inv, vector<long>& outv) {\n"
        "    transform(inv.begin(), inv.end(), outv.begin(),\n"
        "              compose1(bind1st(multiplies<long>(), 5), labs));\n"
        "}\n"
    )
    return path


class TestMiniMLMode:
    def test_ok_program_exit_zero(self, ok_file, capsys):
        assert main([str(ok_file)]) == 0
        assert "type-checks" in capsys.readouterr().out

    def test_ill_typed_exit_one(self, ml_file, capsys):
        assert main([str(ml_file)]) == 1
        out = capsys.readouterr().out
        assert "Type-checker:" in out
        assert "Search suggestions:" in out
        assert "Try replacing" in out

    def test_checker_only(self, ml_file, capsys):
        main([str(ml_file), "--checker-only"])
        out = capsys.readouterr().out
        assert "Search suggestions:" not in out

    def test_top_limits_suggestions(self, ml_file, capsys):
        main([str(ml_file), "--top", "1"])
        out = capsys.readouterr().out
        assert "Suggestion 2:" not in out

    def test_stats_flag(self, ml_file, capsys):
        main([str(ml_file), "--stats"])
        err = capsys.readouterr().err
        assert "oracle calls" in err

    def test_no_triage_flag(self, ml_file):
        assert main([str(ml_file), "--no-triage"]) == 1

    def test_fix_mode(self, ml_file, capsys):
        assert main([str(ml_file), "--fix"]) == 0
        captured = capsys.readouterr()
        assert "applied:" in captured.out
        assert "now type-checks" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.ml")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.ml"
        bad.write_text("let = = =\n")
        assert main([str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_trace_writes_perfetto_loadable_json(self, ml_file, tmp_path, capsys):
        trace = tmp_path / "out.json"
        assert main([str(ml_file), "--trace", str(trace)]) == 1
        data = json.loads(trace.read_text())
        assert data["traceEvents"]
        names = {e["name"] for e in data["traceEvents"]}
        assert {"search", "localize", "descend", "enumerate"} <= names
        assert "perfetto" in capsys.readouterr().err

    def test_metrics_prints_table(self, ml_file, capsys):
        main([str(ml_file), "--metrics"])
        err = capsys.readouterr().err
        assert "telemetry:" in err
        assert "oracle.calls" in err

    def test_metrics_total_matches_stats_oracle_calls(self, ml_file, capsys):
        main([str(ml_file), "--metrics", "--stats"])
        err = capsys.readouterr().err
        # "[N oracle calls]" from --stats and "oracle.calls N" from --metrics
        stats_n = int(err.split(" oracle calls")[0].rsplit("[", 1)[1])
        metrics_line = next(
            line for line in err.splitlines()
            if line.strip().startswith("oracle.calls ")
        )
        assert int(metrics_line.split()[-1]) == stats_n

    def test_stats_has_no_memo_line(self, ml_file, capsys):
        # The verdict store (--store) is the only verdict cache.
        main([str(ml_file), "--stats"])
        assert "oracle cache" not in capsys.readouterr().err

    def test_stats_prints_checker_work_lines(self, ml_file, capsys):
        main([str(ml_file), "--stats"])
        lines = _checker_work_lines(capsys.readouterr().err)
        assert [line.split(":")[0] for line in lines] == list(CHECKER_WORK)

    def test_batch_stats_print_the_same_decl_and_trail_lines(
        self, ml_file, capsys
    ):
        main([str(ml_file), "--stats"])
        single = _checker_work_lines(capsys.readouterr().err)
        main(["explain", str(ml_file), "--stats"])
        batch = _checker_work_lines(capsys.readouterr().err)
        assert batch == single[1:]  # batch mode has no prefix line

    def test_cache_flag_is_rejected(self, ml_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([str(ml_file), "--cache"])
        assert exc.value.code == 2
        assert "--cache" in capsys.readouterr().err

    def test_trace_on_well_typed_program(self, ok_file, tmp_path):
        trace = tmp_path / "ok.json"
        assert main([str(ok_file), "--trace", str(trace)]) == 0
        assert json.loads(trace.read_text())["traceEvents"]

    def test_cpp_trace_and_metrics(self, cpp_file, tmp_path, capsys):
        trace = tmp_path / "cpp.json"
        assert main([str(cpp_file), "--trace", str(trace), "--metrics"]) == 1
        data = json.loads(trace.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert "cpp.search" in names
        assert "cpp.checker_calls" in capsys.readouterr().err

    def test_fix_mode_accepts_telemetry_flags(self, ml_file, tmp_path, capsys):
        trace = tmp_path / "fix.json"
        assert main([str(ml_file), "--fix", "--trace", str(trace), "--metrics"]) == 0
        assert json.loads(trace.read_text())["traceEvents"]


class TestExitCodes:
    """The documented 0/1/2/3 contract — no path leaks a raw traceback."""

    def test_events_flag_writes_jsonl(self, ml_file, tmp_path, capsys):
        from repro.obs import events_of, read_events

        path = tmp_path / "run.jsonl"
        assert main([str(ml_file), "--events", str(path)]) == 1
        events = read_events(path)
        assert events[0]["type"] == "log_started"
        assert events[-1]["type"] == "log_closed"
        assert events_of(events, "search_started")
        finished = events_of(events, "search_finished")
        assert finished[0]["label"] == str(ml_file)
        assert events_of(events, "suggestions")
        assert events_of(events, "metrics")

    def test_traced_event_log_reports_time_share_by_span(
        self, ml_file, tmp_path, capsys
    ):
        from repro.obs import events_of, read_events

        trace, events = tmp_path / "t.json", tmp_path / "e.jsonl"
        assert main([str(ml_file), "--trace", str(trace),
                     "--events", str(events)]) == 1
        [closing] = events_of(read_events(events), "metrics")
        assert closing["counters"]["oracle.calls"] > 0
        assert "search" in closing["span_seconds"]
        capsys.readouterr()
        assert main(["report", str(events)]) == 0
        out = capsys.readouterr().out
        assert "time share by span:" in out
        span_rows = out.split("time share by span:\n", 1)[1].splitlines()
        assert any(row.split()[0] == "search" for row in span_rows if row)

    def test_untraced_event_log_has_no_span_seconds(self, ml_file, tmp_path, capsys):
        from repro.obs import events_of, read_events

        events = tmp_path / "e.jsonl"
        assert main([str(ml_file), "--events", str(events)]) == 1
        [closing] = events_of(read_events(events), "metrics")
        assert "span_seconds" not in closing
        capsys.readouterr()
        assert main(["report", str(events)]) == 0
        assert "time share by span" not in capsys.readouterr().out

    def test_events_on_ok_program(self, ok_file, tmp_path, capsys):
        from repro.obs import events_of, read_events

        path = tmp_path / "ok.jsonl"
        assert main([str(ok_file), "--events", str(path)]) == 0
        finished = events_of(read_events(path), "search_finished")
        assert finished[0]["ok"] is True

    def test_report_subcommand_dispatch(self, ml_file, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        main([str(ml_file), "--events", str(events)])
        capsys.readouterr()
        assert main(["report", str(events)]) == 0
        assert "flight recorder" in capsys.readouterr().out

    def test_report_subcommand_diff_cycle(self, ml_file, tmp_path, capsys):
        events = tmp_path / "run.jsonl"
        baseline = tmp_path / "base.jsonl"
        main([str(ml_file), "--events", str(events)])
        assert main(["report", str(events), "--save", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["report", str(events), "--diff", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "no counter changes" in out
        assert "REGRESSION" not in out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "input error" in out
        assert "--deadline" in out

    def test_undecodable_file_is_input_error(self, tmp_path, capsys):
        binary = tmp_path / "blob.ml"
        binary.write_bytes(b"\x80\x81let x = 1\xff")
        assert main([str(binary)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_budget_zero_degrades_to_exit_three(self, ml_file, capsys):
        assert main([str(ml_file), "--max-calls", "0"]) == 3
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "degraded" in captured.err

    def test_checker_only_ignores_search_budget(self, ml_file, capsys):
        # --checker-only never runs the search, so the search budget
        # cannot fail it (this used to raise BudgetExceeded).
        assert main([str(ml_file), "--checker-only", "--max-calls", "0"]) == 1
        out = capsys.readouterr().out
        assert "Type-checker:" in out
        assert "Search suggestions:" not in out

    def test_checker_only_ok_program(self, ok_file, capsys):
        assert main([str(ok_file), "--checker-only"]) == 0
        assert "type-checks" in capsys.readouterr().out

    def test_tiny_deadline_degrades_not_crashes(self, ml_file, capsys):
        code = main([str(ml_file), "--deadline", "0.000001", "--stats"])
        assert code in (1, 3)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "degraded" in err

    def test_generous_deadline_changes_nothing(self, ml_file, capsys):
        assert main([str(ml_file), "--deadline", "300"]) == 1
        captured = capsys.readouterr()
        assert "Try replacing" in captured.out
        assert "degraded" not in captured.err

    def test_stats_prints_degradation_line(self, ml_file, capsys):
        main([str(ml_file), "--stats"])
        assert "search degradation: none" in capsys.readouterr().err

    def test_fix_budget_zero_exit_three(self, ml_file, capsys):
        assert main([str(ml_file), "--fix", "--max-calls", "0"]) == 3
        assert "could not fully repair" in capsys.readouterr().err


class TestCppMode:
    def test_extension_selects_cpp(self, cpp_file, capsys):
        assert main([str(cpp_file)]) == 1
        out = capsys.readouterr().out
        assert "Compiler errors:" in out
        assert "ptr_fun(labs)" in out

    def test_explicit_cpp_flag(self, tmp_path, capsys):
        path = tmp_path / "prog.txt"
        path.write_text("void f() { int x = 1; }\n")
        assert main([str(path), "--cpp"]) == 0
        assert "compiles" in capsys.readouterr().out

    def test_cpp_stats(self, cpp_file, capsys):
        main([str(cpp_file), "--stats"])
        assert "compiler calls" in capsys.readouterr().err


class TestRobustnessFlags:
    @pytest.mark.parametrize(
        "flag", ["--jobs", "--candidate-timeout", "--worker-rss-mb"]
    )
    def test_single_file_search_has_no_worker_flags(self, ml_file, flag, capsys):
        # One search always runs serially; only `repro explain` fans out.
        with pytest.raises(SystemExit) as exc:
            main([str(ml_file), flag, "2"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_help_documents_interruption(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "130" in out

    def test_keyboard_interrupt_exits_130(self, monkeypatch, ml_file, capsys):
        import repro.cli as cli_mod

        def boom(argv=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "_dispatch", boom)
        assert main([str(ml_file)]) == 130
        assert "interrupted" in capsys.readouterr().err
