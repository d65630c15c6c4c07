"""Tests for ``python -m repro report`` — aggregation and regression diff."""

import json

import pytest

from repro.obs import SCHEMA_VERSION, MetricsRegistry, RunReport
from repro.obs.report import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    RunAggregate,
    aggregate_files,
    aggregate_to_report,
    diff_against,
    load_any,
    main,
    render_aggregate,
    render_diff,
)


def event_line(seq, type, **fields):
    record = {"v": SCHEMA_VERSION, "seq": seq, "t": 0.1 * seq, "type": type}
    record.update(fields)
    return json.dumps(record)


def write_event_log(path, events):
    path.write_text("\n".join(events) + "\n")


def sample_event_log(path):
    write_event_log(
        path,
        [
            event_line(0, "log_started", pid=1, wall_time=0.0),
            event_line(1, "search_started", label="a.ml", decls=5),
            event_line(2, "oracle_crash", error="Boom in infer"),
            event_line(3, "phase_shed", phase="triage"),
            event_line(
                4,
                "degradation",
                reasons=["deadline"],
                phases_shed={"triage": 3},
                crash_samples=["Boom in infer"],
            ),
            event_line(
                5,
                "suggestions",
                label="a.ml",
                ranks=[
                    {"rank": 1, "kind": "replace", "rule": "swap-args"},
                    {"rank": 2, "kind": "delete", "rule": ""},
                ],
            ),
            event_line(
                6,
                "search_finished",
                label="a.ml",
                ok=False,
                suggestions=2,
                oracle_calls=34,
                degraded=True,
                elapsed_seconds=0.5,
            ),
            event_line(
                7,
                "metrics",
                counters={
                    "oracle.calls": 34,
                    "oracle.full_checks": 5,
                    "oracle.prefix.reused": 29,
                    "search.removal_tests": 12,
                },
            ),
            event_line(8, "log_closed", events=8),
        ],
    )


def sample_run_report(counters=None, **kwargs):
    reg = MetricsRegistry()
    for name, value in (counters or {"oracle.calls": 10}).items():
        reg.incr(name, value)
    reg.observe("span.explain.file.seconds", 0.25)
    kwargs.setdefault("label", "b.ml")
    return RunReport.from_run(reg, **kwargs)


class TestAggregation:
    def test_event_log_aggregates(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        agg = load_any(str(path))
        assert agg.value("oracle.calls") == 34
        assert agg.value("search.removal_tests") == 12
        assert len(agg.searches) == 1
        assert agg.degraded_runs == 1
        assert agg.rank_counts == {1: 1, 2: 1}
        assert agg.phases_shed == {"triage": 3}
        assert agg.crash_samples  # from oracle_crash + degradation events

    def test_run_report_aggregates(self, tmp_path):
        path = tmp_path / "r.json"
        sample_run_report({"oracle.calls": 7}).write(path)
        agg = load_any(str(path))
        assert agg.value("oracle.calls") == 7
        assert agg.span_seconds["explain.file"] == pytest.approx(0.25)

    def test_multiple_files_sum(self, tmp_path):
        e = tmp_path / "e.jsonl"
        r = tmp_path / "r.json"
        sample_event_log(e)
        sample_run_report({"oracle.calls": 6}).write(r)
        agg = aggregate_files([str(e), str(r)])
        assert agg.value("oracle.calls") == 40
        assert len(agg.sources) == 2

    def test_render_mentions_key_tables(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        text = render_aggregate(load_any(str(path)))
        assert "oracle breakdown" in text
        assert "prefix-reuse rate" in text
        assert "rank 1" in text
        assert "phases shed" in text

    def test_render_store_section_only_when_present(self):
        agg = RunAggregate()
        agg.add_counters({"oracle.calls": 5})
        assert "persistent store" not in render_aggregate(agg)
        agg.add_counters(
            {"oracle.store.hits": 30, "oracle.store.misses": 10,
             "oracle.store.writes": 10, "oracle.store.invalidated": 2}
        )
        text = render_aggregate(agg)
        assert "persistent store:" in text
        assert "30 / 10" in text
        assert "75.0%" in text
        assert "invalidated" in text

    def test_store_io_incidents_fill_the_supervision_table(self):
        agg = RunAggregate()
        agg.add_counters({"oracle.store.retries": 3, "oracle.store.io_errors": 1})
        text = render_aggregate(agg)
        assert "supervision:" in text
        assert "store io retries / errors  3 / 1" in text

    def test_unknown_event_schema_propagates(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 99, "seq": 0, "t": 0, "type": "x"}\n')
        from repro.obs import EventSchemaError

        with pytest.raises(EventSchemaError):
            load_any(str(path))


class TestDiff:
    def base_agg(self, calls=10, reused=5):
        agg = RunAggregate()
        agg.add_counters({"oracle.calls": calls, "oracle.prefix.reused": reused})
        return agg

    def test_identical_no_changes(self):
        regressions, changes = diff_against(self.base_agg(), self.base_agg())
        assert regressions == []
        assert changes == []

    def test_cost_counter_growth_regresses(self):
        regressions, changes = diff_against(self.base_agg(calls=12), self.base_agg())
        assert [d.name for d in regressions] == ["oracle.calls"]
        assert regressions[0].relative == pytest.approx(0.2)

    def test_cost_counter_shrink_is_not_regression(self):
        regressions, changes = diff_against(self.base_agg(calls=8), self.base_agg())
        assert regressions == []
        assert len(changes) == 1

    def test_non_cost_counter_growth_is_not_regression(self):
        regressions, _ = diff_against(
            self.base_agg(reused=50), self.base_agg(reused=5)
        )
        assert regressions == []

    def test_store_counters_are_never_cost(self):
        # A warm run's store hits growing (and misses shrinking) must not
        # fail a --diff gate against a cold baseline.
        warm, cold = self.base_agg(), self.base_agg()
        cold.add_counters({"oracle.store.misses": 40, "oracle.store.writes": 40})
        warm.add_counters({"oracle.store.hits": 40, "oracle.store.misses": 1})
        regressions, _ = diff_against(warm, cold)
        assert regressions == []

    def test_threshold_tolerates_growth(self):
        regressions, _ = diff_against(
            self.base_agg(calls=12), self.base_agg(), threshold=0.5
        )
        assert regressions == []

    def test_threshold_exceeded_still_fails(self):
        regressions, _ = diff_against(
            self.base_agg(calls=20), self.base_agg(), threshold=0.5
        )
        assert [d.name for d in regressions] == ["oracle.calls"]

    def test_counter_missing_from_baseline_never_regresses(self):
        current = self.base_agg()
        current.add_counters({"search.brand_new": 100})
        regressions, changes = diff_against(current, self.base_agg())
        assert regressions == []
        assert changes == []  # only baseline counters are compared

    def test_render_diff_marks_regressions(self):
        regressions, changes = diff_against(self.base_agg(calls=12), self.base_agg())
        text = render_diff(regressions, changes, "base.json", 0.0)
        assert "oracle.calls: 10 -> 12" in text
        assert "REGRESSION" in text
        assert "1 regression(s)" in text


class TestMain:
    def test_ok_run(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        assert main([str(path)]) == EXIT_OK
        assert "flight recorder" in capsys.readouterr().out

    def test_save_then_diff_identical_is_ok(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        base = tmp_path / "base.json"
        sample_event_log(path)
        assert main([str(path), "--save", str(base)]) == EXIT_OK
        assert main([str(path), "--diff", str(base)]) == EXIT_OK

    def test_diff_regression_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        base = tmp_path / "base.json"
        sample_event_log(path)
        assert main([str(path), "--save", str(base)]) == EXIT_OK
        # Lower the baseline's oracle.calls: current run now "regresses".
        doc = json.loads(base.read_text())
        doc["counters"]["oracle.calls"] -= 5
        base.write_text(json.dumps(doc))
        assert main([str(path), "--diff", str(base)]) == EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_regression_within_threshold_is_ok(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        base = tmp_path / "base.json"
        sample_event_log(path)
        main([str(path), "--save", str(base)])
        doc = json.loads(base.read_text())
        doc["counters"]["oracle.calls"] -= 5
        base.write_text(json.dumps(doc))
        assert main([str(path), "--diff", str(base), "--threshold", "0.5"]) == EXIT_OK

    def test_unknown_schema_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 99, "seq": 0, "t": 0, "type": "x"}\n')
        assert main([str(path)]) == EXIT_INPUT_ERROR
        assert "unknown event schema version" in capsys.readouterr().err

    def test_unknown_report_schema_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        doc = sample_run_report().to_dict()
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        assert main([str(path)]) == EXIT_INPUT_ERROR
        assert "unknown RunReport schema" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == EXIT_INPUT_ERROR


class TestAggregateToReport:
    def test_save_roundtrip_preserves_counters(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        agg = load_any(str(path))
        report = aggregate_to_report(agg)
        out = tmp_path / "agg.json"
        report.write(out)
        reloaded = load_any(str(out))
        assert reloaded.counters == agg.counters
        assert reloaded.rank_counts == agg.rank_counts
