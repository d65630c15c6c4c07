"""Tests for ``python -m repro report`` — aggregation and regression diff."""

import json
from pathlib import Path

import pytest

from repro.core import explain
from repro.faults import ChaosOracle, FaultPlan
from repro.obs import SCHEMA_VERSION, EventLog, events_of, read_events
from repro.obs.report import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    RunAggregate,
    aggregate_files,
    diff_against,
    main,
    render_aggregate,
    render_diff,
    save_aggregate,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


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


def traced_event_log(path, counters):
    """A log whose closing metrics event carries per-span seconds (as the
    CLI writes it when ``--trace`` fed the registry)."""
    write_event_log(
        path,
        [
            event_line(0, "log_started", pid=1, wall_time=0.0),
            event_line(
                1,
                "metrics",
                counters=counters,
                span_seconds={"search": 0.75, "localize": 0.25},
            ),
            event_line(2, "log_closed", events=2),
        ],
    )


def lower_baseline_calls(path, by):
    """Edit a saved log so the current run reads as a regression."""
    records = read_events(path)
    for record in events_of(records, "metrics"):
        record["counters"]["oracle.calls"] -= by
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


class TestAggregation:
    def test_event_log_aggregates(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        agg = aggregate_files([str(path)])
        assert agg.value("oracle.calls") == 34
        assert agg.value("search.removal_tests") == 12
        assert len(agg.searches) == 1
        assert agg.degraded_runs == 1
        assert agg.rank_counts == {1: 1, 2: 1}
        assert agg.phases_shed == {"triage": 3}
        assert agg.crash_samples == ["Boom in infer"]  # degradation only

    def test_span_seconds_from_metrics_event(self, tmp_path):
        path = tmp_path / "t.jsonl"
        traced_event_log(path, {"oracle.calls": 7})
        agg = aggregate_files([str(path)])
        assert agg.value("oracle.calls") == 7
        assert agg.span_seconds == {"search": 0.75, "localize": 0.25}
        text = render_aggregate(agg)
        assert "time share by span:" in text
        assert "75.0%" in text

    def test_no_span_table_without_span_seconds(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        assert "time share by span" not in render_aggregate(
            aggregate_files([str(path)])
        )

    def test_multiple_files_sum(self, tmp_path):
        e = tmp_path / "e.jsonl"
        t = tmp_path / "t.jsonl"
        sample_event_log(e)
        traced_event_log(t, {"oracle.calls": 6})
        agg = aggregate_files([str(e), str(t), str(t)])
        assert agg.value("oracle.calls") == 46
        assert len(agg.sources) == 3
        assert agg.span_seconds == {"search": 1.5, "localize": 0.5}

    def test_render_mentions_key_tables(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        text = render_aggregate(aggregate_files([str(path)]))
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

    def test_store_io_errors_are_a_persistent_store_row(self):
        agg = RunAggregate()
        agg.add_counters({"oracle.store.io_errors": 2})
        text = render_aggregate(agg)
        assert "persistent store:" in text
        assert ["io", "errors", "2"] in [line.split() for line in text.splitlines()]
        assert "supervision:" not in text

    def test_unknown_event_schema_propagates(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 99, "seq": 0, "t": 0, "type": "x"}\n')
        from repro.obs import EventSchemaError

        with pytest.raises(EventSchemaError):
            aggregate_files([str(path)])


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
        base = tmp_path / "base.jsonl"
        sample_event_log(path)
        assert main([str(path), "--save", str(base)]) == EXIT_OK
        assert main([str(path), "--diff", str(base)]) == EXIT_OK
        assert "no counter changes" in capsys.readouterr().out

    def test_diff_regression_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        base = tmp_path / "base.jsonl"
        sample_event_log(path)
        assert main([str(path), "--save", str(base)]) == EXIT_OK
        # Lower the baseline's oracle.calls: current run now "regresses".
        lower_baseline_calls(base, 5)
        assert main([str(path), "--diff", str(base)]) == EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_regression_within_threshold_is_ok(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        base = tmp_path / "base.jsonl"
        sample_event_log(path)
        main([str(path), "--save", str(base)])
        lower_baseline_calls(base, 5)
        assert main([str(path), "--diff", str(base), "--threshold", "0.5"]) == EXIT_OK

    def test_unknown_schema_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 99, "seq": 0, "t": 0, "type": "x"}\n')
        assert main([str(path)]) == EXIT_INPUT_ERROR
        assert "unknown event schema version" in capsys.readouterr().err

    @pytest.mark.parametrize("indent", [2, None], ids=["pretty", "one-line"])
    def test_unknown_report_schema_is_input_error(self, tmp_path, capsys, indent):
        # A run-summary JSON document (the retired second format) is not
        # an event log: one error line, exit 2, as a file argument or as
        # a --diff baseline.
        path = tmp_path / "summary.json"
        doc = {"schema": 1, "label": "b.ml", "counters": {"oracle.calls": 10},
               "histograms": {}, "entries": [], "suggestions": []}
        path.write_text(json.dumps(doc, indent=indent) + "\n")
        assert main([str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 1: ")
        assert err.count("\n") == 1
        log = tmp_path / "e.jsonl"
        sample_event_log(log)
        assert main([str(log), "--diff", str(path)]) == EXIT_INPUT_ERROR

    def test_rejected_file_argument_is_named(self, tmp_path, capsys):
        good, bad = tmp_path / "e.jsonl", tmp_path / "README.md"
        sample_event_log(good)
        bad.write_text("# not an event log\n")
        assert main([str(good), str(bad)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 1: not valid JSON")
        assert err.count("\n") == 1

    def test_undecodable_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        assert main([str(path)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not text")
        assert err.count("\n") == 1

    def test_rejected_diff_baseline_is_named(self, tmp_path, capsys):
        log, baseline = tmp_path / "e.jsonl", tmp_path / "base.jsonl"
        sample_event_log(log)
        baseline.write_text('{"v": 99, "seq": 0, "t": 0, "type": "x"}\n')
        assert main([str(log), "--diff", str(baseline)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {baseline}: line 1: unknown event schema")
        assert str(log) not in err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == EXIT_INPUT_ERROR


class TestCrashSamplesCountedOnce:
    """A crashing search logs one ``oracle_crash`` event per crash and its
    bounded sample again in the ``degradation`` event; the aggregate
    takes the samples from the ``degradation`` event alone."""

    def test_count_matches_the_degradation_event_and_survives_save(self, tmp_path):
        log = tmp_path / "e.jsonl"
        source = (EXAMPLES / "fig2.ml").read_text()
        with EventLog(str(log)) as events:
            explain(source, oracle=ChaosOracle(FaultPlan(crash_every=3)),
                    events=events)
        records = read_events(str(log))
        crashes = events_of(records, "oracle_crash")
        (degradation,) = events_of(records, "degradation")
        samples = degradation["crash_samples"]
        assert len(crashes) > len(samples) > 0
        agg = aggregate_files([str(log)])
        assert agg.crash_samples == samples
        saved = tmp_path / "saved.jsonl"
        save_aggregate(agg, str(saved))
        assert aggregate_files([str(saved)]).crash_samples == samples


class TestSaveAggregate:
    def test_save_roundtrip_preserves_the_aggregate(self, tmp_path):
        e, t = tmp_path / "e.jsonl", tmp_path / "t.jsonl"
        sample_event_log(e)
        traced_event_log(t, {"oracle.calls": 6})
        agg = aggregate_files([str(e), str(t)])
        out = tmp_path / "agg.jsonl"
        save_aggregate(agg, str(out))
        reloaded = aggregate_files([str(out)])
        assert reloaded.counters == agg.counters
        assert reloaded.searches == agg.searches
        assert reloaded.rank_counts == agg.rank_counts
        assert reloaded.phases_shed == agg.phases_shed
        assert reloaded.crash_samples == agg.crash_samples
        assert reloaded.span_seconds == agg.span_seconds
        assert reloaded.elapsed_seconds == agg.elapsed_seconds

    def test_saved_log_renders_the_same_tables(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        agg = aggregate_files([str(path)])
        out = tmp_path / "agg.jsonl"
        save_aggregate(agg, str(out))
        assert render_aggregate(aggregate_files([str(out)])) == render_aggregate(agg)

    def test_saved_log_is_an_event_log(self, tmp_path):
        path = tmp_path / "e.jsonl"
        sample_event_log(path)
        out = tmp_path / "agg.jsonl"
        save_aggregate(aggregate_files([str(path)]), str(out))
        types = [event["type"] for event in read_events(out)]
        assert types == [
            "log_started", "search_finished", "suggestions", "degradation",
            "metrics", "log_closed",
        ]
