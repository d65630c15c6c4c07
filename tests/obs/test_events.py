"""Tests for the flight recorder's JSONL event log."""

import io
import json

import pytest

import repro.obs.events as events_module
from repro.core import explain
from repro.core.resilience import DegradationReport
from repro.obs import (
    NULL_EVENTS,
    SCHEMA_VERSION,
    EventLog,
    EventSchemaError,
    NullEventLog,
    degradation_as_dict,
    events_of,
    metrics_fields,
    read_events,
    suggestion_rows,
)


class FakeClock:
    """Stands in for the event module's ``time``: a deterministic
    monotonic clock that advances by ``step`` per reading."""

    def __init__(self, step=0.5):
        self.now = 100.0
        self.step = step

    def monotonic(self):
        value = self.now
        self.now += self.step
        return value

    def time(self):
        return 0.0


class TestEventLog:
    def test_header_and_footer(self, tmp_path):
        path = tmp_path / "e.jsonl"
        log = EventLog(path)
        log.emit("search_started", label="x")
        log.close()
        events = read_events(path)
        assert events[0]["type"] == "log_started"
        assert "pid" in events[0]
        assert events[-1]["type"] == "log_closed"
        assert events[-1]["events"] == 2

    def test_sequence_numbers_monotonic(self):
        sink = io.StringIO()
        log = EventLog(sink)
        for _ in range(3):
            log.emit("tick")
        log.close()
        events = read_events(sink.getvalue().splitlines())
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_timestamps_from_injected_clock(self, monkeypatch):
        monkeypatch.setattr(events_module, "time", FakeClock(step=0.5))
        sink = io.StringIO()
        log = EventLog(sink)
        log.emit("tick")
        events = read_events(sink.getvalue().splitlines())
        # Epoch read at construction, then one reading per emit.
        assert events[0]["t"] == pytest.approx(0.5)
        assert events[1]["t"] == pytest.approx(1.0)

    def test_every_line_carries_schema_version(self):
        sink = io.StringIO()
        with EventLog(sink) as log:
            log.emit("a")
            log.emit("b", detail=1)
        for line in sink.getvalue().splitlines():
            assert json.loads(line)["v"] == SCHEMA_VERSION

    def test_emit_after_close_is_noop(self):
        sink = io.StringIO()
        log = EventLog(sink)
        log.close()
        before = sink.getvalue()
        log.emit("late")
        log.close()
        assert sink.getvalue() == before

    def test_file_sink_owned_and_closed(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with EventLog(path) as log:
            log.emit("x")
        assert log._handle.closed

    def test_filelike_sink_left_open(self):
        sink = io.StringIO()
        with EventLog(sink):
            pass
        assert not sink.closed

    def test_nonserializable_fields_stringified(self):
        sink = io.StringIO()
        log = EventLog(sink)
        log.emit("odd", obj=object())
        events = read_events(sink.getvalue().splitlines())
        assert isinstance(events[-1]["obj"], str)


class TestReadEvents:
    def test_rejects_unknown_version(self):
        line = json.dumps({"v": 99, "seq": 0, "t": 0.0, "type": "x"})
        with pytest.raises(EventSchemaError, match="unknown event schema version 99"):
            read_events([line])

    def test_rejects_missing_version(self):
        with pytest.raises(EventSchemaError, match="unknown event schema version"):
            read_events(['{"type": "x"}'])

    def test_rejects_malformed_json(self):
        with pytest.raises(EventSchemaError, match="not valid JSON"):
            read_events(["{truncated"])

    def test_rejects_non_object_line(self):
        with pytest.raises(EventSchemaError, match="not an event object"):
            read_events(["[1, 2, 3]"])

    def test_skips_blank_lines(self):
        line = json.dumps({"v": SCHEMA_VERSION, "seq": 0, "t": 0.0, "type": "x"})
        assert len(read_events([line, "", "   ", line])) == 2

    def test_error_names_offending_line(self):
        good = json.dumps({"v": SCHEMA_VERSION, "seq": 0, "t": 0.0, "type": "x"})
        bad = json.dumps({"v": 2, "type": "y"})
        with pytest.raises(EventSchemaError, match="line 2"):
            read_events([good, bad])


class TestEventsOf:
    def test_filters_by_type(self):
        events = [{"type": "a"}, {"type": "b"}, {"type": "a"}]
        assert len(events_of(events, "a")) == 2
        assert events_of(events, "missing") == []


class TestNullEventLog:
    def test_singleton_disabled(self):
        assert isinstance(NULL_EVENTS, NullEventLog)
        assert NULL_EVENTS.enabled is False

    def test_all_operations_are_noops(self):
        NULL_EVENTS.emit("anything", arbitrary="field")
        NULL_EVENTS.close()
        with NULL_EVENTS as log:
            log.emit("inside")


class TestPayloadShapes:
    def test_degradation_as_dict_is_plain_data(self):
        report = DegradationReport(
            reasons=["crash"],
            oracle_crashes=1,
            phases_shed={"triage": 2},
            crash_samples=["Boom"],
        )
        data = degradation_as_dict(report)
        assert data["reasons"] == ["crash"]
        assert data["phases_shed"] == {"triage": 2}
        assert json.loads(json.dumps(data)) == data

    def test_suggestion_rows_rank_from_one(self):
        result = explain("let f x = x + 1\nlet b = f true\n")
        rows = suggestion_rows(result.suggestions)
        assert [row["rank"] for row in rows] == list(
            range(1, len(result.suggestions) + 1)
        )
        assert rows and all(set(row) == {"rank", "kind", "rule"} for row in rows)

    def test_metrics_fields_without_spans_is_counters_only(self):
        assert metrics_fields({"oracle.calls": 3}, {}) == {
            "counters": {"oracle.calls": 3}
        }

    def test_metrics_fields_rounds_and_sorts_spans(self):
        fields = metrics_fields({}, {"search": 0.12345678, "parse": 0.5})
        assert list(fields["span_seconds"]) == ["parse", "search"]
        assert fields["span_seconds"]["search"] == 0.123457
