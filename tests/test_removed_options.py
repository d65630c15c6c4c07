"""Options that no longer exist are rejected, not silently ignored.

The searcher's duplicate-candidate memo (``dedup``/``--no-dedup``) is gone,
the soft-deadline shed point is the constant
:data:`~repro.core.resilience.SHED_FRACTION`, the number of crash
samples an oracle keeps is the constant
:data:`~repro.core.oracle.CRASH_SAMPLE_LIMIT`, and the oracle's crash
isolation is unconditional (no ``strict`` switch).  The verdict store takes
a failed segment read or publish once (no retry policy, no backoff sleep,
no ``repro.core.retry`` module, no fault streaks in ``FlakyStore``) and
auto-publishes at the constant :data:`~repro.store.verdicts.FLUSH_EVERY`.
It keeps verdicts only: no hit-recency markers (``hits/``), no
``publish()`` beside ``flush()``, no duplicate hit/miss/write counters
(the oracle's ``store_*`` counters and ``oracle.store.*`` metrics are the
record), and no ``clock=`` (segment names take the wall clock).
The event log is the flight recorder's only run record: no ``--report``
summary document, no Prometheus exporter, and histograms keep no bucket
tallies and cap their samples at the constant
:data:`~repro.obs.metrics.SAMPLE_CAP`.
No option is kept that only tests set: the oracle has no ``cross_check``
mode (the tests compare answers with the reference themselves) and no
``max_depth`` (the guard always runs at ``default_max_depth()``), the
triage threshold and depth are the constants
:data:`~repro.core.searcher.TRIAGE_THRESHOLD` and
:data:`~repro.core.searcher.MAX_TRIAGE_DEPTH`, adaptation always runs, the
searcher builds its own enumerator, the checker's entry points take no
``env``, deadlines and event logs read the monotonic clock, and
:func:`~repro.core.fix_all` stops after the constant
:data:`~repro.core.quickfix.MAX_ROUNDS`.
The searcher only asks yes/no questions: the oracle has no reuse-arming
API (``arm_prefix``, ``arm_decl_table``, ``prefix_armed``).
A caller still passing one of the old options gets an error naming it.
"""

import importlib
import inspect
import io

import pytest

import repro.core
import repro.obs
from repro.cli import main
import repro.core.oracle
from repro.core import Oracle, SearchConfig, Searcher, explain, explain_many, fix_all
from repro.core.resilience import Deadline
from repro.evaluation.timing import TimingResult
from repro.faults import FlakyStore
from repro.miniml import parse_program
from repro.miniml.exhaustiveness import match_warnings
from repro.miniml.infer import (
    Inferencer,
    record_decl_table,
    replay_decl_table,
    snapshot_prefix,
    typecheck_program,
    typecheck_source,
)
from repro.obs import EventLog, MetricsRegistry, NullMetrics, NullTracer, Tracer
from repro.obs.metrics import Histogram
from repro.store import StoredVerdict, StoreStats, VerdictStore

ILL_TYPED = "let f x = x + 1\nlet b = f true\n"


@pytest.fixture
def ml_file(tmp_path):
    path = tmp_path / "prog.ml"
    path.write_text(ILL_TYPED)
    return path


@pytest.mark.parametrize("option, value", [("dedup", False), ("shed_fraction", 0.5)])
def test_explain_rejects(option, value):
    with pytest.raises(TypeError, match=option):
        explain(ILL_TYPED, **{option: value})


@pytest.mark.parametrize("option, value", [("dedup", False), ("shed_fraction", 0.5)])
def test_search_config_rejects(option, value):
    with pytest.raises(TypeError, match=option):
        SearchConfig(**{option: value})
    assert not hasattr(SearchConfig(), option)


def test_oracle_rejects_crash_sample_limit():
    with pytest.raises(TypeError, match="crash_sample_limit"):
        Oracle(crash_sample_limit=2)


def test_oracle_rejects_strict():
    with pytest.raises(TypeError, match="strict"):
        Oracle(strict=True)


def test_deadline_rejects_soft_fraction():
    with pytest.raises(TypeError, match="soft_fraction"):
        Deadline(1.0, soft_fraction=0.5)


@pytest.mark.parametrize(
    "option, value",
    [("retry_policy", None), ("sleep", lambda s: None), ("flush_every", 1),
     ("clock", lambda: 1000.0)],
)
def test_verdict_store_rejects(tmp_path, option, value):
    with pytest.raises(TypeError, match=option):
        VerdictStore(tmp_path / "s", **{option: value})


@pytest.mark.parametrize(
    "option, value",
    [("fail_streak", 3), ("flush_every", 1), ("retry_policy", None), ("sleep", None)],
)
def test_flaky_store_rejects(tmp_path, option, value):
    with pytest.raises(TypeError, match=option):
        FlakyStore(tmp_path / "s", **{option: value})


def test_retry_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.retry")


@pytest.mark.parametrize(
    "name", ["RetryPolicy", "with_retry", "retry", "DEFAULT_RETRY_POLICY"]
)
def test_core_exports_no_retry_helpers(name):
    assert not hasattr(repro.core, name)


@pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
@pytest.mark.parametrize(
    "flag, value", [("--no-dedup", None), ("--shed-fraction", "0.5")]
)
def test_cli_rejects(ml_file, batch, flag, value, capsys):
    argv = (["explain"] if batch else []) + [str(ml_file), flag]
    if value is not None:
        argv.append(value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_rejects_report_flag(ml_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([str(ml_file), "--report", str(tmp_path / "run.json")])
    assert exc.value.code == 2
    assert "--report" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("option, value", [("buckets", (1.0, 2.0)), ("sample_cap", 4)])
def test_histogram_rejects(option, value):
    with pytest.raises(TypeError, match=option):
        Histogram("h", **{option: value})


@pytest.mark.parametrize(
    "name",
    ["RunReport", "render_prometheus", "DEFAULT_BUCKETS", "summarize_histogram",
     "ReportSchemaError", "RUN_REPORT_SCHEMA"],
)
def test_obs_exports_no_second_format(name):
    assert not hasattr(repro.obs, name)


def test_export_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.export")


@pytest.mark.parametrize("method", ["percentile", "quantile", "bucket_counts"])
def test_histogram_has_no_bucket_or_quantile_methods(method):
    assert not hasattr(Histogram("h"), method)


@pytest.mark.parametrize("cls", [MetricsRegistry, NullMetrics])
def test_registry_has_no_merge(cls):
    # Batch merging goes through merge_snapshot alone.
    assert not hasattr(cls(), "merge")
    assert hasattr(cls(), "merge_snapshot")


@pytest.mark.parametrize("cls", [Tracer, NullTracer])
def test_tracer_has_no_instant_events(cls):
    assert not hasattr(cls(), "event")


def test_timing_result_has_no_run_report_bridge():
    assert not hasattr(TimingResult(), "to_run_report")


@pytest.mark.parametrize("name", ["load_any", "aggregate_to_report", "add_report"])
def test_report_has_one_reader(name):
    import repro.obs.report as report

    assert not hasattr(report, name)
    assert not hasattr(report.RunAggregate, name)


@pytest.mark.parametrize("name", ["publish", "hits", "misses", "writes"])
def test_verdict_store_keeps_no_recency_or_counters(tmp_path, name):
    store = VerdictStore(tmp_path / "s")
    assert not hasattr(store, name)
    assert not hasattr(VerdictStore, name)


def test_stored_verdict_names_no_segment():
    assert not hasattr(StoredVerdict(ok=True), "segment")


@pytest.mark.parametrize("name", ["as_dict", "hits", "misses", "writes"])
def test_store_stats_has_no_counters_or_dict_form(name):
    assert not hasattr(StoreStats(path="s"), name)


def test_warm_batch_writes_no_hit_markers(tmp_path):
    store = tmp_path / "s"
    sources = [ILL_TYPED, ILL_TYPED]
    explain_many(sources, jobs=1, store=store)
    metrics = MetricsRegistry()
    explain(ILL_TYPED, store=store, metrics=metrics)
    explain_many(sources, jobs=1, store=store)
    assert metrics.value("oracle.store.hits") > 0
    assert not (store / "hits").exists()
    assert all(p.name.startswith("seg-") for p in store.iterdir())


@pytest.mark.parametrize("option, value", [("cross_check", True), ("max_depth", 10)])
def test_oracle_rejects_test_only_options(option, value):
    with pytest.raises(TypeError, match=option):
        Oracle(**{option: value})


@pytest.mark.parametrize(
    "option, value",
    [("triage_threshold", 0), ("max_triage_depth", 0), ("enable_adaptation", False)],
)
def test_search_config_rejects_test_only_options(option, value):
    with pytest.raises(TypeError, match=option):
        SearchConfig(**{option: value})


@pytest.mark.parametrize(
    "option, value", [("triage_threshold", 0), ("enable_adaptation", False)]
)
def test_explain_rejects_test_only_options(option, value):
    with pytest.raises(TypeError, match=option):
        explain(ILL_TYPED, **{option: value})


def test_searcher_rejects_enumerator():
    with pytest.raises(TypeError, match="enumerator"):
        Searcher(enumerator=None)


def _program():
    return parse_program(ILL_TYPED)


@pytest.mark.parametrize(
    "name, call",
    [
        ("Inferencer", lambda: Inferencer(env=None)),
        ("typecheck_program", lambda: typecheck_program(_program(), env=None)),
        ("typecheck_source", lambda: typecheck_source(ILL_TYPED, env=None)),
        ("snapshot_prefix", lambda: snapshot_prefix(_program(), 1, env=None)),
        ("record_decl_table", lambda: record_decl_table(_program(), env=None)),
        ("replay_decl_table",
         lambda: replay_decl_table(_program(), record_decl_table(_program())[0],
                                   env=None)),
        ("match_warnings", lambda: match_warnings(_program(), env=None)),
    ],
)
def test_checker_entry_points_reject_env(name, call):
    with pytest.raises(TypeError, match="env"):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: Deadline(1.0, clock=lambda: 0.0),
     lambda: EventLog(io.StringIO(), clock=lambda: 0.0)],
    ids=["Deadline", "EventLog"],
)
def test_clock_is_not_injectable(call):
    with pytest.raises(TypeError, match="clock"):
        call()


def test_fix_all_rejects_max_rounds():
    with pytest.raises(TypeError, match="max_rounds"):
        fix_all(ILL_TYPED, max_rounds=1)


def test_replay_decl_table_rejects_freeze_errors():
    # The table binds nothing live and answers with recorded errors, so
    # there is no rollback to render an error ahead of.
    table, _ = record_decl_table(_program())
    with pytest.raises(TypeError, match="freeze_errors"):
        replay_decl_table(_program(), table, freeze_errors=True)


@pytest.mark.parametrize(
    "call",
    [lambda: record_decl_table(_program(), key_fn=None),
     lambda: replay_decl_table(_program(), record_decl_table(_program())[0],
                               key_fn=None)],
    ids=["record_decl_table", "replay_decl_table"],
)
def test_decl_table_rejects_key_fn(call):
    # The table matches declarations by identity and keys nothing.
    with pytest.raises(TypeError, match="key_fn"):
        call()


@pytest.mark.parametrize("name", ["IncrementalMismatch", "AUTO_DEPTH"])
def test_oracle_module_exports_no_cross_check_or_auto_depth(name):
    assert not hasattr(repro.core.oracle, name)
    assert not hasattr(repro.core, name)


#: Every settable value along the search stack, by entry point.  A new
#: keyword option has to be added here, and it needs a caller outside the
#: tests to earn its place.
OPTION_CENSUS = [
    (explain, [
        "source", "enable_triage", "max_oracle_calls", "deadline_seconds",
        "disabled_rules", "oracle", "triage_strategy", "eager_enumeration",
        "custom_rules", "tracer", "metrics", "events", "label", "store",
    ]),
    (Searcher, ["oracle", "config", "tracer", "metrics", "events"]),
    (Oracle, ["typecheck", "max_calls", "metrics", "events", "store"]),
    (SearchConfig, [
        "max_oracle_calls", "deadline_seconds", "enable_triage",
        "disabled_rules", "triage_strategy", "eager_enumeration", "custom_rules",
    ]),
    (Inferencer, ["record_types"]),
    (typecheck_program, ["program", "record_types"]),
    (typecheck_source, ["source"]),
    (snapshot_prefix, ["program", "upto"]),
    (record_decl_table, ["program"]),
    (replay_decl_table, ["program", "table"]),
]


@pytest.mark.parametrize(
    "target, params", OPTION_CENSUS, ids=[t.__name__ for t, _ in OPTION_CENSUS]
)
def test_option_census(target, params):
    assert list(inspect.signature(target).parameters) == params


@pytest.mark.parametrize("name", ["arm_prefix", "arm_decl_table", "prefix_armed"])
def test_oracle_has_no_arming_api(name):
    # The oracle arms its own reuse from the first check after reset():
    # the searcher only asks yes/no questions.
    with pytest.raises(AttributeError, match=name):
        getattr(Oracle(), name)
