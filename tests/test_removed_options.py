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
A caller still passing one of the old options gets an error naming it.
"""

import importlib

import pytest

import repro.core
import repro.obs
from repro.cli import main
from repro.core import Oracle, SearchConfig, explain, explain_many
from repro.core.resilience import Deadline
from repro.evaluation.timing import TimingResult
from repro.faults import FlakyStore
from repro.obs import MetricsRegistry, NullMetrics, NullTracer, Tracer
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
