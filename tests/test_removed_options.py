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
A caller still passing one of the old options gets an error naming it.
"""

import importlib

import pytest

import repro.core
from repro.cli import main
from repro.core import Oracle, SearchConfig, explain
from repro.core.resilience import Deadline
from repro.faults import FlakyStore
from repro.store import VerdictStore

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
    [("retry_policy", None), ("sleep", lambda s: None), ("flush_every", 1)],
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
