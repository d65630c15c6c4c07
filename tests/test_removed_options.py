"""Options that no longer exist are rejected, not silently ignored.

The searcher's duplicate-candidate memo (``dedup``/``--no-dedup``) is gone,
the soft-deadline shed point is the constant
:data:`~repro.core.resilience.SHED_FRACTION`, the number of crash
samples an oracle keeps is the constant
:data:`~repro.core.oracle.CRASH_SAMPLE_LIMIT`, and the oracle's crash
isolation is unconditional (no ``strict`` switch).  A caller still passing one
of the old options gets an error naming it.
"""

import pytest

from repro.cli import main
from repro.core import Oracle, SearchConfig, explain
from repro.core.resilience import Deadline

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
