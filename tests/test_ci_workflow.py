"""Static checks of the CI workflow file.

GitHub runs each ``run:`` step under ``bash -e``: a command that exits
non-zero aborts the step at once, so ``cmd; code=$?`` never reaches the
capture.  An expected non-zero exit must be captured inside the command
list, as ``code=0; cmd || code=$?``.
"""

import pathlib
import re

import pytest

from repro.obs import read_events

ROOT = pathlib.Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"


def _ci_text():
    return CI.read_text()


def test_no_exit_code_captured_after_a_semicolon():
    offending = [
        f"line {n}: {line.strip()}"
        for n, line in enumerate(_ci_text().splitlines(), start=1)
        if re.search(r";\s*code=\$\?", line)
    ]
    assert offending == []


@pytest.mark.parametrize(
    "baseline", sorted(set(re.findall(r"benchmarks/results/\S+", CI.read_text())))
)
def test_checked_in_baselines_are_event_logs(baseline):
    events = read_events(ROOT / baseline)
    assert [e["type"] for e in events if e["type"] == "metrics"] == ["metrics"]
