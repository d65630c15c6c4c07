"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository::

    python3 -m pytest perfbench -q

Each workload must report exactly the metrics ``BENCHMARK.json`` declares,
with their units, and leave no process of its own behind; and the reference
check must catch a wrong answer: a run whose oracle flips one verdict has to
report failed attempts.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._use_checkout_source()

import reference  # noqa: E402
from inputs import course_items, deep_items, fig7_items  # noqa: E402
from repro.core.seminal import explain  # noqa: E402
from repro.core.oracle import Oracle  # noqa: E402
from repro.miniml.infer import CheckResult  # noqa: E402
from repro.miniml.parser import parse_program  # noqa: E402
from repro.miniml.pretty import pretty  # noqa: E402
from workloads import WORKLOADS, run_workload  # noqa: E402

SEED = 7
SCALE = 0.05
SECONDS = 1
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ITEMS = {"fig7-corpus": fig7_items, "deep-weak": deep_items, "course-batch": course_items}


def _declared(kind):
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def _children():
    """The processes, zombies too, whose parent is this one."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        if entry.name.isdigit() and int(stat[stat.rindex(")") + 2:].split()[1]) == os.getpid():
            found.append(stat[:stat.rindex(")") + 1])
    return found


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_run_reports_every_metric_with_its_unit(workload, traced, kind):
    result = run_workload(workload, SEED, SECONDS, traced, scale=SCALE)
    assert result.correct, result.problems
    assert result.attempted > 0
    units = {name: unit for name, (_, unit) in result.metrics.items()}
    assert units == _declared(kind)
    line = json.loads(run.result_json(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if not traced:
        assert all(value > 0 for value, _ in result.metrics.values())
    assert _children() == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_flipped_verdict_fails_the_reference_check(workload, monkeypatch):
    last = parse_program(ITEMS[workload](SEED, SCALE)[-1].source)
    target, decls = pretty(last), len(last.decls)
    check = Oracle.check

    def flipped(self, program):
        result = check(self, program)
        if len(program.decls) == decls and pretty(program) == target:
            return CheckResult(ok=not result.ok)
        return result

    # Production runs here and in forked batch workers; the reference runs
    # in freshly spawned processes, where the flip is absent.
    monkeypatch.setattr(Oracle, "check", flipped)
    result = run_workload(workload, SEED, SECONDS, False, scale=SCALE)
    assert result.failed > 0
    assert not result.correct


def test_suggestion_programs_pickle_without_touching_the_inputs():
    item = fig7_items(SEED, SCALE)[0]
    programs = [s.program for s in explain(item.program).suggestions]
    assert programs
    gc.collect()
    before = len(gc.get_objects())
    blob = reference._dumps_programs(programs)
    gc.collect()
    # The default reduction would leave one new dict per node shared with
    # the input program.
    assert len(gc.get_objects()) - before < 10
    assert [pretty(p) for p in pickle.loads(blob)] == [pretty(p) for p in programs]
