"""Repeated questions to the oracle get the same answer.

The searcher keeps no memo of tested candidates, so different enumeration
rules that propose the same repair put the same question to the oracle
more than once.  Each repeat may take a different route — the armed
prefix snapshot with its undo trail, the declaration outcome table, or a
from-scratch check — and must still give the same verdict.  Every
``Oracle.check`` of a default-oracle ``explain`` is recorded here, and any
two checks of structurally equal programs must agree on ``ok``.
"""

import pytest

from repro.core import Oracle, explain
from repro.corpus import generate_corpus
from repro.tree import StructuralKeyer, TreeTooDeep

REPRESENTATIVES = generate_corpus(scale=0.15, seed=11).representatives


class RecordingOracle(Oracle):
    """The default oracle, logging each check's structural key and verdict."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.log = []
        self._log_keyer = StructuralKeyer()

    def check(self, program):
        result = super().check(program)
        try:
            key = self._log_keyer(program)
        except TreeTooDeep:
            key = None
        if key is not None:
            self.log.append((key, result.ok))
        return result


def _repeats(log):
    """{key: [verdicts]} for every program checked more than once."""
    verdicts = {}
    for key, ok in log:
        verdicts.setdefault(key, []).append(ok)
    return {key: oks for key, oks in verdicts.items() if len(oks) > 1}


@pytest.mark.parametrize(
    "corpus_file",
    REPRESENTATIVES,
    ids=[f"{f.programmer}-{f.assignment}-{f.class_id}" for f in REPRESENTATIVES],
)
def test_structurally_equal_checks_agree(corpus_file):
    oracle = RecordingOracle(max_calls=20000)
    explain(corpus_file.program, oracle=oracle)
    assert oracle.log
    for key, oks in _repeats(oracle.log).items():
        assert len(set(oks)) == 1, (key.parts[0], oks)


def test_the_corpus_does_repeat_questions():
    # Guard against the property above holding vacuously: some searches
    # must actually ask the same question twice.
    repeated = 0
    for corpus_file in REPRESENTATIVES[:20]:
        oracle = RecordingOracle(max_calls=20000)
        explain(corpus_file.program, oracle=oracle)
        repeated += len(_repeats(oracle.log))
    assert repeated > 0
