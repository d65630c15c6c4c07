"""A test-side oracle that checks every answer against the reference.

The default :class:`~repro.core.oracle.Oracle` answers most checks through
a reuse route (the prefix snapshot or the decl table).  Plain
:func:`~repro.miniml.infer.typecheck_program` defines the correct answer,
so :class:`ReferenceCheckingOracle` re-runs it after every check the
oracle answered and raises :class:`ReferenceMismatch` on a difference.
It is used by the per-check sweeps (``TestCrossCheckSweep`` in
``test_decl_table.py`` and ``TestCorpusAgreement`` in
``test_incremental.py``).

A check counts as answered unless the depth guard rejected it or a crash
was isolated into a rejection: neither is a verdict of the checker.  The
verdict (``ok``) is always compared.  The rendered message is compared
only when a store is attached, because only then does a failing message
outlive its check (the store persists it, so the oracle renders it before
the trail rolls back); without a store the searcher reads verdicts alone.
"""

from repro.core.oracle import Oracle
from repro.miniml.infer import typecheck_program


class ReferenceMismatch(AssertionError):
    """A reused answer differs from the from-scratch reference."""


def _message(result):
    return result.error.render() if result.error is not None else None


class ReferenceCheckingOracle(Oracle):
    """An :class:`Oracle` that compares each answered check with
    :func:`typecheck_program`.  ``compared`` counts the comparisons."""

    def __init__(self, **oracle_kwargs):
        super().__init__(**oracle_kwargs)
        self.compared = 0

    def check(self, program):
        rejections, crashes = self.depth_rejections, self.crashes
        result = super().check(program)
        if self.depth_rejections == rejections and self.crashes == crashes:
            self._compare(program, result)
        return result

    def _compare(self, program, answer) -> None:
        self.compared += 1
        reference = typecheck_program(program)
        same = answer.ok == reference.ok
        if same and self.store is not None and not reference.ok:
            same = _message(answer) == _message(reference)
        if not same:
            raise ReferenceMismatch(
                "oracle answer differs from the from-scratch reference:\n"
                f"  oracle:    ok={answer.ok} error={_message(answer)!r}\n"
                f"  reference: ok={reference.ok} error={_message(reference)!r}"
            )
