"""The empirical study of Section 3: run three tools over the corpus.

For each analyzed (representative) file, the study obtains

1. the conventional checker's message,
2. SEMINAL's top suggestion,
3. SEMINAL's top suggestion with triage disabled,

grades each against the file's ground-truth mutation, and assigns the file a
Section 3.2 category.  Aggregations by programmer and by assignment feed
Figures 5(a) and 5(b).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.seminal import ExplainResult, explain
from repro.corpus.generator import Corpus, CorpusFile
from repro.corpus.grading import FileGrades, grade_checker, grade_seminal
from repro.miniml.infer import typecheck_program

from .categories import Category, CategoryCounts, categorize, categorize_location_only


@dataclass(eq=False)
class FileOutcome:
    """Everything the study records for one analyzed file."""

    file: CorpusFile
    grades: FileGrades
    category: Category
    #: Wall-clock seconds for the full-tool run (feeds Figure 7).
    seconds_full: float
    seconds_no_triage: float
    oracle_calls: int

    @property
    def both_unhelpful(self) -> bool:
        """The "ties where no approach was very helpful" slice (paper: 9%)."""
        return (
            self.category in (Category.TIE_NO_TRIAGE, Category.TIE_TRIAGE_NEEDED)
            and self.grades.seminal.score == 0
        )


@dataclass
class StudyResult:
    """All per-file outcomes plus aggregate views."""

    outcomes: List[FileOutcome] = field(default_factory=list)

    @property
    def counts(self) -> CategoryCounts:
        return CategoryCounts.tally(o.category for o in self.outcomes)

    @property
    def counts_location_only(self) -> CategoryCounts:
        """Categories recomputed on location quality alone.

        Section 3.1: "Considering only location strictly increases the
        number of good results for each of the three error messages" — the
        paper reports the stricter location+accuracy measure; this view
        checks the same monotonicity on our data.
        """
        return CategoryCounts.tally(
            categorize_location_only(o.grades) for o in self.outcomes
        )

    def counts_by(self, key) -> Dict[str, CategoryCounts]:
        groups: Dict[str, List[Category]] = {}
        for outcome in self.outcomes:
            groups.setdefault(key(outcome), []).append(outcome.category)
        return {name: CategoryCounts.tally(cats) for name, cats in sorted(groups.items())}

    @property
    def by_programmer(self) -> Dict[str, CategoryCounts]:
        return self.counts_by(lambda o: o.file.programmer)

    @property
    def by_assignment(self) -> Dict[str, CategoryCounts]:
        return self.counts_by(lambda o: o.file.assignment)

    @property
    def unhelpful_tie_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.both_unhelpful) / len(self.outcomes)


def analyze_file(
    corpus_file: CorpusFile,
    max_oracle_calls: Optional[int] = 20000,
    disabled_rules: Sequence[str] = (),
) -> FileOutcome:
    """Run the three tools on one representative file and grade them."""
    program = corpus_file.program
    checker_result = typecheck_program(program)
    assert checker_result.error is not None, "corpus files must be ill-typed"

    start = time.perf_counter()
    with_triage = explain(
        program, enable_triage=True, max_oracle_calls=max_oracle_calls,
        disabled_rules=disabled_rules,
    )
    seconds_full = time.perf_counter() - start

    start = time.perf_counter()
    without_triage = explain(
        program, enable_triage=False, max_oracle_calls=max_oracle_calls,
        disabled_rules=disabled_rules,
    )
    seconds_no_triage = time.perf_counter() - start

    grades = FileGrades(
        checker=grade_checker(corpus_file.mutated, checker_result.error),
        seminal=grade_seminal(corpus_file.mutated, with_triage),
        seminal_no_triage=grade_seminal(corpus_file.mutated, without_triage),
    )
    return FileOutcome(
        file=corpus_file,
        grades=grades,
        category=categorize(grades),
        seconds_full=seconds_full,
        seconds_no_triage=seconds_no_triage,
        oracle_calls=with_triage.oracle_calls,
    )


def run_study(
    corpus: Corpus,
    max_files: Optional[int] = None,
    max_oracle_calls: Optional[int] = 20000,
    disabled_rules: Sequence[str] = (),
) -> StudyResult:
    """Analyze every representative file (optionally capped for smoke runs)."""
    result = StudyResult()
    files = corpus.representatives
    if max_files is not None:
        files = files[:max_files]
    for corpus_file in files:
        result.outcomes.append(
            analyze_file(
                corpus_file,
                max_oracle_calls=max_oracle_calls,
                disabled_rules=disabled_rules,
            )
        )
    return result
