"""Tests for the study runner and figure rendering (small-scale runs)."""

import pytest

from repro.corpus import generate_corpus
from repro.evaluation import (
    Category,
    cdf_points,
    class_size_histogram,
    fraction_within,
    percentile,
    render_figure5,
    render_figure6,
    render_figure7,
    render_headline,
    run_study,
    run_timing_study,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(scale=0.15, seed=31)


@pytest.fixture(scope="module")
def study(corpus):
    return run_study(corpus, max_files=12)


class TestStudyRunner:
    def test_outcomes_per_file(self, study):
        assert len(study.outcomes) == 12

    def test_every_outcome_categorized(self, study):
        for outcome in study.outcomes:
            assert isinstance(outcome.category, Category)

    def test_times_recorded(self, study):
        assert all(o.seconds_full > 0 for o in study.outcomes)
        assert all(o.seconds_no_triage > 0 for o in study.outcomes)

    def test_grouping_partitions_outcomes(self, study):
        by_programmer = study.by_programmer
        assert sum(c.total for c in by_programmer.values()) == len(study.outcomes)
        by_assignment = study.by_assignment
        assert sum(c.total for c in by_assignment.values()) == len(study.outcomes)

    def test_counts_consistent(self, study):
        assert study.counts.total == len(study.outcomes)


class TestFigureRendering:
    def test_figure5_contains_groups(self, study):
        text = render_figure5(study.by_assignment, "Figure 5(b)")
        for name in study.by_assignment:
            assert name in text

    def test_figure5_legend(self, study):
        assert "legend" in render_figure5(study.by_programmer, "t")

    def test_headline_mentions_paper_values(self, study):
        text = render_headline(study.counts, study.unhelpful_tie_fraction)
        assert "(paper: 19%)" in text
        assert "(paper: 83%)" in text

    def test_figure6(self, corpus):
        text = render_figure6(corpus.class_sizes)
        assert "size   1" in text
        assert "total files" in text

    def test_figure6_empty(self):
        assert "empty" in render_figure6([])

    def test_figure7(self, corpus):
        timing = run_timing_study(corpus, max_files=4)
        text = render_figure7(timing.curves, budgets=[0.05, 0.5])
        assert "full tool" in text
        assert "no triage" in text
        assert "median" in text


class TestTimingStudy:
    def test_three_configurations(self, corpus):
        timing = run_timing_study(corpus, max_files=3)
        assert set(timing.curves) == {"full tool", "no reparen-match change", "no triage"}

    def test_curves_sorted(self, corpus):
        timing = run_timing_study(corpus, max_files=3)
        for times in timing.curves.values():
            assert times == sorted(times)

    def test_to_run_report_bridge(self, corpus, tmp_path):
        from repro.obs import RunReport

        timing = run_timing_study(corpus, max_files=2)
        report = timing.to_run_report("full tool")
        assert report.label == "full tool"
        assert report.counters["oracle.calls"] > 0
        assert report.elapsed_seconds == pytest.approx(
            sum(timing.curves["full tool"])
        )
        # The bridge produces a valid --diff baseline document.
        path = tmp_path / "baseline.json"
        report.write(path)
        assert RunReport.load(path).counters == report.counters


class TestCdfHelpers:
    def test_cdf_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_fraction_within(self):
        assert fraction_within([1, 2, 3, 4], 2.5) == 0.5
        assert fraction_within([], 1) == 0.0

    def test_percentile(self):
        times = list(range(1, 101))
        assert percentile(times, 0.5) == 50
        assert percentile(times, 0.9) == 90
        assert percentile([], 0.5) == 0.0

    def test_class_size_histogram(self):
        assert class_size_histogram([1, 1, 2, 5]) == {1: 2, 2: 1, 5: 1}


class TestLocationOnlyView:
    def test_location_only_never_worse_than_strict(self, study):
        """Section 3.1: considering only location strictly increases the
        number of good results — the no-worse fraction must not drop."""
        strict = study.counts
        lax = study.counts_location_only
        assert lax.no_worse >= strict.no_worse - 1e-9

    def test_location_only_total_matches(self, study):
        assert study.counts_location_only.total == study.counts.total
