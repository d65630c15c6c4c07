"""The Section 3 empirical study: categories, study runner, figures, timing."""

from .categories import (  # noqa: F401
    Category,
    CategoryCounts,
    categorize,
    categorize_location_only,
)
from .figures import (  # noqa: F401
    cdf_points,
    class_size_histogram,
    fraction_within,
    percentile,
    render_figure5,
    render_figure6,
    render_figure7,
    render_headline,
)
from .report import collect, generate_report  # noqa: F401
from .study import FileOutcome, StudyResult, analyze_file, run_study  # noqa: F401
from .timing import (  # noqa: F401
    CONFIGURATIONS,
    TimingResult,
    run_timing_study,
)
