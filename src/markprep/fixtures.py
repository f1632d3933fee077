"""Published reference aggregates embedded as regression oracles.

These constants reproduce, verbatim, the summary tables of the study this
pipeline reimplements: departmental mark averages by assessment method,
the reported t-test values, two degree-band confusion matrices from the
with/without-CAR prediction comparison, and a worked single-student
refinement example.  They are data, not computations; tests compare
pipeline output against them.

One of the published confusion matrices is internally inconsistent: its
cells sum to neither its stated row margins nor its grand total.  The
margins are therefore stored verbatim alongside the cells rather than
recomputed, and ``computed_row_totals`` exposes the actual sums for
anyone who wants the discrepancy in the open.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import PUBLISHED_CLASS_ORDER, DegreeBand


@dataclass(frozen=True, slots=True)
class GroupMeanRow:
    """One department's published mean module marks by assessment method."""

    student_number: int
    exam_mean: float
    coursework_mean: float
    mixed_mean: float


REFERENCE_GROUP_MEANS: dict[str, GroupMeanRow] = {
    "Business": GroupMeanRow(54960, 59.77, 60.83, 60.01),
    "Civil Engineering": GroupMeanRow(34892, 58.78, 63.74, 60.70),
    "Computer Science": GroupMeanRow(19800, 58.18, 64.40, 58.87),
    "Electronic and Computer Systems Engineering": GroupMeanRow(13740, 59.55, 63.26, 57.00),
    "Math": GroupMeanRow(24152, 61.59, 66.00, 61.17),
    "Mechanical Engineering": GroupMeanRow(31385, 58.80, 64.26, 60.24),
}

# The headline pooled comparison of exam-based vs coursework-based means,
# as reported in the study's narrative; reproduced by two_sample_t on the
# columns of REFERENCE_GROUP_MEANS.
REFERENCE_T_EXAM_VS_COURSEWORK = -5.06
REFERENCE_P_EXAM_VS_COURSEWORK = 0.001


@dataclass(frozen=True, slots=True)
class ReferenceComparison:
    """Published (p, t) pair for one pairwise method comparison.

    Stored verbatim.  Only the exam-vs-coursework narrative value and the
    sign/significance directions are reproducible from the published
    means; the exact table values came from unpublished record-level data.
    """

    p_value: float
    t_value: float


REFERENCE_COMPARISONS: dict[str, ReferenceComparison] = {
    "exam_vs_coursework": ReferenceComparison(0.002, -4.5),
    "mixed_vs_exam": ReferenceComparison(0.749, 0.39),
    "mixed_vs_coursework": ReferenceComparison(0.004, -3.99),
}

# Published model-selection comparison: quadratic fit R-squared vs linear.
REFERENCE_R_SQUARED_QUADRATIC = 0.0290
REFERENCE_R_SQUARED_LINEAR = 0.0277

# Published headline evaluation numbers for the band-prediction comparison.
REFERENCE_AUC_WITH_CAR = 0.9304
REFERENCE_AUC_WITHOUT_CAR = 0.9073
REFERENCE_ERROR_RATE_WITH_CAR = 0.0696
REFERENCE_ERROR_RATE_WITHOUT_CAR = 0.0927


@dataclass(frozen=True, slots=True)
class PublishedConfusionTable:
    """A published confusion matrix with its stated margins kept verbatim.

    ``cells[i][j]`` counts true class ``class_order[i]`` predicted as
    ``class_order[j]``.  ``row_totals``, ``column_totals`` and
    ``grand_total`` are the totals as printed, which for one of the two
    tables do not equal the sums of the printed cells.
    """

    class_order: tuple[DegreeBand, ...]
    cells: tuple[tuple[int, ...], ...]
    row_totals: tuple[int, ...]
    column_totals: tuple[int, ...]
    grand_total: int

    def trace(self) -> int:
        return sum(self.cells[i][i] for i in range(len(self.class_order)))

    @property
    def classification_accuracy(self) -> float:
        """Diagonal count over the stated grand total."""
        return self.trace() / self.grand_total

    def computed_row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.cells)

    def computed_column_totals(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.cells))


CONFUSION_WITHOUT_CAR = PublishedConfusionTable(
    class_order=PUBLISHED_CLASS_ORDER,
    cells=(
        (0, 1, 3, 0, 5, 3),
        (0, 36, 0, 0, 0, 37),
        (0, 0, 0, 0, 6, 31),
        (0, 0, 0, 0, 0, 3),
        (0, 0, 8, 0, 2, 13),
        (0, 5, 4, 0, 0, 110),
    ),
    row_totals=(12, 73, 47, 3, 30, 119),
    column_totals=(0, 42, 25, 0, 20, 197),
    grand_total=284,
)

CONFUSION_WITH_CAR = PublishedConfusionTable(
    class_order=PUBLISHED_CLASS_ORDER,
    cells=(
        (3, 2, 6, 0, 0, 2),
        (0, 59, 0, 0, 0, 23),
        (0, 4, 16, 0, 0, 26),
        (0, 0, 1, 0, 0, 2),
        (1, 1, 14, 0, 0, 9),
        (0, 12, 4, 0, 0, 99),
    ),
    row_totals=(13, 82, 46, 3, 25, 115),
    column_totals=(4, 78, 41, 0, 0, 161),
    grand_total=284,
)


@dataclass(frozen=True, slots=True)
class WorkedExampleGroup:
    """One assessment-method group of the worked refinement example."""

    module_count: int
    mean_mark: float
    mean_refined_mark: float


# Single-student worked example: 32 modules refined with the reference
# coefficients, grouped by assessment method.  Stored verbatim; the
# coursework row and the total row are not consistent with the refinement
# rule's own arithmetic, so tests assert only what the rule implies.
WORKED_EXAMPLE_GROUPS: dict[str, WorkedExampleGroup] = {
    "exam_based": WorkedExampleGroup(19, 48.6, 48.6),
    "coursework_based": WorkedExampleGroup(6, 60.3, 52.7),
    "mixed": WorkedExampleGroup(7, 60.4, 58.3),
}
WORKED_EXAMPLE_TOTAL = WorkedExampleGroup(32, 56.4, 53.2)

