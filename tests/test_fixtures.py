"""Embedded published aggregates: internal consistency where it exists."""
from __future__ import annotations

import pytest

from markprep import DegreeBand, TTestVariant, reference_model, refine_mark, two_sample_t
from markprep.fixtures import (
    CONFUSION_WITH_CAR,
    CONFUSION_WITHOUT_CAR,
    PUBLISHED_CLASS_ORDER,
    REFERENCE_AUC_WITH_CAR,
    REFERENCE_AUC_WITHOUT_CAR,
    REFERENCE_COMPARISONS,
    REFERENCE_ERROR_RATE_WITH_CAR,
    REFERENCE_ERROR_RATE_WITHOUT_CAR,
    REFERENCE_GROUP_MEANS,
    REFERENCE_P_EXAM_VS_COURSEWORK,
    REFERENCE_R_SQUARED_LINEAR,
    REFERENCE_R_SQUARED_QUADRATIC,
    REFERENCE_T_EXAM_VS_COURSEWORK,
    WORKED_EXAMPLE_GROUPS,
    WORKED_EXAMPLE_TOTAL,
)


def test_published_class_order_is_a_band_permutation() -> None:
    assert sorted(PUBLISHED_CLASS_ORDER) == list(DegreeBand)
    assert len(set(PUBLISHED_CLASS_ORDER)) == 6


def test_group_means_cover_six_departments() -> None:
    assert len(REFERENCE_GROUP_MEANS) == 6
    for row in REFERENCE_GROUP_MEANS.values():
        assert row.student_number > 0
        for mean in (row.exam_mean, row.coursework_mean, row.mixed_mean):
            assert 0.0 < mean < 100.0


def test_headline_t_value_reproducible_from_group_means() -> None:
    exam = [row.exam_mean for row in REFERENCE_GROUP_MEANS.values()]
    coursework = [row.coursework_mean for row in REFERENCE_GROUP_MEANS.values()]
    result = two_sample_t(exam, coursework)
    assert result.t_statistic == pytest.approx(REFERENCE_T_EXAM_VS_COURSEWORK, abs=0.01)
    assert result.degrees_of_freedom == 10
    # the stated p = 0.001 is a bound that both variants meet (pooled
    # 0.00049, Welch 0.00069)
    assert result.p_value_two_sided < REFERENCE_P_EXAM_VS_COURSEWORK
    assert two_sample_t(exam, coursework, TTestVariant.WELCH).p_value_two_sided < REFERENCE_P_EXAM_VS_COURSEWORK


def test_reference_comparison_directions() -> None:
    assert REFERENCE_COMPARISONS["exam_vs_coursework"].t_value < 0
    assert REFERENCE_COMPARISONS["exam_vs_coursework"].p_value < 0.05
    assert REFERENCE_COMPARISONS["mixed_vs_exam"].t_value > 0
    assert REFERENCE_COMPARISONS["mixed_vs_exam"].p_value > 0.05
    assert REFERENCE_COMPARISONS["mixed_vs_coursework"].t_value < 0
    assert REFERENCE_COMPARISONS["mixed_vs_coursework"].p_value < 0.05


def test_r_squared_pair_prefers_quadratic() -> None:
    assert REFERENCE_R_SQUARED_QUADRATIC > REFERENCE_R_SQUARED_LINEAR


def test_auc_and_error_rates_are_complements() -> None:
    assert REFERENCE_ERROR_RATE_WITH_CAR == pytest.approx(1.0 - REFERENCE_AUC_WITH_CAR, abs=1e-12)
    assert REFERENCE_ERROR_RATE_WITHOUT_CAR == pytest.approx(1.0 - REFERENCE_AUC_WITHOUT_CAR, abs=1e-12)
    assert REFERENCE_AUC_WITH_CAR > REFERENCE_AUC_WITHOUT_CAR


def test_with_car_table_is_internally_consistent() -> None:
    table = CONFUSION_WITH_CAR
    assert table.computed_row_totals() == table.row_totals
    assert table.computed_column_totals() == table.column_totals
    assert sum(table.row_totals) == table.grand_total == 284
    assert table.trace() == 177
    assert table.classification_accuracy == pytest.approx(177 / 284)


def test_without_car_table_keeps_stated_margins_verbatim() -> None:
    table = CONFUSION_WITHOUT_CAR
    assert table.row_totals == (12, 73, 47, 3, 30, 119)
    assert table.column_totals == (0, 42, 25, 0, 20, 197)
    assert table.grand_total == 284
    assert table.trace() == 148
    assert table.classification_accuracy == pytest.approx(148 / 284)
    # the printed cells do not sum to the printed margins; both are kept,
    # and the computed sums expose exactly which rows disagree
    computed = table.computed_row_totals()
    assert computed != table.row_totals
    disagreeing = [i for i, (a, b) in enumerate(zip(computed, table.row_totals)) if a != b]
    assert disagreeing == [2, 4]
    assert sum(sum(row) for row in table.cells) == 267


def test_worked_example_exam_modules_are_untouched() -> None:
    group = WORKED_EXAMPLE_GROUPS["exam_based"]
    assert group.mean_refined_mark == group.mean_mark
    refined = refine_mark(group.mean_mark, 0.0, reference_model())
    assert refined == group.mean_mark


def test_worked_example_coursework_mean_follows_the_rule() -> None:
    group = WORKED_EXAMPLE_GROUPS["coursework_based"]
    # every fully-coursework module drops by the same constant, so the
    # group mean drops by it too
    refined_mean = refine_mark(group.mean_mark, 1.0, reference_model())
    assert refined_mean == pytest.approx(60.3 - 6.897, abs=1e-9)
    # the published group value is stored verbatim even though it rounds
    # differently from the rule's own arithmetic
    assert group.mean_refined_mark == 52.7
    assert refined_mean == pytest.approx(group.mean_refined_mark, abs=0.75)


def test_worked_example_module_counts_sum() -> None:
    assert sum(g.module_count for g in WORKED_EXAMPLE_GROUPS.values()) == WORKED_EXAMPLE_TOTAL.module_count == 32

