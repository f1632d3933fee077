"""Method classes, group means, t-tests, and the hand-built t CDF.

scipy appears here only as an independent oracle; the library under test
never imports it.
"""
from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
import scipy.special
import scipy.stats

from markprep import (
    AssessmentMethodClass,
    DegenerateSampleError,
    StudentModuleOutcome,
    TTestVariant,
    classify_method,
    group_mean_table,
    regularized_incomplete_beta,
    student_t_cdf,
    two_sample_t,
)
from test_core import make_outcome


def test_classify_method_by_ratio() -> None:
    assert classify_method(0.0) is AssessmentMethodClass.EXAM_BASED
    assert classify_method(1.0) is AssessmentMethodClass.COURSEWORK_BASED
    assert classify_method(0.5) is AssessmentMethodClass.MIXED
    assert classify_method(0.01) is AssessmentMethodClass.MIXED
    exam_only = make_outcome(cswk_weight=0, cswk_mark=None)
    coursework_only = make_outcome(cswk_weight=100, exam_mark=None)
    assert classify_method(exam_only.car) is AssessmentMethodClass.EXAM_BASED
    assert classify_method(coursework_only.car) is AssessmentMethodClass.COURSEWORK_BASED
    assert classify_method(make_outcome(cswk_weight=55).car) is AssessmentMethodClass.MIXED


def test_group_mean_table() -> None:
    records = [
        make_outcome(mark=50.0, cswk_weight=0, exam_mark=50.0, cswk_mark=None, module_code="A"),
        make_outcome(mark=70.0, cswk_weight=0, exam_mark=70.0, cswk_mark=None, module_code="B"),
        make_outcome(mark=66.0, cswk_weight=100, exam_mark=None, cswk_mark=66.0, module_code="C"),
        make_outcome(mark=80.0, module_code="D"),
    ]
    table = group_mean_table(records)
    by_method = table["CS"]
    assert by_method[AssessmentMethodClass.EXAM_BASED].mean == pytest.approx(60.0)
    assert by_method[AssessmentMethodClass.EXAM_BASED].count == 2
    assert by_method[AssessmentMethodClass.COURSEWORK_BASED].mean == pytest.approx(66.0)
    assert by_method[AssessmentMethodClass.MIXED].mean == pytest.approx(80.0)


def test_group_mean_table_splits_departments() -> None:
    a = make_outcome(mark=40.0)
    b = make_outcome(mark=90.0, department="EE")
    table = group_mean_table([a, b])
    assert table["CS"][AssessmentMethodClass.MIXED].mean == pytest.approx(40.0)
    assert table["EE"][AssessmentMethodClass.MIXED].mean == pytest.approx(90.0)


def test_group_mean_table_keeps_first_appearance_order() -> None:
    # weights 40 and 60 share a method, and their cells are joined; the keys
    # of both levels follow each department's and method's first record
    def outcome(department: str, weight: int, mark: float) -> StudentModuleOutcome:
        exam, cswk = (None if weight == 100 else mark), (None if weight == 0 else mark)
        return make_outcome(mark=mark, cswk_weight=weight, exam_mark=exam, cswk_mark=cswk, department=department)

    rows = [("EE", 40, 61.1), ("CS", 100, 70.3), ("EE", 0, 52.7), ("CS", 60, 0.1), ("EE", 60, 58.9), ("EE", 40, 0.3)]
    records = [outcome(*row) for row in rows]
    table = group_mean_table(records)
    assert list(table) == ["EE", "CS"]
    assert list(table["EE"]) == [AssessmentMethodClass.MIXED, AssessmentMethodClass.EXAM_BASED]
    assert list(table["CS"]) == [AssessmentMethodClass.COURSEWORK_BASED, AssessmentMethodClass.MIXED]
    mixed = table["EE"][AssessmentMethodClass.MIXED]
    assert (mixed.mean, mixed.count) == (statistics.fmean([61.1, 58.9, 0.3]), 3)


def test_pooled_t_matches_oracle_fuzz() -> None:
    rng = np.random.default_rng(90210)
    for _ in range(200):
        n_a = int(rng.integers(2, 30))
        n_b = int(rng.integers(2, 30))
        a = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), n_a)
        b = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 4), n_b)
        result = two_sample_t(a.tolist(), b.tolist())
        oracle = scipy.stats.ttest_ind(a, b, equal_var=True)
        assert result.t_statistic == pytest.approx(oracle.statistic, rel=1e-10)
        assert result.p_value_two_sided == pytest.approx(oracle.pvalue, rel=1e-9, abs=1e-300)
        assert result.degrees_of_freedom == n_a + n_b - 2


def test_welch_t_matches_oracle_fuzz() -> None:
    rng = np.random.default_rng(4242)
    for _ in range(200):
        n_a = int(rng.integers(2, 30))
        n_b = int(rng.integers(2, 30))
        a = rng.normal(0, rng.uniform(0.5, 6), n_a)
        b = rng.normal(1, rng.uniform(0.5, 6), n_b)
        result = two_sample_t(a.tolist(), b.tolist(), TTestVariant.WELCH)
        oracle = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert result.t_statistic == pytest.approx(oracle.statistic, rel=1e-10)
        assert result.p_value_two_sided == pytest.approx(oracle.pvalue, rel=1e-9, abs=1e-300)
        assert result.degrees_of_freedom == pytest.approx(oracle.df, rel=1e-10)


def test_t_sign_is_mean_a_minus_mean_b() -> None:
    low = [1.0, 2.0, 3.0]
    high = [11.0, 12.0, 13.0]
    assert two_sample_t(low, high).t_statistic < 0
    assert two_sample_t(high, low).t_statistic > 0


def test_degenerate_and_short_samples() -> None:
    with pytest.raises(ValueError):
        two_sample_t([1.0], [2.0, 3.0])
    with pytest.raises(DegenerateSampleError):
        two_sample_t([5.0, 5.0], [5.0, 5.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy warns on its own oracle call
def test_welch_still_works_when_one_side_is_constant() -> None:
    result = two_sample_t([5.0, 5.0], [1.0, 2.0, 3.0], TTestVariant.WELCH)
    oracle = scipy.stats.ttest_ind([5.0, 5.0], [1.0, 2.0, 3.0], equal_var=False)
    assert result.t_statistic == pytest.approx(oracle.statistic, rel=1e-10)


def test_result_json_shape() -> None:
    doc = two_sample_t([1.0, 2.0], [3.0, 4.0]).to_json_dict()
    assert set(doc) == {"t", "df", "p", "variant", "n_a", "n_b", "mean_a", "mean_b"}
    assert doc["variant"] == "pooled"
    assert doc["n_a"] == 2


def test_cdf_matches_cauchy_closed_form() -> None:
    # df = 1 is the Cauchy distribution: F(t) = 1/2 + atan(t)/pi
    for t in np.linspace(-50.0, 50.0, 401):
        expected = 0.5 + math.atan(t) / math.pi
        assert student_t_cdf(float(t), 1.0) == pytest.approx(expected, abs=1e-10)
    assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, abs=1e-12)


def test_cdf_matches_scipy_fuzz() -> None:
    rng = np.random.default_rng(777)
    for _ in range(400):
        df = float(rng.uniform(0.5, 200.0))
        t = float(rng.standard_normal() * 10.0)
        assert student_t_cdf(t, df) == pytest.approx(
            scipy.stats.t.cdf(t, df), rel=1e-10, abs=1e-12
        )


def test_cdf_symmetry() -> None:
    for df in (1.0, 5.0, 10.0, 100.0):
        for t in np.linspace(0.0, 40.0, 161):
            total = student_t_cdf(float(t), df) + student_t_cdf(float(-t), df)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_cdf_center_and_monotonicity() -> None:
    assert student_t_cdf(0.0, 7.0) == 0.5
    values = [student_t_cdf(t, 7.0) for t in np.linspace(-8, 8, 101)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cdf_rejects_bad_df() -> None:
    with pytest.raises(ValueError):
        student_t_cdf(1.0, 0.0)
    with pytest.raises(ValueError):
        student_t_cdf(1.0, -3.0)
    with pytest.raises(ValueError):
        student_t_cdf(math.nan, 5.0)


def test_incomplete_beta_matches_scipy_fuzz() -> None:
    rng = np.random.default_rng(31337)
    for _ in range(400):
        a = float(rng.uniform(0.05, 50.0))
        b = float(rng.uniform(0.05, 50.0))
        x = float(rng.uniform(0.0, 1.0))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.special.betainc(a, b, x), rel=1e-9, abs=1e-13
        )


def test_incomplete_beta_endpoints() -> None:
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


def test_small_p_values_stay_precise() -> None:
    # extreme t: the two-tailed p is computed from the tail directly, so it
    # must not collapse to 0 or lose digits to 1 - (1 - p) cancellation
    a = [0.0, 0.1, -0.1, 0.05]
    b = [30.0, 30.1, 29.9, 30.05]
    result = two_sample_t(a, b)
    oracle = scipy.stats.ttest_ind(a, b, equal_var=True)
    assert 0.0 < result.p_value_two_sided < 1e-9
    assert result.p_value_two_sided == pytest.approx(oracle.pvalue, rel=1e-8)
