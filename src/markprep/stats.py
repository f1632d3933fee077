"""Descriptive aggregation by assessment method and two-sample t-tests.

The Student-t CDF is computed here from first principles via the
regularized incomplete beta function (continued-fraction evaluation), so
the package needs no statistics dependency at runtime.  Matching a
library implementation is covered by tests.
"""
from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import COURSEWORK_RATIOS, StudentModuleOutcome


class AssessmentMethodClass(Enum):
    EXAM_BASED = "exam_based"
    COURSEWORK_BASED = "coursework_based"
    MIXED = "mixed"


def classify_method(car: float) -> AssessmentMethodClass:
    """Assessment method implied by a coursework ratio."""
    if car == 0.0:
        return AssessmentMethodClass.EXAM_BASED
    if car == 1.0:
        return AssessmentMethodClass.COURSEWORK_BASED
    return AssessmentMethodClass.MIXED


@dataclass(frozen=True, slots=True)
class GroupSummary:
    mean: float
    count: int


def group_mean_table(
    records: Iterable[StudentModuleOutcome],
) -> dict[str, dict[AssessmentMethodClass, GroupSummary]]:
    """Unweighted mean module mark per (department, assessment method).

    Cells with no records are absent from the inner mapping, never zero.

    The marks are collected per (department, coursework weight) and each
    weight is classified once; a method's cells are then joined, so its
    marks are no longer in record order.  The mean does not move a bit for
    that: ``statistics.fmean`` divides ``math.fsum``, which is correctly
    rounded in any order, by the count.  Departments and, within each,
    methods keep the order of their first record.
    """
    cells: defaultdict[tuple[str, int], list[float]] = defaultdict(list)
    for _, department, _, _, mark, _, _, weight in records:
        cells[department, weight].append(mark)
    methods = {weight: classify_method(COURSEWORK_RATIOS[weight]) for _, weight in cells}
    marks: dict[str, dict[AssessmentMethodClass, list[float]]] = {}
    for (department, weight), cell in cells.items():
        marks.setdefault(department, {}).setdefault(methods[weight], []).extend(cell)
    return {
        department: {
            method: GroupSummary(statistics.fmean(values), len(values))
            for method, values in by_method.items()
        }
        for department, by_method in marks.items()
    }


class TTestVariant(Enum):
    POOLED = "pooled"
    WELCH = "welch"


class DegenerateSampleError(ValueError):
    """Raised when the t statistic is undefined (zero combined variance)."""


@dataclass(frozen=True, slots=True)
class TTestResult:
    """Two-sided two-sample t-test outcome.

    ``degrees_of_freedom`` is integer-valued for the pooled variant and
    real-valued for Welch.
    """

    t_statistic: float
    degrees_of_freedom: float
    p_value_two_sided: float
    variant: TTestVariant
    n_a: int
    n_b: int
    mean_a: float
    mean_b: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value_two_sided <= 1.0:
            raise ValueError(f"p-value out of [0, 1]: {self.p_value_two_sided!r}")
        if self.degrees_of_freedom <= 0:
            raise ValueError(f"degrees of freedom must be positive: {self.degrees_of_freedom!r}")

    def to_json_dict(self) -> dict:
        return {
            "t": self.t_statistic,
            "df": self.degrees_of_freedom,
            "p": self.p_value_two_sided,
            "variant": self.variant.value,
            "n_a": self.n_a,
            "n_b": self.n_b,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
        }


def two_sample_t(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    variant: TTestVariant = TTestVariant.POOLED,
) -> TTestResult:
    """Two-sample t-test of mean(a) - mean(b).

    The pooled variant assumes equal variances and uses
    df = n_a + n_b - 2; Welch drops the assumption and uses the
    Welch-Satterthwaite df.  p-values are two-sided.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 values")
    mean_a = statistics.fmean(a)
    mean_b = statistics.fmean(b)
    var_a = statistics.variance(a, mean_a)
    var_b = statistics.variance(b, mean_b)
    n_a, n_b = len(a), len(b)

    if variant is TTestVariant.POOLED:
        pooled_var = ((n_a - 1) * var_a + (n_b - 1) * var_b) / (n_a + n_b - 2)
        if pooled_var == 0.0:
            raise DegenerateSampleError("zero pooled variance; t is undefined")
        std_err = math.sqrt(pooled_var * (1.0 / n_a + 1.0 / n_b))
        df = float(n_a + n_b - 2)
    else:
        term_a = var_a / n_a
        term_b = var_b / n_b
        if term_a + term_b == 0.0:
            raise DegenerateSampleError("zero combined variance; t is undefined")
        std_err = math.sqrt(term_a + term_b)
        df = (term_a + term_b) ** 2 / (
            term_a**2 / (n_a - 1) + term_b**2 / (n_b - 1)
        )

    t = (mean_a - mean_b) / std_err
    p = min(1.0, 2.0 * _upper_tail(abs(t), df))
    return TTestResult(t, df, p, variant, n_a, n_b, mean_a, mean_b)


# Continued-fraction evaluation of the regularized incomplete beta
# function, modified Lentz scheme.  Converges in well under the cap for
# every (a, b, x) reachable from the t CDF in its documented range.
_CF_MAX_ITERATIONS = 300
_CF_TOLERANCE = 1e-15
_CF_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITERATIONS + 1):
        m2 = 2 * m
        # even step
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + numerator / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        # odd step
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + numerator / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_TOLERANCE:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # The continued fraction converges fast only on one side of the
    # mean; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _upper_tail(t: float, df: float) -> float:
    """P(T > t) for t >= 0 under Student's t with df degrees of freedom."""
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)


def student_t_cdf(t: float, df: float) -> float:
    """Lower-tail probability of Student's t distribution.

    Absolute error stays within 1e-10 for df <= 1000 and |t| <= 50;
    cdf(t) + cdf(-t) = 1 holds by construction.
    """
    if not math.isfinite(df) or df <= 0:
        raise ValueError(f"degrees of freedom must be positive and finite, got {df!r}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    tail = _upper_tail(abs(t), df)
    return 1.0 - tail if t > 0 else tail if t < 0 else 0.5
