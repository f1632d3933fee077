"""Coursework-ratio mark refinement.

Fits module mark against the coursework assessment ratio (CAR) with an
ordinary-least-squares polynomial (degree 1 or 2, chosen by R-squared),
then removes the fitted non-intercept component from each mark:

    refined = mark - (b1 * car + b2 * car^2)

The intercept is the ratio-independent baseline and is never subtracted,
so a purely exam-assessed module (CAR 0) keeps its mark unchanged.  The
reference coefficient pair (12.77, -5.873) reproduces the published
refinement rule exactly.

The fit solves the normal equations exactly in rational arithmetic and
rounds each coefficient once, so the coefficients are the correctly
rounded least-squares solution on every platform.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import COURSEWORK_RATIOS, StudentModuleOutcome, read_count, read_fields, read_number, read_string

REFERENCE_LINEAR_COEFFICIENT = 12.77
REFERENCE_QUADRATIC_COEFFICIENT = -5.873

# R-squared differences at or below this are treated as ties, and ties
# prefer the lower degree.
R_SQUARED_TIE_TOLERANCE = 1e-12


class ModelKind(Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"


class SingularFitError(ValueError):
    """Raised when the design matrix cannot support the requested degree."""


@dataclass(frozen=True, slots=True)
class RefinementModel:
    """Polynomial refinement coefficients with fit diagnostics.

    Models produced by ``fit_polynomial`` always have n_observations of
    at least degree + 1; n_observations == 0 marks a model whose
    coefficients were supplied externally rather than fitted here.
    """

    intercept: float
    linear: float
    quadratic: float
    r_squared: float
    model_kind: ModelKind
    n_observations: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared!r}")
        read_count("n_observations", self.n_observations)
        if self.model_kind is ModelKind.LINEAR and self.quadratic != 0.0:
            raise ValueError("a linear model must have a zero quadratic coefficient")

    def decrement(self, car: float) -> float:
        """The amount subtracted from a mark at the given ratio."""
        return self.linear * car + self.quadratic * car**2

    def to_json_dict(self) -> dict:
        return {
            "b0": self.intercept,
            "b1": self.linear,
            "b2": self.quadratic,
            "r_squared": self.r_squared,
            "model_kind": self.model_kind.value,
            "n_observations": self.n_observations,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "RefinementModel":
        data = read_fields(data, "model", ("b0", "b1", "b2", "r_squared", "model_kind", "n_observations"))
        return cls(
            intercept=read_number("b0", data["b0"]),
            linear=read_number("b1", data["b1"]),
            quadratic=read_number("b2", data["b2"]),
            r_squared=read_number("r_squared", data["r_squared"]),
            model_kind=ModelKind(read_string("model_kind", data["model_kind"])),
            n_observations=data["n_observations"],
        )


# The saved-model file: one pooled model, or a model per department keyed
# by department name.
SavedModels = RefinementModel | dict[str, RefinementModel]


def models_to_json(models: SavedModels) -> dict:
    """The model JSON that `refine` writes and `report` reads back."""
    if isinstance(models, RefinementModel):
        return models.to_json_dict()
    return {scope: model.to_json_dict() for scope, model in models.items()}


def models_from_json(data: dict) -> SavedModels | None:
    """Inverse of ``models_to_json``; None when the object is no model JSON."""
    if "b0" in data:
        return RefinementModel.from_json_dict(data)
    if data and all(isinstance(value, dict) and "b0" in value for value in data.values()):
        return {scope: RefinementModel.from_json_dict(value) for scope, value in data.items()}
    return None


def reference_model() -> RefinementModel:
    """The published refinement rule with pinned coefficients.

    The recorded r_squared is the published fit quality of the original
    (unavailable) data; n_observations 0 marks the model as pinned.
    """
    # imported here, so that only a command that pins the model loads the
    # published tables
    from .fixtures import REFERENCE_R_SQUARED_QUADRATIC

    return RefinementModel(
        intercept=0.0,
        linear=REFERENCE_LINEAR_COEFFICIENT,
        quadratic=REFERENCE_QUADRATIC_COEFFICIENT,
        r_squared=REFERENCE_R_SQUARED_QUADRATIC,
        model_kind=ModelKind.QUADRATIC,
        n_observations=0,
    )


def fit_polynomial(
    ratios: Sequence[float], marks: Sequence[float], degree: int
) -> RefinementModel:
    """OLS fit of each mark on {1, car} or {1, car, car^2}, where
    ``ratios[i]`` is the car of ``marks[i]``.

    The normal equations are built from exact sums and solved in
    rational arithmetic, and each coefficient is rounded to a float
    once.  So the collinearity of car and car^2 on [0, 1] costs no
    precision, and the result does not depend on a linear-algebra
    library.  R-squared is 1 - SS_res/SS_tot over the float residuals,
    defined as 1 when SS_tot is zero (a constant response is fitted
    exactly thanks to the intercept column).
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if len(ratios) < degree + 1:
        raise SingularFitError(
            f"need at least {degree + 1} points for degree {degree}, got {len(ratios)}"
        )
    return _fit_groups(_RatioGroups(ratios, marks), degree)


def _exact_sum(values: Sequence[float]) -> Fraction:
    """The exact sum of floats.

    ``math.fsum`` rounds the exact sum to a float s; appending -s leaves
    the exact sum of the rest equal to what s missed, and so on until it
    is exactly 0 (fsum returns 0.0 only for an exact 0).  The floats
    taken out add up, as fractions, to the exact sum.  Marks need two
    passes of fsum, several times faster than converting every float.
    """
    rest = list(values)
    total = Fraction(0)
    while (rounded := math.fsum(rest)) != 0.0:
        total += Fraction(rounded)  # raises on inf or NaN
        rest.append(-rounded)
    return total


class _RatioGroups:
    """The marks grouped by ratio value, with the exact sums the normal
    equations of either degree are built from."""

    def __init__(self, ratios: Sequence[float], marks: Sequence[float]) -> None:
        groups: defaultdict[float, list[float]] = defaultdict(list)
        for car, mark in zip(ratios, marks):
            groups[car].append(mark)
        self.groups = groups
        self.count = len(marks)
        # The normal equations' matrix and right-hand side are the sums of
        # car^k over the records, k = 0..4, and of mark * car^k, k = 0..2.
        # Each ratio and each group's exact sum is an integer over a power
        # of two, so over the largest of those powers every such sum is an
        # integer sum, made a fraction once.
        cars = [car.as_integer_ratio() for car in groups]
        unit = max(d for _, d in cars)
        xs = [n * (unit // d) for n, d in cars]
        sums = [_exact_sum(group) for group in groups.values()]
        sum_unit = max(total.denominator for total in sums)
        ys = [total.numerator * (sum_unit // total.denominator) for total in sums]
        counts = [len(group) for group in groups.values()]
        self.moments = [Fraction(sum(n * x**k for n, x in zip(counts, xs)), unit**k) for k in range(5)]
        self.targets = [Fraction(sum(y * x**k for y, x in zip(ys, xs)), sum_unit * unit**k) for k in range(3)]
        mean = float(self.targets[0] / self.count)
        self.ss_tot = math.fsum([(mark - mean) * (mark - mean) for mark in marks])


def _fit_groups(data: _RatioGroups, degree: int) -> RefinementModel:
    """The exact OLS solution of one degree, rounded once per coefficient."""
    if len(data.groups) < degree + 1:
        raise SingularFitError(
            f"rank-deficient design for degree {degree}: "
            f"{len(data.groups)} distinct ratio value(s)"
        )
    # Gaussian elimination on the augmented normal equations; the matrix
    # is positive definite, so every pivot is non-zero without swaps
    size = degree + 1
    rows = [[*data.moments[i : i + size], data.targets[i]] for i in range(size)]
    for col in range(size):
        for row in rows[col + 1 :]:
            factor = row[col] / rows[col][col]
            row[:] = [a - factor * b for a, b in zip(row, rows[col])]
    solution: list[Fraction] = [Fraction(0)] * size
    for col in reversed(range(size)):
        rest = sum(rows[col][k] * solution[k] for k in range(col + 1, size))
        solution[col] = (rows[col][size] - rest) / rows[col][col]
    b0, b1, b2 = [float(value) for value in solution] + [0.0] * (2 - degree)

    squares: list[float] = []
    for car, group in data.groups.items():
        fitted = b0 + b1 * car + b2 * (car * car)
        squares += [(mark - fitted) * (mark - fitted) for mark in group]
    ss_res = math.fsum(squares)
    if data.ss_tot == 0.0:
        r_squared = 1.0
    else:
        # clamp away float dust; with an intercept the true value is in [0, 1]
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / data.ss_tot))
    return RefinementModel(
        intercept=b0,
        linear=b1,
        quadratic=b2,
        r_squared=r_squared,
        model_kind=ModelKind.QUADRATIC if degree == 2 else ModelKind.LINEAR,
        n_observations=data.count,
    )


def choose_model_kind(r_squared_linear: float, r_squared_quadratic: float) -> ModelKind:
    """Selection rule: higher R-squared wins, ties go to the lower degree."""
    if r_squared_quadratic > r_squared_linear + R_SQUARED_TIE_TOLERANCE:
        return ModelKind.QUADRATIC
    return ModelKind.LINEAR


def refine_mark(
    module_mark: float, car: float, model: RefinementModel, clamp: bool = False
) -> float:
    """Remove the fitted ratio-dependent component from one mark.

    Unclamped by default: clamping would break the property that
    refining with a self-fitted model leaves no ratio effect behind.
    """
    refined = module_mark - model.decrement(car)
    if clamp:
        refined = min(100.0, max(0.0, refined))
    return refined


@dataclass(frozen=True, slots=True)
class RefinementResult:
    """Pipeline output: refined marks aligned with the input records."""

    records: tuple[StudentModuleOutcome, ...]
    refined_marks: tuple[float, ...]
    ratio_classes: dict[str, tuple[int, ...]]
    model: RefinementModel | None
    department_models: dict[str, RefinementModel] | None
    linear_candidate: RefinementModel | None
    quadratic_candidate: RefinementModel | None
    warnings: tuple[str, ...]


def _fit_with_fallback(
    ratios: Sequence[float], marks: Sequence[float]
) -> tuple[RefinementModel, RefinementModel | None, RefinementModel | None, list[str]]:
    """Select a model, degrading gracefully when ratios lack variety."""
    data = _RatioGroups(ratios, marks)
    distinct = len(data.groups)
    if distinct >= 3:
        linear = _fit_groups(data, 1)
        quadratic = _fit_groups(data, 2)
        kind = choose_model_kind(linear.r_squared, quadratic.r_squared)
        selected = quadratic if kind is ModelKind.QUADRATIC else linear
        return selected, linear, quadratic, []
    if distinct == 2:
        linear = _fit_groups(data, 1)
        return linear, linear, None, [
            "only 2 distinct coursework ratios; fitted the linear model only"
        ]
    # One ratio value: no ratio effect is estimable, so refinement is a
    # no-op (zero slope) and the intercept carries the mean.
    mean_mark = math.fsum(marks) / len(marks)  # statistics.fmean's own formula
    constant_response = all(mark == marks[0] for mark in marks)
    fallback = RefinementModel(
        intercept=mean_mark,
        linear=0.0,
        quadratic=0.0,
        r_squared=1.0 if constant_response else 0.0,
        model_kind=ModelKind.LINEAR,
        n_observations=len(marks),
    )
    return fallback, None, None, [
        "all records share one coursework ratio; no ratio effect can be "
        "fitted and marks are left unchanged"
    ]


def run_refinement_pipeline(
    records: Sequence[StudentModuleOutcome],
    *,
    model: RefinementModel | None = None,
    per_department: bool = False,
    clamp: bool = False,
) -> RefinementResult:
    """Derive ratio classes, fit (or accept) a model, refine every mark.

    With ``model`` supplied, fitting is skipped and the given coefficients
    are applied as-is.  With ``per_department``, each department gets its
    own fit.  Input order is preserved; module marks are never mutated.
    """
    records = tuple(records)
    if not records:
        raise ValueError("cannot refine zero records")
    if model is not None and per_department:
        raise ValueError("a pinned model and per-department fitting are exclusive")

    # One pass collects each department's coursework weights and each fit
    # scope's ratios and marks in record order.  A scope is a department
    # with per_department, else the whole input (None).  The fit takes the
    # two lists as they are: (car, mark) pairs would add one live tuple per
    # record, which the garbage collector would keep rescanning.
    weights: defaultdict[str, set[int]] = defaultdict(set)
    ratios: defaultdict[str | None, list[float]] = defaultdict(list)
    marks: defaultdict[str | None, list[float]] = defaultdict(list)
    scope = None
    for _, department, _, _, mark, _, _, weight in records:
        weights[department].add(weight)
        if per_department:
            scope = department
        ratios[scope].append(COURSEWORK_RATIOS[weight])
        marks[scope].append(mark)

    models: dict[str | None, RefinementModel] = {}
    linear_candidate: RefinementModel | None = None
    quadratic_candidate: RefinementModel | None = None
    warnings: list[str] = []
    for scope in ratios:
        if model is not None:
            models[scope] = model
            continue
        models[scope], linear, quadratic, fit_warnings = _fit_with_fallback(ratios[scope], marks[scope])
        if scope is None:
            linear_candidate, quadratic_candidate = linear, quadratic
            warnings.extend(fit_warnings)
        else:
            warnings.extend(f"{scope}: {w}" for w in fit_warnings)

    # A refined mark is refine_mark's mark - model.decrement(car), with the
    # decrement worked out once per department and coursework weight.
    decrements = {
        department: {
            weight: models[department if per_department else None].decrement(COURSEWORK_RATIOS[weight])
            for weight in department_weights
        }
        for department, department_weights in weights.items()
    }
    refined = [mark - decrements[department][weight] for _, department, _, _, mark, _, _, weight in records]
    if clamp:
        refined = [min(100.0, max(0.0, mark)) for mark in refined]
    return RefinementResult(
        records=records,
        refined_marks=tuple(refined),
        ratio_classes={department: tuple(sorted(w)) for department, w in weights.items()},
        model=None if per_department else models[None],
        department_models=models if per_department else None,
        linear_candidate=linear_candidate,
        quadratic_candidate=quadratic_candidate,
        warnings=tuple(warnings),
    )
