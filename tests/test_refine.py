"""Polynomial fitting, model selection, and mark refinement."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from markprep import (
    REFERENCE_LINEAR_COEFFICIENT,
    REFERENCE_QUADRATIC_COEFFICIENT,
    ModelKind,
    RefinementModel,
    SingularFitError,
    choose_model_kind,
    default_cohort_spec,
    fit_polynomial,
    generate_cohort,
    reference_model,
    refine_mark,
    run_refinement_pipeline,
)
from markprep.refine import _exact_sum
from test_core import make_outcome


def quad_points(cars: list[float], b0: float, b1: float, b2: float) -> tuple[list[float], list[float]]:
    return cars, [b0 + b1 * c + b2 * c * c for c in cars]


def test_fit_recovers_exact_quadratic() -> None:
    ratios, marks = quad_points([0.0, 0.25, 0.5, 0.75, 1.0], 10.0, 12.77, -5.873)
    model = fit_polynomial(ratios, marks, 2)
    assert model.intercept == pytest.approx(10.0, abs=1e-9)
    assert model.linear == pytest.approx(12.77, abs=1e-9)
    assert model.quadratic == pytest.approx(-5.873, abs=1e-9)
    assert model.r_squared == pytest.approx(1.0, abs=1e-12)
    assert model.model_kind is ModelKind.QUADRATIC
    assert model.n_observations == 5


def test_fit_recovers_exact_linear() -> None:
    ratios, marks = quad_points([0.0, 0.5, 1.0], 40.0, 8.0, 0.0)
    model = fit_polynomial(ratios, marks, 1)
    assert model.intercept == pytest.approx(40.0, abs=1e-9)
    assert model.linear == pytest.approx(8.0, abs=1e-9)
    assert model.quadratic == 0.0
    assert model.model_kind is ModelKind.LINEAR


def test_fit_degree_validation() -> None:
    ratios, marks = quad_points([0.0, 0.5, 1.0], 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        fit_polynomial(ratios, marks, 0)
    with pytest.raises(ValueError):
        fit_polynomial(ratios, marks, 3)


def test_fit_rejects_rank_deficiency() -> None:
    same = ([0.4, 0.4, 0.4], [50.0, 60.0, 70.0])
    with pytest.raises(SingularFitError):
        fit_polynomial(*same, 1)
    with pytest.raises(SingularFitError):
        fit_polynomial(*same, 2)
    two = ([0.2, 0.8, 0.2], [50.0, 60.0, 55.0])
    fit_polynomial(*two, 1)
    with pytest.raises(SingularFitError):
        fit_polynomial(*two, 2)


def test_fit_rejects_too_few_points() -> None:
    with pytest.raises(SingularFitError):
        fit_polynomial([0.1, 0.9], [50.0, 60.0], 2)
    with pytest.raises(SingularFitError):
        fit_polynomial([0.1], [50.0], 1)


def test_constant_response_gives_unit_r_squared() -> None:
    ratios, marks = [0.0, 0.3, 0.6, 1.0], [63.0] * 4
    assert fit_polynomial(ratios, marks, 1).r_squared == 1.0
    assert fit_polynomial(ratios, marks, 2).r_squared == 1.0


def test_fit_survives_tight_ratio_clusters() -> None:
    # car and car^2 nearly collinear: float normal equations would lose
    # the fit here, exact ones do not
    cars = [0.50, 0.500001, 0.499999, 0.5000005, 0.93]
    ratios, marks = quad_points(cars, 20.0, 12.77, -5.873)
    model = fit_polynomial(ratios, marks, 2)
    for car, mark in zip(ratios, marks):
        predicted = model.intercept + model.decrement(car)
        assert predicted == pytest.approx(mark, abs=1e-5)


def determinant(matrix: list[list[Fraction]]) -> Fraction:
    """Laplace expansion along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** col * matrix[0][col] * determinant([row[:col] + row[col + 1 :] for row in matrix[1:]])
        for col in range(len(matrix))
    )


def rational_ols(ratios: list[float], marks: list[float], degree: int) -> tuple[float, float, float]:
    """Reference: the OLS coefficients from per-record rational sums, by
    Cramer's rule, each rounded to a float once."""
    size = degree + 1
    xs, ys = [Fraction(car) for car in ratios], [Fraction(mark) for mark in marks]
    gram = [[sum(x ** (i + j) for x in xs) for j in range(size)] for i in range(size)]
    rhs = [sum(y * x**i for x, y in zip(xs, ys)) for i in range(size)]
    det = determinant(gram)
    solution = [
        float(determinant([[*row[:k], rhs[i], *row[k + 1 :]] for i, row in enumerate(gram)]) / det)
        for k in range(size)
    ]
    return (*solution, 0.0) if degree == 1 else tuple(solution)


def assert_exact_ols(ratios: list[float], marks: list[float], degree: int) -> RefinementModel:
    model = fit_polynomial(ratios, marks, degree)
    assert (model.intercept, model.linear, model.quadratic) == rational_ols(ratios, marks, degree)
    return model


def test_exact_sum_equals_the_sum_of_fractions() -> None:
    rng = np.random.default_rng(99)
    cases = [[], [0.0, -0.0], [0.1] * 10, [1e16, 1.0, -1e16], [5e-324, 1e300, -1e300, 2.0**-1074]]
    for _ in range(200):
        n = int(rng.integers(1, 60))
        cases.append((rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-300, 300, n)).tolist())
    for values in cases:
        assert _exact_sum(values) == sum(map(Fraction, values), Fraction(0))
    with pytest.raises(ValueError):
        _exact_sum([1.0, float("nan")])
    with pytest.raises(OverflowError):
        _exact_sum([1.0, float("inf")])


def test_fit_is_the_rational_ols_rounded_once_fuzz() -> None:
    rng = np.random.default_rng(4242)
    for case in range(120):
        n = int(rng.integers(3, 80))
        if case % 3:
            # a few ratio classes, as in transcripts, with 2-decimal marks
            classes = rng.choice([0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 1.0], int(rng.integers(3, 7)), replace=False)
            cars = rng.choice(classes, n)
            cars[:3] = classes[:3]
            marks = np.round(rng.uniform(0, 100, n), 2)
        else:
            # every ratio distinct, marks of any magnitude
            cars = rng.uniform(0, 1, n)
            marks = rng.uniform(-1e6, 1e6, n) * 10.0 ** rng.integers(-8, 3)
        for degree in (1, 2):
            assert_exact_ols(cars.tolist(), marks.tolist(), degree)


def test_fit_is_exact_on_tight_clusters_constant_and_two_ratio_data() -> None:
    cars = [0.50, 0.500001, 0.499999, 0.5000005, 0.93]
    ratios, marks = quad_points(cars, 20.0, 12.77, -5.873)
    assert_exact_ols(ratios, marks, 2)
    constant = assert_exact_ols([0.0, 0.3, 0.6, 1.0], [63.0] * 4, 2)
    assert (constant.intercept, constant.linear, constant.quadratic, constant.r_squared) == (63.0, 0.0, 0.0, 1.0)
    two = ([0.2, 0.8, 0.2, 0.8, 0.8], [50.1, 60.7, 55.3, 61.9, 58.45])
    linear = assert_exact_ols(*two, 1)
    # the line passes through both group means
    assert linear.intercept + linear.linear * 0.2 == pytest.approx((50.1 + 55.3) / 2, abs=1e-12)
    with pytest.raises(SingularFitError, match="rank-deficient design for degree 2: 2 distinct ratio value"):
        fit_polynomial(*two, 2)


def test_fit_agrees_with_lstsq_on_generated_cohorts() -> None:
    # the cohorts of acceptance criterion 06
    for seed in range(20):
        records = generate_cohort(default_cohort_spec(seed, student_count=334))
        ratios = [record.car for record in records]
        marks = [record.module_mark for record in records]
        for degree in (1, 2):
            model = fit_polynomial(ratios, marks, degree)
            design = np.vander(np.array(ratios), degree + 1, increasing=True)
            expected, *_ = np.linalg.lstsq(design, np.array(marks), rcond=None)
            got = (model.intercept, model.linear, model.quadratic)[: degree + 1]
            assert np.allclose(got, expected, rtol=1e-12, atol=0.0), (seed, degree, got, expected)


def test_r_squared_nesting_fuzz() -> None:
    rng = np.random.default_rng(555)
    for _ in range(300):
        n = int(rng.integers(4, 40))
        cars = rng.uniform(0, 1, n)
        cars[0], cars[1], cars[2] = 0.1, 0.5, 0.9  # guarantee 3 distinct
        y = rng.uniform(0, 100, n)
        linear = fit_polynomial(cars.tolist(), y.tolist(), 1)
        quadratic = fit_polynomial(cars.tolist(), y.tolist(), 2)
        assert 0.0 <= linear.r_squared <= 1.0
        assert 0.0 <= quadratic.r_squared <= 1.0
        # the quadratic family nests the linear one
        assert quadratic.r_squared >= linear.r_squared - 1e-9


def test_choose_model_kind_tie_break() -> None:
    assert choose_model_kind(0.0277, 0.0290) is ModelKind.QUADRATIC
    assert choose_model_kind(0.5, 0.5) is ModelKind.LINEAR
    assert choose_model_kind(0.5, 0.5 + 1e-13) is ModelKind.LINEAR
    assert choose_model_kind(0.5, 0.5 + 1e-6) is ModelKind.QUADRATIC
    assert choose_model_kind(0.6, 0.4) is ModelKind.LINEAR


def selected_model(ratios: list[float], marks: list[float]) -> RefinementModel:
    """The model the refinement pipeline selects for one record per point."""
    records = [
        make_outcome(
            mark=mark,
            cswk_weight=round(car * 100),
            exam_mark=None,
            cswk_mark=None,
            module_code=f"M{i}",
        )
        for i, (car, mark) in enumerate(zip(ratios, marks))
    ]
    return run_refinement_pipeline(records).model


def test_select_model_prefers_linear_on_linear_data() -> None:
    ratios, marks = quad_points([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], 30.0, 5.0, 0.0)
    assert selected_model(ratios, marks).model_kind is ModelKind.LINEAR


def test_select_model_prefers_quadratic_on_curved_data() -> None:
    ratios, marks = quad_points([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], 30.0, 5.0, -9.0)
    assert selected_model(ratios, marks).model_kind is ModelKind.QUADRATIC


def test_reference_model_worked_arithmetic() -> None:
    model = reference_model()
    assert model.linear == REFERENCE_LINEAR_COEFFICIENT == 12.77
    assert model.quadratic == REFERENCE_QUADRATIC_COEFFICIENT == -5.873
    # mixed module, half coursework
    assert refine_mark(50.0, 0.5, model) == pytest.approx(45.08325, abs=1e-9)
    # exam-only modules never move
    assert refine_mark(50.0, 0.0, model) == 50.0
    # fully coursework-assessed
    assert refine_mark(60.3, 1.0, model) == pytest.approx(53.403, abs=1e-9)


def test_reference_decrement_monotone_on_unit_interval() -> None:
    # the parabola's vertex sits past car = 1, so the decrement grows
    # monotonically with coursework share and peaks at fully-coursework
    model = reference_model()
    cars = np.linspace(0, 1, 10001)
    decrements = [model.decrement(float(c)) for c in cars]
    assert decrements == sorted(decrements)
    assert decrements[-1] == pytest.approx(12.77 - 5.873, abs=1e-12)
    assert decrements[0] == 0.0


def test_intercept_is_never_subtracted() -> None:
    model = RefinementModel(
        intercept=57.0, linear=10.0, quadratic=-4.0, r_squared=0.5,
        model_kind=ModelKind.QUADRATIC, n_observations=10,
    )
    assert refine_mark(80.0, 0.5, model) == pytest.approx(80.0 - (5.0 - 1.0))


def test_refine_mark_clamp() -> None:
    model = reference_model()
    assert refine_mark(2.0, 0.5, model) < 0.0
    assert refine_mark(2.0, 0.5, model, clamp=True) == 0.0


def test_model_validation() -> None:
    with pytest.raises(ValueError):
        RefinementModel(0.0, 1.0, 0.0, 1.5, ModelKind.LINEAR, 5)
    with pytest.raises(ValueError):
        RefinementModel(0.0, 1.0, 2.0, 0.5, ModelKind.LINEAR, 5)
    with pytest.raises(ValueError):
        RefinementModel(0.0, 1.0, 0.0, 0.5, ModelKind.LINEAR, -1)


def test_model_json_round_trip() -> None:
    model = reference_model()
    doc = model.to_json_dict()
    assert set(doc) == {"b0", "b1", "b2", "r_squared", "model_kind", "n_observations"}
    assert RefinementModel.from_json_dict(doc) == model
    with pytest.raises(ValueError):
        RefinementModel.from_json_dict({**doc, "extra": 1})
    short = dict(doc)
    del short["b1"]
    with pytest.raises(ValueError):
        RefinementModel.from_json_dict(short)


def test_pipeline_ratio_classes() -> None:
    # CS weights arrive unsorted (70 before 0); EE shares only the 0
    records = [
        make_outcome(cswk_weight=70, module_code="B"),
        make_outcome(cswk_weight=0, exam_mark=60.0, cswk_mark=None, module_code="A"),
        make_outcome(cswk_weight=70, module_code="C"),
        make_outcome(cswk_weight=0, exam_mark=55.0, cswk_mark=None,
                     module_code="D", department="EE"),
    ]
    for mode in ({}, {"per_department": True}, {"model": reference_model()}):
        result = run_refinement_pipeline(records, **mode)
        assert result.ratio_classes == {"CS": (0, 70), "EE": (0,)}
        assert list(result.ratio_classes) == ["CS", "EE"]
        ee_first = run_refinement_pipeline(records[-1:] + records[:-1], **mode)
        assert list(ee_first.ratio_classes) == ["EE", "CS"]
    # a set of {100, 30} iterates 100 first
    unsorted = [
        make_outcome(cswk_weight=100, exam_mark=None, cswk_mark=60.0, module_code="E"),
        make_outcome(cswk_weight=30, module_code="F"),
    ]
    assert run_refinement_pipeline(unsorted).ratio_classes == {"CS": (30, 100)}
    with pytest.raises(ValueError, match="^cannot refine zero records$"):
        run_refinement_pipeline([])


def planted_cohort(rng: np.random.Generator, n: int = 400) -> list:
    weights = [0, 20, 50, 70, 100]
    records = []
    for i in range(n):
        cswk = weights[int(rng.integers(len(weights)))]
        car = cswk / 100
        mark = float(
            np.clip(55 + 12.77 * car - 5.873 * car**2 + rng.normal(0, 6), 0, 100)
        )
        records.append(
            make_outcome(
                mark=mark,
                cswk_weight=cswk,
                exam_mark=mark if cswk < 100 else None,
                cswk_mark=mark if cswk > 0 else None,
                student_id=f"S{i:04d}",
                module_code=f"M{i:04d}",
            )
        )
    return records


def test_pipeline_recovers_planted_effect() -> None:
    records = planted_cohort(np.random.default_rng(2024), n=2000)
    result = run_refinement_pipeline(records)
    assert result.model is not None
    # individual coefficients are noisy under collinearity, but the fitted
    # decrement curve is well determined
    for car in (0.25, 0.5, 0.75, 1.0):
        planted = 12.77 * car - 5.873 * car**2
        assert result.model.decrement(car) == pytest.approx(planted, abs=1.2)
    assert result.model.linear == pytest.approx(12.77, abs=6.0)
    assert result.linear_candidate is not None
    assert result.quadratic_candidate is not None
    assert len(result.refined_marks) == len(records)
    assert result.ratio_classes["CS"] == (0, 20, 50, 70, 100)
    # input order and stored marks untouched
    assert [r.module_code for r in result.records] == [r.module_code for r in records]


def test_pipeline_self_neutralizes() -> None:
    records = planted_cohort(np.random.default_rng(9))
    first = run_refinement_pipeline(records)
    again = [
        make_outcome(
            mark=float(np.clip(mark, 0, 100)),
            cswk_weight=record.cswk_weight,
            exam_mark=None if record.cswk_weight == 100 else 50.0,
            cswk_mark=None if record.cswk_weight == 0 else 50.0,
            student_id=record.student_id,
            module_code=record.module_code,
        )
        for record, mark in zip(first.records, first.refined_marks)
    ]
    second = run_refinement_pipeline(again)
    assert second.model is not None
    # once the effect is removed the refit should find almost nothing
    assert abs(second.model.linear) < 1.0
    assert abs(second.model.quadratic) < 2.0


def test_pipeline_pinned_model_skips_fitting() -> None:
    records = planted_cohort(np.random.default_rng(77), n=50)
    result = run_refinement_pipeline(records, model=reference_model())
    assert result.model == reference_model()
    assert result.linear_candidate is None
    assert result.quadratic_candidate is None
    for record, refined in zip(result.records, result.refined_marks):
        expected = refine_mark(record.module_mark, record.car, reference_model())
        assert refined == expected


def test_pipeline_pinned_and_per_department_conflict() -> None:
    records = planted_cohort(np.random.default_rng(3), n=20)
    with pytest.raises(ValueError, match="^a pinned model and per-department fitting are exclusive$"):
        run_refinement_pipeline(records, model=reference_model(), per_department=True)


def test_pipeline_per_department() -> None:
    rng = np.random.default_rng(42)
    cs = planted_cohort(rng, n=200)
    ee = [
        make_outcome(
            mark=record.module_mark,
            cswk_weight=record.cswk_weight,
            exam_mark=record.exam_mark,
            cswk_mark=record.cswk_mark,
            student_id=f"E{i}",
            module_code=f"EM{i}",
            department="EE",
        )
        for i, record in enumerate(planted_cohort(rng, n=200))
    ]
    # interleaved, each department keeps its records' order
    records = [record for pair in zip(cs, ee) for record in pair]
    result = run_refinement_pipeline(records, per_department=True)
    assert result.model is None
    assert result.department_models is not None
    assert list(result.department_models) == ["CS", "EE"]
    assert result.department_models["CS"] == run_refinement_pipeline(cs).model
    assert result.department_models["EE"] == run_refinement_pipeline(ee).model
    # EE first when an EE record comes first
    assert list(run_refinement_pipeline(ee[:1] + records, per_department=True).department_models) == ["EE", "CS"]


def test_pipeline_two_ratio_fallback_is_linear() -> None:
    records = [
        make_outcome(
            mark=50.0 + (i % 2) * 8,
            cswk_weight=40 * (i % 2),
            exam_mark=None,
            cswk_mark=None,
            module_code=f"M{i}",
        )
        for i in range(10)
    ]
    result = run_refinement_pipeline(records)
    assert result.model is not None
    assert result.model.model_kind is ModelKind.LINEAR
    assert result.quadratic_candidate is None
    assert any("2 distinct" in w for w in result.warnings)


def test_pipeline_single_ratio_fallback_is_identity() -> None:
    records = [
        make_outcome(mark=float(40 + i), exam_mark=None, cswk_mark=None, module_code=f"M{i}")
        for i in range(5)
    ]
    result = run_refinement_pipeline(records)
    assert result.model is not None
    assert result.model.linear == 0.0
    assert result.model.quadratic == 0.0
    assert tuple(result.refined_marks) == tuple(r.module_mark for r in records)
    assert any("one coursework ratio" in w for w in result.warnings)


def test_pipeline_clamp_flag() -> None:
    records = [
        make_outcome(
            mark=float(m), cswk_weight=100 - w,
            exam_mark=None, cswk_mark=None, module_code=f"M{m}-{w}",
        )
        for m, w in [(1, 0), (1, 50), (90, 0), (90, 50), (50, 25), (2, 75)]
    ]
    unclamped = run_refinement_pipeline(records, model=reference_model())
    clamped = run_refinement_pipeline(records, model=reference_model(), clamp=True)
    assert min(unclamped.refined_marks) < 0.0
    assert min(clamped.refined_marks) == 0.0
    assert max(clamped.refined_marks) <= 100.0
