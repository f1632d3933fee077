"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test is named criterion_NN; the terminal summary prints one PASS or
FAIL line per criterion.  Tolerances here are contractual, not stylistic;
do not loosen them to make a failure go away.
"""
from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from markprep import (
    ForestParams,
    ModelKind,
    Stream,
    StudentModuleOutcome,
    auc_binary,
    auc_multiclass,
    build_feature_table,
    choose_model_kind,
    compare_with_without_car,
    default_cohort_spec,
    fit_polynomial,
    generate_cohort,
    normal_deviate,
    reference_model,
    refine_mark,
    run_refinement_pipeline,
    student_t_cdf,
    two_sample_t,
)
from markprep.cli import main as cli_main
from markprep.core import DegreeBand
from markprep.streams import bounded
from markprep.fixtures import (
    CONFUSION_WITH_CAR,
    CONFUSION_WITHOUT_CAR,
    REFERENCE_GROUP_MEANS,
)


def test_criterion_01_refinement_equation_arithmetic() -> None:
    """Pinned coefficients reproduce the hand-derived refined marks."""
    model = reference_model()
    assert refine_mark(50.0, 0.5, model) == pytest.approx(45.08325, abs=1e-9)
    assert refine_mark(60.3, 1.0, model) == pytest.approx(53.403, abs=1e-9)
    # exam-only marks pass through as exact identities
    for mark in (0.0, 37.2, 50.0, 99.99, 100.0):
        assert refine_mark(mark, 0.0, model) == mark


def test_criterion_02_t_test_reproduction() -> None:
    """Pooled t on the published per-department means: -5.06, df 10, p < 0.001."""
    exam = [row.exam_mean for row in REFERENCE_GROUP_MEANS.values()]
    coursework = [row.coursework_mean for row in REFERENCE_GROUP_MEANS.values()]
    mixed = [row.mixed_mean for row in REFERENCE_GROUP_MEANS.values()]

    headline = two_sample_t(exam, coursework)
    assert headline.t_statistic == pytest.approx(-5.06, abs=0.01)
    assert headline.degrees_of_freedom == 10
    assert headline.p_value_two_sided < 0.001

    insignificant = two_sample_t(mixed, exam)
    assert abs(insignificant.t_statistic) < 1.0
    assert insignificant.p_value_two_sided > 0.05


def test_criterion_03_t_cdf_precision() -> None:
    """Cauchy closed form to 1e-10; symmetry to 1e-12 across df."""
    for t in np.linspace(-50.0, 50.0, 2001):
        closed_form = 0.5 + math.atan(float(t)) / math.pi
        assert abs(student_t_cdf(float(t), 1.0) - closed_form) <= 1e-10
    for df in (1.0, 5.0, 10.0, 100.0):
        for t in np.linspace(0.0, 50.0, 501):
            total = student_t_cdf(float(t), df) + student_t_cdf(float(-t), df)
            assert abs(total - 1.0) <= 1e-12


def test_criterion_04_ols_exactness_and_selection() -> None:
    """Exact 3-point recovery, nested R-squared, and the selection rule."""
    ratios = [0.1, 0.5, 0.9]
    model = fit_polynomial(ratios, [10.0 + 12.77 * c - 5.873 * c * c for c in ratios], 2)
    assert model.intercept == pytest.approx(10.0, abs=1e-9)
    assert model.linear == pytest.approx(12.77, abs=1e-9)
    assert model.quadratic == pytest.approx(-5.873, abs=1e-9)
    assert model.r_squared == 1.0

    rng = np.random.default_rng(20260823)
    for _ in range(1000):
        n = int(rng.integers(4, 30))
        cars = rng.uniform(0.0, 1.0, n)
        cars[:3] = (0.15, 0.5, 0.85)  # keep the design full-rank
        marks = rng.uniform(0.0, 100.0, n)
        linear = fit_polynomial(cars.tolist(), marks.tolist(), 1)
        quadratic = fit_polynomial(cars.tolist(), marks.tolist(), 2)
        # nesting holds in exact arithmetic; allow only float dust
        assert quadratic.r_squared >= linear.r_squared - 1e-10

    assert choose_model_kind(0.0277, 0.0290) is ModelKind.QUADRATIC


def test_criterion_05_self_neutralization() -> None:
    """Refine with self-fitted coefficients, refit: slopes vanish, under 1 s."""
    spec = default_cohort_spec(seed=424243, student_count=334)  # ~10k records
    records = generate_cohort(spec)
    assert len(records) >= 10_000

    started = time.perf_counter()
    first = run_refinement_pipeline(records)
    refit = fit_polynomial([record.car for record in first.records], first.refined_marks, 2)
    elapsed = time.perf_counter() - started

    assert abs(refit.linear) <= 1e-8
    assert abs(refit.quadratic) <= 1e-8
    assert elapsed < 1.0, f"neutralization round took {elapsed:.2f}s"


def test_criterion_06_generator_fitter_round_trip() -> None:
    """Planted (12.77, -5.873) recovered within 3 SE on >= 18 of 20 seeds."""
    passes = 0
    for seed in range(20):
        spec = default_cohort_spec(seed, student_count=334)
        records = generate_cohort(spec)
        ratios = [record.car for record in records]
        marks = [record.module_mark for record in records]
        model = fit_polynomial(ratios, marks, 2)

        x = np.array(ratios)
        y = np.array(marks)
        design = np.vander(x, 3, increasing=True)
        fitted = np.array([model.intercept, model.linear, model.quadratic])
        residual = y - design @ fitted
        sigma2 = float(residual @ residual) / (len(y) - 3)
        covariance = sigma2 * np.linalg.inv(design.T @ design)
        se_linear = math.sqrt(covariance[1, 1])
        se_quadratic = math.sqrt(covariance[2, 2])

        if (
            abs(model.linear - 12.77) <= 3 * se_linear
            and abs(model.quadratic + 5.873) <= 3 * se_quadratic
        ):
            passes += 1
    assert passes >= 18, f"only {passes}/20 seeds recovered the planted effect"


def test_criterion_07_confusion_matrix_fixtures() -> None:
    """Verbatim fixture tables give CA 148/284 and 177/284 with stated margins."""
    without = CONFUSION_WITHOUT_CAR
    assert without.trace() == 148
    assert without.grand_total == 284
    assert without.classification_accuracy == 148 / 284
    assert without.row_totals == (12, 73, 47, 3, 30, 119)

    with_car = CONFUSION_WITH_CAR
    assert with_car.trace() == 177
    assert with_car.grand_total == 284
    assert with_car.classification_accuracy == 177 / 284
    assert with_car.row_totals == (13, 82, 46, 3, 25, 115)


def test_criterion_08_auc_oracle() -> None:
    """Rank AUC equals the exhaustive pairwise count exactly; null is 0.5."""
    rng = np.random.default_rng(8888)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        scores = np.round(rng.uniform(0, 10, n), int(rng.integers(0, 3))).astype(float)
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        if labels.all() or not labels.any():
            continue
        checked += 1
        wins = 0.0
        pairs = 0
        for i in range(n):
            for j in range(n):
                if labels[i] and not labels[j]:
                    pairs += 1
                    if scores[i] > scores[j]:
                        wins += 1.0
                    elif scores[i] == scores[j]:
                        wins += 0.5
        assert auc_binary(scores, labels) == wins / pairs

    n = 3000
    labels_mc = [DegreeBand(int(b)) for b in rng.integers(0, 6, n)]
    probabilities = rng.random((n, 6))
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    overall, _ = auc_multiclass(probabilities, labels_mc)
    assert abs(overall - 0.5) <= 0.03


_MENUS = ((0, 10, 20), (40, 50, 60), (80, 90, 100))


def _banded_cohorts(seed: int, students: int = 406) -> tuple[list[StudentModuleOutcome], list[StudentModuleOutcome]]:
    """A planted and a null cohort of 406 students x 32 modules from one
    set of draws; only the target year carries the ratio effect, so the
    band depends on ratio-driven inflation that earlier years cannot
    reveal.  Each student reads one stream: words 0-1 give the ability,
    and module m reads words 2+3m (its ratio) and 3+3m, 4+3m (its noise)."""
    cohorts: tuple[list[StudentModuleOutcome], list[StudentModuleOutcome]] = ([], [])
    for i in range(students):
        menu = _MENUS[i % 3]
        words = Stream(seed, 0, i).words(2 + 3 * 32)
        ability = 58.0 + 10.0 * normal_deviate(words[0], words[1])
        module_index = 0
        for year, module_count in ((1, 11), (2, 11), (3, 10)):
            for _ in range(module_count):
                offset = 2 + 3 * module_index
                module_index += 1
                cswk = 0 if year < 3 else menu[bounded(words[offset], len(menu))]
                car = cswk / 100.0
                noise = 8.0 * normal_deviate(words[offset + 1], words[offset + 2])
                for records, (b1, b2) in zip(cohorts, ((12.77, -5.873), (0.0, 0.0))):
                    mark = min(100.0, max(0.0, ability + b1 * car + b2 * car * car + noise))
                    records.append(
                        StudentModuleOutcome(
                            student_id=f"S{i:05d}",
                            department="CS",
                            year_level=year,
                            module_code=f"Y{year}M{module_index:02d}",
                            module_mark=mark,
                            exam_mark=mark if cswk < 100 else None,
                            cswk_mark=mark if cswk > 0 else None,
                            cswk_weight=cswk,
                        )
                    )
    return cohorts


def test_criterion_09_car_effect_direction() -> None:
    """Ratio-aware forests beat masked ones on ratio-driven cohorts and
    tie on null cohorts, within 2 minutes total."""
    started = time.perf_counter()
    params = ForestParams(tree_count=50)

    signal: list[float] = []
    null: list[float] = []
    for seed in range(20):
        for deltas, cohort in zip((signal, null), _banded_cohorts(seed + 1)):
            result = compare_with_without_car(build_feature_table(cohort), params, seed=seed)
            deltas.append(result.auc_delta)
    elapsed = time.perf_counter() - started

    assert statistics.median(signal) > 0.0
    assert statistics.median([abs(d) for d in null]) < 0.03
    assert elapsed < 120.0, f"comparison sweep took {elapsed:.0f}s"


def test_criterion_10_cli_determinism(tmp_path: Path) -> None:
    """Every command reruns byte-identically."""
    runner = CliRunner()

    def run(*args: str, expect: int = 0) -> str:
        result = runner.invoke(cli_main, list(args))
        assert result.exit_code == expect, result.output
        return result.output

    cohort_a, cohort_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("generate", "--seed", "17", "--students", "60", "--out", str(cohort_a))
    run("generate", "--seed", "17", "--students", "60", "--out", str(cohort_b))
    assert cohort_a.read_bytes() == cohort_b.read_bytes()
    assert (tmp_path / "a.spec.json").read_bytes().replace(b"a.spec", b"X") == (
        tmp_path / "b.spec.json"
    ).read_bytes().replace(b"b.spec", b"X")

    assert run("validate", str(cohort_a)) == run("validate", str(cohort_a))
    assert run("stats", str(cohort_a), "--format", "json") == run(
        "stats", str(cohort_a), "--format", "json"
    )

    refined_a, refined_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
    model_a, model_b = tmp_path / "ma.json", tmp_path / "mb.json"
    run("refine", str(cohort_a), "--out", str(refined_a), "--model-out", str(model_a))
    run("refine", str(cohort_a), "--out", str(refined_b), "--model-out", str(model_b))
    assert refined_a.read_bytes() == refined_b.read_bytes()
    assert model_a.read_bytes() == model_b.read_bytes()

    evaluate_args = ("evaluate", str(refined_a), "--trees", "15", "--seed", "9")
    serial = run(*evaluate_args)
    assert run(*evaluate_args) == serial

    saved = tmp_path / "eval.json"
    run(*evaluate_args, "--format", "json", "--output", str(saved))
    first_bytes = saved.read_bytes()
    run(*evaluate_args, "--format", "json", "--output", str(saved))
    assert saved.read_bytes() == first_bytes
    assert run("report", str(saved)) == run("report", str(saved))
