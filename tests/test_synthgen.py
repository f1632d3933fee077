"""Seeded synthetic cohorts: determinism, invariants, spec round trips."""
from __future__ import annotations

import json

import pytest

from markprep import (
    DEFAULT_WEIGHT_CLASSES,
    CohortSpec,
    CohortSpecError,
    DepartmentProfile,
    default_cohort_spec,
    generate_cohort,
)


def small_spec(seed: int = 5, students: int = 8, **overrides) -> CohortSpec:
    settings = {
        "departments": (
            DepartmentProfile(
                code="CS",
                student_count=students,
                modules_per_student_per_year=4,
                cw_weight_classes=(0, 30, 70, 100),
            ),
        ),
        "seed": seed,
        "effect_linear": 12.77,
        "effect_quadratic": -5.873,
    }
    settings.update(overrides)
    return CohortSpec(**settings)


def test_default_spec_shape() -> None:
    spec = default_cohort_spec(42)
    (dept,) = spec.departments
    assert dept.student_count == 406
    assert dept.cw_weight_classes == DEFAULT_WEIGHT_CLASSES
    assert dept.years == (1, 2, 3)
    assert spec.effect_linear == pytest.approx(12.77)
    assert spec.effect_quadratic == pytest.approx(-5.873)
    assert spec.seed == 42


def test_generation_is_deterministic() -> None:
    spec = small_spec()
    assert generate_cohort(spec) == generate_cohort(spec)
    assert generate_cohort(small_spec(seed=6)) != generate_cohort(spec)


def test_expected_record_count_and_ids() -> None:
    records = generate_cohort(small_spec(students=3))
    assert len(records) == 3 * 3 * 4  # students x years x modules
    assert records[0].student_id == "CS00000"
    assert records[0].module_code == "CS-Y1-M00"
    assert {r.student_id for r in records} == {"CS00000", "CS00001", "CS00002"}
    assert {r.year_level for r in records} == {1, 2, 3}


def test_records_satisfy_domain_invariants() -> None:
    for seed in (1, 2, 3):
        for record in generate_cohort(small_spec(seed=seed, students=20)):
            assert 0.0 <= record.module_mark <= 100.0
            cswk_weight = record.cswk_weight
            assert (record.exam_mark is None) == (cswk_weight == 100)
            assert (record.cswk_mark is None) == (cswk_weight == 0)
            if record.exam_mark is not None and record.cswk_mark is not None:
                combined = (
                    (100 - cswk_weight) * record.exam_mark
                    + cswk_weight * record.cswk_mark
                ) / 100.0
                assert combined == pytest.approx(record.module_mark, abs=1e-9)
                # the planted exam/coursework gap stays within its cap
                assert abs(record.exam_mark - record.cswk_mark) <= 20.0 + 1e-9


def test_components_show_real_spread() -> None:
    records = generate_cohort(small_spec(students=30))
    gaps = [
        abs(r.exam_mark - r.cswk_mark)
        for r in records
        if r.exam_mark is not None and r.cswk_mark is not None
    ]
    assert max(gaps) > 5.0


def test_students_are_independent_of_cohort_size() -> None:
    few = generate_cohort(small_spec(students=3))
    many = generate_cohort(small_spec(students=10))
    per_student_few = [r for r in few if r.student_id == "CS00002"]
    per_student_many = [r for r in many if r.student_id == "CS00002"]
    assert per_student_few == per_student_many


def test_departments_are_positionally_streamed() -> None:
    two = CohortSpec(
        departments=(
            DepartmentProfile("AA", 2, 2, (0, 50, 100)),
            DepartmentProfile("BB", 2, 2, (0, 50, 100)),
        ),
        seed=11,
    )
    records = generate_cohort(two)
    assert {r.department for r in records} == {"AA", "BB"}
    aa = [r.module_mark for r in records if r.department == "AA"]
    bb = [r.module_mark for r in records if r.department == "BB"]
    assert aa != bb  # same profile, different sub-streams


def test_weight_classes_all_appear() -> None:
    records = generate_cohort(small_spec(students=40))
    seen = {r.cswk_weight for r in records}
    assert seen == {0, 30, 70, 100}


def test_planted_effect_shifts_group_means() -> None:
    # mid-scale ability keeps the [0, 100] clamp from biting, so the two
    # cohorts differ by the planted effect alone
    with_effect = generate_cohort(small_spec(students=60, ability_mean=50.0))
    without = generate_cohort(
        small_spec(students=60, ability_mean=50.0, effect_linear=0.0, effect_quadratic=0.0)
    )

    def mean_at(records, weight: int) -> float:
        marks = [r.module_mark for r in records if r.cswk_weight == weight]
        return sum(marks) / len(marks)

    # identical streams, so the only difference is the ratio effect itself
    lift = mean_at(with_effect, 100) - mean_at(without, 100)
    assert lift == pytest.approx(12.77 - 5.873, abs=0.2)
    assert mean_at(with_effect, 0) == pytest.approx(mean_at(without, 0), abs=0.2)


def test_spec_json_round_trip() -> None:
    spec = small_spec()
    text = spec.to_json()
    assert text.endswith("\n")
    assert CohortSpec.from_json_dict(json.loads(text)) == spec


def test_spec_json_rejects_unknown_and_missing_keys() -> None:
    doc = small_spec().to_json_dict()
    with pytest.raises(CohortSpecError):
        CohortSpec.from_json_dict({**doc, "surprise": 1})
    short = dict(doc)
    del short["seed"]
    with pytest.raises(CohortSpecError):
        CohortSpec.from_json_dict(short)


def test_department_profile_validation() -> None:
    with pytest.raises(CohortSpecError):
        DepartmentProfile("", 5, 4, (0, 50))
    with pytest.raises(CohortSpecError):
        DepartmentProfile("CS", -1, 4, (0, 50))
    with pytest.raises(CohortSpecError):
        DepartmentProfile("CS", 5, 4, ())
    with pytest.raises(CohortSpecError):
        DepartmentProfile("CS", 5, 4, (0, 150))
    with pytest.raises(CohortSpecError):
        DepartmentProfile("CS", 5, 4, (50, 0))  # must be sorted
    with pytest.raises(CohortSpecError):
        DepartmentProfile("CS", 5, 4, (0, 0, 50))  # must be distinct
    with pytest.raises(CohortSpecError):
        DepartmentProfile("CS", 5, 4, (0, 50), years=())


def test_cohort_spec_validation() -> None:
    dept = DepartmentProfile("CS", 5, 4, (0, 50))
    with pytest.raises(CohortSpecError):
        CohortSpec(departments=(), seed=1)
    with pytest.raises(CohortSpecError):
        CohortSpec(departments=(DepartmentProfile("CS", 0, 4, (0, 50)),), seed=1)
    with pytest.raises(CohortSpecError):
        CohortSpec(departments=(dept,), seed=-1)
    with pytest.raises(CohortSpecError):
        CohortSpec(departments=(dept,), seed=2**64)
    with pytest.raises(CohortSpecError):
        CohortSpec(departments=(dept,), seed=1, noise_sd=-0.5)


def test_zero_noise_marks_follow_the_curve_exactly() -> None:
    spec = small_spec(students=10, noise_sd=0.0, ability_sd=0.0, ability_mean=50.0)
    for record in generate_cohort(spec):
        car = record.cswk_weight / 100.0
        expected = 50.0 + 12.77 * car - 5.873 * car * car
        assert record.module_mark == pytest.approx(expected, abs=1e-12)
