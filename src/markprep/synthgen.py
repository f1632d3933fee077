"""Deterministic synthetic cohort generator.

Marks follow a configurable coursework-ratio effect:

    mark = clamp(ability + effect_linear * car + effect_quadratic * car^2
                 + noise, 0, 100)

with per-student ability ~ Normal(ability_mean, ability_sd) and
per-module noise ~ Normal(0, noise_sd).  Every normal deviate comes from
a Box-Muller transform of uniforms on a dedicated sub-stream: key
(department index, student index) for ability, key (department index,
student index, year, module index) for module draws.  Generated output
is therefore a pure function of its cohort spec, and enlarging a cohort
leaves existing students' records byte-identical.

Component marks are back-filled so their weighted mean reproduces the
module mark exactly: exam = mark + wc * d and coursework = mark - we * d
for a bounded uniform spread d, where we and wc are the weight fractions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import AssessmentWeighting, StudentModuleOutcome
from .streams import normal_deviate, substream

# Largest coursework/exam divergence (in marks) the component split may
# introduce, before feasibility clipping to keep both components in range.
_MAX_COMPONENT_SPREAD = 20.0

# Reference ratio-class set used by the default department profile (the
# distinct coursework weights of the department the published fit used).
DEFAULT_WEIGHT_CLASSES: tuple[int, ...] = (0, 10, 20, 25, 30, 55, 60, 70, 100)


class CohortSpecError(ValueError):
    """Raised for specs that cannot describe a generatable cohort."""


def _check_count(name: str, value: object) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise CohortSpecError(f"{name} must be an integer >= 0, got {value!r}")


def _json_list(data: dict, name: str) -> tuple:
    if not isinstance(data[name], list):
        raise CohortSpecError(f"{name} must be a JSON list, got {data[name]!r}")
    return tuple(data[name])


@dataclass(frozen=True, slots=True)
class DepartmentProfile:
    code: str
    student_count: int
    modules_per_student_per_year: int
    cw_weight_classes: tuple[int, ...]
    years: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self) -> None:
        if not isinstance(self.code, str) or not self.code:
            raise CohortSpecError(f"department code must be a non-empty string, got {self.code!r}")
        _check_count("student_count", self.student_count)
        _check_count("modules_per_student_per_year", self.modules_per_student_per_year)
        if not self.cw_weight_classes:
            raise CohortSpecError("cw_weight_classes must be non-empty")
        for weight in self.cw_weight_classes:
            _check_count("cw_weight_classes entry", weight)
            if weight > 100:
                raise CohortSpecError(f"cw_weight_classes entry out of [0, 100]: {weight}")
        if len(set(self.cw_weight_classes)) != len(self.cw_weight_classes):
            raise CohortSpecError("weight classes must be distinct")
        if tuple(sorted(self.cw_weight_classes)) != self.cw_weight_classes:
            raise CohortSpecError("weight classes must be sorted ascending")
        if not self.years:
            raise CohortSpecError("years must be non-empty")
        for year in self.years:
            _check_count("years entry", year)
        if tuple(sorted(self.years)) != self.years:
            raise CohortSpecError("years must be sorted ascending")

    def to_json_dict(self) -> dict:
        return {
            "code": self.code,
            "student_count": self.student_count,
            "modules_per_student_per_year": self.modules_per_student_per_year,
            "cw_weight_classes": list(self.cw_weight_classes),
            "years": list(self.years),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DepartmentProfile":
        if not isinstance(data, dict):
            raise CohortSpecError(f"a department must be a JSON object, got {data!r}")
        expected = {
            "code",
            "student_count",
            "modules_per_student_per_year",
            "cw_weight_classes",
            "years",
        }
        unknown = set(data) - expected
        if unknown:
            raise CohortSpecError(f"unknown department fields: {sorted(unknown)}")
        missing = expected - set(data)
        if missing:
            raise CohortSpecError(f"missing department fields: {sorted(missing)}")
        return cls(
            code=data["code"],
            student_count=data["student_count"],
            modules_per_student_per_year=data["modules_per_student_per_year"],
            cw_weight_classes=_json_list(data, "cw_weight_classes"),
            years=_json_list(data, "years"),
        )


@dataclass(frozen=True, slots=True)
class CohortSpec:
    departments: tuple[DepartmentProfile, ...]
    seed: int
    noise_sd: float = 8.0
    ability_mean: float = 58.0
    ability_sd: float = 10.0
    effect_linear: float = 0.0
    effect_quadratic: float = 0.0

    def __post_init__(self) -> None:
        _check_count("seed", self.seed)
        if self.seed >= 2**64:
            raise CohortSpecError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        for name in ("noise_sd", "ability_mean", "ability_sd", "effect_linear", "effect_quadratic"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                raise CohortSpecError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.noise_sd < 0 or self.ability_sd < 0:
            raise CohortSpecError("standard deviations must be non-negative")
        productive = any(
            dept.student_count >= 1 and dept.modules_per_student_per_year >= 1
            for dept in self.departments
        )
        if not productive:
            raise CohortSpecError(
                "spec needs at least one department with students and modules"
            )

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "noise_sd": self.noise_sd,
            "ability_mean": self.ability_mean,
            "ability_sd": self.ability_sd,
            "effect_linear": self.effect_linear,
            "effect_quadratic": self.effect_quadratic,
            "departments": [dept.to_json_dict() for dept in self.departments],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CohortSpec":
        expected = {
            "seed",
            "noise_sd",
            "ability_mean",
            "ability_sd",
            "effect_linear",
            "effect_quadratic",
            "departments",
        }
        unknown = set(data) - expected
        if unknown:
            raise CohortSpecError(f"unknown spec fields: {sorted(unknown)}")
        if "seed" not in data or "departments" not in data:
            raise CohortSpecError("spec requires 'seed' and 'departments'")
        departments = _json_list(data, "departments")
        return cls(
            **{**data, "departments": tuple(DepartmentProfile.from_json_dict(d) for d in departments)}
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def default_cohort_spec(seed: int, student_count: int = 406) -> CohortSpec:
    """A single-department cohort at the published evaluation's scale."""
    return CohortSpec(
        departments=(
            DepartmentProfile(
                code="CS",
                student_count=student_count,
                modules_per_student_per_year=10,
                cw_weight_classes=DEFAULT_WEIGHT_CLASSES,
            ),
        ),
        seed=seed,
        effect_linear=12.77,
        effect_quadratic=-5.873,
    )


def _split_components(
    mark: float, weighting: AssessmentWeighting, spread_uniform: float
) -> tuple[float | None, float | None]:
    """Back-fill exam/coursework marks whose weighted mean is ``mark``.

    The spread d moves exam up and coursework down (or vice versa) along
    the line exam = mark + wc*d, cswk = mark - we*d, which keeps
    we*exam + wc*cswk = mark for any d.  d is uniform on the widest
    symmetric-capped interval keeping both components in [0, 100].
    """
    exam_w = weighting.exam_weight
    cswk_w = weighting.coursework_weight
    if exam_w == 0:
        return None, mark
    if cswk_w == 0:
        return mark, None
    we = exam_w / 100.0
    wc = cswk_w / 100.0
    low = max(-mark / wc, (mark - 100.0) / we, -_MAX_COMPONENT_SPREAD)
    high = min((100.0 - mark) / wc, mark / we, _MAX_COMPONENT_SPREAD)
    spread = low + (high - low) * spread_uniform if low < high else 0.0
    # clip float dust at the interval edges; at most one ulp
    exam = min(100.0, max(0.0, mark + wc * spread))
    cswk = min(100.0, max(0.0, mark - we * spread))
    return exam, cswk


def generate_cohort(spec: CohortSpec) -> list[StudentModuleOutcome]:
    """Generate the cohort described by ``spec``; pure and deterministic."""
    records: list[StudentModuleOutcome] = []
    for dept_index, dept in enumerate(spec.departments):
        width = max(5, len(str(max(dept.student_count - 1, 0))))
        for student_index in range(dept.student_count):
            student_rng = substream(spec.seed, dept_index, student_index)
            ability = spec.ability_mean + spec.ability_sd * normal_deviate(student_rng)
            student_id = f"{dept.code}{student_index:0{width}d}"
            for year in dept.years:
                for module_index in range(dept.modules_per_student_per_year):
                    module_rng = substream(
                        spec.seed, dept_index, student_index, year, module_index
                    )
                    cswk_weight = dept.cw_weight_classes[
                        int(module_rng.integers(len(dept.cw_weight_classes)))
                    ]
                    weighting = AssessmentWeighting(100 - cswk_weight, cswk_weight)
                    car = cswk_weight / 100.0
                    noise = spec.noise_sd * normal_deviate(module_rng)
                    raw = (
                        ability
                        + spec.effect_linear * car
                        + spec.effect_quadratic * car * car
                        + noise
                    )
                    mark = min(100.0, max(0.0, raw))
                    exam, cswk = _split_components(mark, weighting, module_rng.random())
                    records.append(
                        StudentModuleOutcome(
                            student_id=student_id,
                            department=dept.code,
                            year_level=year,
                            module_code=f"{dept.code}-Y{year}-M{module_index:02d}",
                            module_mark=mark,
                            exam_mark=exam,
                            cswk_mark=cswk,
                            weighting=weighting,
                        )
                    )
    return records
