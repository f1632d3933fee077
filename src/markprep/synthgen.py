"""Deterministic synthetic cohort generator.

Marks follow a configurable coursework-ratio effect:

    mark = clamp(ability + effect_linear * car + effect_quadratic * car^2
                 + noise, 0, 100)

with per-student ability ~ Normal(ability_mean, ability_sd) and
per-module noise ~ Normal(0, noise_sd).  Every draw comes from the
student's own stream, key (department index, student index), at a fixed
word offset set by the module's (year, module) position: see
``generate_cohort``.  Generated output is therefore a pure function of
its cohort spec, and enlarging a cohort leaves existing students'
records byte-identical.

Component marks are back-filled so their weighted mean reproduces the
module mark exactly: exam = mark + wc * d and coursework = mark - we * d
for a bounded uniform spread d, where we and wc are the weight fractions.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .core import StudentModuleOutcome, read_count, read_fields, read_list, read_number
from .streams import Stream, bounded, normal_deviate, uniform

# Largest coursework/exam divergence (in marks) the component split may
# introduce, before feasibility clipping to keep both components in range.
_MAX_COMPONENT_SPREAD = 20.0

# Reference ratio-class set used by the default department profile (the
# distinct coursework weights of the department the published fit used).
DEFAULT_WEIGHT_CLASSES: tuple[int, ...] = (0, 10, 20, 25, 30, 55, 60, 70, 100)


class CohortSpecError(ValueError):
    """Raised for specs that cannot describe a generatable cohort."""


# The number fields of a cohort spec, each of which a spec file may omit.
_SPEC_NUMBERS = ("noise_sd", "ability_mean", "ability_sd", "effect_linear", "effect_quadratic")


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
        read_count("student_count", self.student_count, CohortSpecError)
        read_count("modules_per_student_per_year", self.modules_per_student_per_year, CohortSpecError)
        if not self.cw_weight_classes:
            raise CohortSpecError("cw_weight_classes must be non-empty")
        for weight in self.cw_weight_classes:
            read_count("cw_weight_classes entry", weight, CohortSpecError)
            if weight > 100:
                raise CohortSpecError(f"cw_weight_classes entry out of [0, 100]: {weight}")
        if len(set(self.cw_weight_classes)) != len(self.cw_weight_classes):
            raise CohortSpecError("weight classes must be distinct")
        if tuple(sorted(self.cw_weight_classes)) != self.cw_weight_classes:
            raise CohortSpecError("weight classes must be sorted ascending")
        if not self.years:
            raise CohortSpecError("years must be non-empty")
        for year in self.years:
            read_count("years entry", year, CohortSpecError)
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
    def from_json_dict(cls, data: object) -> "DepartmentProfile":
        fields = ("code", "student_count", "modules_per_student_per_year", "cw_weight_classes", "years")
        data = read_fields(data, "department", fields, error=CohortSpecError)
        lists = {name: tuple(read_list(name, data[name], CohortSpecError)) for name in ("cw_weight_classes", "years")}
        return cls(**{**data, **lists})


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
        read_count("seed", self.seed, CohortSpecError)
        if self.seed >= 2**64:
            raise CohortSpecError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        for name in _SPEC_NUMBERS:
            object.__setattr__(self, name, read_number(name, getattr(self, name), CohortSpecError))
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
    def from_json_dict(cls, data: object) -> "CohortSpec":
        data = read_fields(data, "spec", ("seed", "departments"), _SPEC_NUMBERS, CohortSpecError)
        departments = read_list("departments", data["departments"], CohortSpecError)
        return cls(**{**data, "departments": tuple(map(DepartmentProfile.from_json_dict, departments))})

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
    mark: float, cswk_weight: int, spread_uniform: float
) -> tuple[float | None, float | None]:
    """Back-fill exam/coursework marks whose weighted mean is ``mark``.

    The spread d moves exam up and coursework down (or vice versa) along
    the line exam = mark + wc*d, cswk = mark - we*d, which keeps
    we*exam + wc*cswk = mark for any d.  d is uniform on the widest
    symmetric-capped interval keeping both components in [0, 100].
    """
    if cswk_weight == 100:
        return None, mark
    if cswk_weight == 0:
        return mark, None
    we = (100 - cswk_weight) / 100.0
    wc = cswk_weight / 100.0
    low = max(-mark / wc, (mark - 100.0) / we, -_MAX_COMPONENT_SPREAD)
    high = min((100.0 - mark) / wc, mark / we, _MAX_COMPONENT_SPREAD)
    spread = low + (high - low) * spread_uniform if low < high else 0.0
    # clip float dust at the interval edges; at most one ulp
    exam = min(100.0, max(0.0, mark + wc * spread))
    cswk = min(100.0, max(0.0, mark - we * spread))
    return exam, cswk


def generate_cohort(spec: CohortSpec) -> list[StudentModuleOutcome]:
    """Generate the cohort described by ``spec``; pure and deterministic.

    Each student reads all their words in one call on their own stream:
    words 0-1 give the ability, and the module at position p, counted in
    year order and then module index, reads words 2+4p to 5+4p: its
    weight class, two words for its noise, then its component spread.
    """
    records: list[StudentModuleOutcome] = []
    for dept_index, dept in enumerate(spec.departments):
        width = max(5, len(str(max(dept.student_count - 1, 0))))
        classes = dept.cw_weight_classes
        modules = [
            (year, f"{dept.code}-Y{year}-M{module_index:02d}")
            for year in dept.years
            for module_index in range(dept.modules_per_student_per_year)
        ]
        for student_index in range(dept.student_count):
            words = Stream(spec.seed, dept_index, student_index).words(2 + 4 * len(modules))
            ability = spec.ability_mean + spec.ability_sd * normal_deviate(words[0], words[1])
            student_id = f"{dept.code}{student_index:0{width}d}"
            for position, (year, module_code) in enumerate(modules):
                offset = 2 + 4 * position
                class_index = bounded(words[offset], len(classes))
                cswk_weight = classes[class_index]
                car = cswk_weight / 100.0
                noise = spec.noise_sd * normal_deviate(words[offset + 1], words[offset + 2])
                raw = (
                    ability
                    + spec.effect_linear * car
                    + spec.effect_quadratic * car * car
                    + noise
                )
                mark = min(100.0, max(0.0, raw))
                exam, cswk = _split_components(mark, cswk_weight, uniform(words[offset + 3]))
                records.append(
                    StudentModuleOutcome(
                        student_id, dept.code, year, module_code, mark, exam, cswk, cswk_weight
                    )
                )
    return records
