"""Domain types for module transcripts and degree-band classification.

A transcript row records one student's outcome on one module: the overall
module mark, the exam and coursework component marks where applicable, and
the coursework weight, the integer percentage of the module mark that
coursework carried; the exam carried the rest.  The coursework assessment
ratio (CAR) is that weight as a fraction in [0, 1].
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Sequence


# Readers for the JSON documents markprep loads (saved models and
# evaluations, cohort specs, the banding config).  Each takes a value as
# ``json.loads`` returned it and raises ``error`` naming the field instead
# of coercing a value of the wrong JSON type.


def read_fields(
    data: object, what: str, required: Sequence[str], optional: Sequence[str] = (), error=ValueError
) -> dict:
    """``data`` if it is a JSON object whose keys are the required ones plus any optional ones."""
    if not isinstance(data, dict):
        raise error(f"{what} must be a JSON object, got {data!r}")
    unknown = set(data).difference(required, optional)
    if unknown:
        raise error(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(required).difference(data)
    if missing:
        raise error(f"missing {what} fields: {sorted(missing)}")
    return data


def read_count(name: str, value: object, error=ValueError) -> int:
    """An integer >= 0; a bool or a float is not one."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise error(f"{name} must be an integer >= 0, got {value!r}")
    return value


def read_number(name: str, value: object, error=ValueError) -> float:
    """A finite int or float, as a float; a bool is not one."""
    # the bound also rejects NaN, and an int too large for float()
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not abs(value) <= sys.float_info.max:
        raise error(f"{name} must be a finite number, got {value!r}")
    return float(value)


def read_string(name: str, value: object, error=ValueError) -> str:
    if not isinstance(value, str):
        raise error(f"{name} must be a JSON string, got {value!r}")
    return value


def read_list(name: str, value: object, error=ValueError) -> list:
    if not isinstance(value, list):
        raise error(f"{name} must be a JSON list, got {value!r}")
    return value


class DegreeBand(IntEnum):
    """Final degree classification bands, ordered worst to best."""

    FAIL = 0
    PASS = 1
    THIRD = 2
    LOWER_SECOND = 3
    UPPER_SECOND = 4
    FIRST = 5

    @property
    def label(self) -> str:
        return _BAND_LABELS[self]

    @classmethod
    def from_label(cls, label: str) -> "DegreeBand":
        for band, text in _BAND_LABELS.items():
            if text == label or band.name == label:
                return band
        raise ValueError(f"unknown degree band {label!r}")


_BAND_LABELS = {
    DegreeBand.FAIL: "Fail",
    DegreeBand.PASS: "Pass",
    DegreeBand.THIRD: "Third",
    DegreeBand.LOWER_SECOND: "Lower second",
    DegreeBand.UPPER_SECOND: "Upper second",
    DegreeBand.FIRST: "First",
}


# The coursework ratio of each coursework weight, worked out once: a record's
# ratio is ``COURSEWORK_RATIOS[record.cswk_weight]``.
COURSEWORK_RATIOS: tuple[float, ...] = tuple(weight / 100 for weight in range(101))


class _OutcomeFields(NamedTuple):
    student_id: str
    department: str
    year_level: int
    module_code: str
    module_mark: float
    exam_mark: float | None
    cswk_mark: float | None
    cswk_weight: int


class StudentModuleOutcome(_OutcomeFields):
    """One student's result on one module.

    A component mark must be None when the matching weight is zero: a purely
    exam-assessed module has no coursework mark to record, and vice versa.
    A None mark on a weighted component is legal and means the value is
    missing; the ingest missing-data policy decides what to do with it.

    A record is a named tuple, so a loop can unpack it.  Every public way to
    build one, ``_make`` and ``_replace`` included, runs the checks below;
    the transcript parser, which has checked every cell already, builds its
    records with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(
        cls,
        student_id: str,
        department: str,
        year_level: int,
        module_code: str,
        module_mark: float,
        exam_mark: float | None,
        cswk_mark: float | None,
        cswk_weight: int,
    ) -> "StudentModuleOutcome":
        if not student_id:
            raise ValueError("student_id must be non-empty")
        if not department:
            raise ValueError("department must be non-empty")
        if not module_code:
            raise ValueError("module_code must be non-empty")
        if not isinstance(year_level, int) or isinstance(year_level, bool):
            raise ValueError(f"year_level must be an integer, got {year_level!r}")
        if year_level < 0:
            raise ValueError(f"year_level must be >= 0, got {year_level}")
        if not isinstance(cswk_weight, int) or isinstance(cswk_weight, bool) or not 0 <= cswk_weight <= 100:
            raise ValueError(f"cswk_weight must be an integer in [0, 100], got {cswk_weight!r}")
        # a bool compares as 0 or 1, and would be written as 0.0 or 1.0
        if isinstance(module_mark, bool) or not 0.0 <= module_mark <= 100.0:
            raise ValueError(f"module_mark must lie in [0, 100], got {module_mark!r}")
        if exam_mark is not None:
            if cswk_weight == 100:
                raise ValueError("exam_mark must be absent when its weight is 0")
            if isinstance(exam_mark, bool) or not 0.0 <= exam_mark <= 100.0:
                raise ValueError(f"exam_mark must lie in [0, 100], got {exam_mark!r}")
        if cswk_mark is not None:
            if cswk_weight == 0:
                raise ValueError("cswk_mark must be absent when its weight is 0")
            if isinstance(cswk_mark, bool) or not 0.0 <= cswk_mark <= 100.0:
                raise ValueError(f"cswk_mark must lie in [0, 100], got {cswk_mark!r}")
        return tuple.__new__(
            cls, (student_id, department, year_level, module_code, module_mark, exam_mark, cswk_mark, cswk_weight)
        )

    @classmethod
    def _make(cls, iterable) -> "StudentModuleOutcome":
        # _replace builds through _make, so it is checked too
        return cls(*iterable)

    @property
    def missing_component_fields(self) -> tuple[str, ...]:
        """Names of weighted components whose mark is absent."""
        missing = []
        if self.cswk_weight < 100 and self.exam_mark is None:
            missing.append("exam_mark")
        if self.cswk_weight > 0 and self.cswk_mark is None:
            missing.append("cswk_mark")
        return tuple(missing)

    @property
    def car(self) -> float:
        """The coursework assessment ratio (CAR), coursework weight / 100.

        No record loop of the package reads it: they look a weight's ratio
        up in ``COURSEWORK_RATIOS``.  It stays as the reader for library
        callers."""
        return self.cswk_weight / 100


@dataclass(frozen=True, slots=True)
class BandingScheme:
    """Lower-bound mark thresholds mapping averages on [0, 100] to bands.

    Thresholds are (lower_bound, band) pairs in ascending bound order; each
    band covers [its bound, next bound), the last band runs to 100 inclusive.
    """

    thresholds: tuple[tuple[float, DegreeBand], ...]

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("scheme needs at least one threshold")
        bounds = [bound for bound, _ in self.thresholds]
        bands = [band for _, band in self.thresholds]
        if not all(math.isfinite(bound) for bound in bounds):
            raise ValueError(f"bounds must be finite, got {bounds}")
        if bounds[0] != 0:
            raise ValueError(f"lowest bound must be 0, got {bounds[0]}")
        for lo, hi in zip(bounds, bounds[1:]):
            if hi <= lo:
                raise ValueError(f"bounds must strictly increase, got {lo} then {hi}")
        if bounds[-1] > 100:
            raise ValueError(f"bounds must not exceed 100, got {bounds[-1]}")
        for worse, better in zip(bands, bands[1:]):
            if better <= worse:
                raise ValueError(
                    "bands must improve with higher marks, got "
                    f"{worse.name} then {better.name}"
                )

    def classify(self, average_mark: float) -> DegreeBand:
        if not 0.0 <= average_mark <= 100.0:
            raise ValueError(f"average mark must lie in [0, 100], got {average_mark!r}")
        chosen = self.thresholds[0][1]
        for bound, band in self.thresholds:
            if average_mark >= bound:
                chosen = band
        return chosen


# Axis order used by the published confusion matrices (both axes).
PUBLISHED_CLASS_ORDER: tuple[DegreeBand, ...] = (
    DegreeBand.FAIL,
    DegreeBand.FIRST,
    DegreeBand.LOWER_SECOND,
    DegreeBand.PASS,
    DegreeBand.THIRD,
    DegreeBand.UPPER_SECOND,
)


DEFAULT_BANDING = BandingScheme(
    (
        (0.0, DegreeBand.FAIL),
        (35.0, DegreeBand.PASS),
        (40.0, DegreeBand.THIRD),
        (50.0, DegreeBand.LOWER_SECOND),
        (60.0, DegreeBand.UPPER_SECOND),
        (70.0, DegreeBand.FIRST),
    )
)

# The published evaluation scored 284 of 406 students; the default holdout
# test share mirrors it.
DEFAULT_TEST_FRACTION = 0.6995


def render_aligned_table(rows: Sequence[Sequence[str]]) -> str:
    """Text columns two spaces apart, each as wide as its widest cell: the
    first column left-justified, the others right-justified."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return "\n".join(
        "  ".join([row[0].ljust(widths[0]), *map(str.rjust, row[1:], widths[1:])]).rstrip()
        for row in rows
    )


def render_confusion_text(
    cells: Sequence[Sequence[int]],
    class_order: Sequence[DegreeBand] = PUBLISHED_CLASS_ORDER,
    row_totals: Sequence[int] | None = None,
    column_totals: Sequence[int] | None = None,
    grand_total: int | None = None,
) -> str:
    """Aligned text table in the published layout (true class per row).

    Margins default to the cell sums; the published fixtures pass their
    stated margins instead, which differ from the sums for one table.
    """
    if row_totals is None:
        row_totals = [sum(row) for row in cells]
    if column_totals is None:
        column_totals = [sum(col) for col in zip(*cells)]
    if grand_total is None:
        grand_total = sum(row_totals)

    labels = [band.label for band in class_order]
    header = ["Correct class", *labels, "Total"]
    body = [
        [labels[i], *[str(c) for c in cells[i]], str(row_totals[i])]
        for i in range(len(class_order))
    ]
    footer = ["Total", *[str(c) for c in column_totals], str(grand_total)]
    return render_aligned_table([header, *body, footer])
