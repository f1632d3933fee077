"""Transcript CSV parsing, validation, and cleaning.

Issues found in the data are categorized by their likely source:

* ``DATA_ENTRY``: a field is malformed or out of range (unparseable number,
  mark outside [0, 100], weights that do not sum to 100, empty required
  field).
* ``MEASUREMENT``: a component mark is recorded for a component whose
  weight is zero, so no such measurement can exist for the module.
* ``DISTILLATION``: the module mark disagrees with the weighted
  recombination of its component marks beyond rounding slack; the derived
  total was distilled incorrectly.  Advisory only (the row is kept).
* ``DATA_INTEGRATION``: the same (student, module, year) key appears more
  than once, as happens when files are merged.
* ``MISSING``: a weighted component carries no mark.

Severity ``REJECT`` removes the row from the output; ``WARN`` keeps it.
Counts always reconcile: accepted + rejected = rows examined.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence

from .core import AssessmentWeighting, StudentModuleOutcome

TRANSCRIPT_COLUMNS = (
    "student_id",
    "department",
    "year_level",
    "module_code",
    "module_mark",
    "exam_mark",
    "cswk_mark",
    "exam_weight",
    "cswk_weight",
)

REFINED_MARK_COLUMN = "refined_module_mark"

# Marks are reported to two decimals at most, so a recombined total that
# drifts further than this from the stored module mark was derived wrongly.
RECOMBINATION_TOLERANCE = 0.05


class IssueCategory(Enum):
    DATA_ENTRY = "DataEntry"
    MEASUREMENT = "Measurement"
    DISTILLATION = "Distillation"
    DATA_INTEGRATION = "DataIntegration"
    MISSING = "Missing"


class Severity(Enum):
    REJECT = "Reject"
    WARN = "Warn"


class MissingPolicy(Enum):
    DROP_RECORD = "drop"
    FLAG_ONLY = "flag"


class TranscriptSchemaError(ValueError):
    """Raised when the CSV header does not match the transcript schema."""


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One finding about one row.

    ``row_number`` is the 1-based position of the row: data-row ordinal for
    parsing (the header is row 0), sequence position for the record-level
    cleaning passes.  ``field`` is the offending column, or ``"row"`` when
    the finding concerns the row as a whole.
    """

    row_number: int
    field: str
    category: IssueCategory
    detail: str
    severity: Severity


@dataclass(frozen=True, slots=True)
class IngestReport:
    accepted_count: int
    rejected_count: int
    issues: tuple[ValidationIssue, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.accepted_count < 0 or self.rejected_count < 0:
            raise ValueError("report counts must be non-negative")

    @property
    def reject_issues(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity is Severity.REJECT)

    def to_json_dict(self) -> dict:
        return {
            "accepted": self.accepted_count,
            "rejected": self.rejected_count,
            "issues": [
                {
                    "row": issue.row_number,
                    "field": issue.field,
                    "category": issue.category.value,
                    "severity": issue.severity.value,
                    "detail": issue.detail,
                }
                for issue in self.issues
            ],
        }


def _read_text(source: str | Path | IO) -> str:
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            return data.decode("utf-8")
        return data
    return Path(source).read_text(encoding="utf-8")


def _parse_mark(text: str, low: float = 0.0, high: float = 100.0) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    if not low <= value <= high:
        raise ValueError(f"out of range [{low:g}, {high:g}]: {text!r}")
    return value


def _check_header(header: Sequence[str] | None, expected: Sequence[str]) -> None:
    if header is None:
        raise TranscriptSchemaError("input is empty; expected a transcript header row")
    seen = [name.strip() for name in header]
    if seen != list(expected):
        raise TranscriptSchemaError(
            f"header mismatch: expected {','.join(expected)}, got {','.join(seen)}"
        )


def _parse_row(
    row_number: int, row: Sequence[str], issues: list[ValidationIssue]
) -> StudentModuleOutcome | None:
    """Validate one data row of the canonical columns; append issues and
    return the record or None."""

    rejected = False

    def reject(col: str, category: IssueCategory, detail: str) -> None:
        nonlocal rejected
        rejected = True
        issues.append(ValidationIssue(row_number, col, category, detail, Severity.REJECT))

    def warn(col: str, category: IssueCategory, detail: str) -> None:
        issues.append(ValidationIssue(row_number, col, category, detail, Severity.WARN))

    fields = dict(zip(TRANSCRIPT_COLUMNS, row))

    for name in ("student_id", "department", "module_code"):
        if fields[name] == "":
            reject(name, IssueCategory.DATA_ENTRY, "required field is empty")

    year_level = None
    try:
        year_level = int(fields["year_level"])
        if year_level < 0:
            raise ValueError("negative")
    except ValueError:
        reject(
            "year_level",
            IssueCategory.DATA_ENTRY,
            f"must be a non-negative integer, got {fields['year_level']!r}",
        )

    module_mark = None
    try:
        module_mark = _parse_mark(fields["module_mark"])
    except ValueError as exc:
        reject("module_mark", IssueCategory.DATA_ENTRY, str(exc))

    component_marks: dict[str, float | None] = {}
    for name in ("exam_mark", "cswk_mark"):
        if fields[name] == "":
            component_marks[name] = None
            continue
        try:
            component_marks[name] = _parse_mark(fields[name])
        except ValueError as exc:
            component_marks[name] = None
            reject(name, IssueCategory.DATA_ENTRY, str(exc))

    weights: dict[str, int | None] = {}
    for name in ("exam_weight", "cswk_weight"):
        try:
            weight = int(fields[name])
            if weight < 0:
                raise ValueError("negative")
            weights[name] = weight
        except ValueError:
            weights[name] = None
            reject(
                name,
                IssueCategory.DATA_ENTRY,
                f"must be a non-negative integer, got {fields[name]!r}",
            )
    if weights["exam_weight"] is not None and weights["cswk_weight"] is not None:
        total = weights["exam_weight"] + weights["cswk_weight"]
        if total != 100:
            reject(
                "cswk_weight",
                IssueCategory.DATA_ENTRY,
                f"weights sum to {total}, not 100",
            )
        else:
            for weight_name, mark_name in (
                ("exam_weight", "exam_mark"),
                ("cswk_weight", "cswk_mark"),
            ):
                if weights[weight_name] == 0 and fields[mark_name] != "":
                    reject(
                        mark_name,
                        IssueCategory.MEASUREMENT,
                        "mark recorded for a component with zero weight",
                    )

    if rejected:
        return None

    record = StudentModuleOutcome(
        student_id=fields["student_id"],
        department=fields["department"],
        year_level=year_level,
        module_code=fields["module_code"],
        module_mark=module_mark,
        exam_mark=component_marks["exam_mark"],
        cswk_mark=component_marks["cswk_mark"],
        weighting=AssessmentWeighting(weights["exam_weight"], weights["cswk_weight"]),
    )

    # Recombination check: if every weighted component mark is present, the
    # weighted mean should reproduce the stored module mark.
    weighted_parts = []
    for mark_name, weight in (
        ("exam_mark", record.weighting.exam_weight),
        ("cswk_mark", record.weighting.coursework_weight),
    ):
        if weight > 0:
            mark = component_marks[mark_name]
            if mark is None:
                break
            weighted_parts.append(weight * mark)
    else:
        combined = sum(weighted_parts) / 100.0
        if abs(combined - record.module_mark) > RECOMBINATION_TOLERANCE:
            warn(
                "module_mark",
                IssueCategory.DISTILLATION,
                f"weighted components give {combined:.2f}, module mark is "
                f"{record.module_mark:g}",
            )
    return record


def _parse_refined_mark(
    row_number: int, text: str, issues: list[ValidationIssue]
) -> float | None:
    """Any finite number: unclamped refinement may leave [0, 100]."""
    try:
        return _parse_mark(text, -math.inf, math.inf)
    except ValueError:
        detail = f"must be a finite number, got {text!r}"
        issues.append(
            ValidationIssue(
                row_number, REFINED_MARK_COLUMN, IssueCategory.DATA_ENTRY, detail, Severity.REJECT
            )
        )
        return None


def _parse_transcript(
    source: str | Path | IO, refined: bool
) -> tuple[list[StudentModuleOutcome], list[float], IngestReport]:
    """The row loop of both schemas; the refined marks stay empty unless
    ``refined``."""
    columns = TRANSCRIPT_COLUMNS + ((REFINED_MARK_COLUMN,) if refined else ())
    reader = csv.reader(io.StringIO(_read_text(source), newline=""))
    _check_header(next(reader, None), columns)

    records: list[StudentModuleOutcome] = []
    refined_marks: list[float] = []
    issues: list[ValidationIssue] = []
    total = 0
    for row_number, row in enumerate(reader, start=1):
        total += 1
        if len(row) != len(columns):
            detail = f"expected {len(columns)} fields, got {len(row)}"
            issues.append(
                ValidationIssue(row_number, "row", IssueCategory.DATA_ENTRY, detail, Severity.REJECT)
            )
            continue
        refined_mark = _parse_refined_mark(row_number, row.pop(), issues) if refined else None
        record = _parse_row(row_number, row, issues)
        if record is None or (refined and refined_mark is None):
            continue
        records.append(record)
        if refined:
            refined_marks.append(refined_mark)
    return records, refined_marks, IngestReport(len(records), total - len(records), tuple(issues))


def parse_transcript_csv(
    source: str | Path | IO,
) -> tuple[list[StudentModuleOutcome], IngestReport]:
    """Parse a transcript CSV into validated records plus an issue report.

    Order-preserving; rejected rows are reported, never silently dropped.
    Unreadable input raises OSError; a bad header raises
    TranscriptSchemaError.
    """
    records, _, report = _parse_transcript(source, refined=False)
    return records, report


def parse_refined_transcript_csv(
    source: str | Path | IO,
) -> tuple[list[StudentModuleOutcome], list[float], IngestReport]:
    """Parse the refined-transcript schema: canonical columns plus a
    trailing refined mark.

    Returns (records, refined marks aligned to records, report).
    """
    return _parse_transcript(source, refined=True)


def apply_missing_policy(
    records: Iterable[StudentModuleOutcome], policy: MissingPolicy
) -> tuple[list[StudentModuleOutcome], IngestReport]:
    """Handle records whose weighted components carry no mark.

    DROP_RECORD removes them (Reject issues); FLAG_ONLY keeps them and
    emits Warn issues.  No value is ever imputed.
    """
    kept: list[StudentModuleOutcome] = []
    issues: list[ValidationIssue] = []
    total = 0
    for position, record in enumerate(records, start=1):
        total += 1
        missing = record.missing_component_fields
        if not missing:
            kept.append(record)
            continue
        severity = Severity.REJECT if policy is MissingPolicy.DROP_RECORD else Severity.WARN
        for name in missing:
            issues.append(
                ValidationIssue(
                    position,
                    name,
                    IssueCategory.MISSING,
                    f"no mark for a component weighted "
                    f"{getattr(record.weighting, 'exam_weight' if name == 'exam_mark' else 'coursework_weight')}%",
                    severity,
                )
            )
        if policy is MissingPolicy.FLAG_ONLY:
            kept.append(record)
    return kept, IngestReport(len(kept), total - len(kept), tuple(issues))


def deduplicate(
    records: Iterable[StudentModuleOutcome],
) -> tuple[list[StudentModuleOutcome], IngestReport]:
    """Enforce at most one record per (student_id, module_code, year_level).

    Exact duplicates collapse to the first copy with a Warn per extra copy;
    conflicting duplicates are all rejected, since no copy can be trusted.
    """
    records = list(records)
    by_key: dict[tuple[str, str, int], list[int]] = {}
    for index, record in enumerate(records):
        key = (record.student_id, record.module_code, record.year_level)
        by_key.setdefault(key, []).append(index)

    drop: dict[int, ValidationIssue] = {}
    for key, indexes in by_key.items():
        if len(indexes) == 1:
            continue
        group = [records[i] for i in indexes]
        if all(record == group[0] for record in group):
            for i in indexes[1:]:
                drop[i] = ValidationIssue(
                    i + 1,
                    "row",
                    IssueCategory.DATA_INTEGRATION,
                    f"exact duplicate of record {indexes[0] + 1} collapsed",
                    Severity.WARN,
                )
        else:
            for i in indexes:
                drop[i] = ValidationIssue(
                    i + 1,
                    "row",
                    IssueCategory.DATA_INTEGRATION,
                    f"conflicting duplicates for student {key[0]!r}, "
                    f"module {key[1]!r}, year {key[2]}",
                    Severity.REJECT,
                )

    kept = [record for i, record in enumerate(records) if i not in drop]
    issues = tuple(drop[i] for i in sorted(drop))
    return kept, IngestReport(len(kept), len(records) - len(kept), issues)


def _format_mark(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


def write_transcript_csv(
    records: Sequence[StudentModuleOutcome],
    dest: str | Path | IO[str],
    refined_marks: Sequence[float] | None = None,
) -> None:
    """Write records in the canonical schema, optionally with a trailing
    refined-mark column.

    Floats are written in shortest round-trip form, so parsing the output
    reproduces the records exactly.
    """
    if refined_marks is not None and len(refined_marks) != len(records):
        raise ValueError(
            f"refined marks length {len(refined_marks)} does not match "
            f"record count {len(records)}"
        )
    header = list(TRANSCRIPT_COLUMNS)
    if refined_marks is not None:
        header.append(REFINED_MARK_COLUMN)

    def emit(stream: IO[str]) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for index, record in enumerate(records):
            row = [
                record.student_id,
                record.department,
                str(record.year_level),
                record.module_code,
                _format_mark(record.module_mark),
                _format_mark(record.exam_mark),
                _format_mark(record.cswk_mark),
                str(record.weighting.exam_weight),
                str(record.weighting.coursework_weight),
            ]
            if refined_marks is not None:
                row.append(_format_mark(refined_marks[index]))
            writer.writerow(row)

    if hasattr(dest, "write"):
        emit(dest)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as stream:
            emit(stream)
