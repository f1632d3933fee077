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
import re
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .core import StudentModuleOutcome

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

    ``row_number`` is the 1-based CSV data row (the header is row 0).  The
    record-level cleaning passes number their records by position unless
    given the data rows the records came from, as ``validate`` does, so a
    row the parse rejected does not shift the rows after it.  ``field`` is
    the offending column, or ``"row"`` when the finding concerns the row
    as a whole.
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
    """The text of ``source`` without one leading byte-order mark, as a
    spreadsheet's "CSV UTF-8" export begins.  A path is read with its line
    ends as they are, so a quoted CR survives for the CSV reader, and bytes
    are decoded whole, so a decoding error names the byte's file offset."""
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    else:
        with open(source, encoding="utf-8", newline="") as stream:
            text = stream.read()
    return text.removeprefix("\ufeff")


def _split_lines(text: str) -> list[str] | None:
    """The lines of ``text`` when splitting each at commas reads it exactly
    as ``csv.reader`` does, else None.

    With no quote there is no quoting to undo, and with no CR and no NUL
    the reader ends a row only at LF and raises no error for a character;
    an empty line, which the reader yields as ``[]`` rather than ``[""]``,
    and a line longer than the field limit, which it may refuse, are left
    to it too.  The final empty string of a text that ends in LF is no
    line.
    """
    if '"' in text or "\r" in text or "\0" in text or "\n\n" in text or text.startswith("\n"):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if lines and max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _rows(text: str) -> Iterator[list[str]]:
    """The rows of CSV text, as ``csv.reader`` reads them."""
    lines = _split_lines(text)
    if lines is None:
        return csv.reader(io.StringIO(text, newline=""))
    return map(str.split, lines, repeat(","))


# A mark as repr(float) or a fixed-point export writes it; float() alone
# also takes "+5", " 5", "5_0" and non-ASCII digits.
_MARK_GRAMMAR = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _mark_fault(text: str, low: float = 0.0, high: float = 100.0) -> str:
    """The reject message for a mark cell that failed the row pass's check:
    float()'s own error, else not finite, else outside [low, high].  A cell
    that passes all three failed the grammar, so that reason needs no test."""
    try:
        value = float(text)
    except ValueError as exc:
        return str(exc)
    if not math.isfinite(value):
        return f"not a finite number: {text!r}"
    if not low <= value <= high:
        return f"out of range [{low:g}, {high:g}]: {text!r}"
    return f"not a plain decimal number: {text!r}"


def _check_header(header: Sequence[str] | None, expected: Sequence[str]) -> None:
    if header is None:
        raise TranscriptSchemaError("input is empty; expected a transcript header row")
    seen = [name.strip() for name in header]
    if seen != list(expected):
        raise TranscriptSchemaError(
            f"header mismatch: expected {','.join(expected)}, got {','.join(seen)}"
        )


def _reject(
    issues: list[ValidationIssue],
    row_number: int,
    column: str,
    detail: str,
    category: IssueCategory = IssueCategory.DATA_ENTRY,
) -> None:
    issues.append(ValidationIssue(row_number, column, category, detail, Severity.REJECT))


def _parse_transcript(
    source: str | Path | IO, refined: bool | None
) -> tuple[list[StudentModuleOutcome], list[float], IngestReport]:
    """The row loop of both schemas; the refined marks stay empty unless
    ``refined``, and None picks the schema from the header.

    Each cell is checked once, in column order, and a check that fails
    writes its reject then.  A row that wrote none becomes a record through
    ``tuple.__new__``, which skips ``StudentModuleOutcome``'s checks: the
    row pass has made every one of them already.  This is the one place a
    record is built unchecked.
    """
    reader = _rows(_read_text(source))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise csv.Error(f"header row: {exc}") from None
    if refined is None:
        refined = bool(header) and header[-1].strip() == REFINED_MARK_COLUMN
    columns = TRANSCRIPT_COLUMNS + ((REFINED_MARK_COLUMN,) if refined else ())
    _check_header(header, columns)

    width = len(columns)
    fullmatch = _MARK_GRAMMAR.fullmatch
    isfinite = math.isfinite
    # Cells repeat: a faculty's file holds a few thousand distinct marks,
    # ids and codes, a few years and a few weight splits.  So each distinct
    # text is checked and converted once per parse: a mark to one float, a
    # year to one int, a pair of weight texts to one coursework weight and a
    # name to one str, which the records then share.  A text that fails is
    # checked again wherever it appears, and a refined mark, whose range
    # differs, is checked cell by cell.
    marks: dict[str, float] = {}
    years: dict[str, int] = {}
    names: dict[str, str] = {}
    mark_get, year_get, name = marks.get, years.get, names.setdefault
    weights: dict[tuple[str, str], int] = {}
    zero_weight = "mark recorded for a component with zero weight"
    records: list[StudentModuleOutcome] = []
    refined_marks: list[float] = []
    issues: list[ValidationIssue] = []
    row_number = 0  # ends as the count of data rows
    try:
        for row_number, row in enumerate(reader, start=1):
            if len(row) != width:
                _reject(issues, row_number, "row", f"expected {width} fields, got {len(row)}")
                continue
            refined_ok = True
            if refined:
                # unclamped refinement may leave [0, 100]
                refined_text = row.pop()
                if not (fullmatch(refined_text) and isfinite(refined_mark := float(refined_text))):
                    _reject(issues, row_number, REFINED_MARK_COLUMN, _mark_fault(refined_text, -math.inf, math.inf))
                    refined_ok = False
            # the refined mark aside, a row that adds no reject from here on is a record
            faults = len(issues)
            (
                student_id, department, year_text, module_code, module_text,
                exam_text, cswk_text, exam_weight_text, cswk_weight_text,
            ) = row
            if not student_id:
                _reject(issues, row_number, "student_id", "required field is empty")
            if not department:
                _reject(issues, row_number, "department", "required field is empty")
            if not module_code:
                _reject(issues, row_number, "module_code", "required field is empty")
            if (year_level := year_get(year_text)) is None:
                if year_text.isdecimal() and year_text.isascii():
                    year_level = years[year_text] = int(year_text)
                else:
                    _reject(issues, row_number, "year_level", f"must be a non-negative integer, got {year_text!r}")
            if (module_mark := mark_get(module_text)) is None:
                if fullmatch(module_text) and 0.0 <= (module_mark := float(module_text)) <= 100.0:
                    marks[module_text] = module_mark
                else:
                    _reject(issues, row_number, "module_mark", _mark_fault(module_text))
            # a blank component mark is missing, not malformed
            exam_mark = cswk_mark = None
            if exam_text and (exam_mark := mark_get(exam_text)) is None:
                if fullmatch(exam_text) and 0.0 <= (exam_mark := float(exam_text)) <= 100.0:
                    marks[exam_text] = exam_mark
                else:
                    _reject(issues, row_number, "exam_mark", _mark_fault(exam_text))
            if cswk_text and (cswk_mark := mark_get(cswk_text)) is None:
                if fullmatch(cswk_text) and 0.0 <= (cswk_mark := float(cswk_text)) <= 100.0:
                    marks[cswk_text] = cswk_mark
                else:
                    _reject(issues, row_number, "cswk_mark", _mark_fault(cswk_text))
            cswk_weight = weights.get((exam_weight_text, cswk_weight_text))
            if cswk_weight is None:
                # a split is two counts summing to 100
                exam_count = exam_weight_text.isdecimal() and exam_weight_text.isascii()
                if not exam_count:
                    _reject(issues, row_number, "exam_weight", f"must be a non-negative integer, got {exam_weight_text!r}")
                cswk_count = cswk_weight_text.isdecimal() and cswk_weight_text.isascii()
                if not cswk_count:
                    _reject(issues, row_number, "cswk_weight", f"must be a non-negative integer, got {cswk_weight_text!r}")
                if exam_count and cswk_count:
                    total = int(exam_weight_text) + int(cswk_weight_text)
                    if total != 100:
                        _reject(issues, row_number, "cswk_weight", f"weights sum to {total}, not 100")
                    else:
                        cswk_weight = weights[exam_weight_text, cswk_weight_text] = int(cswk_weight_text)
            if cswk_weight is not None:
                if exam_text and cswk_weight == 100:
                    _reject(issues, row_number, "exam_mark", zero_weight, IssueCategory.MEASUREMENT)
                if cswk_text and not cswk_weight:
                    _reject(issues, row_number, "cswk_mark", zero_weight, IssueCategory.MEASUREMENT)
            if len(issues) != faults:
                continue
            # Recombination check: if every weighted component mark is present,
            # the weighted mean should reproduce the stored module mark.  A
            # zero-weight component has no mark by now, so the marks present are
            # the weighted ones.  A row rejected only for its refined mark is
            # still checked.
            if (exam_mark is not None or cswk_weight == 100) and (cswk_mark is not None or not cswk_weight):
                combined = 0  # an int start, like sum(): -0.0 parts give 0.0
                if exam_mark is not None:
                    combined += (100 - cswk_weight) * exam_mark
                if cswk_mark is not None:
                    combined += cswk_weight * cswk_mark
                combined /= 100.0
                if abs(combined - module_mark) > RECOMBINATION_TOLERANCE:
                    detail = f"weighted components give {combined:.2f}, module mark is {module_mark:g}"
                    issues.append(
                        ValidationIssue(row_number, "module_mark", IssueCategory.DISTILLATION, detail, Severity.WARN)
                    )
            if not refined_ok:
                continue
            records.append(
                tuple.__new__(StudentModuleOutcome, (
                    name(student_id, student_id), name(department, department), year_level,
                    name(module_code, module_code), module_mark, exam_mark, cswk_mark, cswk_weight,
                ))
            )
            if refined:
                refined_marks.append(refined_mark)
    except csv.Error as exc:
        # a cell longer than csv.field_size_limit(), or a NUL before Python 3.11
        raise csv.Error(f"row {row_number + 1}: {exc}") from None
    return records, refined_marks, IngestReport(len(records), row_number - len(records), tuple(issues))


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


def parse_any_transcript_csv(source: str | Path | IO) -> tuple[list[StudentModuleOutcome], list[float], IngestReport]:
    """Parse either schema, as the header names it; a canonical file has no refined marks."""
    return _parse_transcript(source, refined=None)


def _row_numbers(
    records: list[StudentModuleOutcome], row_numbers: Sequence[int] | None
) -> Sequence[int]:
    """The data row of each record: ``row_numbers``, or 1, 2, ... by
    position."""
    if row_numbers is None:
        return range(1, len(records) + 1)
    if len(row_numbers) != len(records):
        raise ValueError(
            f"row numbers length {len(row_numbers)} does not match record count {len(records)}"
        )
    return row_numbers


def apply_missing_policy(
    records: Iterable[StudentModuleOutcome],
    policy: MissingPolicy,
    *,
    row_numbers: Sequence[int] | None = None,
) -> tuple[list[StudentModuleOutcome], IngestReport]:
    """Handle records whose weighted components carry no mark.

    DROP_RECORD removes them (Reject issues); FLAG_ONLY keeps them and
    emits Warn issues.  No value is ever imputed.  Issues name
    ``row_numbers[i]`` for record ``i`` when given, else its position.
    """
    records = list(records)
    rows = _row_numbers(records, row_numbers)
    flagged = [
        index
        for index, (_, _, _, _, _, exam_mark, cswk_mark, cswk_weight) in enumerate(records)
        if (exam_mark is None and cswk_weight < 100) or (cswk_mark is None and cswk_weight > 0)
    ]
    severity = Severity.REJECT if policy is MissingPolicy.DROP_RECORD else Severity.WARN
    issues: list[ValidationIssue] = []
    for index in flagged:
        record = records[index]
        for name in record.missing_component_fields:
            weight = 100 - record.cswk_weight if name == "exam_mark" else record.cswk_weight
            issues.append(
                ValidationIssue(
                    rows[index], name, IssueCategory.MISSING, f"no mark for a component weighted {weight}%", severity
                )
            )
    if policy is MissingPolicy.FLAG_ONLY:
        kept = records
    else:
        # the runs of records between flagged ones, a slice at a time
        kept = []
        for start, stop in zip([-1, *flagged], [*flagged, len(records)]):
            kept += records[start + 1 : stop]
    return kept, IngestReport(len(kept), len(records) - len(kept), tuple(issues))


def deduplicate(
    records: Iterable[StudentModuleOutcome],
    *,
    row_numbers: Sequence[int] | None = None,
) -> tuple[list[StudentModuleOutcome], IngestReport]:
    """Enforce at most one record per (student_id, module_code, year_level).

    Exact duplicates collapse to the first copy with a Warn per extra copy;
    conflicting duplicates are all rejected, since no copy can be trusted.
    Issues name ``row_numbers[i]`` for record ``i`` when given, else its
    position.
    """
    records = list(records)
    rows = _row_numbers(records, row_numbers)
    # A key's first index, and the indexes of every key seen more than
    # once, under its first index.
    first: dict[tuple[str, str, int], int] = {}
    repeated: dict[int, list[int]] = {}
    for index, record in enumerate(records):
        seen = first.setdefault((record.student_id, record.module_code, record.year_level), index)
        if seen != index:
            repeated.setdefault(seen, [seen]).append(index)

    drop: dict[int, ValidationIssue] = {}
    for indexes in repeated.values():
        group = [records[i] for i in indexes]
        if all(record == group[0] for record in group):
            for i in indexes[1:]:
                drop[i] = ValidationIssue(
                    rows[i],
                    "row",
                    IssueCategory.DATA_INTEGRATION,
                    f"exact duplicate of record {rows[indexes[0]]} collapsed",
                    Severity.WARN,
                )
        else:
            copy = group[0]
            for i in indexes:
                drop[i] = ValidationIssue(
                    rows[i],
                    "row",
                    IssueCategory.DATA_INTEGRATION,
                    f"conflicting duplicates for student {copy.student_id!r}, "
                    f"module {copy.module_code!r}, year {copy.year_level}",
                    Severity.REJECT,
                )

    kept = [record for i, record in enumerate(records) if i not in drop]
    issues = tuple(drop[i] for i in sorted(drop))
    return kept, IngestReport(len(kept), len(records) - len(kept), issues)


class _CsvCells(dict):
    """Each text value mapped to its CSV cell, worked out on first use.

    A cell is quoted, with its quotes doubled, only when it holds a comma,
    a quote or a line break: ``csv.writer``'s minimal quoting.  A carriage
    return counts as a line break, as it does for the reader.
    """

    def __missing__(self, text: str) -> str:
        quote = "," in text or '"' in text or "\n" in text or "\r" in text
        cell = self[text] = '"' + text.replace('"', '""') + '"' if quote else text
        return cell


def write_transcript_csv(
    records: Sequence[StudentModuleOutcome],
    dest: str | Path | IO[str],
    refined_marks: Sequence[float] | None = None,
) -> None:
    """Write records in the canonical schema, optionally with a trailing
    refined-mark column.

    Floats are written in shortest round-trip form, so parsing the output
    reproduces the records exactly.  Rows are written as they are made, so
    the file is never held whole in memory.  A refined mark that the
    refined reader would reject (None, a bool or not finite) raises
    ``ValueError`` before anything is written.
    """
    if refined_marks is not None:
        if len(refined_marks) != len(records):
            raise ValueError(
                f"refined marks length {len(refined_marks)} does not match "
                f"record count {len(records)}"
            )
        isfinite = math.isfinite
        for index, mark in enumerate(refined_marks):
            # bool is refused as the record constructor refuses bool marks
            if mark is None or mark.__class__ is bool or not isfinite(mark):
                raise ValueError(f"refined mark {index} must be a finite number, got {mark!r}")
    columns = TRANSCRIPT_COLUMNS if refined_marks is None else (*TRANSCRIPT_COLUMNS, REFINED_MARK_COLUMN)
    cells = _CsvCells()
    # float() first, so an int mark given through the API writes as 60.0
    lines = (
        f"{cells[student_id]},{cells[department]},{year_level},{cells[module_code]},{float(module_mark)!r},"
        f"{'' if exam_mark is None else repr(float(exam_mark))},{'' if cswk_mark is None else repr(float(cswk_mark))},"
        f"{100 - cswk_weight},{cswk_weight}"
        for student_id, department, year_level, module_code, module_mark, exam_mark, cswk_mark, cswk_weight in records
    )
    if refined_marks is None:
        rows = (f"{line}\n" for line in lines)
    else:
        rows = (f"{line},{float(mark)!r}\n" for line, mark in zip(lines, refined_marks))

    def emit(stream: IO[str]) -> None:
        stream.write(",".join(columns) + "\n")
        stream.writelines(rows)

    if hasattr(dest, "write"):
        emit(dest)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as stream:
            emit(stream)
