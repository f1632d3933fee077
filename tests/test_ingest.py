"""CSV parsing, validation taxonomy, dedupe, missing-mark policy."""
from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path
from typing import Sequence

import pytest

from markprep import (
    RECOMBINATION_TOLERANCE,
    REFINED_MARK_COLUMN,
    TRANSCRIPT_COLUMNS,
    CohortSpec,
    DepartmentProfile,
    IssueCategory,
    MissingPolicy,
    Severity,
    StudentModuleOutcome,
    TranscriptSchemaError,
    ValidationIssue,
    apply_missing_policy,
    deduplicate,
    generate_cohort,
    parse_refined_transcript_csv,
    parse_transcript_csv,
    write_transcript_csv,
)
from markprep import ingest
from markprep.ingest import _MARK_GRAMMAR, _reject, _split_lines
from test_core import make_outcome

HEADER = ",".join(TRANSCRIPT_COLUMNS)


def parse(text: str):
    return parse_transcript_csv(io.StringIO(text))


def test_round_trip_preserves_floats_exactly(tmp_path: Path) -> None:
    records = [
        make_outcome(mark=59.87654321098765, module_code="A"),
        make_outcome(mark=0.1 + 0.2, module_code="B"),
        make_outcome(
            mark=61.0, cswk_weight=100, exam_mark=None,
            cswk_mark=61.0, module_code="C",
        ),
    ]
    path = tmp_path / "out.csv"
    write_transcript_csv(records, path)
    parsed, report = parse_transcript_csv(path)
    assert parsed == records
    assert report.rejected_count == 0
    # repr round-trip means equality is exact, not approximate
    assert parsed[1].module_mark == 0.1 + 0.2


def test_written_csv_uses_lf_and_blank_for_missing(tmp_path: Path) -> None:
    path = tmp_path / "out.csv"
    write_transcript_csv(
        [make_outcome(cswk_weight=100, exam_mark=None, cswk_mark=61.0, mark=61.0)],
        path,
    )
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert b",61.0,,61.0,0,100\n" in raw


def test_header_mismatch_raises_schema_error() -> None:
    with pytest.raises(TranscriptSchemaError):
        parse("student,dept\nS1,CS\n")
    with pytest.raises(TranscriptSchemaError):
        parse("")


def test_wrong_field_count_rejected() -> None:
    records, report = parse(f"{HEADER}\nS1,CS,1,M1,60\n")
    assert records == []
    assert report.rejected_count == 1
    (issue,) = report.issues
    assert issue.field == "row"
    assert issue.category is IssueCategory.DATA_ENTRY
    assert issue.severity is Severity.REJECT
    assert issue.row_number == 1


def test_malformed_and_out_of_range_fields_rejected() -> None:
    rows = [
        "S1,CS,one,M1,60,58,62,50,50",  # year not an integer
        "S2,CS,1,M2,abc,58,62,50,50",  # mark not numeric
        "S3,CS,1,M3,101,58,62,50,50",  # mark out of range
        "S4,CS,1,M4,60,58,62,55,50",  # weights sum to 105
        ",CS,1,M5,60,58,62,50,50",  # empty required field
        "S6,CS,-1,M6,60,58,62,50,50",  # negative year
    ]
    records, report = parse(HEADER + "\n" + "\n".join(rows) + "\n")
    assert records == []
    assert report.rejected_count == 6
    assert all(i.category is IssueCategory.DATA_ENTRY for i in report.issues)
    fields = [i.field for i in report.issues]
    assert fields == [
        "year_level", "module_mark", "module_mark",
        "cswk_weight", "student_id", "year_level",
    ]


def test_numbers_must_be_plain_ascii_decimals() -> None:
    rows = [
        "S1,CS,3_0,M1,60,58,62,50,50",  # digit separator in a year
        "S2,CS,1,M2,+60,58,62,50,50",  # explicit plus sign
        "S3,CS,1,M3,6_0.5,58,63,50,50",  # digit separator in a mark
        "S4,CS,1,M4,\u0665\u0660,48,52,50,50",  # Arabic-Indic digits
        "S5,CS,1,M5,60,60,, 100,0",  # padded weight
    ]
    records, report = parse(HEADER + "\n" + "\n".join(rows) + "\n")
    assert records == []
    assert [(i.field, i.severity) for i in report.issues] == [
        ("year_level", Severity.REJECT),
        ("module_mark", Severity.REJECT),
        ("module_mark", Severity.REJECT),
        ("module_mark", Severity.REJECT),
        ("exam_weight", Severity.REJECT),
    ]


def test_mark_grammar_takes_what_the_writers_emit() -> None:
    # repr forms (exponents, negative refined marks) and fixed-point text
    text = (
        HEADER + f",{REFINED_MARK_COLUMN}\n"
        "S1,CS,1,M1,1e-05,1e-05,1e-05,50,50,-3.25\n"
        "S2,CS,1,M2,60.00,58.00,62.00,50,50,1.5e-07\n"
        "S3,CS,1,M3,0,0,-0.0,50,50,-1e+16\n"
    )
    records, marks, report = parse_refined_transcript_csv(io.StringIO(text))
    assert report.rejected_count == 0
    assert [r.module_mark for r in records] == [1e-05, 60.0, 0.0]
    assert marks == [-3.25, 1.5e-07, -1e16]


def test_one_bad_row_does_not_poison_the_rest() -> None:
    text = f"{HEADER}\nS1,CS,1,M1,60,58,62,50,50\nS2,CS,1,M2,999,58,62,50,50\nS3,CS,1,M3,70,72,68,50,50\n"
    records, report = parse(text)
    assert [r.student_id for r in records] == ["S1", "S3"]
    assert report.accepted_count == 2
    assert report.rejected_count == 1
    assert report.issues[0].row_number == 2


def test_zero_weight_component_with_mark_is_measurement_reject() -> None:
    records, report = parse(f"{HEADER}\nS1,CS,1,M1,61,55,61,0,100\n")
    assert records == []
    (issue,) = report.issues
    assert issue.category is IssueCategory.MEASUREMENT
    assert issue.field == "exam_mark"
    assert issue.severity is Severity.REJECT


def test_missing_weighted_mark_parses_cleanly() -> None:
    records, report = parse(f"{HEADER}\nS1,CS,1,M1,60,,62,50,50\n")
    assert report.rejected_count == 0
    assert records[0].exam_mark is None
    assert records[0].missing_component_fields == ("exam_mark",)


def test_recombination_mismatch_warns_but_accepts() -> None:
    # 0.5*58 + 0.5*62 = 60, stored mark 61 is off by 1.0
    records, report = parse(f"{HEADER}\nS1,CS,1,M1,61,58,62,50,50\n")
    assert len(records) == 1
    assert report.rejected_count == 0
    (issue,) = report.issues
    assert issue.category is IssueCategory.DISTILLATION
    assert issue.severity is Severity.WARN


def test_recombination_tolerance_boundary() -> None:
    # exactly at the tolerance passes silently, just beyond warns
    ok = 60.0 + RECOMBINATION_TOLERANCE
    _, report_ok = parse(f"{HEADER}\nS1,CS,1,M1,{ok!r},58,62,50,50\n")
    assert report_ok.issues == ()
    _, report_bad = parse(f"{HEADER}\nS1,CS,1,M1,60.051,58,62,50,50\n")
    assert len(report_bad.issues) == 1


def test_refined_mark_reject_still_checks_recombination() -> None:
    # the refined mark is not a canonical cell, so a row rejected for it
    # alone is still checked against its components
    text = f"{HEADER},{REFINED_MARK_COLUMN}\nS1,CS,1,M1,61,58,62,50,50,nan\n"
    records, marks, report = parse_refined_transcript_csv(io.StringIO(text))
    assert (records, marks, report.rejected_count) == ([], [], 1)
    assert [(i.field, i.category, i.severity, i.detail) for i in report.issues] == [
        (REFINED_MARK_COLUMN, IssueCategory.DATA_ENTRY, Severity.REJECT, "not a finite number: 'nan'"),
        ("module_mark", IssueCategory.DISTILLATION, Severity.WARN, "weighted components give 60.00, module mark is 61"),
    ]


def test_recombination_skipped_when_component_missing() -> None:
    _, report = parse(f"{HEADER}\nS1,CS,1,M1,95,,62,50,50\n")
    assert report.issues == ()


def test_deduplicate_collapses_exact_copies() -> None:
    record = make_outcome()
    other = make_outcome(module_code="M2")
    kept, report = deduplicate([record, record, other, record])
    assert kept == [record, other]
    assert report.accepted_count == 2
    assert report.rejected_count == 2
    assert all(i.severity is Severity.WARN for i in report.issues)
    assert all(i.category is IssueCategory.DATA_INTEGRATION for i in report.issues)
    assert [i.row_number for i in report.issues] == [2, 4]


def test_deduplicate_rejects_conflicting_copies() -> None:
    a = make_outcome(mark=60.0)
    b = make_outcome(mark=65.0, exam_mark=63.0, cswk_mark=67.0)
    kept, report = deduplicate([a, b])
    assert kept == []
    assert report.rejected_count == 2
    assert all(i.severity is Severity.REJECT for i in report.issues)


def test_deduplicate_orders_issues_by_row() -> None:
    # the key with three copies repeats first after another key does
    record = make_outcome()
    other = make_outcome(module_code="M2")
    conflict = make_outcome(module_code="M2", mark=65.0, exam_mark=63.0, cswk_mark=67.0)
    third = make_outcome(module_code="M3")
    kept, report = deduplicate([record, other, third, conflict, record, record])
    assert kept == [record, third]
    assert [(i.row_number, i.severity, i.detail) for i in report.issues] == [
        (2, Severity.REJECT, "conflicting duplicates for student 'S1', module 'M2', year 1"),
        (4, Severity.REJECT, "conflicting duplicates for student 'S1', module 'M2', year 1"),
        (5, Severity.WARN, "exact duplicate of record 1 collapsed"),
        (6, Severity.WARN, "exact duplicate of record 1 collapsed"),
    ]


def test_deduplicate_key_includes_year() -> None:
    # same module retaken in a later year is two legitimate records
    kept, _ = deduplicate([make_outcome(year_level=1), make_outcome(year_level=2)])
    assert len(kept) == 2


def test_cleaning_passes_name_given_row_numbers() -> None:
    record = make_outcome()
    incomplete = make_outcome(exam_mark=None, module_code="M2")
    _, report = deduplicate([record, incomplete, record], row_numbers=[2, 5, 9])
    (issue,) = report.issues
    assert (issue.row_number, issue.detail) == (9, "exact duplicate of record 2 collapsed")
    _, report = apply_missing_policy([record, incomplete], MissingPolicy.FLAG_ONLY, row_numbers=[2, 5])
    assert [i.row_number for i in report.issues] == [5]
    with pytest.raises(ValueError, match="row numbers length 1"):
        deduplicate([record, incomplete], row_numbers=[1])
    with pytest.raises(ValueError, match="row numbers length 3"):
        apply_missing_policy([record], MissingPolicy.DROP_RECORD, row_numbers=[1, 2, 3])


def test_missing_policy_drop_and_flag() -> None:
    complete = make_outcome()
    incomplete = make_outcome(exam_mark=None, module_code="M2")
    kept_drop, report_drop = apply_missing_policy([complete, incomplete], MissingPolicy.DROP_RECORD)
    assert kept_drop == [complete]
    assert report_drop.rejected_count == 1
    assert report_drop.issues[0].category is IssueCategory.MISSING
    assert report_drop.issues[0].severity is Severity.REJECT

    kept_flag, report_flag = apply_missing_policy([complete, incomplete], MissingPolicy.FLAG_ONLY)
    assert kept_flag == [complete, incomplete]
    assert report_flag.rejected_count == 0
    assert report_flag.issues[0].severity is Severity.WARN


def test_report_json_shape() -> None:
    _, report = parse(f"{HEADER}\nS1,CS,1,M1,999,58,62,50,50\n")
    doc = report.to_json_dict()
    assert doc["accepted"] == 0
    assert doc["rejected"] == 1
    assert doc["issues"][0]["category"] == "DataEntry"
    assert doc["issues"][0]["severity"] == "Reject"
    assert doc["issues"][0]["row"] == 1


def test_refined_round_trip(tmp_path: Path) -> None:
    records = [make_outcome(module_code="A"), make_outcome(module_code="B")]
    refined = [57.3, 54.9083]
    path = tmp_path / "refined.csv"
    write_transcript_csv(records, path, refined_marks=refined)
    parsed, marks, report = parse_refined_transcript_csv(path)
    assert parsed == records
    assert marks == refined
    assert report.rejected_count == 0


@pytest.mark.parametrize("bad", [None, True, math.nan, math.inf, -math.inf], ids=repr)
def test_writer_refuses_a_refined_mark_its_reader_rejects(tmp_path: Path, bad: object) -> None:
    records = [make_outcome(module_code="A"), make_outcome(module_code="B")]
    stream = io.StringIO()
    with pytest.raises(ValueError, match=rf"^refined mark 1 must be a finite number, got {bad!r}$"):
        write_transcript_csv(records, stream, refined_marks=[57.3, bad])
    assert stream.getvalue() == ""
    path = tmp_path / "refined.csv"
    with pytest.raises(ValueError, match="refined mark 1"):
        write_transcript_csv(records, path, refined_marks=[57.3, bad])
    assert not path.exists()


def test_refined_schema_requires_extra_column(tmp_path: Path) -> None:
    path = tmp_path / "plain.csv"
    write_transcript_csv([make_outcome()], path)
    with pytest.raises(TranscriptSchemaError):
        parse_refined_transcript_csv(path)


def test_quoted_carriage_return_survives_a_file(tmp_path: Path) -> None:
    records = [make_outcome(module_code="ZZ7\r"), make_outcome(module_code="A\r\nB")]
    path = tmp_path / "out.csv"
    write_transcript_csv(records, path)
    assert b'"ZZ7\r"' in path.read_bytes()
    parsed, report = parse_transcript_csv(path)
    assert [r.module_code for r in parsed] == ["ZZ7\r", "A\r\nB"]
    assert report.rejected_count == 0


def test_crlf_line_ends_read_like_lf(tmp_path: Path) -> None:
    text = f"{HEADER}\nS1,CS,1,M1,60.0,58.0,62.0,50,50\nS2,CS,1,M1,61.0,60.0,62.0,50,50\n"
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    assert parse_transcript_csv(path) == parse(text)


def test_one_leading_byte_order_mark_is_dropped(tmp_path: Path) -> None:
    text = f"{HEADER}\nS1,CS,1,M1,60.0,58.0,62.0,50,50\n"
    expected = parse(text)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_transcript_csv(path) == expected
    assert parse_transcript_csv(io.BytesIO(path.read_bytes())) == expected
    assert parse("\ufeff" + text) == expected
    # only one: a second mark is part of the header's first name
    with pytest.raises(TranscriptSchemaError):
        parse("\ufeff\ufeff" + text)


# Text with no quote, CR, NUL, empty line or over-long line is split at
# LF and commas instead of going through csv.reader; these pin that both
# read the same rows, and that any other text still goes to the reader.
TOKENISER_ALPHABET = ("a", "1", ".", ",", '"', "\r", "\n", "\0", " ", "\x85", "\x0b", "\x0c", "\x1c")


def reader_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text, newline="")))


def test_split_path_reads_the_rows_csv_reader_reads() -> None:
    rng = random.Random(27)
    split = 0
    for _ in range(20_000):
        text = "".join(rng.choices(TOKENISER_ALPHABET, k=rng.randrange(16)))
        lines = _split_lines(text)
        if "\r" in text:
            assert lines is None, repr(text)
        if lines is not None:
            split += 1
            assert [line.split(",") for line in lines] == reader_rows(text), repr(text)
    assert split > 2_000  # the split path is not left untried


def test_split_path_stays_within_the_field_limit() -> None:
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(8)
        for cell in ("x" * 7, "x" * 8, "a,b,c,d"):
            assert _split_lines(f"h\n{cell}\n") == ["h", cell]
            assert reader_rows(f"h\n{cell}\n") == [["h"], cell.split(",")]
        # a line past the limit goes to the reader, whose cells may still fit
        assert _split_lines("h\nabcd,efgh\n") is None
        assert reader_rows("h\nabcd,efgh\n") == [["h"], ["abcd", "efgh"]]
    finally:
        csv.field_size_limit(limit)


def parse_outcome(text: str):
    """The records and report of one parse, or the type and message of
    the csv.Error or schema error it raises."""
    try:
        return parse(text)
    except (csv.Error, TranscriptSchemaError) as exc:
        return type(exc).__name__, str(exc)


ROW_A = "S1,CS,1,M1,60.0,58.0,62.0,50,50"
ROW_B = "S2,CS,1,M2,61.0,60.0,62.0,50,50"


@pytest.mark.parametrize(
    ("text", "split"),
    [
        (f"{HEADER}\n{ROW_A}\n\n{ROW_B}\n", False),  # a blank line mid-file
        (f"{HEADER}\n{ROW_A}\n\n", False),  # two trailing newlines
        (f"{HEADER}\r\n{ROW_A}\r\n{ROW_B}\r\n", False),
        (f"{HEADER}\r\n{ROW_A}\r\n{ROW_B}", False),  # no final line end
        (f"{HEADER}\n{ROW_A}\r{ROW_B}\n", False),  # a lone CR ends a row
        (f"{HEADER}\r\n{ROW_A}\r{ROW_B}\r\n", False),  # a lone CR among CRLFs
        (f"{HEADER}\r\n{ROW_A}\n{ROW_B}\r\n", False),  # LF and CRLF mixed
        (f"{HEADER}\r\n{ROW_A}\r\n\r\n{ROW_B}\r\n", False),  # a blank CRLF line
        (f"\r\n{HEADER}\r\n{ROW_A}\r\n", False),
        (f"{HEADER}\r\n{ROW_A}\r\r\n", False),  # a CR before the CRLF
        (HEADER + "\n" + ROW_A.replace("M1", '"M,1"') + "\n", False),
        (HEADER + "\n" + ROW_A.replace("M1", "M1\0") + "\n", False),
        (HEADER + "\n" + ROW_A.replace("M1", "M1\x85") + "\n" + ROW_B, True),
        (HEADER + "\n" + ROW_A.replace("M1", "M1\u2028") + "\n" + ROW_B + "\n", True),
        (f"{HEADER}\n{ROW_A}\n{ROW_B},\n", True),  # one field too many
        (f"\n{HEADER}\n{ROW_A}\n", False),
        ("", True),
    ],
    ids=[
        "blank-line", "two-trailing-newlines", "crlf", "crlf-unterminated", "lone-cr",
        "lone-cr-among-crlf", "mixed-lf-crlf", "crlf-blank-line", "crlf-leading-blank-line",
        "cr-before-crlf", "quoted-cell", "nul",
        "nel-in-cell", "line-separator-in-cell", "extra-field", "leading-blank-line", "empty",
    ],
)
def test_parse_reads_like_csv_reader(monkeypatch: pytest.MonkeyPatch, text: str, split: bool) -> None:
    assert (_split_lines(text) is not None) is split
    got = parse_outcome(text)
    monkeypatch.setattr(ingest, "_split_lines", lambda text: None)
    assert got == parse_outcome(text)


def test_line_past_the_field_limit_goes_to_csv_reader() -> None:
    text = f"{HEADER}\n{ROW_A}\n{ROW_B.replace('M2', 'M' * 40)}\n"
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(40)  # every line is longer; every cell fits
        assert _split_lines(text) is None
        records, report = parse(text)
        assert [r.module_code for r in records] == ["M1", "M" * 40] and report.rejected_count == 0
        csv.field_size_limit(39)
        assert parse_outcome(text) == ("Error", "row 2: field larger than field limit (39)")
    finally:
        csv.field_size_limit(limit)


# Each distinct cell text is checked and converted once per parse; these
# pin what that memo must not change.


def test_refined_mark_text_is_no_module_mark() -> None:
    # 150.0 is a valid refined mark but out of range for every other mark
    # column, in either order
    header = f"{HEADER},{REFINED_MARK_COLUMN}\n"
    refined = "S1,CS,1,M1,60.0,58.0,62.0,50,50,150.0\n"
    module = "S2,CS,1,M2,150.0,150.0,62.0,50,50,57.5\n"
    for rows, row_number in ((refined + module, 2), (module + refined, 1)):
        records, marks, report = parse_refined_transcript_csv(io.StringIO(header + rows))
        assert [r.student_id for r in records] == ["S1"]
        assert marks == [150.0]
        assert [(i.row_number, i.field, i.detail) for i in report.issues] == [
            (row_number, "module_mark", "out of range [0, 100]: '150.0'"),
            (row_number, "exam_mark", "out of range [0, 100]: '150.0'"),
        ]


def test_a_failing_mark_text_is_rejected_in_every_row() -> None:
    rows = "S1,CS,x,M1,101,101,62.0,50,50\nS2,CS,x,M1,60.0,101,62.0,50,50\n"
    records, report = parse(HEADER + "\n" + rows)
    assert records == []
    assert [(i.row_number, i.field, i.detail) for i in report.issues] == [
        (1, "year_level", "must be a non-negative integer, got 'x'"),
        (1, "module_mark", "out of range [0, 100]: '101'"),
        (1, "exam_mark", "out of range [0, 100]: '101'"),
        (2, "year_level", "must be a non-negative integer, got 'x'"),
        (2, "exam_mark", "out of range [0, 100]: '101'"),
    ]


@pytest.mark.parametrize("order", [("-0", "0"), ("0", "-0")], ids=["negative-first", "positive-first"])
def test_signed_zero_mark_texts_keep_their_signs(order: tuple[str, str]) -> None:
    rows = "".join(f"S{n},CS,1,M1,{text},{text},,100,0\n" for n, text in enumerate(order))
    records, report = parse(HEADER + "\n" + rows)
    assert report.rejected_count == 0
    for record, text in zip(records, order):
        sign = -1.0 if text.startswith("-") else 1.0
        assert math.copysign(1.0, record.module_mark) == sign
        assert math.copysign(1.0, record.exam_mark) == sign
    stream = io.StringIO()
    write_transcript_csv(records, stream)
    assert [line.split(",")[4:6] for line in stream.getvalue().splitlines()[1:]] == [
        [repr(float(text))] * 2 for text in order
    ]
    assert "-0.0,-0.0" in stream.getvalue() and ",0.0,0.0," in stream.getvalue()


def test_equal_cells_share_one_object_within_one_parse_only() -> None:
    # one object per distinct text is what keeps a parsed faculty's records
    # small: csv.reader makes a new str for every cell
    rows = "".join(f"S1,CS,1,M{n},60.0,58.0,62.0,50,50\n" for n in range(3))
    first, _ = parse(HEADER + "\n" + rows)
    second, _ = parse(HEADER + "\n" + rows)
    for a, b in zip(first, first[1:]):
        assert a.student_id is b.student_id and a.department is b.department
        assert a.module_mark is b.module_mark and a.exam_mark is b.exam_mark
    # no memo outlives its parse
    assert first[0].module_mark == second[0].module_mark
    assert first[0].module_mark is not second[0].module_mark
    assert first[0].student_id is not second[0].student_id


def reference_transcript_csv(records: Sequence[StudentModuleOutcome], refined_marks=None) -> str:
    """The transcript as ``csv.writer`` writes its rows, the writer's former
    path.  Python 3.11's writer quotes a lone carriage return only when it is
    part of the line terminator, so each row is written with "\\r\\n" and
    that ending is swapped for "\\n"."""
    def mark(value: float | None) -> str:
        return "" if value is None else repr(float(value))

    rows = [list(TRANSCRIPT_COLUMNS) + ([REFINED_MARK_COLUMN] if refined_marks is not None else [])]
    for i, record in enumerate(records):
        rows.append([
            record.student_id, record.department, str(record.year_level), record.module_code,
            mark(record.module_mark), mark(record.exam_mark), mark(record.cswk_mark),
            str(100 - record.cswk_weight), str(record.cswk_weight),
        ] + ([mark(refined_marks[i])] if refined_marks is not None else []))
    lines = []
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


# Marks with an integral value, an exponent in their repr, a negative zero,
# and an int for a float.
WRITER_MARKS = (0.0, 60.0, 100.0, -0.0, 1e-05, 5e-324, 2.5e-07, 59.87654321098765, 0.1 + 0.2, 61)
WRITER_REFINED_MARKS = WRITER_MARKS + (-3.5, 1e16, 1.25e+22, -7.5e-10, 123.0)
WRITER_CHARACTERS = ("a", "Z", "7", ",", '"', "\r", "\n", " ", "\u00e9", "\u4e2d", "-")


@pytest.mark.parametrize("refined", [False, True], ids=["canonical", "refined"])
def test_writer_matches_csv_writer(tmp_path: Path, refined: bool) -> None:
    rng = random.Random(20)

    def text() -> str:
        return "".join(rng.choice(WRITER_CHARACTERS) for _ in range(rng.randint(1, 6)))

    def optional_mark(weight: int) -> float | None:
        return rng.choice(WRITER_MARKS) if weight and rng.random() < 0.8 else None

    records = []
    for _ in range(2000):
        cswk_weight = rng.choice((100, 70, 50, 0))
        records.append(StudentModuleOutcome(
            text(), text(), rng.randint(0, 12), text(), rng.choice(WRITER_MARKS),
            optional_mark(100 - cswk_weight), optional_mark(cswk_weight), cswk_weight,
        ))
    refined_marks = [rng.choice(WRITER_REFINED_MARKS) for _ in records] if refined else None
    expected = reference_transcript_csv(records, refined_marks)
    assert any(c in expected for c in ('"\r', '""', "\u4e2d"))
    stream = io.StringIO()
    write_transcript_csv(records, stream, refined_marks=refined_marks)
    assert stream.getvalue() == expected
    path = tmp_path / "out.csv"
    write_transcript_csv(records, path, refined_marks=refined_marks)
    assert path.read_bytes() == expected.encode("utf-8")
    # and the reader takes every cell back from the file
    if refined:
        parsed, marks, report = parse_refined_transcript_csv(path)
        assert marks == [float(mark) for mark in refined_marks]
    else:
        parsed, report = parse_transcript_csv(path)
    assert parsed == records
    assert report.rejected_count == 0


# Field values the constructor takes and values it refuses: each text the
# writer must quote, an empty text, years, marks and weights at and past
# their bounds, bools, an int mark, a float weight, a negative zero and the
# smallest subnormal.
ROUND_TRIP_TEXTS = ("S1", "a,b", 'q"', "\r", "\n", " ", "\u4e2d", "")
ROUND_TRIP_YEARS = (0, 3, 10**20, -1, True)
ROUND_TRIP_MARKS = (0.0, -0.0, 100.0, 61, 5e-324, 59.87654321098765, 0.1 + 0.2, 100.5, -1e-9, True, False, math.nan)
ROUND_TRIP_WEIGHTS = (100, 70, 50, 0, 101, -1, True, 50.0)


def test_every_record_the_constructor_takes_survives_a_write_and_parse(tmp_path: Path) -> None:
    rng = random.Random(24)
    accepted, refused = [], set()
    for _ in range(20000):
        fields = (
            rng.choice(ROUND_TRIP_TEXTS), rng.choice(ROUND_TRIP_TEXTS), rng.choice(ROUND_TRIP_YEARS),
            rng.choice(ROUND_TRIP_TEXTS), rng.choice(ROUND_TRIP_MARKS),
            rng.choice(ROUND_TRIP_MARKS + (None,)), rng.choice(ROUND_TRIP_MARKS + (None,)),
            rng.choice(ROUND_TRIP_WEIGHTS),
        )
        try:
            accepted.append(StudentModuleOutcome(*fields))
        except ValueError as exc:
            refused.add(str(exc).split()[0])
    assert refused == {
        "student_id", "department", "year_level", "module_code", "module_mark", "exam_mark", "cswk_mark",
        "cswk_weight",
    }
    assert len(accepted) > 500
    path = tmp_path / "out.csv"
    write_transcript_csv(accepted, path)
    parsed, report = parse_transcript_csv(path)
    assert parsed == accepted
    # value for value and type for type, but for an int mark, which is
    # written as the float it equals
    marks = range(4, 7)
    for got, sent in zip(parsed, accepted):
        assert [type(a) for a in got] == [float if i in marks and type(b) is int else type(b) for i, b in enumerate(sent)]
    assert report.rejected_count == 0
    # a module mark its components do not recombine to is kept, with a warning
    assert {(i.category, i.severity) for i in report.issues} == {(IssueCategory.DISTILLATION, Severity.WARN)}


# The parser's whole error behaviour, pinned: every column of both schemas
# takes every value of GRID_VALUES on an otherwise valid row, and
# GRID_CASES add weight sums, marks on zero-weight components, the
# recombination tolerance, rows wrong in every field at once and rows of
# the wrong length.
# ``ingest_error_grid.json`` holds the issues and records the parser gave
# when the grid was written; a change to any check, message or issue order
# shows up here.
GRID_BASE = ("S1", "CS", "1", "M1", "60.0", "58.0", "62.0", "50", "50")
GRID_REFINED_MARK = "57.5"
GRID_VALUES = ("", "abc", "nan", "inf", "1e400", "-1", "101", " 5", "+3", "3_0", "5.0")
GRID_CASES = (
    ("S1", "CS", "1", "M1", "60.0", "58.0", "62.0", "55", "50"),  # weights sum to 105
    ("S1", "CS", "1", "M1", "60.0", "58.0", "62.0", "40", "50"),  # weights sum to 90
    ("S1", "CS", "1", "M1", "60.0", "", "", "0", "0"),  # weights sum to 0
    ("S1", "CS", "1", "M1", "62.0", "58.0", "62.0", "0", "100"),  # exam mark, zero weight
    ("S1", "CS", "1", "M1", "58.0", "58.0", "62.0", "100", "0"),  # coursework mark, zero weight
    ("S1", "CS", "1", "M1", "62.0", "abc", "62.0", "0", "100"),  # bad mark, zero weight
    ("S1", "CS", "1", "M1", "58.0", "58.0", "", "100", "0"),  # exam only
    ("S1", "CS", "1", "M1", "62.0", "", "62.0", "0", "100"),  # coursework only
    ("S1", "CS", "1", "M1", "60.0", "", "", "50", "50"),  # both weighted marks missing
    ("S1", "CS", "1", "M1", repr(60.0 + RECOMBINATION_TOLERANCE), "58.0", "62.0", "50", "50"),
    ("S1", "CS", "1", "M1", repr(60.0 - RECOMBINATION_TOLERANCE), "58.0", "62.0", "50", "50"),
    ("S1", "CS", "1", "M1", "60.051", "58.0", "62.0", "50", "50"),  # just past the tolerance
    ("S1", "CS", "1", "M1", "59.949", "58.0", "62.0", "50", "50"),
    ("S1", "CS", "1", "M1", "60.0", "-0", "-0.0", "50", "50"),  # components recombine to -0.0
    ("S1", "CS", "1", "M1", "58.5", "57", "59.0", "25", "75"),  # 0.25*57 + 0.75*59 = 58.5
    ("", "", "x", "", "abc", "nan", "101", "-1", "y"),  # every field wrong
    ("", "", "", "", "", "", "", "", ""),
    ("S1", "CS", "1", "M1", "60.0", "58.0", "62.0", "50"),  # one field short
    ("S1", "CS", "1", "M1", "60.0", "58.0", "62.0", "50", "50", "50"),  # one field over
)


def grid_rows(refined: bool) -> list[tuple[str, ...]]:
    extra = (GRID_REFINED_MARK,) if refined else ()
    base = GRID_BASE + extra
    rows = [
        base[:column] + (value,) + base[column + 1:]
        for column in range(len(base))
        for value in GRID_VALUES
    ]
    return rows + [case + extra for case in GRID_CASES]


def grid_outcome(refined: bool) -> dict:
    columns = TRANSCRIPT_COLUMNS + ((REFINED_MARK_COLUMN,) if refined else ())
    text = io.StringIO("".join(",".join(row) + "\n" for row in [columns, *grid_rows(refined)]))
    if refined:
        records, marks, report = parse_refined_transcript_csv(text)
    else:
        (records, report), marks = parse_transcript_csv(text), []
    return {
        "accepted": report.accepted_count,
        "rejected": report.rejected_count,
        "issues": [
            [i.row_number, i.field, i.category.value, i.severity.value, i.detail]
            for i in report.issues
        ],
        "records": [
            [
                r.student_id, r.department, r.year_level, r.module_code,
                r.module_mark, r.exam_mark, r.cswk_mark,
                100 - r.cswk_weight, r.cswk_weight,
            ]
            for r in records
        ],
        "refined_marks": marks,
    }


@pytest.mark.parametrize("schema", ["canonical", "refined"])
def test_error_grid_matches_recorded_behaviour(schema: str) -> None:
    expected = json.loads((Path(__file__).parent / "ingest_error_grid.json").read_text())[schema]
    got = grid_outcome(refined=schema == "refined")

    def lines(value):
        # through JSON, so that an int and a float of equal value differ
        return [json.dumps(item) for item in value] if isinstance(value, list) else value

    assert {k: lines(v) for k, v in got.items()} == {k: lines(v) for k, v in expected.items()}


# The row checks as an explain pass once wrote them, kept verbatim as a
# reference for the parse's single pass: every check, message and issue
# order of a rejected row.
def _parse_mark(text: str, low: float = 0.0, high: float = 100.0) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    if not low <= value <= high:
        raise ValueError(f"out of range [{low:g}, {high:g}]: {text!r}")
    if not _MARK_GRAMMAR.fullmatch(text):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return value


def _parse_count(text: str) -> int | None:
    """A non-negative integer in ASCII digits, or None when ``text`` is not
    one."""
    return int(text) if text.isdecimal() and text.isascii() else None


def _refined_mark_issue(row_number: int, text: str, issues: list[ValidationIssue]) -> None:
    """Append the reject issue for a refined mark that is not a finite
    number: unclamped refinement may leave [0, 100]."""
    try:
        _parse_mark(text, -math.inf, math.inf)
    except ValueError as exc:
        _reject(issues, row_number, REFINED_MARK_COLUMN, str(exc))


def _row_issues(row_number: int, row: Sequence[str], issues: list[ValidationIssue]) -> None:
    """Append a reject issue for each fault in one data row of the
    canonical columns, in column order; the row loop calls this only for
    rows it turned down."""
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

    if _parse_count(year_text) is None:
        _reject(issues, row_number, "year_level", f"must be a non-negative integer, got {year_text!r}")

    try:
        _parse_mark(module_text)
    except ValueError as exc:
        _reject(issues, row_number, "module_mark", str(exc))

    # a blank component mark is missing, not malformed
    if exam_text:
        try:
            _parse_mark(exam_text)
        except ValueError as exc:
            _reject(issues, row_number, "exam_mark", str(exc))
    if cswk_text:
        try:
            _parse_mark(cswk_text)
        except ValueError as exc:
            _reject(issues, row_number, "cswk_mark", str(exc))

    exam_weight = _parse_count(exam_weight_text)
    if exam_weight is None:
        _reject(
            issues, row_number, "exam_weight", f"must be a non-negative integer, got {exam_weight_text!r}"
        )
    cswk_weight = _parse_count(cswk_weight_text)
    if cswk_weight is None:
        _reject(
            issues, row_number, "cswk_weight", f"must be a non-negative integer, got {cswk_weight_text!r}"
        )
    if exam_weight is not None and cswk_weight is not None:
        if exam_weight + cswk_weight != 100:
            _reject(
                issues, row_number, "cswk_weight", f"weights sum to {exam_weight + cswk_weight}, not 100"
            )
        else:
            zero_weight = "mark recorded for a component with zero weight"
            if exam_weight == 0 and exam_text:
                _reject(issues, row_number, "exam_mark", zero_weight, IssueCategory.MEASUREMENT)
            if cswk_weight == 0 and cswk_text:
                _reject(issues, row_number, "cswk_mark", zero_weight, IssueCategory.MEASUREMENT)


# Cells that only one of the parser's checks turns down, or that look
# malformed and are not: a non-ASCII digit, a mark that overflows to inf,
# a negative zero, a leading zero and a point with digits on one side only.
FUZZ_VALUES = GRID_VALUES + ("\u0663", "1e999", "-0", "050", "5.", ".5")


@pytest.mark.parametrize("refined", [False, True], ids=["canonical", "refined"])
def test_parse_matches_reference_row_checks(refined: bool) -> None:
    # A row is rejected with exactly the issues the reference checks write,
    # and a row they find no fault in becomes the record the public
    # constructor builds.
    rng = random.Random(14)
    extra = (GRID_REFINED_MARK,) if refined else ()
    # a mixed row, and an exam-only and a coursework-only one whose blank
    # mark cell may be given a mark on its zero-weight component
    bases = [GRID_BASE + extra, GRID_CASES[6] + extra, GRID_CASES[7] + extra]
    rows = []
    for _ in range(3000):
        row = list(rng.choice(bases))
        for column in rng.sample(range(len(row)), rng.choice((1, 2, 3))):
            row[column] = rng.choice(FUZZ_VALUES)
        rows.append(row)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(TRANSCRIPT_COLUMNS + ((REFINED_MARK_COLUMN,) if refined else ()))
    writer.writerows(rows)
    text.seek(0)
    if refined:
        records, marks, report = parse_refined_transcript_csv(text)
    else:
        (records, report), marks = parse_transcript_csv(text), None
    rejects: dict[int, list] = {}
    for issue in report.reject_issues:
        rejects.setdefault(issue.row_number, []).append(issue)

    accepted = iter(zip(records, marks or records))
    for row_number, row in enumerate(rows, start=1):
        explained: list = []
        cells = list(row)
        if refined:
            _refined_mark_issue(row_number, cells.pop(), explained)
        _row_issues(row_number, cells, explained)
        assert rejects.get(row_number, []) == explained, row
        if explained:
            continue
        record, mark = next(accepted)
        fields = (
            cells[0], cells[1], int(cells[2]), cells[3], float(cells[4]),
            float(cells[5]) if cells[5] else None, float(cells[6]) if cells[6] else None,
            int(cells[8]),
        )
        assert record == StudentModuleOutcome(*fields)
        if refined:
            assert mark == float(row[-1])
    assert next(accepted, None) is None
    assert 0 < report.accepted_count < len(rows)


def dirty_faculty_rows(refined: bool) -> list[list[str]]:
    """A generated three-department transcript, a few rows repeated and one
    cell in every twentieth row set to a FUZZ_VALUES cell."""
    spec = CohortSpec(
        departments=(
            DepartmentProfile("ART", 30, 4, (0, 10, 25, 55, 100)),
            DepartmentProfile("BIO", 30, 3, (0, 100)),
            DepartmentProfile("DES", 30, 3, (20, 60)),
        ),
        seed=5,
    )
    records = generate_cohort(spec)
    text = io.StringIO()
    write_transcript_csv(records, text, refined_marks=[r.module_mark - 1.5 for r in records] if refined else None)
    rows = list(csv.reader(io.StringIO(text.getvalue())))[1:]
    rng = random.Random(24)
    rows += [list(row) for row in rng.sample(rows, 20)]
    for row in rows[::20]:
        row[rng.randrange(len(row))] = rng.choice(FUZZ_VALUES)
    return rows


@pytest.mark.parametrize("refined", [False, True], ids=["canonical", "refined"])
def test_parsed_records_are_records_the_constructor_builds(refined: bool) -> None:
    # the parser builds its records unchecked, trusting its own row pass
    columns = TRANSCRIPT_COLUMNS + ((REFINED_MARK_COLUMN,) if refined else ())
    rows = grid_rows(refined) + dirty_faculty_rows(refined)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([columns, *rows])
    text.seek(0)
    records = (parse_refined_transcript_csv if refined else parse_transcript_csv)(text)[0]
    assert 800 < len(records) < len(rows)
    for record in records:
        assert type(record) is StudentModuleOutcome
        assert StudentModuleOutcome(*record) == record
    # the grid's "-0" exam mark is a negative zero inside the tuple
    negative = [r for r in records if r.student_id == "S1" and r.exam_mark == 0.0]
    assert len(negative) == 1 and math.copysign(1.0, negative[0][5]) == -1.0
