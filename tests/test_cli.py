"""Command-line surface: flows, formats, determinism, exit codes."""
from __future__ import annotations

import csv
import io
import json
import os
import stat
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from markprep.cli import main
from test_package import run_python

runner = CliRunner()


def run(*args: str, expect: int = 0) -> str:
    result = runner.invoke(main, list(args))
    assert result.exit_code == expect, result.output
    return result.output


@pytest.fixture()
def cohort(tmp_path: Path) -> Path:
    path = tmp_path / "cohort.csv"
    run("generate", "--seed", "7", "--students", "40", "--out", str(path))
    return path


@pytest.fixture()
def refined(cohort: Path) -> Path:
    run("refine", str(cohort))
    return cohort.with_suffix(".refined.csv")


def test_generate_writes_cohort_and_spec(tmp_path: Path) -> None:
    out = tmp_path / "c.csv"
    output = run("generate", "--seed", "3", "--students", "10", "--out", str(out))
    assert "300 records for 10 students" in output
    assert out.exists()
    spec = json.loads((tmp_path / "c.spec.json").read_text())
    assert spec["seed"] == 3
    assert spec["departments"][0]["student_count"] == 10


def test_generate_is_byte_deterministic(tmp_path: Path) -> None:
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run("generate", "--seed", "5", "--students", "15", "--out", str(a))
    run("generate", "--seed", "5", "--students", "15", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    run("generate", "--seed", "6", "--students", "15", "--out", str(c))
    assert c.read_bytes() != a.read_bytes()


def test_generate_from_spec_file(tmp_path: Path, cohort: Path) -> None:
    spec_path = cohort.with_suffix(".spec.json")
    other = tmp_path / "copy.csv"
    run("generate", "--spec", str(spec_path), "--out", str(other))
    assert other.read_bytes() == cohort.read_bytes()
    # --seed overrides the spec's seed, and the spec written records it
    reseeded, direct = tmp_path / "reseeded.csv", tmp_path / "direct.csv"
    run("generate", "--spec", str(spec_path), "--seed", "9", "--out", str(reseeded))
    run("generate", "--seed", "9", "--students", "40", "--out", str(direct))
    assert reseeded.read_bytes() == direct.read_bytes()
    assert json.loads(reseeded.with_suffix(".spec.json").read_text())["seed"] == 9


def test_validate_clean_cohort(cohort: Path) -> None:
    output = run("validate", str(cohort))
    assert "0 rejected" in output
    assert output.endswith("accepted\n")


def test_validate_rejects_bad_rows(tmp_path: Path) -> None:
    path = tmp_path / "bad.csv"
    path.write_text(
        "student_id,department,year_level,module_code,module_mark,exam_mark,"
        "cswk_mark,exam_weight,cswk_weight\n"
        "S1,CS,1,M1,150,75,75,50,50\n"
        "S2,CS,1,M2,60,58,62,50,50\n"
    )
    output = run("validate", str(path), expect=1)
    assert "DataEntry/Reject" in output
    assert "1 of 2 input rows accepted" in output


def with_row_replaced(path: Path, index: int, column: int, value: str, name: str) -> Path:
    """A copy of a transcript CSV with one cell of data row ``index`` replaced."""
    header, *rows = path.read_text().splitlines()
    cells = rows[index].split(",")
    cells[column] = value
    rows[index] = ",".join(cells)
    copy = path.with_name(name)
    copy.write_text("\n".join([header, *rows]) + "\n")
    return copy


def test_commands_count_rejected_rows_on_stderr(cohort: Path, refined: Path) -> None:
    # column 4 is module_mark, the last column the refined mark
    dirty = with_row_replaced(cohort, 3, 4, "150", "dirty.csv")
    line = f"1 of 1200 rows rejected while parsing {dirty}; run markprep validate for details\n"
    for command in ("stats", "refine"):
        result = runner.invoke(main, [command, str(dirty), "--format", "json"])
        assert result.exit_code == 0, result.output
        assert result.stderr == line
        assert "rejected" not in result.stdout
    # `validate` lists the issues on stdout instead
    result = runner.invoke(main, ["validate", str(dirty)])
    assert result.exit_code == 1
    assert result.stderr == ""
    spoiled = with_row_replaced(refined, 3, -1, "n/a", "spoiled.refined.csv")
    result = runner.invoke(main, ["evaluate", str(spoiled), "--trees", "5", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert result.stderr == (
        f"1 of 1200 rows rejected while parsing {spoiled}; run markprep validate for details\n"
    )
    assert json.loads(result.stdout)["auc_delta"] is not None
    # which `validate` lists, picking the refined schema from the header
    result = runner.invoke(main, ["validate", str(spoiled)])
    assert result.exit_code == 1
    assert "row 4 [refined_module_mark]" in result.stdout
    # clean input says nothing
    result = runner.invoke(main, ["stats", str(cohort)])
    assert result.stderr == ""


def without_year(path: Path, student_ids: set[str], year: str, name: str) -> Path:
    """A copy of a transcript CSV without the given students' rows of one year."""
    header, *rows = path.read_text().splitlines()
    kept = [row for row in rows if not (row.split(",")[0] in student_ids and row.split(",")[2] == year)]
    copy = path.with_name(name)
    copy.write_text("\n".join([header, *kept]) + "\n")
    return copy


def test_evaluate_counts_students_left_out_on_stderr(refined: Path) -> None:
    first = refined.read_text().splitlines()[1].split(",")[0]
    partial = without_year(refined, {first}, "3", "partial.refined.csv")
    result = runner.invoke(main, ["evaluate", str(partial), "--trees", "5", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert result.stderr == "1 of 40 students left out for lacking a module in year 1, 2 or 3\n"
    assert json.loads(result.stdout)["auc_delta"] is not None
    # predicting year 2 from year 1 needs no year-3 rows
    result = runner.invoke(main, ["evaluate", str(partial), "--trees", "5", "--predictor-years", "1", "--target-year", "2"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    # a complete cohort says nothing
    result = runner.invoke(main, ["evaluate", str(refined), "--trees", "5"])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    # the count comes before the coverage error
    students = {row.split(",")[0] for row in refined.read_text().splitlines()[1:]}
    sparse = without_year(refined, students - {first}, "2", "sparse.refined.csv")
    result = runner.invoke(main, ["evaluate", str(sparse), "--trees", "5"])
    assert result.exit_code == 1
    assert result.stderr == (
        "39 of 40 students left out for lacking a module in year 1, 2 or 3\n"
        "Error: only 1 students have complete year coverage; cannot evaluate\n"
    )


def test_validate_missing_file_is_usage_error() -> None:
    run("validate", "/nonexistent/input.csv", expect=2)


def test_validate_json_format(cohort: Path) -> None:
    output = run("validate", str(cohort), "--format", "json")
    doc = json.loads(output)
    assert set(doc["stages"]) == {"parse", "deduplicate", "missing_policy"}
    assert doc["accepted"] == doc["total_rows"]


CONFLICT = "conflicting duplicates for student 'S2', module 'M2', year 1"


@pytest.mark.parametrize(
    ("duplicate", "dedupe_issues"),
    [
        # conflicting copies: both rejected
        ("S2,CS,1,M2,65,63,67,50,50", [(2, "Reject", CONFLICT), (3, "Reject", CONFLICT)]),
        # an exact copy collapses onto the first, named by its CSV row
        ("S2,CS,1,M2,60,58,62,50,50", [(3, "Warn", "exact duplicate of record 2 collapsed")]),
    ],
)
def test_validate_names_csv_rows_in_every_stage(
    tmp_path: Path, duplicate: str, dedupe_issues: list
) -> None:
    # the parse rejects row 1, so the later stages see one record fewer
    path = tmp_path / "dirty.csv"
    path.write_text(
        "student_id,department,year_level,module_code,module_mark,exam_mark,"
        "cswk_mark,exam_weight,cswk_weight\n"
        "S1,CS,1,M1,150,75,75,50,50\n"
        "S2,CS,1,M2,60,58,62,50,50\n"
        f"{duplicate}\n"
        "S3,CS,1,M3,60,,62,50,50\n"
    )
    stages = json.loads(run("validate", str(path), "--format", "json", expect=1))["stages"]
    assert [i["row"] for i in stages["parse"]["issues"]] == [1]
    got = [(i["row"], i["severity"], i["detail"]) for i in stages["deduplicate"]["issues"]]
    assert got == dedupe_issues
    assert [(i["row"], i["field"]) for i in stages["missing_policy"]["issues"]] == [(4, "exam_mark")]
    text = run("validate", str(path), expect=1)
    assert f"  row {dedupe_issues[-1][0]} [row] DataIntegration" in text
    assert "  row 4 [exam_mark] Missing/Warn" in text


def test_validate_flag_vs_drop_policy(tmp_path: Path) -> None:
    path = tmp_path / "gappy.csv"
    path.write_text(
        "student_id,department,year_level,module_code,module_mark,exam_mark,"
        "cswk_mark,exam_weight,cswk_weight\n"
        "S1,CS,1,M1,60,,62,50,50\n"
    )
    flch = run("validate", str(path), "--missing-policy", "flag")
    assert "Missing/Warn" in flch
    dropped = run("validate", str(path), "--missing-policy", "drop", expect=1)
    assert "Missing/Reject" in dropped
    assert "0 of 1 input rows accepted" in dropped


def test_stats_text_column_order(cohort: Path) -> None:
    output = run("stats", str(cohort))
    header = output.splitlines()[0]
    assert header.split() == ["Department", "Exam", "Coursework", "Mixed"]
    assert "exam_vs_coursework" in output


def test_stats_json_shape(cohort: Path) -> None:
    doc = json.loads(run("stats", str(cohort), "--format", "json"))
    assert doc["variant"] == "pooled"
    assert "CS" in doc["group_means"]
    assert set(doc["t_tests"]) == {
        "exam_vs_coursework", "mixed_vs_exam", "mixed_vs_coursework",
    }
    # one department only: every comparison needs two to run
    assert all(v == "not applicable" for v in doc["t_tests"].values())


def test_refine_writes_augmented_csv_and_model(cohort: Path) -> None:
    output = run("refine", str(cohort))
    assert "linear fit" in output and "quadratic fit" in output
    refined = cohort.with_suffix(".refined.csv")
    header = refined.read_text().splitlines()[0]
    assert header.endswith(",refined_module_mark")
    model = json.loads(cohort.with_suffix(".model.json").read_text())
    assert set(model) == {"b0", "b1", "b2", "model_kind", "n_observations", "r_squared"}


def test_refine_reference_coefficients_are_pinned(cohort: Path, tmp_path: Path) -> None:
    model_out = tmp_path / "pinned.json"
    run("refine", str(cohort), "--reference-coefficients", "--model-out", str(model_out))
    model = json.loads(model_out.read_text())
    assert model["b1"] == 12.77
    assert model["b2"] == -5.873
    assert model["b0"] == 0.0


def test_refine_is_deterministic(cohort: Path, tmp_path: Path) -> None:
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    first = run("refine", str(cohort), "--out", str(a))
    second = run("refine", str(cohort), "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert first.replace(str(a), "X") == second.replace(str(b), "X")


def test_evaluate_from_fixture_prints_published_accuracies() -> None:
    output = run("evaluate", "--from-fixture")
    assert "0.5211" in output
    assert "0.6232" in output
    assert "Correct class" in output
    doc = json.loads(run("evaluate", "--from-fixture", "--format", "json"))
    assert doc["with_car"]["grand_total"] == 284
    assert doc["without_car"]["classification_accuracy"] == pytest.approx(148 / 284)


def test_evaluate_from_fixture_rejects_csv() -> None:
    result = runner.invoke(main, ["evaluate", "--from-fixture", "--format", "csv"])
    assert result.exit_code == 2, result.output
    assert "text or json" in result.output


def test_evaluate_from_fixture_takes_no_input() -> None:
    result = runner.invoke(main, ["evaluate", "nonexistent.csv", "--from-fixture"])
    assert result.exit_code == 2, result.output
    assert "takes no INPUT_CSV" in result.output


def test_evaluate_rejects_unrefined_schema(cohort: Path) -> None:
    run("evaluate", str(cohort), expect=2)


def test_evaluate_runs_and_is_deterministic(refined: Path) -> None:
    args = ("evaluate", str(refined), "--trees", "12", "--seed", "4")
    first = run(*args)
    assert "with ratio attribute" in first
    assert "AUC delta" in first
    assert run(*args) == first


def test_evaluate_json_and_csv_formats(refined: Path) -> None:
    doc = json.loads(run("evaluate", str(refined), "--trees", "8", "--format", "json"))
    assert set(doc) == {"with_car", "without_car", "auc_delta"}
    csv_text = run("evaluate", str(refined), "--trees", "8", "--format", "csv")
    assert csv_text.splitlines()[0] == "metric,with_car,without_car"


def test_evaluate_config_matches_flags(refined: Path, tmp_path: Path) -> None:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trees": 9, "seed": 31}))
    via_config = run("evaluate", str(refined), "--config", str(config))
    via_flags = run("evaluate", str(refined), "--trees", "9", "--seed", "31")
    assert via_config == via_flags
    # explicit flags beat config values
    overridden = run("evaluate", str(refined), "--config", str(config), "--seed", "32")
    assert overridden == run("evaluate", str(refined), "--trees", "9", "--seed", "32")


def test_unknown_config_key_is_usage_error(refined: Path, tmp_path: Path) -> None:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"tres": 9}))
    result = runner.invoke(main, ["evaluate", str(refined), "--config", str(config)])
    assert result.exit_code == 2
    assert "tres" in result.output


def test_report_rerenders_saved_evaluation(refined: Path, tmp_path: Path) -> None:
    saved = tmp_path / "eval.json"
    run("evaluate", str(refined), "--trees", "8", "--format", "json", "--output", str(saved))
    text = run("report", str(saved))
    assert "AUC delta" in text
    assert "Correct class" in text
    csv_text = run("report", str(saved), "--format", "csv")
    assert csv_text.splitlines()[0] == "metric,with_car,without_car"


def band_without_true_rows(report: dict) -> str:
    confusion = report["confusion"]
    return next(name for name, row in zip(confusion["class_order"], confusion["cells"]) if not sum(row))


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda doc: doc["with_car"].pop("auc"), "'auc'"),
        (lambda doc: doc["with_car"].update(error_rate=0.5, auc=0.9), "error_rate"),
        (lambda doc: doc.update(auc_delta=doc["auc_delta"] + 0.1), "auc_delta"),
        (lambda doc: doc["with_car"]["confusion"].update(class_order=["FAIL"] * 6), "class_order"),
        (lambda doc: doc["with_car"]["confusion"]["cells"][0].__setitem__(0, 1.9), "cells entry"),
        (lambda doc: doc["with_car"].update(auc_average=5), "auc_average"),
        (lambda doc: doc["without_car"].update(classification_accuracy="0.5"), "classification_accuracy"),
        (lambda doc: doc.update(auc_gain=0.1), "auc_gain"),
        (lambda doc: doc["with_car"].update(classification_accuracy=0.99), "classification_accuracy"),
        (lambda doc: doc["with_car"].update(auc=0.9999, error_rate=1.0 - 0.9999), "does not match"),
        (lambda doc: doc["with_car"].update(per_class_auc={}), "per_class_auc"),
        (lambda doc: doc["with_car"]["per_class_auc"].update(FIRST=1.5), "per_class_auc"),
        (lambda doc: doc["with_car"]["per_class_auc"].update({band_without_true_rows(doc["with_car"]): 0.5}), "per_class_auc"),
    ],
    ids=[
        "missing-auc", "error-rate-not-1-minus-auc", "inconsistent-auc-delta", "repeated-band",
        "fractional-cell", "numeric-auc-average", "string-accuracy", "unknown-key",
        "accuracy-not-from-matrix", "auc-not-from-per-band-aucs", "empty-per-class-auc",
        "per-band-auc-above-one", "auc-for-band-without-true-rows",
    ],
)
def test_report_rejects_malformed_saved_evaluation(
    refined: Path, tmp_path: Path, edit, message: str
) -> None:
    saved = tmp_path / "eval.json"
    run("evaluate", str(refined), "--trees", "8", "--format", "json", "--output", str(saved))
    doc = json.loads(saved.read_text())
    edit(doc)
    saved.write_text(json.dumps(doc))
    result = runner.invoke(main, ["report", str(saved)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert message in result.output


def test_report_rerenders_saved_model(cohort: Path, tmp_path: Path) -> None:
    model_out = tmp_path / "model.json"
    run("refine", str(cohort), "--model-out", str(model_out))
    text = run("report", str(model_out))
    assert "b1 =" in text


def two_department_copy(cohort: Path) -> Path:
    """The cohort with every other student moved to a second department."""
    lines = cohort.read_text().splitlines()
    moved = [
        line.replace(",CS,", ",MATH,", 1) if line.split(",")[0][-1] in "13579" else line
        for line in lines[1:]
    ]
    path = cohort.with_name("two_departments.csv")
    path.write_text("\n".join([lines[0], *moved]) + "\n")
    return path


def test_csv_reports_quote_department_names(cohort: Path, tmp_path: Path) -> None:
    name = 'Eng, "Civil"'
    rows = list(csv.reader(cohort.open(newline="")))
    for row in rows[1:]:
        if row[0][-1] in "13579":
            row[1] = name
    source = tmp_path / "quoted.csv"
    with source.open("w", newline="") as stream:
        csv.writer(stream, lineterminator="\n").writerows(rows)
    model_out = tmp_path / "model.json"
    reports = [
        run("stats", str(source), "--format", "csv"),
        run("refine", str(source), "--per-department", "--model-out", str(model_out), "--format", "csv"),
        run("report", str(model_out), "--format", "csv"),
    ]
    for text in reports:
        read = [row for row in csv.reader(io.StringIO(text)) if row]
        assert {len(row) for row in read} == {7}
        assert name in [row[0] for row in read]


@pytest.mark.parametrize("scope", [(), ("--per-department",)], ids=["pooled", "per-department"])
def test_report_renders_saved_model_like_refine(cohort: Path, tmp_path: Path, scope) -> None:
    source = two_department_copy(cohort)
    model_out = tmp_path / "model.json"
    refine_csv = run("refine", str(source), *scope, "--model-out", str(model_out), "--format", "csv")
    assert len(refine_csv.splitlines()) == (3 if scope else 2)
    assert run("report", str(model_out), "--format", "csv") == refine_csv
    assert run("report", str(model_out), "--format", "json") == model_out.read_text()


def test_report_rejects_unrecognized_json(tmp_path: Path) -> None:
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}')
    for format in ("text", "json", "csv"):
        output = run("report", str(path), "--format", format, expect=2)
        assert "expected an `evaluate --format json` report or a `refine` model file" in output


MODEL = {"b0": 1.5, "b1": 12.0, "b2": -5.0, "r_squared": 0.5, "model_kind": "quadratic", "n_observations": 9}


@pytest.mark.parametrize("format", ["text", "json", "csv"])
@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ({"b0": 1}, "missing model fields"),
        ({"CS": {"b0": 1}}, "missing model fields"),
        ({**MODEL, "b1": True}, "b1 must be a finite number, got True"),
        ({"CS": {**MODEL, "b1": "12"}}, "b1 must be a finite number, got '12'"),
        ({**MODEL, "b1": float("nan")}, "b1 must be a finite number, got nan"),
        ({**MODEL, "n_observations": 2.9}, "n_observations must be an integer >= 0, got 2.9"),
    ],
    ids=["pooled", "per-department", "bool-b1", "string-b1", "nan-b1", "fractional-count"],
)
def test_report_rejects_malformed_saved_model(tmp_path: Path, doc: dict, message: str, format: str) -> None:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["report", str(path), "--format", format])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert message in result.output


def test_output_flag_writes_file_instead_of_stdout(cohort: Path, tmp_path: Path) -> None:
    target = tmp_path / "report.txt"
    output = run("stats", str(cohort), "--output", str(target))
    assert output == ""
    assert "Department" in target.read_text()


@pytest.mark.parametrize(
    ("args", "label"),
    [
        (("generate", "--out", "{missing}/c.csv"), "cohort CSV"),
        (("generate", "--out", "{tmp}/c.csv", "--spec-out", "{missing}/c.spec.json"), "cohort spec"),
        (("validate", "{cohort}", "--output", "{missing}/r.txt"), "report"),
        (("stats", "{cohort}", "--output", "{missing}/r.txt"), "report"),
        (("refine", "{cohort}", "--out", "{missing}/r.csv"), "refined CSV"),
        (("refine", "{cohort}", "--out", "{tmp}/r.csv", "--model-out", "{missing}/m.json"), "model"),
        (("refine", "{cohort}", "--out", "{tmp}/r.csv", "--output", "{missing}/r.txt"), "report"),
        (("evaluate", "--from-fixture", "--output", "{missing}/r.txt"), "report"),
    ],
    ids=["generate-out", "generate-spec-out", "validate-output", "stats-output", "refine-out",
         "refine-model-out", "refine-output", "evaluate-output"],
)
def test_unwritable_output_is_usage_error(cohort: Path, tmp_path: Path, args, label: str) -> None:
    missing = tmp_path / "no-such-dir"
    paths = {"missing": missing, "tmp": tmp_path, "cohort": cohort}
    before = sorted(tmp_path.iterdir())
    output = run(*[arg.format(**paths) for arg in args], expect=2)
    target = next(arg.format(**paths) for arg in args if arg.startswith("{missing}"))
    assert f"cannot write {label} {target}: No such file or directory" in output
    assert "Traceback" not in output
    # an output written before the failing one is not left behind either
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "args",
    [
        ("generate", "--out", "{out}", "--spec-out", "{second}"),
        ("refine", "{cohort}", "--out", "{out}", "--model-out", "{second}"),
    ],
    ids=["generate", "refine"],
)
def test_failed_output_keeps_existing_file(cohort: Path, tmp_path: Path, args) -> None:
    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier bytes\n")
    paths = {"cohort": cohort, "out": out, "second": tmp_path / "no-such-dir" / "second.json"}
    run(*[arg.format(**paths) for arg in args], expect=2)
    assert out.read_bytes() == b"earlier bytes\n"
    # once every output can be written, both are replaced, with the mode
    # a newly created file gets
    paths["second"] = tmp_path / "second.json"
    run(*[arg.format(**paths) for arg in args])
    assert out.read_bytes().startswith(b"student_id,")
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(paths["second"].stat().st_mode) == 0o666 & ~umask
    assert not [path for path in tmp_path.iterdir() if path.name.startswith(".")]


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (("generate", "--students", "5", "--out", "{same}", "--spec-out", "{same}"),
         "cannot write cohort spec {same}: the cohort CSV goes to the same file"),
        (("generate", "--students", "5", "--out", "{same}", "--spec-out", "{tmp}/../{tmp.name}/same.csv"),
         "cannot write cohort spec {tmp}/../{tmp.name}/same.csv: the cohort CSV goes to the same file"),
        (("refine", "{cohort}", "--out", "{same}", "--model-out", "{same}"),
         "cannot write model {same}: the refined CSV goes to the same file"),
        (("refine", "{cohort}", "--out", "{same}", "--model-out", "{same}", "--output", "{same}"),
         "cannot write model {same}: the refined CSV goes to the same file"),
        (("refine", "{cohort}", "--model-out", "{tmp}/m.json", "--output", "{tmp}/m.json"),
         "cannot write report {tmp}/m.json: the model goes to the same file"),
        # the refined CSV's default path
        (("refine", "{cohort}", "--model-out", "{tmp}/cohort.refined.csv"),
         "cannot write model {tmp}/cohort.refined.csv: the refined CSV goes to the same file"),
    ],
    ids=["generate", "generate-resolved", "refine", "refine-report", "refine-model-report", "refine-default"],
)
def test_outputs_naming_one_file_are_usage_error(cohort: Path, args, message: str) -> None:
    tmp = cohort.parent
    paths = {"cohort": cohort, "same": tmp / "same.csv", "tmp": tmp}
    before = sorted(tmp.iterdir())
    output = run(*[arg.format(**paths) for arg in args], expect=2)
    assert message.format(**paths) in output
    assert sorted(tmp.iterdir()) == before


def test_outputs_may_share_a_device(cohort: Path) -> None:
    # a device is written in turn, not replaced, so nothing is lost
    run("refine", str(cohort), "--out", os.devnull, "--model-out", os.devnull, "--output", os.devnull)


@pytest.mark.parametrize("command", ["validate", "stats", "refine", "evaluate"])
def test_cell_past_the_csv_field_limit_is_usage_error(cohort: Path, refined: Path, command: str) -> None:
    # column 0 is student_id; csv.field_size_limit() is 131,072 by default
    source = refined if command == "evaluate" else cohort
    path = with_row_replaced(source, 2, 0, "S" * 200_000, "long.csv")
    output = run(command, str(path), expect=2)
    assert f"cannot read {path}: row 3: field larger than field limit" in output
    assert "Traceback" not in output


def test_header_past_the_csv_field_limit_is_usage_error(cohort: Path) -> None:
    header, rest = cohort.read_text().split("\n", 1)
    path = cohort.with_name("long-header.csv")
    path.write_text("x" * 200_000 + header + "\n" + rest)
    output = run("validate", str(path), expect=2)
    assert f"cannot read {path}: header row: field larger than field limit" in output


def test_nul_byte_is_read_or_refused_cleanly(cohort: Path) -> None:
    path = with_row_replaced(cohort, 1, 0, "S\x00", "nul.csv")
    if sys.version_info < (3, 11):
        output = run("validate", str(path), expect=2)
        assert f"cannot read {path}: row 2: line contains NUL" in output
    else:
        # from Python 3.11 the CSV reader takes a NUL as text
        output = run("validate", str(path))
        assert "final: 1200 of 1200 input rows accepted" in output


def test_byte_order_mark_is_not_part_of_the_header(cohort: Path) -> None:
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
    path = cohort.with_name("bom.csv")
    path.write_bytes(b"\xef\xbb\xbf" + cohort.read_bytes())
    assert run("validate", str(path)) == run("validate", str(cohort)).replace(str(cohort), str(path))


def test_refine_keeps_a_quoted_carriage_return(cohort: Path) -> None:
    # column 3 is module_code
    path = with_row_replaced(cohort, 0, 3, '"ZZ7\r"', "cr.csv")
    run("refine", str(path))
    refined = path.with_suffix(".refined.csv").read_bytes()
    assert refined.count(b'"ZZ7\r"') == 1
    assert refined.count(b"\r") == 1


@pytest.mark.parametrize("command", ["validate", "stats", "refine", "evaluate", "report"])
def test_non_utf8_input_is_usage_error(cohort: Path, refined: Path, tmp_path: Path, command: str) -> None:
    if command == "report":
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"model_kind": "quadratic\xff"}')
    else:
        header, first, rest = (refined if command == "evaluate" else cohort).read_bytes().split(b"\n", 2)
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join([header, b"\xff" + first, rest]))
    output = run(command, str(path), expect=2)
    assert f"cannot read {path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff" in output
    assert "Traceback" not in output
    if command != "report":
        assert f"in position {len(header) + 1}:" in output
        # behind a byte-order mark the position is still the byte's offset in the file
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + b"\n".join([header, b"\xff" + first, rest]))
        output = run(command, str(path), expect=2)
        assert f"cannot read {path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position {len(header) + 4}:" in output


@pytest.mark.parametrize(
    "args",
    [
        ("validate", "{cohort}"),
        ("stats", "{cohort}"),
        ("--help",),
        ("evaluate", "--help"),
        ("evaluate", "--from-fixture"),
        ("evaluate", "--from-fixture", "--format", "json"),
        ("generate", "--students", "10", "--out", "{dir}/generated.csv"),
        ("report", "{dir}/cohort.model.json"),
        ("report", "{dir}/evaluation.json"),
        ("refine", "{cohort}", "--format", "json", "--out", "{dir}/probe.refined.csv", "--model-out", "{dir}/probe.model.json"),
        ("refine", "{cohort}", "--per-department", "--format", "json", "--out", "{dir}/probe.refined.csv",
         "--model-out", "{dir}/probe.model.json"),
        ("evaluate", "{dir}/cohort.refined.csv", "--trees", "3"),
        ("evaluate", "{dir}/cohort.refined.csv", "--trees", "3", "--format", "json"),
    ],
    ids=[
        "validate", "stats", "help", "evaluate-help", "evaluate-fixture", "evaluate-fixture-json",
        "generate", "report-model", "report-evaluation", "refine-json", "refine-per-department-json",
        "evaluate", "evaluate-json",
    ],
)
def test_command_runs_without_numpy(cohort: Path, refined: Path, args) -> None:
    evaluation = refined.with_name("evaluation.json")
    run("evaluate", str(refined), "--trees", "3", "--format", "json", "--output", str(evaluation))
    probe = (
        "import atexit, json, sys\n"
        "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))\n"
        "from markprep.cli import main\n"
        "main(sys.argv[1:], prog_name='markprep')\n"
    )
    result = run_python("-c", probe, *[arg.format(cohort=cohort, dir=cohort.parent) for arg in args])
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stderr.splitlines()[-1]))
    assert "numpy" not in loaded
    # each command loads only what it runs: the t-tests for `stats` alone,
    # the published tables for `evaluate --from-fixture` alone
    assert ("markprep.stats" in loaded) == (args[0] == "stats")
    assert ("markprep.fixtures" in loaded) == ("--from-fixture" in args)


def test_bad_flag_value_is_usage_error(cohort: Path, refined: Path) -> None:
    run("validate", str(cohort), "--missing-policy", "purge", expect=2)
    run("stats", str(cohort), "--variant", "bayes", expect=2)
    run("evaluate", str(refined), "--jobs", "2", expect=2)
    run("evaluate", str(refined), "--test-fraction", "1.5", expect=2)
    run("evaluate", str(refined), "--test-fraction", "nan", expect=2)
    # a predictor year may be neither the label's own year nor repeated
    run("evaluate", str(refined), "--predictor-years", "1,3", "--target-year", "3", expect=2)
    run("evaluate", str(refined), "--predictor-years", "1,2,2", expect=2)
    # three features with the default predictor years
    run("evaluate", str(refined), "--trees", "3", "--max-features", "3")
    run("evaluate", str(refined), "--max-features", "4", expect=2)
    # a fraction inside (0, 1) that leaves no test row is a data failure
    run("evaluate", str(refined), "--test-fraction", "0.001", expect=1)
    # a pinned model is never fitted per department, and nothing is written
    out, model_out = cohort.with_name("pinned.refined.csv"), cohort.with_name("pinned.model.json")
    output = run(
        "refine", str(cohort), "--reference-coefficients", "--per-department",
        "--out", str(out), "--model-out", str(model_out), expect=2,
    )
    assert "--reference-coefficients and --per-department are exclusive" in output
    assert not out.exists() and not model_out.exists()
    # seeds and years are integers >= 0; generate names the flag like evaluate
    for args in (["--seed", "-1"], ["--target-year", "-2"]):
        output = run("evaluate", str(refined), *args, expect=2)
        assert f"Invalid value for '{args[0]}': {args[1]} is not in the range x>=0." in output
    output = run("evaluate", str(refined), "--predictor-years", "-1,2", expect=2)
    assert "--predictor-years -1,2 names a negative year; years are integers >= 0" in output
    output = run("generate", "--seed", "-1", "--out", str(cohort.with_name("negative.csv")), expect=2)
    assert "Invalid value for '--seed': -1 is not in the range x>=0." in output
    assert not cohort.with_name("negative.csv").exists()
    # the forest sizes are integers >= 1, and the error names the flag
    for flag in ("--trees", "--min-leaf", "--max-features"):
        output = run("evaluate", str(refined), flag, "0", expect=2)
        assert f"Invalid value for '{flag}': 0 is not in the range x>=1." in output
    # a cohort has at least one student, and the error names the flag
    for value in ("0", "-3"):
        few = cohort.with_name(f"students{value}.csv")
        output = run("generate", "--students", value, "--out", str(few), expect=2)
        assert f"Invalid value for '--students': {value} is not in the range x>=1." in output
        assert not few.exists()
    # a spec fixes the student count, and nothing is written
    spec, spec_out = cohort.with_suffix(".spec.json"), cohort.with_name("five.csv")
    output = run("generate", "--spec", str(spec), "--students", "5", "--out", str(spec_out), expect=2)
    assert "--students applies only to the built-in profile" in output
    assert not spec_out.exists()
    output = run("evaluate", expect=2)
    assert "INPUT_CSV is required unless --from-fixture is given" in output
    output = run("evaluate", str(refined), "--predictor-years", "a,b", expect=2)
    assert "--predictor-years must be comma-separated integers, got 'a,b'" in output
    output = run("evaluate", str(refined), "--predictor-years", ",", expect=2)
    assert "--predictor-years must not be empty" in output
    # a config file that is missing, not JSON, or not a JSON object
    config = cohort.with_name("config.json")
    for text, message in ((None, "cannot read config"), ("{", "is not valid JSON"), ("[]", "must hold a JSON object")):
        if text is not None:
            config.write_text(text)
        output = run("evaluate", str(refined), "--config", str(config), expect=2)
        assert message in output


@pytest.mark.parametrize(
    ("command", "config"),
    [
        ("validate", {"missing_policy": "purge"}),
        ("stats", {"format": "xml"}),
        ("stats", {"variant": "bayes"}),
        ("refine", {"clamp": "maybe"}),
        ("evaluate", {"test_fraction": 1.5}),
        ("evaluate", {"predictor_years": "1,3"}),
        ("evaluate", {"predictor_years": "1,2,2"}),
        ("evaluate", {"banding": []}),
        ("evaluate", {"max_features": 4}),
        ("evaluate", {"banding": [["0", "Fail"], [50, "First"]]}),
        ("evaluate", {"banding": [[False, "Fail"], [50, "First"]]}),
        ("evaluate", {"banding": [[0, "Fail"], [float("nan"), "First"]]}),
        # click would truncate these to an int or pass NaN through its range
        ("evaluate", {"trees": True}),
        ("evaluate", {"trees": 4.7}),
        ("evaluate", {"seed": 3.9}),
        ("evaluate", {"test_fraction": float("nan")}),
        # a number where click expects a boolean or text, or a list where
        # it expects a number, crashed inside click
        ("evaluate", {"no_bootstrap": 1}),
        ("evaluate", {"format": 5}),
        ("evaluate", {"trees": [4]}),
        ("evaluate", {"test_fraction": [0.5]}),
        ("refine", {"reference_coefficients": True, "per_department": True}),
        ("evaluate", {"seed": -1}),
        ("evaluate", {"target_year": -2}),
        ("evaluate", {"predictor_years": "-1,2"}),
        ("evaluate", {"trees": 0}),
        ("evaluate", {"min_leaf": 0}),
        ("evaluate", {"max_features": 0}),
        ("generate", {"students": 0}),
        ("generate", {"students": -3}),
    ],
)
def test_bad_config_value_is_usage_error(
    cohort: Path, refined: Path, tmp_path: Path, command: str, config: dict
) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    source = refined if command == "evaluate" else cohort
    # generate reads no transcript; it is given an output path instead
    target = ["--out", str(tmp_path / "new.csv")] if command == "generate" else [str(source)]
    result = runner.invoke(main, [command, *target, "--config", str(path)])
    assert result.exit_code == 2, result.output
    for key in config:
        assert key in result.output
        # the message names the config key, never a flag the user did not give
        assert "--" + key.replace("_", "-") not in result.output
    if config == {"max_features": 4}:
        assert "config key max_features 4 exceeds the feature count 3" in result.output
    if config in ({"seed": -1}, {"target_year": -2}):
        assert f"{next(iter(config.values()))} is not in the range x>=0." in result.output
    if config in ({"trees": 0}, {"min_leaf": 0}, {"max_features": 0}):
        assert "0 is not in the range x>=1." in result.output
    if command == "generate":
        assert f"{config['students']} is not in the range x>=1." in result.output
        assert not (tmp_path / "new.csv").exists()


def test_evaluate_config_banding_scheme(refined: Path, tmp_path: Path) -> None:
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"banding": [[0, "Fail"], [50, "First"]]}))
    args = ("evaluate", str(refined), "--trees", "8", "--format", "json")
    doc = json.loads(run(*args, "--config", str(config)))
    assert doc != json.loads(run(*args))
    # only the two configured bands can be true classes
    matrix = doc["with_car"]["confusion"]
    row_totals = dict(zip(matrix["class_order"], map(sum, matrix["cells"])))
    assert {band for band, total in row_totals.items() if total} <= {"FAIL", "FIRST"}


@pytest.mark.parametrize(
    ("edit", "field"),
    [
        (lambda spec: spec["departments"][0].update(student_count="abc"), "student_count"),
        (lambda spec: spec.update(seed="x"), "seed"),
        (lambda spec: spec.update(departments=5), "departments"),
        (lambda spec: spec["departments"][0].update(cw_weight_classes=[0, 10.5]), "cw_weight_classes"),
        (lambda spec: spec.update(noise_sd="big"), "noise_sd"),
    ],
    ids=["count-abc", "seed-x", "departments-5", "weight-10.5", "noise-big"],
)
def test_generate_bad_spec_value_is_usage_error(cohort: Path, tmp_path: Path, edit, field: str) -> None:
    spec = json.loads(cohort.with_suffix(".spec.json").read_text())
    edit(spec)
    path = tmp_path / "bad.spec.json"
    path.write_text(json.dumps(spec))
    result = runner.invoke(main, ["generate", "--spec", str(path), "--out", str(tmp_path / "x.csv")])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert field in result.output
    assert not (tmp_path / "x.csv").exists()


def test_config_flag_values_parse_like_flags(tmp_path: Path) -> None:
    # a low coursework-only mark refines below zero unless clamped
    path = tmp_path / "low.csv"
    path.write_text(
        "student_id,department,year_level,module_code,module_mark,exam_mark,"
        "cswk_mark,exam_weight,cswk_weight\n"
        "S1,CS,1,M1,2,,2,0,100\n"
        "S2,CS,1,M2,60,60,,100,0\n"
    )
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"clamp": "no"}))
    plain, via_config = tmp_path / "plain.csv", tmp_path / "config.csv"
    run("refine", str(path), "--reference-coefficients", "--out", str(plain))
    run("refine", str(path), "--reference-coefficients", "--out", str(via_config),
        "--config", str(config))
    assert ",-4.8" in plain.read_text()
    assert via_config.read_bytes() == plain.read_bytes()
