"""Package surface: the public export list, loaded lazily."""
from __future__ import annotations

import ast
import dataclasses
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import markprep
import markprep.evaluation
from test_cli_golden import write_dirty_copy

SRC = Path(markprep.__file__).resolve().parent.parent


def run_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """A fresh interpreter, importing the same markprep as this test run."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
        timeout=120,
    )


def test_all_names_resolve_and_are_sorted() -> None:
    missing = [name for name in markprep.__all__ if not hasattr(markprep, name)]
    assert missing == []
    assert markprep.__all__ == sorted(set(markprep.__all__))


@pytest.mark.parametrize("name", markprep.__all__)
def test_from_import_works_for_every_public_name(name: str) -> None:
    namespace: dict = {}
    exec(f"from markprep import {name}", namespace)
    assert namespace[name] is getattr(markprep, name)


def test_dir_lists_every_public_name() -> None:
    assert set(markprep.__all__) <= set(dir(markprep))


def test_unknown_attribute_is_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(markprep, "no_such_name")
    with pytest.raises(ImportError):
        exec("from markprep import no_such_name", {})


def test_moved_constant_keeps_its_old_home() -> None:
    assert markprep.evaluation.DEFAULT_TEST_FRACTION == markprep.DEFAULT_TEST_FRACTION == 0.6995


def test_import_loads_no_numpy() -> None:
    probe = run_python("-c", "import sys, markprep; print('numpy' in sys.modules)")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "False\n"


def test_no_module_imports_numpy() -> None:
    modules = sorted((SRC / "markprep").glob("*.py"))
    assert len(modules) >= 12
    found = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{module.name}:{node.lineno}" for name in names if name.split(".")[0] == "numpy"]
    assert found == []


def test_version_runs_from_source_checkout() -> None:
    result = run_python("-m", "markprep", "--version")
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith(f"version {markprep.__version__}\n")
    assert markprep.__version__ == "0.1.0"


def test_pyproject_version_matches_package() -> None:
    # a regex, since tomllib is new in Python 3.11
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match is not None
    assert match.group(1) == markprep.__version__


def test_console_script_is_the_process_entry_point() -> None:
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^markprep = "markprep.__main__:run"$', pyproject, re.MULTILINE)


@pytest.mark.parametrize(
    ("call", "entry_point"),
    [("from markprep.__main__ import run; run()", True), ("from markprep.cli import main; main()", False)],
    ids=["run", "main"],
)
def test_only_the_entry_point_freezes_the_heap(call: str, entry_point: bool) -> None:
    # and only the entry point switches the cyclic collector off.  The
    # count is compared with its value at start-up, which some interpreters
    # (CPython 3.12.1) start above 0.
    probe = (
        "import atexit, gc, sys\n"
        "frozen = gc.get_freeze_count()\n"
        "sys.argv[1:] = ['--version']\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > frozen, gc.isenabled(), file=sys.stderr))\n"
        f"{call}\n"
    )
    result = run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stderr == f"{entry_point} {not entry_point}\n"


# A command run through the entry point, with the count of unreachable
# objects a full collection finds once the command has finished.
GARBAGE_PROBE = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: print('cyclic garbage', gc.collect(), file=sys.stderr))\n"
    "from markprep.__main__ import run\n"
    "run()\n"
)


def cyclic_garbage(directory: Path, *args: str, expect: int = 0) -> int:
    result = run_python("-c", GARBAGE_PROBE, *args, cwd=directory)
    assert result.returncode == expect, result.stderr
    label, count = result.stderr.splitlines()[-1].rsplit(" ", 1)
    assert label == "cyclic garbage", result.stderr
    return int(count)


def garbage_per_command(directory: Path, students: int) -> dict[str, int]:
    """Each command's cyclic garbage on a dirty generated transcript."""
    directory.mkdir()
    garbage = {"generate": cyclic_garbage(directory, "generate", "--students", str(students), "--seed", "17")}
    write_dirty_copy(directory / "cohort.csv")
    header, *lines = (directory / "cohort.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines]
    for cells in rows:
        cells[4] = "101"  # module_mark: every row is rejected
    (directory / "rejected.csv").write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    for fmt in ("text", "json"):
        garbage[f"validate.{fmt}"] = cyclic_garbage(directory, "validate", "dirty.csv", "--format", fmt, expect=1)
        garbage[f"stats.{fmt}"] = cyclic_garbage(directory, "stats", "dirty.csv", "--format", fmt)
        for scope, flags in (("pooled", ()), ("per_department", ("--per-department",))):
            garbage[f"refine.{scope}.{fmt}"] = cyclic_garbage(
                directory, "refine", "dirty.csv", *flags, "--format", fmt,
                "--out", f"{scope}.refined.csv", "--model-out", f"{scope}.model.json",
            )
        garbage[f"evaluate.{fmt}"] = cyclic_garbage(
            directory, "evaluate", "pooled.refined.csv", "--trees", "5", "--format", fmt, "--output", f"evaluation.{fmt}"
        )
    for fmt in ("text", "json"):
        garbage[f"report.{fmt}"] = cyclic_garbage(directory, "report", "evaluation.json", "--format", fmt)
    garbage["usage_error"] = cyclic_garbage(directory, "evaluate", "pooled.refined.csv", "--max-features", "9", expect=2)
    garbage["data_error"] = cyclic_garbage(directory, "stats", "rejected.csv", expect=1)
    return garbage


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path: Path) -> None:
    # The entry point runs every command with the cyclic collector off, so
    # the only cycles it may leave are a fixed few, whatever the input size.
    # Each size runs its commands in order, the two sizes side by side.
    with ThreadPoolExecutor(max_workers=2) as pool:
        small, large = pool.map(lambda students: garbage_per_command(tmp_path / str(students), students), (60, 600))
    assert small == large
    assert max(small.values()) <= 100, small


def test_only_the_parser_builds_unchecked_records() -> None:
    # tuple.__new__ skips StudentModuleOutcome's checks; besides the checked
    # __new__ itself, only the parser, which has checked every cell, uses it
    calls, references = [], 0
    for module in sorted((SRC / "markprep").glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "__new__" and getattr(node.value, "id", None) == "tuple":
                references += 1
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "tuple.__new__":
                calls.append((module.name, ast.unparse(node.args[0])))
    assert sorted(calls) == [("core.py", "cls"), ("ingest.py", "StudentModuleOutcome")]
    assert references == len(calls)  # and no alias of it


def test_no_record_pass_reads_car(monkeypatch: pytest.MonkeyPatch) -> None:
    # the record loops read a weight's ratio from core.COURSEWORK_RATIOS;
    # StudentModuleOutcome.car is kept for library callers only
    from markprep import StudentModuleOutcome, build_feature_table, group_mean_table, run_refinement_pipeline
    from markprep.refine import reference_model
    from markprep.synthgen import default_cohort_spec, generate_cohort

    spec = default_cohort_spec(3, 60)
    second = dataclasses.replace(spec.departments[0], code="EE", cw_weight_classes=(0, 30, 100))
    records = generate_cohort(dataclasses.replace(spec, departments=(*spec.departments, second)))
    assert len({record.department for record in records}) == 2

    def refuse(record: StudentModuleOutcome) -> float:
        raise AssertionError("a record pass read record.car")

    monkeypatch.setattr(StudentModuleOutcome, "car", property(refuse))
    group_mean_table(records)
    for options in ({}, {"per_department": True}, {"clamp": True}, {"model": reference_model()}):
        run_refinement_pipeline(records, **options)
    build_feature_table(records)
    build_feature_table(records, run_refinement_pipeline(records).refined_marks)
