"""Benchmark inputs, built from the workload seed by the benchmark itself.

Nothing here calls the package's generator or CSV writer, so a change to
either cannot change what the other layers are fed.  Every random draw
comes from a numpy ``PCG64`` stream keyed by ``(seed, purpose)``; the same
seed gives the same bytes.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HEADER = (
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

PAPER_STUDENTS = 406
PAPER_CLASSES = (0, 10, 20, 25, 30, 55, 60, 70, 100)
PLANTED_EFFECT = (12.77, -5.873)

# Eight departments of 250 students: weight-class sets of 2 to 9 classes
# and 8 to 11 modules per year, about 57k rows in all.  Each assessment
# method (exam-only, coursework-only, mixed) occurs in at least two
# departments, so `stats` runs all three t-tests.  BIO and DES have two
# classes each, so `refine --per-department` takes its linear-only path.
FACULTY = (
    ("ART", 10, PAPER_CLASSES),
    ("BIO", 8, (0, 100)),
    ("CHE", 9, (0, 30, 50, 100)),
    ("DES", 11, (20, 60)),
    ("ECO", 10, (0, 25, 50, 75)),
    ("FIN", 9, (0, 40, 100)),
    ("GEO", 11, (10, 30, 50, 70, 90, 100)),
    ("HIS", 8, (0, 20, 40, 60, 80)),
)
FACULTY_STUDENTS = 250

# Share of faculty rows given each kind of fault.
FAULT_SHARE = 0.005


def stream(seed: int, *purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *purpose]))


@dataclass
class Transcript:
    """CSV rows as text, plus what the fault injector did to them.

    ``faults`` maps a row index to its fault: ``out_of_range``,
    ``exact_duplicate`` (the extra copy), ``conflict`` (both copies) or
    ``missing``.
    """

    rows: list[list[str]]
    faults: dict[int, str] = field(default_factory=dict)

    def count(self, fault: str) -> int:
        return sum(1 for kind in self.faults.values() if kind == fault)

    def accepted_rows(self) -> list[list[str]]:
        """Rows the parser keeps: all but the out-of-range ones."""
        return [row for i, row in enumerate(self.rows) if self.faults.get(i) != "out_of_range"]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as out:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(HEADER)
            writer.writerows(self.rows)


def _mark_text(value: float) -> str:
    return f"{value:.2f}"


def _department_rows(
    rng: np.random.Generator, code: str, students: int, modules: int, classes: tuple[int, ...]
) -> list[list[str]]:
    """Marks carry the planted quadratic ratio effect; components are
    back-filled so their weighted mean rounds to the module mark."""
    b1, b2 = PLANTED_EFFECT
    n = students * 3 * modules
    ability = np.repeat(58.0 + 10.0 * rng.standard_normal(students), 3 * modules)
    cswk_weight = np.asarray(classes)[rng.integers(len(classes), size=n)]
    car = cswk_weight / 100.0
    target = np.clip(ability + b1 * car + b2 * car * car + 8.0 * rng.standard_normal(n), 0.0, 100.0)
    wc, we = car, 1.0 - car
    with np.errstate(divide="ignore", invalid="ignore"):
        low = np.maximum.reduce([-target / wc, (target - 100.0) / we, np.full(n, -20.0)])
        high = np.minimum.reduce([(100.0 - target) / wc, target / we, np.full(n, 20.0)])
    spread = np.where(low < high, low + (high - low) * rng.random(n), 0.0)
    exam = np.round(np.clip(target + wc * spread, 0.0, 100.0), 2)
    cswk = np.round(np.clip(target - we * spread, 0.0, 100.0), 2)
    exam = np.where(cswk_weight == 100, np.nan, exam)
    cswk = np.where(cswk_weight == 0, np.nan, cswk)
    module = np.round(np.nan_to_num(exam) * we + np.nan_to_num(cswk) * wc, 2)

    width = max(5, len(str(students - 1)))
    rows = []
    for i in range(n):
        student, rest = divmod(i, 3 * modules)
        year, module_index = divmod(rest, modules)
        weight = int(cswk_weight[i])
        rows.append(
            [
                f"{code}{student:0{width}d}",
                code,
                str(year + 1),
                f"{code}-Y{year + 1}-M{module_index:02d}",
                _mark_text(module[i]),
                "" if weight == 100 else _mark_text(exam[i]),
                "" if weight == 0 else _mark_text(cswk[i]),
                str(100 - weight),
                str(weight),
            ]
        )
    return rows


def paper_cohort(seed: int) -> Transcript:
    """Clean cohort at the paper's scale: 406 students, one department,
    30 modules each, nine weight classes, planted effect."""
    return Transcript(_department_rows(stream(seed, 1), "CS", PAPER_STUDENTS, 10, PAPER_CLASSES))


def faculty_cohort(seed: int) -> Transcript:
    """Eight departments with about 2% of rows faulty, in shuffled order."""
    rng = stream(seed, 2)
    rows: list[list[str]] = []
    for code, modules, classes in FACULTY:
        rows.extend(_department_rows(rng, code, FACULTY_STUDENTS, modules, classes))

    per_kind = int(len(rows) * FAULT_SHARE)
    picked = rng.choice(len(rows), size=4 * per_kind, replace=False)
    out_of_range, exact, conflict, missing = np.split(picked, 4)
    tags: list[str | None] = [None] * len(rows)
    extra: list[tuple[list[str], str]] = []
    for i in out_of_range:
        rows[i][4] = _mark_text(100.0 + rng.uniform(0.5, 60.0))
        tags[i] = "out_of_range"
    for i in exact:
        extra.append((list(rows[i]), "exact_duplicate"))
    for i in conflict:
        # Shift every mark by one so the copy still recombines; a row with
        # marks at both ends of the scale cannot shift and stays clean.
        marks = [float(rows[i][column]) for column in (4, 5, 6) if rows[i][column]]
        shift = 1.0 if max(marks) <= 99.0 else -1.0 if min(marks) >= 1.0 else 0.0
        if not shift:
            continue
        copy = list(rows[i])
        for column in (4, 5, 6):
            if copy[column]:
                copy[column] = _mark_text(float(copy[column]) + shift)
        tags[i] = "conflict"
        extra.append((copy, "conflict"))
    for i in missing:
        column = 5 if rows[i][7] != "0" else 6
        rows[i][column] = ""
        tags[i] = "missing"

    rows.extend(row for row, _ in extra)
    tags.extend(tag for _, tag in extra)
    order = rng.permutation(len(rows))
    transcript = Transcript([rows[i] for i in order])
    transcript.faults = {new: tags[old] for new, old in enumerate(order) if tags[old] is not None}
    return transcript
