"""What a transcript input guarantees about the commands' outputs.

Every fact is derived from the benchmark's own rows and the fault
injector's record, never from the package, so a defect cannot hide by
moving both sides.  Checks read stdout JSON and ignore keys they do not
know, so extra report fields do not register as failures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from inputs import Transcript

COMPARISONS = (
    ("exam_vs_coursework", "exam_based", "coursework_based"),
    ("mixed_vs_exam", "mixed", "exam_based"),
    ("mixed_vs_coursework", "mixed", "coursework_based"),
)
TEST_FRACTION = 0.6995
COEFFICIENT_TOLERANCE = 1e-8


class Checks:
    """Counts checks run and keeps the labels of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed.append(label)
        return ok


def method_of(cswk_weight: int) -> str:
    if cswk_weight == 0:
        return "exam_based"
    if cswk_weight == 100:
        return "coursework_based"
    return "mixed"


def split_size(students: int) -> int:
    return int(math.floor(TEST_FRACTION * students + 0.5))


def _fit(x: np.ndarray, y: np.ndarray) -> dict:
    """Independent OLS by numpy.polyfit, with the package's selection rule:
    quadratic when it beats linear R-squared by more than 1e-12, linear
    alone when only two ratios occur."""
    ss_tot = float(((y - y.mean()) ** 2).sum())

    def candidate(degree: int) -> dict:
        coefficients = np.polyfit(x, y, degree)[::-1]
        residual = y - np.polyval(coefficients[::-1], x)
        r_squared = 1.0 if ss_tot == 0 else min(1.0, max(0.0, 1.0 - float(residual @ residual) / ss_tot))
        b = [float(c) for c in coefficients] + [0.0] * (2 - degree)
        kind = "quadratic" if degree == 2 else "linear"
        return {"b0": b[0], "b1": b[1], "b2": b[2], "r_squared": r_squared, "model_kind": kind, "n_observations": len(x)}

    linear = candidate(1)
    if np.unique(x).size == 2:
        return linear
    quadratic = candidate(2)
    return quadratic if quadratic["r_squared"] > linear["r_squared"] + 1e-12 else linear


@dataclass
class Expected:
    total_rows: int
    out_of_range: int
    exact_duplicates: int
    conflicting: int
    missing: int
    group_counts: dict[str, dict[str, int]]
    applicable_t_tests: set[str]
    models: dict[str, dict]
    two_class_departments: int
    students: int

    @property
    def accepted_after_cleaning(self) -> int:
        return self.total_rows - self.out_of_range - self.exact_duplicates - self.conflicting

    @classmethod
    def of(cls, transcript: Transcript, per_department: bool) -> "Expected":
        rows = transcript.accepted_rows()
        departments = sorted({row[1] for row in rows})
        counts: dict[str, dict[str, int]] = {d: {} for d in departments}
        years: dict[str, set[str]] = {}
        for row in rows:
            method = method_of(int(row[8]))
            counts[row[1]][method] = counts[row[1]].get(method, 0) + 1
            years.setdefault(row[0], set()).add(row[2])
        per_method: dict[str, int] = {}
        for department in departments:
            for method in counts[department]:
                per_method[method] = per_method.get(method, 0) + 1
        applicable = {
            name for name, a, b in COMPARISONS if per_method.get(a, 0) >= 2 and per_method.get(b, 0) >= 2
        }

        x = np.array([int(row[8]) / 100 for row in rows])
        y = np.array([float(row[4]) for row in rows])
        scopes = np.array([row[1] for row in rows])
        if per_department:
            models = {d: _fit(x[scopes == d], y[scopes == d]) for d in departments}
        else:
            models = {"pooled": _fit(x, y)}
        two_class = sum(1 for d in departments if np.unique(x[scopes == d]).size == 2)
        return cls(
            total_rows=len(transcript.rows),
            out_of_range=transcript.count("out_of_range"),
            exact_duplicates=transcript.count("exact_duplicate"),
            conflicting=transcript.count("conflict"),
            missing=transcript.count("missing"),
            group_counts=counts,
            applicable_t_tests=applicable,
            models=models,
            two_class_departments=two_class if per_department else 0,
            students=sum(1 for found in years.values() if {"1", "2", "3"} <= found),
        )


def _severity_count(stage: dict, severity: str) -> int:
    return sum(1 for issue in stage.get("issues", []) if issue.get("severity") == severity)


def check_validate(check: Checks, report: dict, expected: Expected) -> None:
    stages = report.get("stages", {})
    parse, dedupe, missing = (stages.get(s, {}) for s in ("parse", "deduplicate", "missing_policy"))
    check(report.get("total_rows") == expected.total_rows, "validate: rows examined")
    check(parse.get("rejected") == expected.out_of_range, "validate: out-of-range rows rejected")
    check(_severity_count(parse, "Reject") == expected.out_of_range, "validate: one reject issue per bad row")
    check(_severity_count(parse, "Warn") == 0, "validate: no parse warnings on built rows")
    check(_severity_count(dedupe, "Warn") == expected.exact_duplicates, "validate: exact duplicates collapsed")
    check(_severity_count(dedupe, "Reject") == expected.conflicting, "validate: conflicting duplicates rejected")
    check(_severity_count(missing, "Warn") == expected.missing, "validate: missing marks flagged")
    check(missing.get("rejected") == 0, "validate: flag policy drops nothing")
    check(report.get("accepted") == expected.accepted_after_cleaning, "validate: final accepted count")


def check_stats(check: Checks, report: dict, expected: Expected, variant: str) -> None:
    means = report.get("group_means", {})
    counts = {d: {m: cell.get("count") for m, cell in by.items()} for d, by in means.items()}
    check(counts == expected.group_counts, "stats: group counts")
    tests = report.get("t_tests", {})
    applicable = {name for name, result in tests.items() if isinstance(result, dict)}
    check(applicable == expected.applicable_t_tests, "stats: applicable t-tests")
    check(report.get("variant") == variant, "stats: variant")


def _same_model(found: dict, want: dict) -> bool:
    if found.get("model_kind") != want["model_kind"] or found.get("n_observations") != want["n_observations"]:
        return False
    for key in ("b0", "b1", "b2", "r_squared"):
        value = found.get(key)
        if not isinstance(value, (int, float)):
            return False
        if abs(value - want[key]) > COEFFICIENT_TOLERANCE * max(1.0, abs(want[key])):
            return False
    return True


def check_refine(check: Checks, report: dict, expected: Expected) -> int:
    """Checks the fitted models; returns the rows the command fitted."""
    if "pooled" in expected.models:
        found = {"pooled": report.get("model") or {}}
    else:
        found = report.get("department_models") or {}
    check(set(found) == set(expected.models), "refine: model scopes")
    for scope, want in expected.models.items():
        check(_same_model(found.get(scope, {}), want), f"refine: {scope} coefficients match polyfit")
    warnings = report.get("warnings", [])
    check(len(warnings) == expected.two_class_departments, "refine: linear-only warnings")
    fitted = sum(model.get("n_observations", 0) for model in found.values())
    check(report.get("record_count") == fitted, "refine: every parsed row fitted")
    return fitted


def reported_drops(report: object) -> int:
    """Rows a command says it rejected or collapsed, wherever it says so."""
    if isinstance(report, dict):
        return sum(
            value if key in ("rejected", "collapsed") and isinstance(value, int) else reported_drops(value)
            for key, value in report.items()
        )
    if isinstance(report, list):
        return sum(reported_drops(item) for item in report)
    return 0


def check_comparison(check: Checks, report: dict, students: int, label: str) -> None:
    n_test = split_size(students)
    for side in ("with_car", "without_car"):
        block = report.get(side, {})
        cells = block.get("confusion", {}).get("cells", [])
        check(sum(sum(row) for row in cells) == n_test, f"{label}: {side} confusion total is the test split")
        auc, error = block.get("auc"), block.get("error_rate")
        check(
            isinstance(auc, float) and isinstance(error, float) and abs(error - (1.0 - auc)) <= 1e-12,
            f"{label}: {side} error rate is 1 - AUC",
        )
