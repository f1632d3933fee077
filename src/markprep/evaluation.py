"""Band-prediction evaluation: feature preparation, confusion matrices,
one-vs-rest AUC, and the with/without-ratio comparison.

The headline error rate follows the source convention: error rate is
1 - overall AUC, not 1 - accuracy.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import (
    DEFAULT_BANDING,
    DEFAULT_TEST_FRACTION,
    PUBLISHED_CLASS_ORDER,
    BandingScheme,
    DegreeBand,
    StudentModuleOutcome,
    read_count,
    read_fields,
    read_list,
    read_number,
    read_string,
    render_confusion_text,
)
from .forest import (
    FeatureRow,
    FeatureTable,
    ForestModel,
    ForestParams,
    _train_arms,
    _training_data,
    holdout_split,
    proba_matrix,
)

CAR_COLUMN = "mean_car"

# Internal matrix axes run worst band to best; rendering permutes to the
# published column order.
BAND_ORDER: tuple[DegreeBand, ...] = tuple(DegreeBand)


class UndefinedAucError(ValueError):
    """Raised when AUC is requested for single-class labels."""


def build_feature_table(
    records: Sequence[StudentModuleOutcome],
    refined_marks: Sequence[float] | None = None,
    predictor_years: Sequence[int] = (1, 2),
    target_year: int = 3,
    scheme: BandingScheme = DEFAULT_BANDING,
) -> FeatureTable:
    """One row per student: predictor-year averages and the mean
    coursework ratio over all the student's modules, labeled with the
    target-year band.

    ``refined_marks`` (aligned with ``records``) substitutes refined for
    raw marks in every average.  Students lacking modules in any
    predictor or target year are left out; rows must be complete.
    Averages are clamped to the mark scale before banding, since
    unclamped refinement can step slightly outside it.

    No feature depends on the order of the records: a year average is
    the correctly rounded sum of its marks (``math.fsum``) divided once,
    the mean ratio is the exact sum of the integer coursework weights
    divided once, and rows are sorted by student id.
    """
    if refined_marks is not None and len(refined_marks) != len(records):
        raise ValueError(
            f"refined marks length {len(refined_marks)} does not match "
            f"record count {len(records)}"
        )
    marks = refined_marks if refined_marks is not None else [record[4] for record in records]
    year_marks: defaultdict[tuple[str, int], list[float]] = defaultdict(list)
    student_weights: defaultdict[str, list[int]] = defaultdict(list)
    for (student_id, _, year_level, _, _, _, _, weight), mark in zip(records, marks):
        year_marks[student_id, year_level].append(mark)
        student_weights[student_id].append(weight)

    needed_years = [*predictor_years, target_year]
    rows: list[FeatureRow] = []
    for student_id, weights in sorted(student_weights.items()):
        if not all((student_id, year) in year_marks for year in needed_years):
            continue
        groups = [year_marks[student_id, year] for year in needed_years]
        averages = [math.fsum(group) / len(group) for group in groups]
        features = (*averages[:-1], sum(weights) / (100 * len(weights)))
        label = scheme.classify(min(100.0, max(0.0, averages[-1])))
        rows.append(FeatureRow(student_id, features, label))

    columns = (*[f"year{year}_avg" for year in predictor_years], CAR_COLUMN)
    return FeatureTable(columns, tuple(rows))


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """Counts indexed (true band, predicted band) in ``class_order``."""

    class_order: tuple[DegreeBand, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.class_order)
        if len(self.cells) != size or any(len(row) != size for row in self.cells):
            raise ValueError("cells must be square over class_order")
        if any(cell < 0 for row in self.cells for cell in row):
            raise ValueError("cell counts must be non-negative")
        if sorted(self.class_order) != list(DegreeBand):
            raise ValueError("class_order must list every band exactly once")

    def trace(self) -> int:
        return sum(self.cells[i][i] for i in range(len(self.class_order)))

    def total(self) -> int:
        return sum(sum(row) for row in self.cells)

    def row_totals(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.cells)

    def column_totals(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.cells))

    @property
    def accuracy(self) -> float:
        return self.trace() / self.total()

    def in_order(self, order: Sequence[DegreeBand]) -> tuple[tuple[int, ...], ...]:
        """Cells permuted to another class order on both axes."""
        position = {band: i for i, band in enumerate(self.class_order)}
        return tuple(
            tuple(self.cells[position[true]][position[predicted]] for predicted in order)
            for true in order
        )

    def to_json_dict(self) -> dict:
        return {
            "class_order": [band.name for band in self.class_order],
            "cells": [list(row) for row in self.cells],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "ConfusionMatrix":
        data = read_fields(data, "confusion", ("class_order", "cells"))
        names, rows = read_list("class_order", data["class_order"]), read_list("cells", data["cells"])
        return cls(
            class_order=tuple(DegreeBand.from_label(read_string("class_order entry", name)) for name in names),
            cells=tuple(tuple(read_count("cells entry", cell) for cell in read_list("cells row", row)) for row in rows),
        )


def confusion_matrix(
    truths: Sequence[DegreeBand], predictions: Sequence[DegreeBand]
) -> ConfusionMatrix:
    if len(truths) != len(predictions):
        raise ValueError(
            f"length mismatch: {len(truths)} truths vs {len(predictions)} predictions"
        )
    size = len(BAND_ORDER)
    counts = [[0] * size for _ in range(size)]
    for truth, predicted in zip(truths, predictions):
        counts[int(truth)][int(predicted)] += 1
    return ConfusionMatrix(BAND_ORDER, tuple(tuple(row) for row in counts))


def _midranks(values: Sequence[float]) -> list[float]:
    """Ranks starting at 1, ties sharing their average rank.

    Equal values form one run of a stable sort; the run over sorted
    positions i..j-1 shares the rank (i + j + 1) / 2.  Every rank is a
    multiple of 0.5, so sums of ranks are exact in any order.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        value, end = values[order[start]], start + 1
        while end < len(order) and values[order[end]] == value:
            end += 1
        rank = (start + end + 1) / 2.0
        for position in order[start:end]:
            ranks[position] = rank
        start = end
    return ranks


def _float_column(values: Iterable[float], name: str) -> list[float]:
    """``values`` as a list of floats; ValueError unless it is 1-D."""
    try:
        return [float(value) for value in values]
    except TypeError:
        raise ValueError(f"{name} must be a sequence of numbers") from None


def auc_binary(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Probability a positive outscores a negative, ties counting half.

    Rank-based Mann-Whitney form; identical to the exhaustive pairwise
    count and to the trapezoidal area under the ROC curve.
    """
    scores = _float_column(scores, "scores")
    labels = [bool(label) for label in _float_column(labels, "labels")]
    if len(scores) != len(labels):
        raise ValueError("scores and labels must align")
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError("need at least one positive and one negative label")
    rank_sum = sum(rank for rank, label in zip(_midranks(scores), labels) if label)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_multiclass(
    probabilities: Iterable[Iterable[float]],
    labels: Sequence[DegreeBand],
    average: str = "weighted",
) -> tuple[float, dict[DegreeBand, float]]:
    """One-vs-rest AUC per present band plus an averaged overall value.

    ``weighted`` weighs per-band AUCs by band prevalence; ``macro``
    weighs them equally.  Bands absent from ``labels`` are excluded.
    """
    if average not in ("weighted", "macro"):
        raise ValueError(f"average must be 'weighted' or 'macro', got {average!r}")
    probs = [_float_column(row, "each probability row") for row in probabilities]
    if any(len(row) != len(BAND_ORDER) for row in probs):
        raise ValueError(f"every probability row must have {len(BAND_ORDER)} columns, one per band")
    if len(probs) != len(labels):
        raise ValueError("probabilities and labels must align")
    label_indexes = [int(label) for label in labels]
    counts = {band: label_indexes.count(int(band)) for band in BAND_ORDER}
    present = [band for band in BAND_ORDER if counts[band]]
    if len(present) < 2:
        raise UndefinedAucError("need at least two bands in the labels")

    per_class = {
        band: auc_binary([row[int(band)] for row in probs], [index == int(band) for index in label_indexes])
        for band in present
    }
    return _average_auc(per_class, counts, average), per_class


def _average_auc(per_class: Mapping[DegreeBand, float], counts: Mapping[DegreeBand, int], average: str) -> float:
    """Per-band AUCs weighted by ``counts``, the true rows per band, or
    equally (``macro``).  Sums run worst band first whatever the mapping
    order, so a report read back from a file reproduces its saved AUC, and
    add left to right from 0, so a compensated ``sum()`` moves no bit."""
    total = sum(counts.values())
    weighted = weights = 0.0
    for band in [band for band in BAND_ORDER if band in per_class]:
        weight = 1.0 if average == "macro" else counts[band] / total
        weighted += per_class[band] * weight
        weights += weight
    return weighted / weights


@dataclass(frozen=True, slots=True)
class EvaluationReport:
    """One scoring run; every headline number derives from these fields."""

    confusion: ConfusionMatrix
    per_class_auc: dict[DegreeBand, float]
    auc_average: str

    def __post_init__(self) -> None:
        if self.auc_average not in ("weighted", "macro"):
            raise ValueError(f"auc_average must be 'weighted' or 'macro', got {self.auc_average!r}")
        scored = sorted(band.name for band, total in self._band_counts().items() if total)
        if sorted(band.name for band in self.per_class_auc) != scored or len(scored) < 2:
            raise ValueError(f"per_class_auc must name exactly the bands with true rows, at least two: {scored}")
        for band, value in self.per_class_auc.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"per_class_auc {band.name} must lie in [0, 1], got {value!r}")

    def _band_counts(self) -> dict[DegreeBand, int]:
        return dict(zip(self.confusion.class_order, self.confusion.row_totals()))

    @property
    def classification_accuracy(self) -> float:
        return self.confusion.accuracy

    @property
    def auc(self) -> float:
        return _average_auc(self.per_class_auc, self._band_counts(), self.auc_average)

    @property
    def error_rate(self) -> float:
        return 1.0 - self.auc

    def to_json_dict(self) -> dict:
        return {
            "confusion": self.confusion.to_json_dict(),
            "classification_accuracy": self.classification_accuracy,
            "auc": self.auc,
            "error_rate": self.error_rate,
            "per_class_auc": {band.name: value for band, value in self.per_class_auc.items()},
            "auc_average": self.auc_average,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "EvaluationReport":
        numbers = ("classification_accuracy", "error_rate", "auc")
        data = read_fields(data, "evaluation report", ("confusion", *numbers, "per_class_auc", "auc_average"))
        stated = {name: read_number(name, data[name]) for name in numbers}
        per_class = read_fields(data["per_class_auc"], "per_class_auc", (), [band.name for band in DegreeBand])
        report = cls(
            confusion=ConfusionMatrix.from_json_dict(data["confusion"]),
            per_class_auc={DegreeBand[name]: read_number(name, value) for name, value in per_class.items()},
            auc_average=read_string("auc_average", data["auc_average"]),
        )
        for name in numbers:
            _check_stated(name, stated[name], getattr(report, name))
        return report


def _check_stated(name: str, stated: float, derived: float) -> None:
    """A saved derived number must equal, exactly, the value re-derived."""
    if stated != derived:
        raise ValueError(f"{name} {stated!r} does not match {derived!r}, the value the confusion counts and per-band AUCs give")


def evaluate_forest(
    model: ForestModel,
    rows: Sequence[FeatureRow],
    average: str = "weighted",
) -> EvaluationReport:
    """Score a trained forest on labeled rows."""
    if not rows:
        raise ValueError("cannot evaluate on zero rows")
    probabilities = proba_matrix(model, [row.features for row in rows])
    # index() finds the first maximum, and the columns are ordered worst
    # band first, so equal probabilities resolve to the worse band
    predictions = [DegreeBand(row.index(max(row))) for row in probabilities]
    truths = [row.label for row in rows]
    _, per_class = auc_multiclass(probabilities, truths, average)
    return EvaluationReport(confusion_matrix(truths, predictions), per_class, average)


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    with_car: EvaluationReport
    without_car: EvaluationReport

    @property
    def auc_delta(self) -> float:
        return self.with_car.auc - self.without_car.auc

    def to_json_dict(self) -> dict:
        return {
            "with_car": self.with_car.to_json_dict(),
            "without_car": self.without_car.to_json_dict(),
            "auc_delta": self.auc_delta,
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "ComparisonResult":
        data = read_fields(data, "evaluation", ("with_car", "without_car", "auc_delta"))
        stated = read_number("auc_delta", data["auc_delta"])
        result = cls(
            with_car=EvaluationReport.from_json_dict(data["with_car"]),
            without_car=EvaluationReport.from_json_dict(data["without_car"]),
        )
        _check_stated("auc_delta", stated, result.auc_delta)
        return result


def compare_with_without_car(
    table: FeatureTable,
    params: ForestParams,
    seed: int,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    average: str = "weighted",
) -> ComparisonResult:
    """Train and score twice on one identical split: ratio column live,
    then masked to a constant.

    Masking zero-fills the column instead of dropping it, keeping arity
    and stream consumption identical, so the only difference between the
    two runs is the information the column carries.  The two forests grow
    together on the training columns built once, the masked arm sharing
    every other column, and each equals ``train_forest`` on its own rows.
    Both score the test rows as they are: no split is made on a constant
    column, so no masked tree reads a test row's ratio.
    """
    if CAR_COLUMN not in table.column_names:
        raise ValueError(f"feature table has no {CAR_COLUMN!r} column")
    car_index = table.column_names.index(CAR_COLUMN)
    train_rows, test_rows = holdout_split(list(table.rows), test_fraction, seed)

    columns, labels = _training_data(train_rows, params)
    masked = list(columns)
    masked[car_index] = [0.0] * len(labels)
    model_with, model_without = _train_arms([columns, masked], labels, params, seed)

    report_with = evaluate_forest(model_with, test_rows, average)
    report_without = evaluate_forest(model_without, test_rows, average)
    return ComparisonResult(with_car=report_with, without_car=report_without)


def render_report_text(report: EvaluationReport) -> str:
    """Confusion matrix plus headline metrics, published column order."""
    lines = [
        render_confusion_text(
            report.confusion.in_order(PUBLISHED_CLASS_ORDER), PUBLISHED_CLASS_ORDER
        ),
        "",
        f"classification accuracy: {report.classification_accuracy:.4f}",
        f"AUC ({report.auc_average}): {report.auc:.4f}",
        f"error rate: {report.error_rate:.4f}",
    ]
    return "\n".join(lines)
