"""Feature building, AUC, confusion matrices, with/without comparison."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import markprep.evaluation
import markprep.forest
from markprep import (
    CAR_COLUMN,
    DEFAULT_BANDING,
    BandingScheme,
    ComparisonResult,
    ConfusionMatrix,
    DegreeBand,
    EvaluationReport,
    FeatureRow,
    FeatureTable,
    ForestParams,
    StudentModuleOutcome,
    UndefinedAucError,
    auc_binary,
    auc_multiclass,
    build_feature_table,
    compare_with_without_car,
    confusion_matrix,
    default_cohort_spec,
    evaluate_forest,
    generate_cohort,
    gini_impurity,
    holdout_split,
    render_confusion_text,
    render_report_text,
    run_refinement_pipeline,
    train_forest,
)
from markprep.evaluation import _midranks
from markprep.fixtures import PUBLISHED_CLASS_ORDER
from test_core import make_outcome


def transcript_rows(
    n_students: int = 60,
    cswk_cycle: tuple[int, ...] = (0, 30, 70, 100),
    modules_per_year: int = 4,
) -> list[StudentModuleOutcome]:
    """Deterministic toy cohort whose marks carry a coursework-ratio effect."""
    records = []
    for i in range(n_students):
        cswk = cswk_cycle[i % len(cswk_cycle)]
        car = cswk / 100.0
        ability = 40.0 + (i * 17) % 30
        for year in (1, 2, 3):
            for m in range(modules_per_year):
                jitter = (((i * 7 + year * 5 + m * 3) % 9) - 4) * 0.5
                mark = float(np.clip(ability + 12.77 * car - 5.873 * car**2 + jitter, 0, 100))
                records.append(
                    make_outcome(
                        mark=mark,
                        cswk_weight=cswk,
                        exam_mark=mark if cswk < 100 else None,
                        cswk_mark=mark if cswk > 0 else None,
                        year_level=year,
                        student_id=f"S{i:03d}",
                        module_code=f"Y{year}M{m}",
                    )
                )
    return records


def test_feature_table_shape_and_columns() -> None:
    records = transcript_rows(n_students=12)
    table = build_feature_table(records)
    assert table.column_names == ("year1_avg", "year2_avg", CAR_COLUMN)
    assert len(table.rows) == 12
    assert table.rows[0].student_id == "S000"


def test_feature_table_values() -> None:
    records = transcript_rows(n_students=4, modules_per_year=2)
    table = build_feature_table(records)
    student = [r for r in records if r.student_id == "S001"]
    year1 = [r.module_mark for r in student if r.year_level == 1]
    row = next(r for r in table.rows if r.student_id == "S001")
    assert row.features[0] == pytest.approx(sum(year1) / len(year1))
    assert row.features[2] == pytest.approx(0.3)  # every module 30% coursework


def test_feature_table_skips_students_missing_a_year() -> None:
    records = transcript_rows(n_students=6)
    partial = [r for r in records if not (r.student_id == "S002" and r.year_level == 3)]
    table = build_feature_table(partial)
    assert all(row.student_id != "S002" for row in table.rows)
    assert len(table.rows) == 5


def test_feature_table_refined_marks_substitute() -> None:
    records = transcript_rows(n_students=4)
    refined = [r.module_mark - 5.0 for r in records]
    plain = build_feature_table(records)
    shifted = build_feature_table(records, refined_marks=refined)
    for before, after in zip(plain.rows, shifted.rows):
        assert after.features[0] == pytest.approx(before.features[0] - 5.0)
        assert after.features[2] == before.features[2]  # ratio never refined
    with pytest.raises(ValueError):
        build_feature_table(records, refined_marks=refined[:-1])


def test_feature_table_clamps_target_average_before_banding() -> None:
    records = transcript_rows(n_students=4)
    inflated = [r.module_mark + 120.0 if r.year_level == 3 else r.module_mark for r in records]
    inflated = [min(v, 220.0) for v in inflated]
    table = build_feature_table(records, refined_marks=inflated)
    assert all(row.label is DegreeBand.FIRST for row in table.rows)


# The feature table as it was built before each student's records were
# grouped in one pass: one ``year_average`` call per student and year, each
# re-filtering that student's records.  Kept as the oracle the one-pass
# table must equal exactly: ids, features, labels and row order.  A year
# average is the math.fsum of its marks divided once and the mean ratio an
# exact Fraction rounded once, so neither depends on the order of the
# records or on the Python's sum().


def year_average(outcomes, year_level, marks=None):
    outcomes = list(outcomes)
    if marks is not None and len(marks) != len(outcomes):
        raise ValueError(
            f"marks length {len(marks)} does not match outcomes length {len(outcomes)}"
        )
    selected = [
        outcome.module_mark if marks is None else marks[i]
        for i, outcome in enumerate(outcomes)
        if outcome.year_level == year_level
    ]
    if not selected:
        raise ValueError(f"no modules recorded for year {year_level}")
    return math.fsum(selected) / len(selected)


def oracle_feature_table(
    records, refined_marks=None, predictor_years=(1, 2), target_year=3, scheme=DEFAULT_BANDING
):
    by_student: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        by_student.setdefault(record.student_id, []).append(index)

    needed_years = [*predictor_years, target_year]
    rows: list[FeatureRow] = []
    for student_id, indexes in sorted(by_student.items()):
        outcomes = [records[i] for i in indexes]
        years_present = {outcome.year_level for outcome in outcomes}
        if not all(year in years_present for year in needed_years):
            continue
        marks = (
            [refined_marks[i] for i in indexes] if refined_marks is not None else None
        )
        features = [
            year_average(outcomes, year, marks) for year in predictor_years
        ]
        cars = [Fraction(outcome.cswk_weight, 100) for outcome in outcomes]
        features.append(float(sum(cars) / len(cars)))
        target_average = year_average(outcomes, target_year, marks)
        label = scheme.classify(min(100.0, max(0.0, target_average)))
        rows.append(FeatureRow(student_id, tuple(features), label))

    columns = (*[f"year{year}_avg" for year in predictor_years], CAR_COLUMN)
    return FeatureTable(columns, tuple(rows))


def shuffled_rows(n_students: int = 30, seed: int = 5) -> list[StudentModuleOutcome]:
    """``transcript_rows`` with students and years interleaved."""
    records = transcript_rows(n_students=n_students, cswk_cycle=(0, 10, 35, 50, 65, 100))
    return [records[i] for i in np.random.default_rng(seed).permutation(len(records))]


def off_scale_marks(records: list[StudentModuleOutcome]) -> list[float]:
    """Refined marks with long decimals, some outside [0, 100]."""
    return [r.module_mark * 1.37 - 11.113 + (i % 7) * 0.0301 for i, r in enumerate(records)]


def lacking_years() -> list[StudentModuleOutcome]:
    records = shuffled_rows(seed=8)
    return [
        r for r in records
        if not (r.student_id in {"S003", "S017"} and r.year_level == 3)
        and not (r.student_id == "S011" and r.year_level == 1)
        and not (r.student_id == "S020" and r.year_level == 2)
    ]


def years_interleaved() -> list[StudentModuleOutcome]:
    # the second student has no year-3 module and is left out
    return [
        make_outcome(mark=50.0, year_level=1, module_code="A"),
        make_outcome(mark=90.0, year_level=2, module_code="C"),
        make_outcome(mark=80.0, year_level=3, module_code="D"),
        make_outcome(mark=70.0, year_level=1, module_code="B"),
        make_outcome(mark=40.0, year_level=1, module_code="A", student_id="S2"),
        make_outcome(mark=45.0, year_level=2, module_code="B", student_id="S2"),
    ]


TEN_POINT_BANDS = BandingScheme(
    ((0.0, DegreeBand.FAIL), (45.0, DegreeBand.PASS), (55.0, DegreeBand.THIRD),
     (62.5, DegreeBand.LOWER_SECOND), (66.0, DegreeBand.UPPER_SECOND), (71.0, DegreeBand.FIRST))
)


@pytest.mark.parametrize(
    ("records", "refined", "options", "expected"),
    [
        pytest.param(shuffled_rows(), None, {}, None, id="shuffled"),
        pytest.param(shuffled_rows(), off_scale_marks(shuffled_rows()), {}, None, id="refined"),
        pytest.param(
            shuffled_rows(), off_scale_marks(shuffled_rows()),
            {"predictor_years": (1,), "target_year": 2}, None, id="year1-predicts-year2",
        ),
        pytest.param(lacking_years(), None, {}, None, id="students-lacking-a-year"),
        pytest.param(
            lacking_years(), off_scale_marks(lacking_years()),
            {"predictor_years": (3, 1), "target_year": 2}, None, id="lacking-a-year-years-reordered",
        ),
        pytest.param(shuffled_rows(), None, {"scheme": TEN_POINT_BANDS}, None, id="banding-scheme"),
        pytest.param(
            years_interleaved(), None, {},
            [FeatureRow("S1", (60.0, 90.0, 0.5), DegreeBand.FIRST)], id="years-interleaved",
        ),
        pytest.param(
            # refined marks swap in by position, whatever the year
            years_interleaved(), [40.0, 0.0, 55.0, 80.0, 1.0, 2.0], {},
            [FeatureRow("S1", (60.0, 0.0, 0.5), DegreeBand.LOWER_SECOND)], id="refined-marks-by-position",
        ),
    ],
)
def test_feature_table_equals_the_year_average_oracle(records, refined, options, expected) -> None:
    table = build_feature_table(records, refined_marks=refined, **options)
    oracle = oracle_feature_table(records, refined_marks=refined, **options)
    assert table.column_names == oracle.column_names
    assert table.rows == oracle.rows
    if expected is not None:
        assert list(table.rows) == expected
    else:
        # the case is not vacuous: rows sorted by id, and the records were not
        ids = [row.student_id for row in table.rows]
        assert len(ids) > 20 and ids == sorted(ids)
        first_seen = list(dict.fromkeys(record.student_id for record in records))
        assert first_seen != sorted(first_seen)


def test_equal_means_reached_in_different_orders_are_equal_features() -> None:
    # added left to right, 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in
    # the last bit, and so do 55.1 + 60.2 + 70.3 and its reverse
    modules = [(55.1, 10, 1), (60.2, 20, 1), (70.3, 30, 1), (64.0, 30, 2), (58.0, 20, 3)]
    records = [
        make_outcome(mark=mark, cswk_weight=weight, year_level=year, student_id=student_id, module_code=f"M{index}")
        for student_id, order in (("S1", modules), ("S2", modules[::-1]))
        for index, (mark, weight, year) in enumerate(order)
    ]
    first, second = build_feature_table(records).rows
    assert first.features == second.features == (math.fsum([55.1, 60.2, 70.3]) / 3, 64.0, 110 / 500)


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's builtin sum() on ints and floats, transcribed: ints
    add exactly until the total is a float, and from then on each item
    adds with Neumaier compensation, applied once at the end."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if type(total) is float:
            break
    else:
        return total
    compensation = 0.0
    for item in items:
        value = float(item)
        added = total + value
        if abs(total) >= abs(value):
            compensation += (total - added) + value
        else:
            compensation += (value - added) + total
        total = added
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_is_the_later_builtin() -> None:
    # the emulation differs from this interpreter's sum() in exactly the
    # way Python 3.12 does: integers stay exact, floats are compensated
    assert compensated_sum([1, 2, 3]) == 6 and type(compensated_sum([1, 2, 3])) is int
    assert compensated_sum([2**70, 1]) == 2**70 + 1
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert compensated_sum([3, 0.5, 1]) == 4.5
    assert compensated_sum([]) == 0


def test_outputs_do_not_depend_on_the_python_sum(monkeypatch) -> None:
    """The feature table, the trees, the scored reports and the Gini
    impurities are the same bits whether the builtin sum() compensates
    float rounding (Python 3.12 on) or not."""
    records = generate_cohort(default_cohort_spec(seed=3, student_count=150))
    refined = run_refinement_pipeline(records).refined_marks

    def outputs():
        table = build_feature_table(records, refined_marks=refined)
        train, test = holdout_split(list(table.rows), 0.5, seed=4)
        # several forests, since a compensated sum moves the averaged AUC
        # of only some of them
        models = [train_forest(train, ForestParams(tree_count=10), seed) for seed in range(10)]
        reports = [
            evaluate_forest(model, test, average).to_json_dict()
            for model in models
            for average in ("weighted", "macro")
        ]
        impurities = [gini_impurity(counts) for counts in itertools.product(range(4), repeat=6)]
        return table, [model.trees for model in models], reports, impurities

    expected = outputs()
    for module in (markprep.evaluation, markprep.forest):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert outputs() == expected


def test_confusion_matrix_counts_and_margins() -> None:
    truths = [DegreeBand.FAIL, DegreeBand.FAIL, DegreeBand.FIRST, DegreeBand.PASS]
    predictions = [DegreeBand.FAIL, DegreeBand.PASS, DegreeBand.FIRST, DegreeBand.PASS]
    matrix = confusion_matrix(truths, predictions)
    assert matrix.trace() == 3
    assert matrix.total() == 4
    assert matrix.accuracy == pytest.approx(0.75)
    assert matrix.cells[int(DegreeBand.FAIL)][int(DegreeBand.PASS)] == 1
    assert matrix.row_totals()[int(DegreeBand.FAIL)] == 2
    assert matrix.column_totals()[int(DegreeBand.PASS)] == 2
    with pytest.raises(ValueError):
        confusion_matrix(truths, predictions[:-1])


def test_confusion_matrix_reordering_preserves_content() -> None:
    truths = [DegreeBand.FAIL, DegreeBand.FIRST, DegreeBand.THIRD]
    matrix = confusion_matrix(truths, truths)
    reordered = matrix.in_order(PUBLISHED_CLASS_ORDER)
    assert sum(reordered[i][i] for i in range(6)) == 3
    assert sum(itertools.chain.from_iterable(reordered)) == 3
    # permuting both axes keeps each (true, predicted) pair together
    fail_pos = PUBLISHED_CLASS_ORDER.index(DegreeBand.FAIL)
    assert reordered[fail_pos][fail_pos] == 1


def test_auc_binary_known_values() -> None:
    assert auc_binary([1.0, 2.0, 3.0, 4.0], [False, False, True, True]) == 1.0
    assert auc_binary([4.0, 3.0, 2.0, 1.0], [True, True, False, False]) == 1.0
    assert auc_binary([1.0, 2.0, 3.0, 4.0], [True, True, False, False]) == 0.0
    assert auc_binary([1.0, 2.0, 2.0, 3.0], [False, False, True, True]) == pytest.approx(0.875)
    assert auc_binary([5.0, 5.0, 5.0, 5.0], [True, False, True, False]) == pytest.approx(0.5)


def test_auc_binary_requires_both_classes() -> None:
    with pytest.raises(UndefinedAucError):
        auc_binary([1.0, 2.0], [True, True])
    with pytest.raises(UndefinedAucError):
        auc_binary([1.0, 2.0], [False, False])


def test_auc_binary_equals_pairwise_count_fuzz() -> None:
    rng = np.random.default_rng(1812)
    for _ in range(300):
        n = int(rng.integers(3, 50))
        scores = rng.integers(0, 8, n).astype(float)  # heavy ties on purpose
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        pairwise = 0.0
        pairs = 0
        for i in range(n):
            for j in range(n):
                if labels[i] and not labels[j]:
                    pairs += 1
                    if scores[i] > scores[j]:
                        pairwise += 1.0
                    elif scores[i] == scores[j]:
                        pairwise += 0.5
        # the rank formula is algebraically the pairwise count, float-exact
        assert auc_binary(scores, labels) == pairwise / pairs


@pytest.mark.parametrize(
    ("scores", "labels"),
    [
        ([[1.0, 2.0], [3.0, 4.0]], [True, False]),
        ([1.0, 2.0], [[True], [False]]),
        ([1.0, 2.0, 3.0], [True, False]),
        ([1.0, 2.0], [True, False, True]),
    ],
    ids=["2-D-scores", "2-D-labels", "more-scores", "more-labels"],
)
def test_auc_binary_rejects_misshapen_input(scores, labels) -> None:
    with pytest.raises(ValueError, match="must"):
        auc_binary(scores, labels)


@pytest.mark.parametrize(
    ("probabilities", "n_labels"),
    [
        ([1 / 6] * 6, 6),
        ([[1 / 6] * 6, [0.5] * 2], 2),
        ([[1 / 6] * 6, [1 / 7] * 7], 2),
        ([[1 / 6] * 6] * 3, 2),
        ([[1 / 6] * 6] * 2, 3),
    ],
    ids=["1-D", "ragged", "seven-columns", "more-rows", "more-labels"],
)
def test_auc_multiclass_rejects_misshapen_input(probabilities, n_labels: int) -> None:
    labels = [DegreeBand.PASS, DegreeBand.FIRST, DegreeBand.THIRD, DegreeBand.PASS, DegreeBand.FIRST, DegreeBand.FAIL]
    with pytest.raises(ValueError, match="must"):
        auc_multiclass(probabilities, labels[:n_labels])


def loop_midranks(values: np.ndarray) -> np.ndarray:
    """Reference: walk the stably sorted values, one tie run at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_values, i = values[order], 0
    while i < len(values):
        j = i
        while j < len(values) and sorted_values[j] == sorted_values[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)
        i = j
    return ranks


def test_midranks_equal_the_tie_run_loop() -> None:
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(1, 60))
        # heavy ties, with -0.0 beside 0.0
        values = rng.integers(0, 4, n) * rng.choice([-1.0, 1.0], n) / rng.choice([1.0, 3.0, 7.0])
        got = _midranks(values.tolist())
        assert all(type(rank) is float for rank in got)
        assert got == loop_midranks(values).tolist()


def test_auc_multiclass_reduces_to_binary_for_two_bands() -> None:
    rng = np.random.default_rng(66)
    labels = [DegreeBand.PASS if rng.random() < 0.5 else DegreeBand.FIRST for _ in range(40)]
    probs = np.zeros((40, 6))
    first_scores = rng.random(40)
    probs[:, int(DegreeBand.FIRST)] = first_scores
    probs[:, int(DegreeBand.PASS)] = 1.0 - first_scores
    overall, per_class = auc_multiclass(probs, labels, average="macro")
    binary = auc_binary(first_scores, [label is DegreeBand.FIRST for label in labels])
    assert per_class[DegreeBand.FIRST] == pytest.approx(binary)
    assert per_class[DegreeBand.PASS] == pytest.approx(binary)  # symmetric complement
    assert overall == pytest.approx(binary)
    assert set(per_class) == {DegreeBand.PASS, DegreeBand.FIRST}


def test_auc_multiclass_weighted_vs_macro() -> None:
    # rare band predicted perfectly, common band at chance: macro rewards
    # the rare success more than prevalence weighting does
    labels = [DegreeBand.FIRST] * 2 + [DegreeBand.PASS] * 18
    probs = np.full((20, 6), 0.5)
    probs[0, int(DegreeBand.FIRST)] = 0.9
    probs[1, int(DegreeBand.FIRST)] = 0.95
    weighted, _ = auc_multiclass(probs, labels, average="weighted")
    macro, _ = auc_multiclass(probs, labels, average="macro")
    assert macro > weighted
    with pytest.raises(ValueError):
        auc_multiclass(probs, labels, average="median")


def test_auc_multiclass_needs_two_present_bands() -> None:
    probs = np.full((5, 6), 1 / 6)
    with pytest.raises(UndefinedAucError):
        auc_multiclass(probs, [DegreeBand.PASS] * 5)


def test_auc_multiclass_null_is_half() -> None:
    rng = np.random.default_rng(52)
    n = 3000
    labels = [DegreeBand(int(b)) for b in rng.integers(0, 6, n)]
    probs = rng.random((n, 6))
    probs /= probs.sum(axis=1, keepdims=True)
    overall, _ = auc_multiclass(probs, labels, average="weighted")
    assert overall == pytest.approx(0.5, abs=0.03)


@pytest.mark.parametrize(
    "per_class",
    [
        {},
        {DegreeBand.PASS: 0.9},
        {DegreeBand.PASS: 0.9, DegreeBand.FIRST: 0.9, DegreeBand.THIRD: 0.5},
        {DegreeBand.PASS: 0.9, DegreeBand.FIRST: 1.5},
        {DegreeBand.PASS: -0.1, DegreeBand.FIRST: 0.9},
        {DegreeBand.PASS: float("nan"), DegreeBand.FIRST: 0.9},
    ],
    ids=["empty", "band-missing", "band-without-true-rows", "above-one", "below-zero", "nan"],
)
def test_report_per_class_auc_must_cover_the_true_bands_in_range(per_class) -> None:
    truths = [DegreeBand.PASS, DegreeBand.FIRST, DegreeBand.FIRST]
    matrix = confusion_matrix(truths, [DegreeBand.PASS] * 3)
    report = EvaluationReport(matrix, {DegreeBand.PASS: 0.25, DegreeBand.FIRST: 1.0}, "weighted")
    assert report.classification_accuracy == 1 / 3
    assert report.auc == (0.25 * (1 / 3) + 1.0 * (2 / 3)) / (1 / 3 + 2 / 3)
    assert report.error_rate == 1.0 - report.auc
    with pytest.raises(ValueError, match="per_class_auc"):
        EvaluationReport(matrix, per_class, "weighted")
    with pytest.raises(ValueError, match="auc_average"):
        EvaluationReport(matrix, {DegreeBand.PASS: 0.25, DegreeBand.FIRST: 1.0}, "median")


@pytest.mark.parametrize("average", ["weighted", "macro"])
def test_report_auc_is_auc_multiclass_in_any_key_order(average: str) -> None:
    rng = np.random.default_rng(8)
    labels = [DegreeBand(int(b)) for b in rng.integers(0, 6, 97)]
    probs = rng.random((97, 6))
    probs /= probs.sum(axis=1, keepdims=True)
    overall, per_class = auc_multiclass(probs, labels, average)
    matrix = confusion_matrix(labels, [DegreeBand(int(b)) for b in probs.argmax(axis=1)])
    alphabetical = {band: per_class[band] for band in sorted(per_class, key=lambda band: band.name)}
    assert list(alphabetical) != list(per_class)
    for ordered in (per_class, alphabetical):
        assert EvaluationReport(matrix, ordered, average).auc == overall


def test_evaluate_forest_end_to_end() -> None:
    table = build_feature_table(transcript_rows(n_students=80))
    model = train_forest(table.rows, ForestParams(tree_count=20), seed=6)
    report = evaluate_forest(model, table.rows)
    assert report.classification_accuracy > 0.8  # resubstitution should be easy
    assert report.error_rate == pytest.approx(1.0 - report.auc)
    doc = report.to_json_dict()
    assert set(doc) == {
        "confusion", "classification_accuracy", "auc", "error_rate",
        "per_class_auc", "auc_average",
    }


def test_compare_uses_one_split_and_reports_delta() -> None:
    table = build_feature_table(transcript_rows(n_students=60))
    result = compare_with_without_car(table, ForestParams(tree_count=15), seed=13, test_fraction=0.4)
    assert result.auc_delta == pytest.approx(result.with_car.auc - result.without_car.auc)
    assert result.with_car.confusion.total() == result.without_car.confusion.total() == 24


def test_comparison_json_round_trip() -> None:
    table = build_feature_table(transcript_rows(n_students=60))
    result = compare_with_without_car(table, ForestParams(tree_count=5), seed=13, test_fraction=0.4)
    assert ComparisonResult.from_json_dict(result.to_json_dict()) == result


def test_compare_requires_ratio_column() -> None:
    with_car = build_feature_table(transcript_rows(n_students=40))
    table = FeatureTable(
        with_car.column_names[:-1],
        tuple(FeatureRow(row.student_id, row.features[:-1], row.label) for row in with_car.rows),
    )
    with pytest.raises(ValueError):
        compare_with_without_car(table, ForestParams(tree_count=3), seed=1)


def test_masking_a_constant_ratio_column_changes_nothing() -> None:
    # one coursework weight for every module means the ratio column is constant, so masking
    # it must leave training untouched, bit for bit
    table = build_feature_table(transcript_rows(n_students=40, cswk_cycle=(30,)))
    result = compare_with_without_car(
        table, ForestParams(tree_count=10), seed=99, test_fraction=0.5
    )
    assert result.with_car.to_json_dict() == result.without_car.to_json_dict()
    assert result.auc_delta == 0.0


def test_render_confusion_text_layout() -> None:
    truths = [DegreeBand.FAIL, DegreeBand.FIRST, DegreeBand.UPPER_SECOND]
    matrix = confusion_matrix(truths, truths)
    text = render_confusion_text(matrix.in_order(PUBLISHED_CLASS_ORDER))
    lines = text.splitlines()
    assert lines[0].startswith("Correct class")
    assert "Fail" in lines[0] and "First" in lines[0]
    assert lines[1].startswith("Fail")
    assert lines[-1].startswith("Total")
    assert lines[-1].rstrip().endswith("3")


def test_render_report_text_mentions_metrics() -> None:
    table = build_feature_table(transcript_rows(n_students=40))
    model = train_forest(table.rows, ForestParams(tree_count=5), seed=2)
    report = evaluate_forest(model, table.rows)
    text = render_report_text(report)
    assert "classification accuracy" in text
    assert "AUC" in text
    assert "error rate" in text
