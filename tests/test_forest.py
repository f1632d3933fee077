"""From-scratch random forest: splits, determinism, prediction."""
from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np
import pytest

from markprep import (
    CAR_COLUMN,
    DEFAULT_TEST_FRACTION,
    DegreeBand,
    FeatureRow,
    FeatureTable,
    ForestModel,
    ForestParams,
    SingleClassError,
    TreeNode,
    build_feature_table,
    compare_with_without_car,
    default_cohort_spec,
    evaluate_forest,
    generate_cohort,
    gini_impurity,
    holdout_split,
    proba_matrix,
    train_forest,
)
from markprep.forest import _best_split, _train_arms, _training_data

_N_BANDS = len(DegreeBand)


def blob_rows(rng: np.random.Generator, n: int = 200, noise: float = 0.6) -> list[FeatureRow]:
    """Three noisy clusters mapped to three bands."""
    rows = []
    centers = {
        DegreeBand.THIRD: (0.0, 0.0),
        DegreeBand.UPPER_SECOND: (4.0, 0.0),
        DegreeBand.FIRST: (0.0, 4.0),
    }
    bands = list(centers)
    for i in range(n):
        band = bands[i % 3]
        cx, cy = centers[band]
        rows.append(
            FeatureRow(
                student_id=f"S{i:03d}",
                features=(
                    float(cx + rng.normal(0, noise)),
                    float(cy + rng.normal(0, noise)),
                ),
                label=band,
            )
        )
    return rows


def test_gini_impurity_known_values() -> None:
    assert gini_impurity([10, 0, 0]) == 0.0
    assert gini_impurity([5, 5]) == pytest.approx(0.5)
    assert gini_impurity([1, 1, 1, 1]) == pytest.approx(0.75)
    assert gini_impurity([]) == 0.0
    assert gini_impurity([0, 0]) == 0.0
    assert gini_impurity([3, 1]) == pytest.approx(1.0 - (0.75**2 + 0.25**2))


def test_holdout_split_round_half_up() -> None:
    rows = list(range(406))
    train, test = holdout_split(rows, 0.6995, seed=42)
    assert len(test) == 284
    assert len(train) == 122
    assert sorted(train + test) == rows


def test_holdout_split_reproducible_and_seed_sensitive() -> None:
    rows = [f"r{i}" for i in range(50)]
    first = holdout_split(rows, 0.3, seed=7)
    second = holdout_split(rows, 0.3, seed=7)
    assert first == second
    assert holdout_split(rows, 0.3, seed=8) != first


def test_holdout_split_rejects_empty_sides() -> None:
    rows = list(range(10))
    with pytest.raises(ValueError):
        holdout_split(rows, 0.0, seed=1)
    with pytest.raises(ValueError):
        holdout_split(rows, 1.0, seed=1)
    with pytest.raises(ValueError):
        holdout_split(rows, 0.01, seed=1)  # rounds to zero test rows
    with pytest.raises(ValueError):
        holdout_split([1], 0.5, seed=1)


def test_feature_table_validates_arity() -> None:
    row = FeatureRow("S1", (1.0, 2.0), DegreeBand.PASS)
    bad = FeatureRow("S2", (1.0,), DegreeBand.FAIL)
    FeatureTable(("a", "b"), (row,))
    with pytest.raises(ValueError):
        FeatureTable(("a", "b"), (row, bad))


def test_train_forest_requires_two_classes() -> None:
    rows = [FeatureRow(f"S{i}", (float(i),), DegreeBand.PASS) for i in range(10)]
    with pytest.raises(SingleClassError):
        train_forest(rows, ForestParams(tree_count=3), seed=1)


def test_train_forest_validates_max_features() -> None:
    rows = blob_rows(np.random.default_rng(0), n=30)
    with pytest.raises(ValueError):
        train_forest(rows, ForestParams(tree_count=2, max_features=3), seed=1)


def test_train_forest_rejects_rows_of_unequal_arity() -> None:
    rows = blob_rows(np.random.default_rng(0), n=30)
    rows[7] = FeatureRow("short", rows[7].features[:1], rows[7].label)
    with pytest.raises(ValueError, match="same number of features"):
        train_forest(rows, ForestParams(tree_count=2), seed=1)


def test_forest_params_validation() -> None:
    with pytest.raises(ValueError):
        ForestParams(tree_count=0)
    with pytest.raises(ValueError):
        ForestParams(tree_count=5, min_leaf=0)
    with pytest.raises(ValueError):
        ForestParams(tree_count=5, max_features=0)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("tree_count", True),
        ("tree_count", 3.0),
        ("min_leaf", 1.5),
        ("min_leaf", True),
        ("max_features", 2.0),
        ("max_features", False),
        ("bootstrap", "no"),
        ("bootstrap", 1),
        ("bootstrap", None),
    ],
)
def test_forest_params_refuse_values_of_the_wrong_type(field: str, value: object) -> None:
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ForestParams(**{field: value})


def test_forest_learns_separable_blobs() -> None:
    rng = np.random.default_rng(1234)
    train = blob_rows(rng, n=240)
    test = blob_rows(rng, n=90)
    model = train_forest(train, ForestParams(tree_count=30), seed=5)
    assert evaluate_forest(model, test).classification_accuracy > 0.9


def test_forest_is_deterministic_for_fixed_seed() -> None:
    rows = blob_rows(np.random.default_rng(2), n=120)
    a = train_forest(rows, ForestParams(tree_count=12), seed=9)
    b = train_forest(rows, ForestParams(tree_count=12), seed=9)
    assert a.trees == b.trees
    c = train_forest(rows, ForestParams(tree_count=12), seed=10)
    assert c.trees != a.trees


def test_single_unbootstrapped_tree_memorizes_training_data() -> None:
    rng = np.random.default_rng(8)
    rows = blob_rows(rng, n=60, noise=0.4)
    params = ForestParams(tree_count=1, bootstrap=False, max_features=2)
    model = train_forest(rows, params, seed=3)
    assert evaluate_forest(model, rows).classification_accuracy == 1.0


def test_min_leaf_equal_to_n_forces_a_stump() -> None:
    rows = blob_rows(np.random.default_rng(4), n=30)
    params = ForestParams(tree_count=1, bootstrap=False, min_leaf=30)
    model = train_forest(rows, params, seed=2)
    (tree,) = model.trees
    assert tree.is_leaf


def test_probabilities_sum_to_one_over_all_bands() -> None:
    rows = blob_rows(np.random.default_rng(5), n=90)
    model = train_forest(rows, ForestParams(tree_count=7), seed=11)
    matrix = proba_matrix(model, np.array([row.features for row in rows]))
    assert len(matrix) == 90 and {len(row) for row in matrix} == {6}
    assert [sum(row) for row in matrix] == pytest.approx([1.0] * 90, abs=1e-12)


def test_proba_matrix_checks_arity() -> None:
    rows = blob_rows(np.random.default_rng(6), n=60)
    model = train_forest(rows, ForestParams(tree_count=3), seed=1)
    with pytest.raises(ValueError):
        proba_matrix(model, np.array([(1.0, 2.0, 3.0)]))
    with pytest.raises(ValueError):
        proba_matrix(model, np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "x_matrix",
    [[1.0, 2.0], [(1.0, 2.0), (1.0,)], [(1.0, 2.0, 3.0)], [(1.0, 2.0), 3.0]],
    ids=["1-D", "ragged", "wrong-arity", "scalar-row"],
)
def test_proba_matrix_rejects_rows_that_are_no_feature_matrix(x_matrix) -> None:
    rows = blob_rows(np.random.default_rng(6), n=60)
    model = train_forest(rows, ForestParams(tree_count=3), seed=1)
    assert len(proba_matrix(model, [(1.0, 2.0), (3.0, 4.0)])) == 2
    with pytest.raises(ValueError):
        proba_matrix(model, x_matrix)


def test_tied_leaf_counts_predict_the_worse_band() -> None:
    leaf = TreeNode(None, None, None, None, (0, 3, 0, 3, 0, 0))
    model = ForestModel((leaf,), 1)
    rows = [
        FeatureRow("S1", (0.0,), DegreeBand.PASS),
        FeatureRow("S2", (0.0,), DegreeBand.LOWER_SECOND),
    ]
    # PASS and LOWER_SECOND tie; ties resolve pessimistically
    report = evaluate_forest(model, rows)
    assert report.confusion.cells[DegreeBand.PASS][DegreeBand.PASS] == 1
    assert report.confusion.cells[DegreeBand.LOWER_SECOND][DegreeBand.PASS] == 1
    assert report.classification_accuracy == 0.5


def test_bootstrap_changes_trees_but_disabling_it_does_not_break_determinism() -> None:
    rows = blob_rows(np.random.default_rng(12), n=90)
    boot = train_forest(rows, ForestParams(tree_count=6), seed=4)
    plain_a = train_forest(rows, ForestParams(tree_count=6, bootstrap=False), seed=4)
    plain_b = train_forest(rows, ForestParams(tree_count=6, bootstrap=False), seed=4)
    assert plain_a.trees == plain_b.trees
    assert boot.trees != plain_a.trees


def _numpy_best_split(
    x_matrix: np.ndarray,
    y: np.ndarray,
    indexes: np.ndarray,
    features: Sequence[int],
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """Reference split search: the vectorized numpy form of the search,
    kept as the oracle for the list-based one."""
    n = len(indexes)
    best: tuple[float, int, float] | None = None
    for feature in features:
        values = x_matrix[indexes, feature]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_labels = y[indexes[order]]

        boundary = sorted_values[:-1] < sorted_values[1:]
        if not boundary.any():
            continue
        one_hot = sorted_labels[:, None] == np.arange(_N_BANDS)[None, :]
        prefix = np.cumsum(one_hot, axis=0)
        left_counts = prefix[:-1].astype(float)
        total = prefix[-1].astype(float)
        left_n = np.arange(1, n, dtype=float)
        right_n = n - left_n
        valid = boundary & (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            continue
        gini_left = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - (((total - left_counts) / right_n[:, None]) ** 2).sum(axis=1)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        weighted = np.where(valid, weighted, np.inf)
        cut = int(np.argmin(weighted))
        score = float(weighted[cut])
        if best is None or score < best[0]:
            low, high = sorted_values[cut], sorted_values[cut + 1]
            threshold = (low + high) / 2.0
            if threshold >= high:
                # midpoint rounded up to the right value; fall back so the
                # left side keeps exactly the lower run
                threshold = float(low)
            best = (score, feature, float(threshold))
    return best


def _random_node_data(rng: np.random.Generator, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Five columns: continuous, a few tied values, constant, adjacent
    floats (whose midpoints round onto a neighbour), and integer marks."""
    x_matrix = np.column_stack(
        [
            rng.normal(60.0, 12.0, n_rows),
            rng.integers(0, 4, n_rows) * 2.5,
            np.full(n_rows, 7.0),
            1.0 + rng.integers(0, 4, n_rows) * np.finfo(float).eps,
            rng.integers(35, 80, n_rows).astype(float),
        ]
    )
    bands = rng.choice(_N_BANDS, size=int(rng.integers(1, _N_BANDS + 1)), replace=False)
    return x_matrix, rng.choice(bands, size=n_rows)


def test_split_search_matches_numpy_reference_bit_for_bit() -> None:
    rng = np.random.default_rng(20240607)
    n_features = 3
    orders = [
        order
        for size in range(1, n_features + 1)
        for order in itertools.permutations(range(n_features), size)
    ]
    fallbacks = 0
    for size in (2, 3, 4, 5, 7, 11, 16, 32, 61, 122, 200, 300):
        x_all, y_all = _random_node_data(rng, 300)
        for picked in itertools.combinations(range(x_all.shape[1]), n_features):
            x_matrix = x_all[:, picked]
            indexes = rng.integers(0, 300, size=size)
            counts = np.bincount(y_all[indexes], minlength=_N_BANDS).tolist()
            columns, labels = x_matrix.T.tolist(), y_all.tolist()
            # the oracle reads the drawn rows with their repeats; the
            # package reads the distinct rows and how often each was drawn
            weights = np.bincount(indexes, minlength=300).tolist()
            rows = np.flatnonzero(weights).tolist()
            for min_leaf in (1, 2, 3):
                for order in orders:
                    expected = _numpy_best_split(x_matrix, y_all, indexes, order, min_leaf)
                    got = _best_split(columns, labels, weights, rows, counts, order, min_leaf)
                    assert got == expected, (size, picked, min_leaf, order)
                    if got is not None and picked[got[1]] == 3:
                        values = x_matrix[indexes, got[1]]
                        high = values[values > got[2]].min()
                        fallbacks += (got[2] + high) / 2.0 >= high
    # the adjacent-float column reached the threshold fallback
    assert fallbacks


def _walk_proba(model: ForestModel, features: Sequence[float]) -> np.ndarray:
    accumulated = np.zeros(_N_BANDS)
    for tree in model.trees:
        node = tree
        while not node.is_leaf:
            node = node.left if features[node.feature] <= node.threshold else node.right
        counts = np.array(node.counts, dtype=float)
        accumulated += counts / counts.sum()
    return accumulated / len(model.trees)


def test_proba_matrix_equals_a_per_row_tree_walk() -> None:
    rng = np.random.default_rng(31)
    rows = blob_rows(rng, n=150, noise=1.5)
    # a minimum leaf size keeps leaves mixed, so their shares are inexact
    model = train_forest(rows[:60], ForestParams(tree_count=25, min_leaf=7), seed=7)
    x_matrix = np.array([row.features for row in rows])
    expected = np.array([_walk_proba(model, features) for features in x_matrix])
    assert np.array_equal(proba_matrix(model, x_matrix), expected)


def _arm_rows(rows: Sequence[FeatureRow], columns: list[list[float]]) -> list[FeatureRow]:
    """``rows`` with their features read from ``columns``."""
    return [
        FeatureRow(row.student_id, tuple(column[i] for column in columns), row.label)
        for i, row in enumerate(rows)
    ]


@functools.lru_cache(maxsize=1)
def _cohort_rows() -> list[FeatureRow]:
    table = build_feature_table(generate_cohort(default_cohort_spec(seed=42, student_count=406)))
    assert table.column_names[-1] == CAR_COLUMN
    return holdout_split(list(table.rows), DEFAULT_TEST_FRACTION, 42)[0]


def _blob3_rows() -> list[FeatureRow]:
    """Blob rows with a third, tied column, so max_features can be 3."""
    rows = blob_rows(np.random.default_rng(17), n=90)
    return [
        FeatureRow(row.student_id, (*row.features, float(i % 4)), row.label)
        for i, row in enumerate(rows)
    ]


@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("max_features", [1, 2, 3])
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("data", ["blobs", "cohort"])
def test_arms_grown_together_equal_arms_grown_apart(
    data: str, min_leaf: int, max_features: int, bootstrap: bool
) -> None:
    rows = _blob3_rows() if data == "blobs" else _cohort_rows()
    params = ForestParams(tree_count=4, max_features=max_features, min_leaf=min_leaf, bootstrap=bootstrap)
    live, labels = _training_data(rows, params)
    masked = list(live)
    masked[-1] = [0.0] * len(rows)
    # another first column: an arm that shares columns 1 and 2 but not 0,
    # so a search read back by column position would give it live's splits
    moved = list(live)
    moved[0] = [value + float(i % 3) for i, value in enumerate(live[0])]
    arms = [live, masked, moved]
    together = _train_arms(arms, labels, params, seed=8)
    apart = [train_forest(_arm_rows(rows, columns), params, seed=8) for columns in arms]
    assert together == apart
    assert _train_arms([live], labels, params, seed=8) == apart[:1]


def _split_features(tree: TreeNode) -> list[int]:
    """The feature of every internal node of ``tree``."""
    features, stack = [], [tree]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            features.append(node.feature)
            stack += [node.left, node.right]
    return features


# compare_with_without_car scores its masked forest on the test rows as
# they are, which is exact only because of this
@pytest.mark.parametrize("bootstrap", [True, False])
@pytest.mark.parametrize("max_features", [1, 3])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_forest_never_splits_on_a_constant_column(min_leaf: int, max_features: int, bootstrap: bool) -> None:
    rows = [
        FeatureRow(row.student_id, (row.features[0], 0.0, row.features[1]), row.label)
        for row in blob_rows(np.random.default_rng(23), n=90, noise=1.5)
    ]
    params = ForestParams(tree_count=10, max_features=max_features, min_leaf=min_leaf, bootstrap=bootstrap)
    model = train_forest(rows, params, seed=9)
    splits = [feature for tree in model.trees for feature in _split_features(tree)]
    assert splits and 1 not in splits
    given = [row.features for row in rows]
    moved = [(x, value, y) for (x, _, y), value in zip(given, itertools.cycle((-1e9, -1.0, 0.5, 7.0, 1e9)))]
    assert proba_matrix(model, moved) == proba_matrix(model, given)


def _zeroed(rows: Sequence[FeatureRow], column: int) -> list[FeatureRow]:
    return [
        FeatureRow(row.student_id, (*row.features[:column], 0.0, *row.features[column + 1 :]), row.label)
        for row in rows
    ]


def test_compare_equals_its_decomposition_into_public_calls() -> None:
    table = build_feature_table(generate_cohort(default_cohort_spec(seed=17, student_count=406)))
    car = table.column_names.index(CAR_COLUMN)
    params = ForestParams(tree_count=8)
    train, test = holdout_split(list(table.rows), DEFAULT_TEST_FRACTION, 5)
    with_car = evaluate_forest(train_forest(train, params, 5), test)
    without_car = evaluate_forest(train_forest(_zeroed(train, car), params, 5), _zeroed(test, car))
    result = compare_with_without_car(table, params, seed=5)
    assert (result.with_car, result.without_car) == (with_car, without_car)
