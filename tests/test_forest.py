"""From-scratch random forest: splits, determinism, prediction."""
from __future__ import annotations

import numpy as np
import pytest

from markprep import (
    DegreeBand,
    FeatureRow,
    FeatureTable,
    ForestModel,
    ForestParams,
    SingleClassError,
    TreeNode,
    evaluate_forest,
    gini_impurity,
    holdout_split,
    proba_vector,
    train_forest,
)


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


def test_forest_params_validation() -> None:
    with pytest.raises(ValueError):
        ForestParams(tree_count=0)
    with pytest.raises(ValueError):
        ForestParams(tree_count=5, min_leaf=0)
    with pytest.raises(ValueError):
        ForestParams(tree_count=5, max_features=0)


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
    vector = proba_vector(model, rows[0].features)
    assert vector.shape == (6,)
    assert vector.sum() == pytest.approx(1.0, abs=1e-12)


def test_proba_vector_checks_arity() -> None:
    rows = blob_rows(np.random.default_rng(6), n=60)
    model = train_forest(rows, ForestParams(tree_count=3), seed=1)
    with pytest.raises(ValueError):
        proba_vector(model, (1.0, 2.0, 3.0))


def test_tied_leaf_counts_predict_the_worse_band() -> None:
    leaf = TreeNode(None, None, None, None, (0, 3, 0, 3, 0, 0))
    model = ForestModel(
        trees=(leaf,),
        params=ForestParams(tree_count=1, max_features=1),
        resolved_max_features=1,
        n_features=1,
        seed=0,
    )
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
