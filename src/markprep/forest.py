"""From-scratch random-forest classifier over degree bands.

CART trees with Gini-impurity split search, bootstrap resampling, and
per-node uniform feature subsets.  All randomness comes from per-purpose
sub-streams under one seed: key (0,) shuffles holdout splits, key (1, t)
drives tree t's bootstrap draw and feature subsets.  Trees are built
depth-first, left child before right, so a tree's stream consumption is
a fixed function of its data.

Split thresholds sit at midpoints between consecutive distinct sorted
feature values; rows with feature <= threshold go left.  ``proba_vector``
averages a row's leaf distributions over the trees; ``evaluate_forest``
takes the argmax, breaking ties toward the worse band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from .core import DegreeBand
from .streams import substream

_STREAM_HOLDOUT = 0
_STREAM_TREE = 1

_N_BANDS = len(DegreeBand)

# A split must beat the parent impurity by more than this to be worth
# keeping; guards against float dust producing size-zero progress.
_MIN_IMPURITY_GAIN = 1e-12


class SingleClassError(ValueError):
    """Raised when training labels contain fewer than two classes."""


def gini_impurity(counts: Sequence[int]) -> float:
    """1 - sum of squared class proportions; 0 for pure or empty nodes."""
    total = sum(counts)
    if total == 0:
        return 0.0
    return 1.0 - sum((count / total) ** 2 for count in counts)


@dataclass(frozen=True, slots=True)
class TreeNode:
    """Internal node (feature, threshold, children) or leaf (counts)."""

    feature: int | None
    threshold: float | None
    left: "TreeNode | None"
    right: "TreeNode | None"
    counts: tuple[int, ...] | None

    @property
    def is_leaf(self) -> bool:
        return self.counts is not None


@dataclass(frozen=True, slots=True)
class ForestParams:
    """Training knobs; max_features None means ceil(sqrt(feature count))."""

    tree_count: int = 100
    max_features: int | None = None
    min_leaf: int = 1
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.tree_count < 1:
            raise ValueError(f"tree_count must be >= 1, got {self.tree_count}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError(f"max_features must be >= 1, got {self.max_features}")


@dataclass(frozen=True, slots=True)
class ForestModel:
    trees: tuple[TreeNode, ...]
    params: ForestParams
    resolved_max_features: int
    n_features: int
    seed: int


@dataclass(frozen=True, slots=True)
class FeatureRow:
    """One student's feature vector and true band."""

    student_id: str
    features: tuple[float, ...]
    label: DegreeBand


@dataclass(frozen=True, slots=True)
class FeatureTable:
    """Aligned feature rows with column names; no missing cells."""

    column_names: tuple[str, ...]
    rows: tuple[FeatureRow, ...]

    def __post_init__(self) -> None:
        arity = len(self.column_names)
        for row in self.rows:
            if len(row.features) != arity:
                raise ValueError(
                    f"row {row.student_id!r} has {len(row.features)} features, "
                    f"expected {arity}"
                )


RowT = TypeVar("RowT")


def holdout_split(
    rows: Sequence[RowT], test_fraction: float, seed: int
) -> tuple[list[RowT], list[RowT]]:
    """Seeded shuffle, then split off round(test_fraction * n) test rows.

    Rounding is half-up.  Both sides must end up non-empty.
    """
    n = len(rows)
    if n < 2:
        raise ValueError(f"need at least 2 rows to split, got {n}")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n_test = int(math.floor(test_fraction * n + 0.5))
    if n_test == 0 or n_test == n:
        raise ValueError(
            f"test_fraction {test_fraction} leaves an empty side for {n} rows"
        )
    order = substream(seed, _STREAM_HOLDOUT).permutation(n)
    test = [rows[i] for i in order[:n_test]]
    train = [rows[i] for i in order[n_test:]]
    return train, test


def _leaf(counts: np.ndarray) -> TreeNode:
    return TreeNode(None, None, None, None, tuple(int(c) for c in counts))


def _best_split(
    x_matrix: np.ndarray,
    y: np.ndarray,
    indexes: np.ndarray,
    features: Sequence[int],
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """Lowest weighted child Gini over candidate cuts; None if no cut fits.

    Ties keep the first candidate encountered (feature draw order, then
    lowest cut position), which makes the search deterministic.
    """
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


def _grow_tree(
    x_matrix: np.ndarray,
    y: np.ndarray,
    root_indexes: np.ndarray,
    rng: np.random.Generator,
    max_features: int,
    min_leaf: int,
) -> TreeNode:
    """Iterative depth-first construction, left child expanded first."""
    EXPAND, ASSEMBLE = 0, 1
    work: list[tuple[int, object]] = [(EXPAND, root_indexes)]
    built: list[TreeNode] = []
    n_features = x_matrix.shape[1]
    while work:
        kind, payload = work.pop()
        if kind == ASSEMBLE:
            feature, threshold = payload  # type: ignore[misc]
            right = built.pop()
            left = built.pop()
            built.append(TreeNode(feature, threshold, left, right, None))
            continue
        indexes: np.ndarray = payload  # type: ignore[assignment]
        counts = np.bincount(y[indexes], minlength=_N_BANDS)
        n = len(indexes)
        if counts.max() == n or n < 2 * min_leaf:
            built.append(_leaf(counts))
            continue
        subset = rng.permutation(n_features)[:max_features]
        split = _best_split(x_matrix, y, indexes, [int(f) for f in subset], min_leaf)
        parent_gini = gini_impurity(counts)
        if split is None or parent_gini - split[0] <= _MIN_IMPURITY_GAIN:
            built.append(_leaf(counts))
            continue
        _, feature, threshold = split
        goes_left = x_matrix[indexes, feature] <= threshold
        work.append((ASSEMBLE, (feature, threshold)))
        work.append((EXPAND, indexes[~goes_left]))
        work.append((EXPAND, indexes[goes_left]))
    (root,) = built
    return root


def train_forest(
    rows: Sequence[FeatureRow],
    params: ForestParams,
    seed: int,
) -> ForestModel:
    """Train a seeded forest; deterministic for a fixed seed.

    Each tree draws its bootstrap resample and per-node feature subsets
    from its own sub-stream.
    """
    if not rows:
        raise ValueError("cannot train on zero rows")
    x_matrix = np.array([row.features for row in rows], dtype=float)
    y = np.array([int(row.label) for row in rows], dtype=np.int64)
    if np.unique(y).size < 2:
        raise SingleClassError("training data contains a single band")
    n_rows, n_features = x_matrix.shape
    if params.max_features is not None and params.max_features > n_features:
        raise ValueError(
            f"max_features {params.max_features} exceeds feature count {n_features}"
        )
    max_features = (
        params.max_features
        if params.max_features is not None
        else math.ceil(math.sqrt(n_features))
    )

    def build(tree_index: int) -> TreeNode:
        rng = substream(seed, _STREAM_TREE, tree_index)
        if params.bootstrap:
            indexes = rng.integers(0, n_rows, size=n_rows)
        else:
            indexes = np.arange(n_rows)
        return _grow_tree(x_matrix, y, indexes, rng, max_features, params.min_leaf)

    return ForestModel(
        trees=tuple(build(t) for t in range(params.tree_count)),
        params=params,
        resolved_max_features=max_features,
        n_features=n_features,
        seed=seed,
    )


def _leaf_for(tree: TreeNode, features: Sequence[float]) -> TreeNode:
    node = tree
    while not node.is_leaf:
        node = node.left if features[node.feature] <= node.threshold else node.right
    return node


def proba_vector(model: ForestModel, features: Sequence[float]) -> np.ndarray:
    """Averaged leaf class frequencies, indexed by band order worst-first."""
    if len(features) != model.n_features:
        raise ValueError(
            f"feature arity {len(features)} does not match model arity "
            f"{model.n_features}"
        )
    accumulated = np.zeros(_N_BANDS)
    for tree in model.trees:
        counts = np.array(_leaf_for(tree, features).counts, dtype=float)
        accumulated += counts / counts.sum()
    return accumulated / len(model.trees)
