"""From-scratch random-forest classifier over degree bands.

CART trees with Gini-impurity split search, bootstrap resampling, and
per-node uniform feature subsets.  All randomness comes from per-purpose
streams under one seed: key (0,) shuffles holdout splits with a
Fisher-Yates shuffle of all n rows, and key (1, t) drives tree t.  A
tree's stream first gives n words for its bootstrap draw, one row index
``bounded(w, n)`` each, then, as the tree grows depth-first, left child
before right, each node it tries to split takes ``max_features`` words
for the first ``max_features`` items of a shuffle of the features.  So
a tree's stream consumption is a fixed function of its data.

Split thresholds sit at midpoints between consecutive distinct sorted
feature values; rows with feature <= threshold go left.  ``proba_matrix``
averages each row's leaf distributions over the trees; ``evaluate_forest``
takes the first maximum, breaking ties toward the worse band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

from .core import DegreeBand
from .streams import Stream, bounded, shuffled_prefix

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
    squares = 0.0  # added left to right: sum() compensates floats from 3.12
    for count in counts:
        squares += (count / total) ** 2
    return 1.0 - squares


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
    n_features: int


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
    order = shuffled_prefix(n, Stream(seed, _STREAM_HOLDOUT).words(n))
    test = [rows[i] for i in order[:n_test]]
    train = [rows[i] for i in order[n_test:]]
    return train, test


def _best_split(
    columns: list[list[float]],
    labels: list[int],
    indexes: list[int],
    counts: list[int],
    features: Sequence[int],
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """Lowest weighted child Gini over candidate cuts; None if no cut fits.

    ``counts`` are the node's label counts.  Ties keep the first candidate
    encountered (feature draw order, then lowest cut position), which
    makes the search deterministic.  Each Gini sums its squared band
    shares worst band first, ``((a*a + b*b) + c*c) + ...``: another
    grouping moves the last bit of some scores and so some splits.  Only
    the bands present in the node are summed, since an absent band adds
    an exact 0.0.
    """
    n = len(indexes)
    present = [band for band in range(_N_BANDS) if counts[band]]
    best: tuple[float, int, float] | None = None
    best_score = math.inf
    for feature in features:
        column = columns[feature]
        order = sorted(indexes, key=column.__getitem__)
        left = [0] * _N_BANDS
        cut_low = cut_high = None
        low = column[order[0]]
        for left_n, (row, following) in enumerate(zip(order, order[1:]), 1):
            left[labels[row]] += 1
            high = column[following]
            if not low < high:
                continue
            if min_leaf <= left_n <= n - min_leaf:
                right_n = n - left_n
                left_sum = right_sum = 0.0
                for band in present:
                    share = left[band] / left_n
                    left_sum += share * share
                    share = (counts[band] - left[band]) / right_n
                    right_sum += share * share
                score = (left_n * (1.0 - left_sum) + right_n * (1.0 - right_sum)) / n
                if score < best_score:
                    best_score, cut_low, cut_high = score, low, high
            low = high
        if cut_low is not None:
            threshold = (cut_low + cut_high) / 2.0
            if threshold >= cut_high:
                # midpoint rounded up to the right value; fall back so the
                # left side keeps exactly the lower run
                threshold = cut_low
            best = (best_score, feature, threshold)
    return best


def _grow_tree(
    columns: list[list[float]],
    labels: list[int],
    root_indexes: list[int],
    stream: Stream,
    max_features: int,
    min_leaf: int,
) -> TreeNode:
    """Iterative depth-first construction, left child expanded first.

    ``columns`` holds one list of values per feature and ``labels`` one
    band index per training row; a node is the list of its row indexes.
    """
    EXPAND, ASSEMBLE = 0, 1
    work: list[tuple[int, object]] = [(EXPAND, root_indexes)]
    built: list[TreeNode] = []
    n_features = len(columns)
    while work:
        kind, payload = work.pop()
        if kind == ASSEMBLE:
            feature, threshold = payload  # type: ignore[misc]
            right = built.pop()
            left = built.pop()
            built.append(TreeNode(feature, threshold, left, right, None))
            continue
        indexes: list[int] = payload  # type: ignore[assignment]
        counts = [0] * _N_BANDS
        for row in indexes:
            counts[labels[row]] += 1
        n = len(indexes)
        split = None
        if max(counts) < n and n >= 2 * min_leaf:
            subset = shuffled_prefix(n_features, stream.words(max_features))
            split = _best_split(columns, labels, indexes, counts, subset, min_leaf)
        if split is None or gini_impurity(counts) - split[0] <= _MIN_IMPURITY_GAIN:
            built.append(TreeNode(None, None, None, None, tuple(counts)))
            continue
        _, feature, threshold = split
        column = columns[feature]
        work.append((ASSEMBLE, (feature, threshold)))
        work.append((EXPAND, [row for row in indexes if column[row] > threshold]))
        work.append((EXPAND, [row for row in indexes if column[row] <= threshold]))
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
    labels = [int(row.label) for row in rows]
    if len(set(labels)) < 2:
        raise SingleClassError("training data contains a single band")
    n_rows, n_features = len(rows), len(rows[0].features)
    if any(len(row.features) != n_features for row in rows):
        raise ValueError("every row must have the same number of features")
    if params.max_features is not None and params.max_features > n_features:
        raise ValueError(
            f"max_features {params.max_features} exceeds feature count {n_features}"
        )
    max_features = (
        params.max_features
        if params.max_features is not None
        else math.ceil(math.sqrt(n_features))
    )
    columns = [[float(value) for value in column] for column in zip(*(row.features for row in rows))]

    def build(tree_index: int) -> TreeNode:
        stream = Stream(seed, _STREAM_TREE, tree_index)
        if params.bootstrap:
            indexes = [bounded(word, n_rows) for word in stream.words(n_rows)]
        else:
            indexes = list(range(n_rows))
        return _grow_tree(columns, labels, indexes, stream, max_features, params.min_leaf)

    return ForestModel(tuple(build(t) for t in range(params.tree_count)), n_features)


def proba_matrix(model: ForestModel, x_matrix: Iterable[Iterable[float]]) -> list[list[float]]:
    """Averaged leaf class frequencies, one row per row of ``x_matrix``.

    Columns follow band order worst-first.  Each tree routes all rows at
    once, so a row adds its trees' leaf shares in tree order.  Only a
    leaf's non-zero shares are added: adding 0.0 to a non-negative total
    moves no bit.
    """
    try:
        rows = [[float(value) for value in row] for row in x_matrix]
    except TypeError:
        raise ValueError("the feature matrix must be a sequence of feature rows") from None
    if any(len(row) != model.n_features for row in rows):
        raise ValueError(f"every feature row must have the model's {model.n_features} features")
    columns = list(zip(*rows))
    accumulated = [[0.0] * _N_BANDS for _ in rows]
    every_row = list(range(len(rows)))
    for tree in model.trees:
        work = [(tree, every_row)]
        while work:
            node, members = work.pop()
            if not members:
                continue
            if node.counts is not None:
                total = sum(node.counts)
                for band, count in enumerate(node.counts):
                    if count:
                        share = count / total
                        for row in members:
                            accumulated[row][band] += share
                continue
            column, threshold = columns[node.feature], node.threshold
            work.append((node.right, [row for row in members if not column[row] <= threshold]))
            work.append((node.left, [row for row in members if column[row] <= threshold]))
    trees = len(model.trees)
    return [[total / trees for total in row] for row in accumulated]
