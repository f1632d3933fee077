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

A tree trains on its bootstrap as counts: one weight per training row,
the number of times the draw picked it.  A node is the list of its
distinct rows, and its size and band counts are sums of weights, so a
tree equals the one grown on the drawn rows with their repeats.  Forests
that differ only in some feature columns (``evaluation``'s with-CAR and
masked arms) grow together, tree t of each in turn from one bootstrap
draw, and a split search on a column the arms share runs once per
node's rows.

Split thresholds sit at midpoints between consecutive distinct sorted
feature values; rows with feature <= threshold go left.  ``proba_matrix``
averages each row's leaf distributions over the trees; ``evaluate_forest``
takes the first maximum, breaking ties toward the worse band.
"""
from __future__ import annotations

import copy
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
        for name in ("tree_count", "min_leaf", "max_features"):
            value = getattr(self, name)
            if value is None and name == "max_features":
                continue
            # a bool compares as 0 or 1, and a float would reach range()
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.bootstrap, bool):
            raise ValueError(f"bootstrap must be a bool, got {self.bootstrap!r}")


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


def _feature_split(
    column: list[float],
    labels: list[int],
    weights: list[int],
    rows: list[int],
    n: int,
    counts: list[int],
    present: list[int],
    min_leaf: int,
) -> tuple[float, float] | None:
    """One feature's lowest weighted child Gini and its threshold; None if
    no cut fits.

    The scan adds each row's weight to the left side.  A score is read
    only where the sorted values step up, and there the left counts are
    the same whatever the order of tied rows.  Ties keep the lowest cut.
    """
    order = sorted(rows, key=column.__getitem__)
    low = column[order[0]]
    if low == column[order[-1]]:
        return None
    left = [0] * _N_BANDS
    left_n = 0
    best_score = math.inf
    cut_low = cut_high = None
    for row, following in zip(order, order[1:]):
        weight = weights[row]
        left_n += weight
        left[labels[row]] += weight
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
    if cut_low is None:
        return None
    threshold = (cut_low + cut_high) / 2.0
    if threshold >= cut_high:
        # midpoint rounded up to the right value; fall back so the
        # left side keeps exactly the lower run
        threshold = cut_low
    return best_score, threshold


def _best_split(
    columns: list[list[float]],
    labels: list[int],
    weights: list[int],
    rows: list[int],
    counts: list[int],
    features: Sequence[int],
    min_leaf: int,
    shared: frozenset[int] = frozenset(),
    searched: dict | None = None,
) -> tuple[float, int, float] | None:
    """Lowest weighted child Gini over candidate cuts; None if no cut fits.

    ``rows`` are the node's distinct rows, ``weights`` the count of each
    training row and ``counts`` the node's weighted label counts.  Ties
    keep the first candidate encountered (feature draw order, then lowest
    cut position), which makes the search deterministic.  Each Gini sums
    its squared band shares worst band first, ``((a*a + b*b) + c*c) +
    ...``: another grouping moves the last bit of some scores and so some
    splits.  Only the bands present in the node are summed, since an
    absent band adds an exact 0.0.

    A feature in ``shared`` is searched once per node's rows: its result
    is kept in ``searched`` under ``(feature, tuple(rows))``, and a later
    node with the same rows reads it back.  A feature's best cut does not
    depend on the other features, so this moves no split.
    """
    n = sum(counts)
    present = [band for band in range(_N_BANDS) if counts[band]]
    best: tuple[float, int, float] | None = None
    node_key = None
    for feature in features:
        if feature in shared:
            if node_key is None:
                node_key = tuple(rows)
            key = (feature, node_key)
            if key in searched:
                found = searched[key]
            else:
                found = searched[key] = _feature_split(
                    columns[feature], labels, weights, rows, n, counts, present, min_leaf
                )
        else:
            found = _feature_split(columns[feature], labels, weights, rows, n, counts, present, min_leaf)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], feature, found[1])
    return best


def _grow_tree(
    columns: list[list[float]],
    labels: list[int],
    weights: list[int],
    root_rows: list[int],
    stream: Stream,
    max_features: int,
    min_leaf: int,
    shared: frozenset[int],
    searched: dict,
) -> TreeNode:
    """Iterative depth-first construction, left child expanded first.

    ``columns`` holds one list of values per feature, ``labels`` one band
    index per training row and ``weights`` the tree's count of each row.
    A node is the list of its distinct rows; its size and band counts sum
    their weights.  ``shared`` and ``searched`` are passed to
    ``_best_split``.
    """
    EXPAND, ASSEMBLE = 0, 1
    work: list[tuple[int, object]] = [(EXPAND, root_rows)]
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
        rows: list[int] = payload  # type: ignore[assignment]
        counts = [0] * _N_BANDS
        for row in rows:
            counts[labels[row]] += weights[row]
        n = sum(counts)
        split = None
        if max(counts) < n and n >= 2 * min_leaf:
            subset = shuffled_prefix(n_features, stream.words(max_features))
            split = _best_split(columns, labels, weights, rows, counts, subset, min_leaf, shared, searched)
        if split is None or gini_impurity(counts) - split[0] <= _MIN_IMPURITY_GAIN:
            built.append(TreeNode(None, None, None, None, tuple(counts)))
            continue
        _, feature, threshold = split
        column = columns[feature]
        work.append((ASSEMBLE, (feature, threshold)))
        work.append((EXPAND, [row for row in rows if column[row] > threshold]))
        work.append((EXPAND, [row for row in rows if column[row] <= threshold]))
    (root,) = built
    return root


def _training_data(rows: Sequence[FeatureRow], params: ForestParams) -> tuple[list[list[float]], list[int]]:
    """The feature columns and band indexes of training rows, after the
    checks ``train_forest`` makes before it trains."""
    if not rows:
        raise ValueError("cannot train on zero rows")
    labels = [int(row.label) for row in rows]
    if len(set(labels)) < 2:
        raise SingleClassError("training data contains a single band")
    n_features = len(rows[0].features)
    if any(len(row.features) != n_features for row in rows):
        raise ValueError("every row must have the same number of features")
    if params.max_features is not None and params.max_features > n_features:
        raise ValueError(
            f"max_features {params.max_features} exceeds feature count {n_features}"
        )
    columns = [[float(value) for value in column] for column in zip(*(row.features for row in rows))]
    return columns, labels


def _train_arms(
    arm_columns: Sequence[list[list[float]]],
    labels: list[int],
    params: ForestParams,
    seed: int,
) -> list[ForestModel]:
    """One forest per arm, each arm a list of feature columns over the same
    training rows; every arm's forest equals ``train_forest`` on its rows.

    Tree t of every arm grows from one bootstrap draw, in arm order, and
    each arm's node draws continue its own copy of tree t's stream.  A
    column that every arm holds as the same list object is shared: within
    tree t its split search at a node's rows runs once.  The searches are
    dropped after each tree, whose counts are its own.
    """
    n_rows, n_features = len(labels), len(arm_columns[0])
    max_features = (
        params.max_features
        if params.max_features is not None
        else math.ceil(math.sqrt(n_features))
    )
    first = arm_columns[0]
    shared = frozenset(
        feature
        for feature in range(n_features)
        if len(arm_columns) > 1 and all(columns[feature] is first[feature] for columns in arm_columns)
    )
    trees: list[list[TreeNode]] = [[] for _ in arm_columns]
    for tree_index in range(params.tree_count):
        stream = Stream(seed, _STREAM_TREE, tree_index)
        if params.bootstrap:
            weights = [0] * n_rows
            for word in stream.words(n_rows):
                weights[bounded(word, n_rows)] += 1
            root = [row for row, weight in enumerate(weights) if weight]
        else:
            weights = [1] * n_rows
            root = list(range(n_rows))
        searched: dict = {}
        for arm_trees, columns in zip(trees, arm_columns):
            arm_trees.append(
                _grow_tree(columns, labels, weights, root, copy.copy(stream), max_features, params.min_leaf, shared, searched)
            )
    return [ForestModel(tuple(arm_trees), n_features) for arm_trees in trees]


def train_forest(
    rows: Sequence[FeatureRow],
    params: ForestParams,
    seed: int,
) -> ForestModel:
    """Train a seeded forest; deterministic for a fixed seed.

    Each tree draws its bootstrap resample and per-node feature subsets
    from its own sub-stream.
    """
    columns, labels = _training_data(rows, params)
    return _train_arms([columns], labels, params, seed)[0]


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
