"""Random forest over feature vectors, binary classes easy (0) / hard (1).

Determinism contract: training depends only on the rows, the params, and
the seed. Tree t draws from numpy's default generator seeded with
``rng_seed ^ t``, so each tree depends only on its own index, and a
trained model serializes to identical bytes across runs.
Every tie breaks the same way: equal split quality keeps the lower feature
index then the lower threshold, and vote or leaf-count ties go to hard,
the safe side for flag selection.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from math import ceil, sqrt
from typing import Optional, Sequence

import numpy as np

from opttriage.features import FeatureSchema
from opttriage.forest import kernels

EASY, HARD = 0, 1
LABEL_NAMES = ("easy", "hard")

MODEL_FORMAT = "opttriage-forest"
MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """A model document is malformed, truncated, or from another version."""


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 25
    max_tree_depth: int = 12
    min_samples_leaf: int = 2
    features_per_split: Optional[int] = None  # None: ceil(sqrt(width)) at fit time
    bootstrap_fraction: float = 1.0
    rng_seed: int = 0

    def validate(self, width: Optional[int] = None) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be at least 1")
        if self.max_tree_depth < 1:
            raise ValueError("max_tree_depth must be at least 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if not 0.0 < self.bootstrap_fraction <= 1.0:
            raise ValueError("bootstrap_fraction must be in (0, 1]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        if self.features_per_split is not None:
            if self.features_per_split < 1:
                raise ValueError("features_per_split must be at least 1")
            if width is not None and self.features_per_split > width:
                raise ValueError("features_per_split exceeds the feature width")

    def resolved(self, width: int) -> "ForestParams":
        self.validate(width)
        if self.features_per_split is not None:
            return self
        return replace(self, features_per_split=min(width, ceil(sqrt(width))))


def gini(class_counts: Sequence[int]) -> float:
    """Gini impurity of an (easy, hard) count pair."""
    e, h = class_counts
    if e < 0 or h < 0:
        raise ValueError("class counts must be non-negative")
    n = e + h
    if n == 0:
        raise ValueError("empty node has no impurity")
    pe = e / n
    ph = h / n
    return 1.0 - pe * pe - ph * ph


@dataclass(frozen=True)
class Split:
    feature: int
    threshold: float
    decrease: float


def best_split(
    x_rows: np.ndarray,
    y: np.ndarray,
    candidates: Sequence[int],
    min_samples_leaf: int,
) -> Optional[Split]:
    """Exhaustive best split over the candidate features, or None.

    None means no candidate threshold both respects min_samples_leaf and
    strictly reduces Gini impurity. Candidates are scored in ascending
    order in one kernel call, so ties keep the lowest feature index, then
    the lowest threshold.
    """
    cands = sorted(map(int, candidates))
    found = kernels.split_scan(x_rows.take(cands, axis=1), y, min_samples_leaf)
    if found is None:
        return None
    col, thr, dec = found
    return Split(feature=cands[col], threshold=thr, decrease=dec)


@dataclass
class Tree:
    """One decision tree in contiguous-array layout, nodes in preorder."""

    feature: np.ndarray  # int32, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray  # int32, -1 at leaves
    right: np.ndarray  # int32, -1 at leaves
    label: np.ndarray  # int8, -1 at internal nodes
    count_easy: np.ndarray  # int64, training rows reaching the node
    count_hard: np.ndarray  # int64

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def route(self, x_rows: np.ndarray) -> np.ndarray:
        return kernels.route_tree(
            self.feature, self.threshold, self.left, self.right, self.label, x_rows
        )


class _TreeBuilder:
    def __init__(self, params: ForestParams, width: int, rng: np.random.Generator):
        self.params = params
        self.width = width
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.label: list[int] = []
        self.count_easy: list[int] = []
        self.count_hard: list[int] = []

    def _new_node(self, n_easy: int, n_hard: int) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.label.append(-1)
        self.count_easy.append(n_easy)
        self.count_hard.append(n_hard)
        return node

    def grow(self, x_rows: np.ndarray, y: np.ndarray, depth: int) -> int:
        n_hard = int(np.count_nonzero(y))
        n_easy = len(y) - n_hard
        node = self._new_node(n_easy, n_hard)
        split = None
        if n_easy > 0 and n_hard > 0 and depth < self.params.max_tree_depth:
            k = self.params.features_per_split
            cands = np.sort(self.rng.choice(self.width, size=k, replace=False))
            split = best_split(x_rows, y, cands, self.params.min_samples_leaf)
        if split is None:
            self.label[node] = HARD if n_hard >= n_easy else EASY
            return node
        goes_left = x_rows[:, split.feature] <= split.threshold
        goes_right = ~goes_left
        self.feature[node] = split.feature
        self.threshold[node] = split.threshold
        self.left[node] = self.grow(x_rows[goes_left], y[goes_left], depth + 1)
        self.right[node] = self.grow(x_rows[goes_right], y[goes_right], depth + 1)
        return node

    def finish(self) -> Tree:
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            label=np.asarray(self.label, dtype=np.int8),
            count_easy=np.asarray(self.count_easy, dtype=np.int64),
            count_hard=np.asarray(self.count_hard, dtype=np.int64),
        )


def build_tree(
    x_rows: np.ndarray,
    y: np.ndarray,
    params: ForestParams,
    tree_rng: np.random.Generator,
) -> tuple[Tree, np.ndarray]:
    """Grow one tree on a bootstrap sample; returns the tree and the sample."""
    n, width = x_rows.shape
    sample_size = max(1, int(round(params.bootstrap_fraction * n)))
    sample = tree_rng.integers(0, n, size=sample_size)  # with replacement
    builder = _TreeBuilder(params, width, tree_rng)
    builder.grow(x_rows[sample], y[sample], depth=0)
    return builder.finish(), sample


@dataclass
class RandomForestModel:
    schema: FeatureSchema
    params: ForestParams  # features_per_split resolved to a concrete int
    trees: list[Tree]
    training_fingerprint: str = ""

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _fingerprint(ids: Sequence[str], x_rows: np.ndarray, y: np.ndarray) -> str:
    doc = [
        [str(i), [float(v) for v in row], int(lab)]
        for i, row, lab in zip(ids, x_rows, y)
    ]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _feature_rows(x_rows: np.ndarray, width: int) -> np.ndarray:
    """x_rows as contiguous float64, checked for shape and finite values."""
    x_rows = np.ascontiguousarray(x_rows, dtype=np.float64)
    if x_rows.ndim != 2 or x_rows.shape[1] != width:
        raise ValueError(f"expected rows of width {width}")
    finite = np.isfinite(x_rows).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"row {bad} has a non-finite feature value")
    return x_rows


def train(
    x_rows: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    params: ForestParams = ForestParams(),
    ids: Optional[Sequence[str]] = None,
) -> RandomForestModel:
    """Fit a forest. Rows are finite float64 feature vectors, y holds 0/1 labels."""
    x_rows = _feature_rows(x_rows, schema.width)
    y = np.asarray(y, dtype=np.int8)
    if len(y) != len(x_rows) or len(y) == 0:
        raise ValueError("need one label per row and at least one row")
    if not np.all((y == EASY) | (y == HARD)):
        raise ValueError("labels must be 0 (easy) or 1 (hard)")
    params = params.resolved(schema.width)
    trees = [
        build_tree(x_rows, y, params, np.random.default_rng(params.rng_seed ^ t))[0]
        for t in range(params.n_trees)
    ]

    if ids is None:
        ids = [str(i) for i in range(len(x_rows))]
    return RandomForestModel(
        schema=schema,
        params=params,
        trees=trees,
        training_fingerprint=_fingerprint(ids, x_rows, y),
    )


# ------------------------------------------------------------------ prediction


def hard_votes(model: RandomForestModel, x_rows: np.ndarray) -> np.ndarray:
    x_rows = _feature_rows(x_rows, model.schema.width)
    votes = np.zeros(len(x_rows), dtype=np.int64)
    for tree in model.trees:
        votes += tree.route(x_rows)
    return votes


def predict_batch(
    model: RandomForestModel, x_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (labels, hard votes); a vote tie labels the row hard."""
    votes = hard_votes(model, x_rows)
    labels = (2 * votes >= model.n_trees).astype(np.int8)
    return labels, votes


# --------------------------------------------------------------------- metrics


def _safe_ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def evaluate(model: RandomForestModel, x_rows: np.ndarray, y: np.ndarray) -> dict:
    """Accuracy, per-class precision/recall, and the confusion matrix.

    Confusion rows are the true class, columns the predicted class, in
    (easy, hard) order. Undefined ratios (empty class or empty prediction)
    report as 0.0.
    """
    y = np.asarray(y, dtype=np.int8)
    predicted, _votes = predict_batch(model, x_rows)
    confusion = [[0, 0], [0, 0]]
    for t, p in zip(y, predicted):
        confusion[int(t)][int(p)] += 1
    correct = confusion[EASY][EASY] + confusion[HARD][HARD]
    total = len(y)
    precision = {
        name: _safe_ratio(confusion[c][c], confusion[EASY][c] + confusion[HARD][c])
        for c, name in enumerate(LABEL_NAMES)
    }
    recall = {
        name: _safe_ratio(confusion[c][c], confusion[c][EASY] + confusion[c][HARD])
        for c, name in enumerate(LABEL_NAMES)
    }
    return {
        "accuracy": _safe_ratio(correct, total),
        "precision": precision,
        "recall": recall,
        "confusion": confusion,
        "n_rows": total,
    }


def cross_validate(
    x_rows: np.ndarray,
    y: np.ndarray,
    ids: Sequence[str],
    schema: FeatureSchema,
    params: ForestParams = ForestParams(),
    k: int = 5,
) -> dict:
    """k-fold cross-validation, folds split by function id.

    Stratified deterministically: within each class, rows are ordered by id
    and dealt round-robin into folds, so every id lands in exactly one fold.
    """
    y = np.asarray(y, dtype=np.int8)
    n = len(y)
    if len(ids) != n or len(x_rows) != n:
        raise ValueError("need one id and one label per row")
    if len(set(ids)) != n:
        raise ValueError("function ids must be unique")
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError("more folds than rows")

    fold_of = np.zeros(n, dtype=np.int64)
    for cls in (EASY, HARD):
        members = [i for i in range(n) if y[i] == cls]
        members.sort(key=lambda i: str(ids[i]))
        for j, i in enumerate(members):
            fold_of[i] = j % k

    folds = []
    for f in range(k):
        test = fold_of == f
        if not test.any() or test.all():
            raise ValueError(f"fold {f} would leave an empty split; lower k")
        model = train(
            x_rows[~test], y[~test], schema, params,
            ids=[ids[i] for i in np.nonzero(~test)[0]],
        )
        metrics = evaluate(model, x_rows[test], y[test])
        folds.append(metrics)
    return {
        "k": k,
        "folds": folds,
        "mean_accuracy": sum(m["accuracy"] for m in folds) / k,
    }


# --------------------------------------------------------------- serialization


def dumps_model(model: RandomForestModel) -> str:
    """Canonical JSON text: sorted keys, fixed layout, shortest-float repr."""
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "schema": {"max_depth": model.schema.max_depth},
        "params": {
            "n_trees": model.params.n_trees,
            "max_tree_depth": model.params.max_tree_depth,
            "min_samples_leaf": model.params.min_samples_leaf,
            "features_per_split": model.params.features_per_split,
            "bootstrap_fraction": model.params.bootstrap_fraction,
            "rng_seed": model.params.rng_seed,
        },
        "training_fingerprint": model.training_fingerprint,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "label": t.label.tolist(),
                "count_easy": t.count_easy.tolist(),
                "count_hard": t.count_hard.tolist(),
            }
            for t in model.trees
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_model(model: RandomForestModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))


_TREE_KEYS = ("feature", "threshold", "left", "right", "label", "count_easy", "count_hard")


def loads_model(text: str) -> RandomForestModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"not a model document: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a model document")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {doc.get('format_version')!r}"
        )
    try:
        schema = FeatureSchema(max_depth=int(doc["schema"]["max_depth"]))
        p = doc["params"]
        params = ForestParams(
            n_trees=int(p["n_trees"]),
            max_tree_depth=int(p["max_tree_depth"]),
            min_samples_leaf=int(p["min_samples_leaf"]),
            features_per_split=int(p["features_per_split"]),
            bootstrap_fraction=float(p["bootstrap_fraction"]),
            rng_seed=int(p["rng_seed"]),
        )
        fingerprint = str(doc["training_fingerprint"])
        raw_trees = doc["trees"]
        if not isinstance(raw_trees, list) or len(raw_trees) != params.n_trees:
            raise ModelFormatError("tree count does not match params")
        trees = []
        for raw in raw_trees:
            lengths = {len(raw[k]) for k in _TREE_KEYS}
            if len(lengths) != 1 or 0 in lengths:
                raise ModelFormatError("tree arrays are inconsistent")
            tree = Tree(
                feature=np.asarray(raw["feature"], dtype=np.int32),
                threshold=np.asarray(raw["threshold"], dtype=np.float64),
                left=np.asarray(raw["left"], dtype=np.int32),
                right=np.asarray(raw["right"], dtype=np.int32),
                label=np.asarray(raw["label"], dtype=np.int8),
                count_easy=np.asarray(raw["count_easy"], dtype=np.int64),
                count_hard=np.asarray(raw["count_hard"], dtype=np.int64),
            )
            _check_tree(tree, schema.width)
            trees.append(tree)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"malformed model document: {e}") from e
    params.validate(schema.width)
    return RandomForestModel(
        schema=schema, params=params, trees=trees, training_fingerprint=fingerprint
    )


def _check_tree(tree: Tree, width: int) -> None:
    """Reject a tree that is not a preorder layout routing can walk.

    Every child comes after its parent and every node but the root has
    exactly one parent, so each route ends at a leaf within n steps.
    """

    def reject(bad: np.ndarray, what: str, nodes: Optional[np.ndarray] = None) -> None:
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            raise ModelFormatError(f"node {at if nodes is None else int(nodes[at])} {what}")

    n = tree.n_nodes
    node = np.arange(n)
    internal = tree.feature >= 0
    leaf = ~internal
    reject(tree.feature >= width, "tests an out-of-range feature")
    reject(leaf & (tree.feature != -1), "has a negative feature other than -1")
    reject(leaf & (tree.label != EASY) & (tree.label != HARD), "is a leaf with no class")
    reject(internal & (tree.label != -1), "is an internal node with a class")
    reject(~np.isfinite(tree.threshold), "has a non-finite threshold")
    reject((tree.count_easy < 0) | (tree.count_hard < 0), "has a negative count")
    for child in (tree.left, tree.right):
        reject(internal & ((child <= node) | (child >= n)), "has a child not after it")

    parent = node[internal]
    left, right = tree.left[parent], tree.right[parent]
    n_parents = np.bincount(np.concatenate((left, right)), minlength=n)
    n_parents[0] = 1  # the root has none, and no child index can be 0
    reject(n_parents != 1, "does not have exactly one parent")
    for counts in (tree.count_easy, tree.count_hard):
        sums = counts[left] + counts[right]
        reject(counts[parent] != sums, "has counts other than its children's sum", parent)


def load_model(path) -> RandomForestModel:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())
