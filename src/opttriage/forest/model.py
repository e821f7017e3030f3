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

import base64
import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from math import ceil, sqrt
from typing import Optional, Sequence

import numpy as np

from opttriage.features import FeatureSchema
from opttriage.forest import kernels

EASY, HARD = 0, 1
LABEL_NAMES = ("easy", "hard")

MODEL_FORMAT = "opttriage-forest"
MODEL_FORMAT_VERSION = 2


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
    """One decision tree in contiguous-array layout, nodes in preorder.

    A model's trees are views into its `NodeTable`.
    """

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


_TREE_DTYPES = {
    "feature": np.int32,
    "threshold": np.float64,
    "left": np.int32,
    "right": np.int32,
    "label": np.int8,
    "count_easy": np.int64,
    "count_hard": np.int64,
}


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Every node of a forest in one set of arrays: tree after tree, each in preorder.

    Two fields of `Tree` are derived, not stored: an internal node's left
    child is the node after it, and a leaf's class is hard iff
    count_hard >= count_easy. `check` holds every invariant routing relies on.
    """

    feature: np.ndarray  # int32, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    right: np.ndarray  # int32, index within the node's own tree, -1 at leaves
    count_easy: np.ndarray  # int64, training rows reaching the node
    count_hard: np.ndarray  # int64
    sizes: np.ndarray  # int64, nodes per tree, each at least 1

    @staticmethod
    def from_trees(trees: Sequence[Tree]) -> "NodeTable":
        """Concatenate per-tree arrays whose left and label are the derived ones."""
        for tree in trees:
            n = tree.n_nodes
            if n == 0 or any(getattr(tree, key).shape != (n,) for key in _TREE_DTYPES):
                raise ModelFormatError("tree arrays are inconsistent")

        def joined(key: str) -> np.ndarray:
            arrays = [getattr(tree, key) for tree in trees]
            return np.concatenate(arrays).astype(_TREE_DTYPES[key], copy=False)

        table = NodeTable(
            feature=joined("feature"),
            threshold=joined("threshold"),
            right=joined("right"),
            count_easy=joined("count_easy"),
            count_hard=joined("count_hard"),
            sizes=np.array([tree.n_nodes for tree in trees], dtype=np.int64),
        )
        table._reject(joined("left") != table.left, "has a left child other than the next node")
        table._reject(joined("label") != table.label, "has a class other than its counts give")
        return table

    @cached_property
    def roots(self) -> np.ndarray:
        """Table index of each tree's root."""
        return np.cumsum(self.sizes) - self.sizes

    @cached_property
    def tree_root(self) -> np.ndarray:
        """Per node, the table index of its tree's root."""
        return np.repeat(self.roots, self.sizes)

    @cached_property
    def left(self) -> np.ndarray:
        """int32 index within the tree: the next node, or -1 at leaves."""
        local = np.arange(len(self.feature)) - self.tree_root
        return np.where(self.feature >= 0, local + 1, -1).astype(np.int32)

    @cached_property
    def label(self) -> np.ndarray:
        """int8 leaf class, hard on a count tie; -1 at internal nodes."""
        leaf_class = (self.count_hard >= self.count_easy).astype(np.int8)
        return np.where(self.feature >= 0, np.int8(-1), leaf_class)

    @cached_property
    def right_node(self) -> np.ndarray:
        """Table index of each internal node's right child (meaningless at leaves)."""
        return self.right + self.tree_root

    def _reject(self, bad: np.ndarray, what: str) -> None:
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            tree = int(np.searchsorted(self.roots, at, side="right")) - 1
            raise ModelFormatError(f"tree {tree} node {at - int(self.roots[tree])} {what}")

    def check(self, width: int) -> None:
        """Reject a forest that routing cannot walk, checking all trees at once.

        Within its tree every child comes after its parent and every node but
        the root has exactly one parent, so each route ends at a leaf of the
        same tree within as many steps as the tree has nodes.
        """
        n = len(self.feature)
        internal = self.feature >= 0
        leaf = ~internal
        local = np.arange(n) - self.tree_root
        self._reject(self.feature >= width, "tests an out-of-range feature")
        self._reject(leaf & (self.feature != -1), "has a negative feature other than -1")
        self._reject(leaf & (self.right != -1), "is a leaf with a right child")
        self._reject(~np.isfinite(self.threshold), "has a non-finite threshold")
        self._reject(leaf & (self.threshold != 0.0), "is a leaf with a threshold")
        self._reject((self.count_easy < 0) | (self.count_hard < 0), "has a negative count")
        beyond = (self.right <= local) | (self.right >= np.repeat(self.sizes, self.sizes))
        self._reject(internal & beyond, "has a child not after it in its tree")

        parent = np.flatnonzero(internal)
        left, right = parent + 1, self.right_node[parent]
        n_parents = np.bincount(np.concatenate((left, right)), minlength=n)
        n_parents[self.roots] = 1  # a root has none, and no child is a root
        self._reject(n_parents != 1, "does not have exactly one parent")
        for counts in (self.count_easy, self.count_hard):
            bad = np.zeros(n, dtype=bool)
            bad[parent] = counts[parent] != counts[left] + counts[right]
            self._reject(bad, "has counts other than its children's sum")


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
    nodes: NodeTable
    training_fingerprint: str = ""

    @property
    def n_trees(self) -> int:
        return len(self.nodes.sizes)

    @cached_property
    def trees(self) -> list[Tree]:
        """Per-tree views into the node table, for code that walks one tree."""
        t = self.nodes
        bounds = zip(t.roots.tolist(), (t.roots + t.sizes).tolist())
        return [Tree(**{key: getattr(t, key)[a:b] for key in _TREE_DTYPES}) for a, b in bounds]


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
        nodes=NodeTable.from_trees(trees),
        training_fingerprint=_fingerprint(ids, x_rows, y),
    )


# ------------------------------------------------------------------ prediction


def hard_votes(model: RandomForestModel, x_rows: np.ndarray) -> np.ndarray:
    """Per row, the number of trees whose leaf is hard."""
    x_rows = _feature_rows(x_rows, model.schema.width)
    t = model.nodes
    leaves = kernels.route_forest(t.feature, t.threshold, t.right_node, t.roots, x_rows)
    return t.label[leaves].sum(axis=1, dtype=np.int64)


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
#
# Format v2 is one JSON document: the header (format, schema, params,
# fingerprint), the node count of each tree, and the node table's stored
# arrays, each as base64 of one fixed little-endian dtype. Thresholds are
# stored for internal nodes only; leaves hold 0.0. Format v1 stored all seven
# per-tree arrays as JSON numbers; it still loads, through the same table and
# check, when its left and label are the derived ones.

_NODE_DTYPES = {
    "feature": np.dtype("<i4"),
    "right": np.dtype("<i4"),
    "count_easy": np.dtype("<i8"),
    "count_hard": np.dtype("<i8"),
    "threshold": np.dtype("<f8"),  # internal nodes only
}


def _encode(values: np.ndarray, key: str) -> str:
    return base64.b64encode(values.astype(_NODE_DTYPES[key]).tobytes()).decode("ascii")


def dumps_model(model: RandomForestModel) -> str:
    """Canonical JSON text: sorted keys, fixed layout, fixed-dtype node arrays."""
    t = model.nodes
    internal = t.feature >= 0
    if not np.isfinite(t.threshold[internal]).all():
        raise ValueError("model has a non-finite threshold")
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
        "tree_sizes": t.sizes.tolist(),
        "nodes": {
            "feature": _encode(t.feature, "feature"),
            "right": _encode(t.right, "right"),
            "count_easy": _encode(t.count_easy, "count_easy"),
            "count_hard": _encode(t.count_hard, "count_hard"),
            "threshold": _encode(t.threshold[internal], "threshold"),
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def save_model(model: RandomForestModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))


def _decode(arrays: dict, key: str, count: int) -> np.ndarray:
    dtype = _NODE_DTYPES[key]
    text = arrays[key]
    if not isinstance(text, str):
        raise ModelFormatError(f"node array {key} is not base64 text")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as e:  # binascii.Error, or a non-ASCII character
        raise ModelFormatError(f"node array {key} is not base64: {e}") from e
    if len(data) != count * dtype.itemsize:
        raise ModelFormatError(
            f"node array {key} holds {len(data)} bytes, not {count * dtype.itemsize}"
        )
    return np.frombuffer(data, dtype=dtype)


def _v2_nodes(doc: dict, n_trees: int) -> NodeTable:
    sizes = doc["tree_sizes"]
    if (
        not isinstance(sizes, list)
        or len(sizes) != n_trees
        or any(type(size) is not int or size < 1 for size in sizes)
    ):
        raise ModelFormatError("tree_sizes must give each tree a positive node count")
    arrays = doc["nodes"]
    if not isinstance(arrays, dict) or set(arrays) != set(_NODE_DTYPES):
        raise ModelFormatError(f"nodes must hold exactly the arrays {sorted(_NODE_DTYPES)}")
    n = sum(sizes)
    feature = _decode(arrays, "feature", n)
    internal = feature >= 0
    threshold = np.zeros(n)
    threshold[internal] = _decode(arrays, "threshold", int(np.count_nonzero(internal)))
    return NodeTable(
        feature=feature,
        threshold=threshold,
        right=_decode(arrays, "right", n),
        count_easy=_decode(arrays, "count_easy", n),
        count_hard=_decode(arrays, "count_hard", n),
        sizes=np.array(sizes, dtype=np.int64),
    )


def _v1_nodes(doc: dict, n_trees: int) -> NodeTable:
    raw_trees = doc["trees"]
    if not isinstance(raw_trees, list) or len(raw_trees) != n_trees:
        raise ModelFormatError("tree count does not match params")
    trees = [
        Tree(**{key: np.asarray(raw[key], dtype=dtype) for key, dtype in _TREE_DTYPES.items()})
        for raw in raw_trees
    ]
    return NodeTable.from_trees(trees)


_NODE_READERS = {1: _v1_nodes, 2: _v2_nodes}


def loads_model(text: str) -> RandomForestModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"not a model document: {e}") from e
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ModelFormatError("not a model document")
    version = doc.get("format_version")
    if type(version) is not int or version not in _NODE_READERS:
        raise ModelFormatError(f"unsupported model format version {version!r}")
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
        params.validate(schema.width)
        fingerprint = str(doc["training_fingerprint"])
        nodes = _NODE_READERS[version](doc, params.n_trees)
        nodes.check(schema.width)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ModelFormatError(f"malformed model document: {e}") from e
    return RandomForestModel(
        schema=schema, params=params, nodes=nodes, training_fingerprint=fingerprint
    )


def load_model(path) -> RandomForestModel:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_model(fh.read())
