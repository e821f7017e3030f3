"""Random forest over feature vectors, binary classes easy (0) / hard (1).

Determinism contract: training depends only on the rows, the params, and
the seed. Tree t draws from numpy's default generator seeded with
``rng_seed ^ t``: first its bootstrap sample, then one candidate set per
node that may split (its ``choice(width, k, replace=False)``), in preorder.
The trees of a forest advance together, a node of each per step, and
cross-validation grows the forests of all its folds in that one growth;
but each tree draws only from its own generator in its own preorder, so
it depends only on its own index and rows, and a trained model serializes
to identical bytes across runs.
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
from typing import Iterator, Optional, Sequence

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
        # exact types, as a model file stores them: a bool is no int
        for key, value in vars(self).items():
            if key != "bootstrap_fraction" and type(value) is not int:
                if not (key == "features_per_split" and value is None):
                    raise ValueError(f"{key} must be an integer, not {value!r}")
        if type(self.bootstrap_fraction) not in (int, float):
            raise ValueError(f"bootstrap_fraction must be a number, not {self.bootstrap_fraction!r}")
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


# The stored per-node arrays of a `NodeTable`, in the fixed little-endian
# dtypes the table holds them in and format v2 writes them in.
_NODE_DTYPES = {
    "feature": np.dtype("<i4"),  # -1 at leaves
    "right": np.dtype("<i4"),  # index within the node's own tree, -1 at leaves
    "count_easy": np.dtype("<i8"),  # training rows reaching the node
    "count_hard": np.dtype("<i8"),
    "threshold": np.dtype("<f8"),  # 0.0 at leaves; written for internal nodes only
}


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Every node of a forest in one set of arrays: tree after tree, each in preorder.

    One tree is a table of its own whose arrays are slices of the forest's
    (see `trees`). Two per-node fields are derived, not stored: an internal
    node's left child is the node after it, and a leaf's class is hard iff
    count_hard >= count_easy. `check` holds every invariant routing relies on.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    count_easy: np.ndarray
    count_hard: np.ndarray
    sizes: np.ndarray  # int64, nodes per tree, each at least 1

    def __post_init__(self) -> None:
        for key, dtype in _NODE_DTYPES.items():
            object.__setattr__(self, key, np.asarray(getattr(self, key), dtype=dtype))
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=np.int64))
        n = int(self.sizes.sum())
        if any(getattr(self, key).shape != (n,) for key in _NODE_DTYPES):
            raise ModelFormatError(f"node arrays do not hold the {n} nodes the tree sizes give")

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

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
    def trees(self) -> list["NodeTable"]:
        """One single-tree table per tree, whose stored arrays are slices of this one's."""
        bounds = zip(self.roots.tolist(), (self.roots + self.sizes).tolist())
        return [
            NodeTable(sizes=[b - a], **{key: getattr(self, key)[a:b] for key in _NODE_DTYPES})
            for a, b in bounds
        ]

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


@dataclass
class RandomForestModel:
    schema: FeatureSchema
    params: ForestParams  # features_per_split resolved to a concrete int
    nodes: NodeTable
    training_fingerprint: str = ""

    @property
    def n_trees(self) -> int:
        return len(self.nodes.sizes)

    @property
    def trees(self) -> list[NodeTable]:
        """Per-tree views into the node table, for code that walks one tree."""
        return self.nodes.trees


_FINGERPRINT_ROWS = 256


def _fingerprint(ids: Sequence[str], x_rows: np.ndarray, y: np.ndarray) -> str:
    """sha256 of the compact JSON text of [[id, row, label], ...], hashed
    _FINGERPRINT_ROWS rows at a time so the whole text is never held."""
    digest = hashlib.sha256(b"[")
    for a in range(0, len(ids), _FINGERPRINT_ROWS):
        b = a + _FINGERPRINT_ROWS
        chunk = zip(ids[a:b], x_rows[a:b].tolist(), y[a:b].tolist())
        text = json.dumps([[str(i), row, lab] for i, row, lab in chunk], separators=(",", ":"))
        digest.update((b"," if a else b"") + text[1:-1].encode())  # no brackets
    digest.update(b"]")
    return "sha256:" + digest.hexdigest()


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


def _labels(y, n_rows: int) -> np.ndarray:
    """y as int8, checked to hold one label per row, each 0 (easy) or 1 (hard)."""
    y = np.asarray(y)
    if y.shape != (n_rows,):
        raise ValueError("need one label per row")
    if not ((y == EASY) | (y == HARD)).all():
        raise ValueError("labels must be 0 (easy) or 1 (hard)")
    return y.astype(np.int8, copy=False)


def _training_rows(x_rows, y, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Checked training data: finite float64 rows of the width, one 0/1 int8 label each."""
    x_rows = _feature_rows(x_rows, width)
    if not len(x_rows):
        raise ValueError("need at least one row")
    return x_rows, _labels(y, len(x_rows))


def _grow_forests(
    x_rows: np.ndarray, y: np.ndarray, params: ForestParams, subsets: Sequence[np.ndarray]
) -> Iterator[NodeTable]:
    """One forest per subset of rows (int32 indices into x_rows), all grown in one growth.

    Each forest's tree t draws its bootstrap from default_rng(rng_seed ^ t)
    over the subset's own positions, so a forest equals one trained on
    x_rows[subset] alone. The growth runs at the call; each forest's table
    is built when the caller reaches it. params must be resolved.
    """
    from opttriage.forest import grow  # only training loads the grower and its draws

    def roots():
        for subset in subsets:
            for t in range(params.n_trees):
                rng = np.random.default_rng(params.rng_seed ^ t)
                yield rng, subset[grow.bootstrap(rng, len(subset), params.bootstrap_fraction)]

    forests = grow.grow_trees(x_rows, y, params, roots(), params.n_trees)
    return (NodeTable(**fields) for fields in forests)


def train(
    x_rows: np.ndarray,
    y: np.ndarray,
    schema: FeatureSchema,
    params: ForestParams = ForestParams(),
    ids: Optional[Sequence[str]] = None,
) -> RandomForestModel:
    """Fit a forest. Rows are finite float64 feature vectors, y holds 0/1 labels."""
    x_rows, y = _training_rows(x_rows, y, schema.width)
    if ids is None:
        ids = [str(i) for i in range(len(x_rows))]
    elif len(ids) != len(x_rows):
        raise ValueError("need one id per row")
    params = params.resolved(schema.width)
    (nodes,) = _grow_forests(x_rows, y, params, [np.arange(len(x_rows), dtype=np.int32)])
    return RandomForestModel(
        schema=schema, params=params, nodes=nodes, training_fingerprint=_fingerprint(ids, x_rows, y)
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
    report as 0.0. y must hold one 0/1 label per row.
    """
    predicted, _votes = predict_batch(model, x_rows)
    y = _labels(y, len(predicted))
    confusion = np.bincount(2 * y + predicted, minlength=4).reshape(2, 2).tolist()
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
    n = len(y)
    if len(ids) != n or len(x_rows) != n:
        raise ValueError("need one id and one label per row")
    if len(set(ids)) != n:
        raise ValueError("function ids must be unique")
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError("more folds than rows")
    x_rows, y = _training_rows(x_rows, y, schema.width)
    params = params.resolved(schema.width)

    fold_of = np.zeros(n, dtype=np.int64)
    for cls in (EASY, HARD):
        members = sorted((y == cls).nonzero()[0].tolist(), key=lambda i: str(ids[i]))
        fold_of[members] = np.arange(len(members)) % k
    for f in range(k):
        test = fold_of == f
        if not test.any() or test.all():
            raise ValueError(f"fold {f} would leave an empty split; lower k")

    # The forests of all folds grow together, each on its fold's training rows.
    trained = [np.flatnonzero(fold_of != f).astype(np.int32) for f in range(k)]
    folds = []
    for f, nodes in enumerate(_grow_forests(x_rows, y, params, trained)):
        # a fold model is evaluated and dropped, so it carries no fingerprint
        model = RandomForestModel(schema=schema, params=params, nodes=nodes)
        test = fold_of == f
        folds.append(evaluate(model, x_rows[test], y[test]))
        del model, nodes  # before the next fold's table is built
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

def _encode(values: np.ndarray) -> str:
    """Base64 of a node array, already in its `_NODE_DTYPES` dtype."""
    return base64.b64encode(values.tobytes()).decode("ascii")


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
            "feature": _encode(t.feature),
            "right": _encode(t.right),
            "count_easy": _encode(t.count_easy),
            "count_hard": _encode(t.count_hard),
            "threshold": _encode(t.threshold[internal]),
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
        sizes=sizes,
    )


def _v1_nodes(doc: dict, n_trees: int) -> NodeTable:
    raw_trees = doc["trees"]
    if not isinstance(raw_trees, list) or len(raw_trees) != n_trees:
        raise ModelFormatError("tree count does not match params")
    # v1 also stored left and label, which must be the derived ones
    dtypes = {**_NODE_DTYPES, "left": np.dtype(np.int64), "label": np.dtype(np.int64)}
    trees = [
        {key: np.asarray(raw[key], dtype=dtype) for key, dtype in dtypes.items()}
        for raw in raw_trees
    ]
    sizes = [len(tree["feature"]) for tree in trees]
    for tree, n in zip(trees, sizes):
        if n == 0 or any(values.shape != (n,) for values in tree.values()):
            raise ModelFormatError("tree arrays are inconsistent")
    joined = {key: np.concatenate([tree[key] for tree in trees]) for key in dtypes}
    table = NodeTable(sizes=sizes, **{key: joined[key] for key in _NODE_DTYPES})
    table._reject(joined["left"] != table.left, "has a left child other than the next node")
    table._reject(joined["label"] != table.label, "has a class other than its counts give")
    return table


_NODE_READERS = {1: _v1_nodes, 2: _v2_nodes}


def _int_field(fields: dict, key: str) -> int:
    value = fields[key]
    if type(value) is not int:  # not a bool, a float or a string that reads as one
        raise ModelFormatError(f"{key} must be an integer, not {value!r}")
    return value


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
        schema = FeatureSchema(max_depth=_int_field(doc["schema"], "max_depth"))
        p = doc["params"]
        fraction = p["bootstrap_fraction"]
        if type(fraction) not in (int, float):
            raise ModelFormatError(f"bootstrap_fraction must be a number, not {fraction!r}")
        params = ForestParams(
            n_trees=_int_field(p, "n_trees"),
            max_tree_depth=_int_field(p, "max_tree_depth"),
            min_samples_leaf=_int_field(p, "min_samples_leaf"),
            features_per_split=_int_field(p, "features_per_split"),
            bootstrap_fraction=float(fraction),
            rng_seed=_int_field(p, "rng_seed"),
        )
        params.validate(schema.width)
        fingerprint = doc["training_fingerprint"]
        if type(fingerprint) is not str:
            raise ModelFormatError(f"training_fingerprint must be a string, not {fingerprint!r}")
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
