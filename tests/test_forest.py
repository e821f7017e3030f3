"""Forest tests: split search vs brute force, training, serialization."""

import hashlib
import json

import numpy as np
import pytest

from opttriage import FeatureSchema
from opttriage.forest import (
    EASY,
    HARD,
    ForestParams,
    ModelFormatError,
    RandomForestModel,
    Split,
    Tree,
    best_split,
    build_tree,
    cross_validate,
    dumps_model,
    evaluate,
    gini,
    hard_votes,
    load_model,
    loads_model,
    predict_batch,
    save_model,
    train,
)
from opttriage.forest.kernels import split_scan


def _leaf_tree(label: int) -> Tree:
    return Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        label=np.array([label], dtype=np.int8),
        count_easy=np.array([1], dtype=np.int64),
        count_hard=np.array([1], dtype=np.int64),
    )


def _model_of_leaves(labels: list[int], max_depth: int = 1) -> RandomForestModel:
    schema = FeatureSchema(max_depth)
    params = ForestParams(n_trees=len(labels)).resolved(schema.width)
    return RandomForestModel(schema=schema, params=params, trees=[_leaf_tree(v) for v in labels])


# ----------------------------------------------------------------------- gini


def test_gini_oracle_values():
    assert gini((1, 1)) == 0.5
    assert gini((4, 0)) == 0.0
    assert gini((0, 4)) == 0.0
    assert gini((3, 1)) == 0.375


def test_gini_rejects_bad_counts():
    with pytest.raises(ValueError):
        gini((0, 0))
    with pytest.raises(ValueError):
        gini((-1, 2))


# ----------------------------------------------------------------- best_split


def test_best_split_midpoint_example():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1], dtype=np.int8)
    split = best_split(x, y, [0], min_samples_leaf=1)
    assert split == Split(feature=0, threshold=2.5, decrease=0.5)


def test_best_split_pure_node_returns_none():
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1, 1, 1], dtype=np.int8)
    assert best_split(x, y, [0], 1) is None


def test_best_split_constant_feature_returns_none():
    x = np.array([[5.0], [5.0], [5.0], [5.0]])
    y = np.array([0, 1, 1, 0], dtype=np.int8)
    assert best_split(x, y, [0], 1) is None
    assert best_split(x, y, [], 1) is None  # no candidates


def test_best_split_respects_min_samples_leaf():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 1, 1, 1], dtype=np.int8)
    assert best_split(x, y, [0], 1).threshold == 1.5
    assert best_split(x, y, [0], 2).threshold == 2.5
    assert best_split(x, y, [0], 3) is None


def test_best_split_tie_keeps_lowest_threshold():
    # both cut points reduce impurity by exactly the same amount
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0], dtype=np.int8)
    assert best_split(x, y, [0], 1).threshold == 1.5


def test_best_split_tie_keeps_lowest_feature():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1], dtype=np.int8)
    assert best_split(x, y, [0, 1], 1).feature == 0
    assert best_split(x, y, [1], 1).feature == 1


def _brute_split(x, y, min_leaf):
    """Independent exhaustive reference mirroring the update rule."""
    n = len(y)
    parent = gini((int(n - y.sum()), int(y.sum())))
    best = None
    for f in range(x.shape[1]):
        vals = np.unique(x[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (float(a) + float(b)) / 2.0
            left = x[:, f] <= thr
            n_l = int(left.sum())
            n_r = n - n_l
            if n_l < min_leaf or n_r < min_leaf:
                continue
            g_l = gini((int((y[left] == 0).sum()), int((y[left] == 1).sum())))
            g_r = gini((int((y[~left] == 0).sum()), int((y[~left] == 1).sum())))
            dec = parent - (n_l * g_l + n_r * g_r) / n
            if dec <= 0.0:
                continue
            if best is None or dec > best.decrease:
                best = Split(feature=f, threshold=thr, decrease=dec)
    return best


def test_best_split_matches_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(2, 21))
        width = int(rng.integers(1, 5))
        if trial % 2:
            x = rng.integers(0, 4, size=(n, width)).astype(np.float64)
        else:
            x = rng.uniform(0.0, 1.0, size=(n, width))
        y = rng.integers(0, 2, size=n).astype(np.int8)
        min_leaf = int(rng.integers(1, 4))
        got = best_split(x, y, range(width), min_leaf)
        want = _brute_split(x, y, min_leaf)
        assert got == want, f"trial {trial}"


def _loop_scan(values, labels, min_leaf):
    """Per-column reference: ascending cuts, strict improvement keeps the first."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sv, sl = values[order], labels[order]
    h_tot = int(sl.sum())
    e_tot = n - h_tot
    pe, ph = e_tot / n, h_tot / n
    g_parent = 1.0 - pe * pe - ph * ph
    best = None
    h_left = 0
    for cut in range(1, n):
        h_left += int(sl[cut - 1])
        if sv[cut] == sv[cut - 1] or cut < min_leaf or n - cut < min_leaf:
            continue
        n_l, n_r = cut, n - cut
        e_l, h_r = n_l - h_left, h_tot - h_left
        e_r = e_tot - e_l
        pe_l, ph_l = e_l / n_l, h_left / n_l
        pe_r, ph_r = e_r / n_r, h_r / n_r
        g_l = 1.0 - pe_l * pe_l - ph_l * ph_l
        g_r = 1.0 - pe_r * pe_r - ph_r * ph_r
        dec = g_parent - (n_l * g_l + n_r * g_r) / n
        if dec > 0.0 and (best is None or dec > best[1]):
            best = ((float(sv[cut - 1]) + float(sv[cut])) / 2.0, dec)
    return best


def test_split_scan_matches_per_column_loop():
    rng = np.random.default_rng(23)
    for trial in range(300):
        n = int(rng.integers(1, 120))
        k = int(rng.integers(1, 7))
        if trial % 3 == 0:
            block = rng.integers(0, 5, size=(n, k)).astype(np.float64)
        else:
            block = rng.uniform(-1.0, 1.0, size=(n, k))
        if trial % 4 == 0:
            block[:, -1] = block[:, 0]  # an exact tie across columns
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        min_leaf = int(rng.integers(1, max(2, n // 2 + 2)))
        want = None
        for col in range(k):
            got = _loop_scan(block[:, col], labels, min_leaf)
            if got is not None and (want is None or got[1] > want[2]):
                want = (col, got[0], got[1])
        assert split_scan(block, labels, min_leaf) == want, f"trial {trial}"


# ------------------------------------------------------------------- training


def _separable(n=40, width=12, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, width))
    y = (x[:, 3] > 0.5).astype(np.int8)
    return x, y


def test_train_fits_separable_data():
    x, y = _separable()
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=15, rng_seed=2))
    assert evaluate(model, x, y)["accuracy"] == 1.0


def test_train_same_seed_is_deterministic():
    x, y = _separable()
    a = train(x, y, FeatureSchema(1), ForestParams(n_trees=9, rng_seed=7))
    b = train(x, y, FeatureSchema(1), ForestParams(n_trees=9, rng_seed=7))
    assert dumps_model(a) == dumps_model(b)


def test_train_seed_changes_forest():
    x, y = _separable()
    a = train(x, y, FeatureSchema(1), ForestParams(n_trees=9, rng_seed=7))
    b = train(x, y, FeatureSchema(1), ForestParams(n_trees=9, rng_seed=8))
    assert dumps_model(a) != dumps_model(b)


def test_train_validates_inputs():
    x, y = _separable()
    with pytest.raises(ValueError):
        train(x, y, FeatureSchema(2), ForestParams())  # width mismatch
    with pytest.raises(ValueError):
        train(x, np.array([], dtype=np.int8), FeatureSchema(1), ForestParams())
    with pytest.raises(ValueError):
        train(x, y + 1, FeatureSchema(1), ForestParams())


def test_train_rejects_non_finite_rows():
    x, y = _separable()
    for bad in (np.nan, np.inf, -np.inf):
        x2 = x.copy()
        x2[7, 3] = bad
        with pytest.raises(ValueError, match="row 7"):
            train(x2, y, FeatureSchema(1), ForestParams(n_trees=2))


def test_training_fingerprint_tracks_data():
    x, y = _separable()
    ids = [f"f{i}" for i in range(len(y))]
    a = train(x, y, FeatureSchema(1), ForestParams(n_trees=3), ids=ids)
    y2 = y.copy()
    y2[0] ^= 1
    b = train(x, y2, FeatureSchema(1), ForestParams(n_trees=3), ids=ids)
    assert a.training_fingerprint.startswith("sha256:")
    assert a.training_fingerprint != b.training_fingerprint


def test_forest_params_validation():
    with pytest.raises(ValueError):
        ForestParams(n_trees=0).validate()
    with pytest.raises(ValueError):
        ForestParams(max_tree_depth=0).validate()
    with pytest.raises(ValueError):
        ForestParams(min_samples_leaf=0).validate()
    with pytest.raises(ValueError):
        ForestParams(bootstrap_fraction=0.0).validate()
    with pytest.raises(ValueError):
        ForestParams(features_per_split=0).validate()


def test_features_per_split_default_is_sqrt_width():
    assert ForestParams().resolved(16).features_per_split == 4
    assert ForestParams().resolved(12).features_per_split == 4  # ceil(sqrt(12))
    assert ForestParams(features_per_split=2).resolved(16).features_per_split == 2


def test_build_tree_single_class_is_one_leaf():
    x = np.zeros((5, 12))
    y = np.zeros(5, dtype=np.int8)
    tree, sample = build_tree(x, y, ForestParams().resolved(12), np.random.default_rng(0))
    assert tree.n_nodes == 1
    assert tree.label[0] == EASY
    assert len(sample) == 5


# --------------------------------------------------------------- golden bytes
#
# sha256 of dumps_model on two fixed seeded datasets. A change to the split
# arithmetic, to the tie order (lowest feature, then lowest threshold) or
# to the order of each tree's RNG draws changes these digests. They also
# rest on numpy's Generator streams, which NEP 19 lets a numpy release change.


def _golden_uniform():
    rng = np.random.default_rng(20190530)
    x = rng.uniform(0.0, 1.0, size=(400, 16))
    y = (x[:, 1] + x[:, 9] + 0.4 * rng.uniform(size=400) > 1.2).astype(np.int8)
    return x, y, ForestParams(n_trees=25, rng_seed=17)


def _golden_ties():
    # few distinct values, and columns 8..15 repeat columns 0..7, so equal
    # decreases occur both across features and across thresholds
    rng = np.random.default_rng(4)
    x = rng.integers(0, 4, size=(300, 16)).astype(np.float64)
    x[:, 8:] = x[:, :8]
    y = (x[:, 2] + x[:, 5] + rng.integers(0, 3, size=300) >= 5).astype(np.int8)
    return x, y, ForestParams(n_trees=12, min_samples_leaf=1, rng_seed=5)


@pytest.mark.parametrize(
    "make, digest",
    [
        (_golden_uniform, "c2e3d5a9178a95d6fade9363d90e8bb7c1bf05ee556a8c1c64ab55b8865e8df8"),
        (_golden_ties, "f2b53d381002f81723babe066c8cfc2fbe361190e162fcdf4bbd1033e0354cca"),
    ],
    ids=["uniform", "ties"],
)
def test_model_bytes_are_golden(make, digest):
    x, y, params = make()
    text = dumps_model(train(x, y, FeatureSchema(3), params))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ----------------------------------------------------------------- prediction


def test_leaf_count_tie_votes_hard():
    x = np.array([[1.0] * 12, [1.0] * 12])
    y = np.array([0, 1], dtype=np.int8)
    params = ForestParams(n_trees=1, bootstrap_fraction=1.0, rng_seed=0).resolved(12)
    # bootstrap may duplicate a row; force the tie with an explicit builder run
    tree, _ = build_tree(x, y, params, np.random.default_rng(1))
    if tree.count_easy[0] == tree.count_hard[0]:
        assert tree.label[0] == HARD


def test_vote_tie_is_hard():
    model = _model_of_leaves([EASY, HARD])
    labels, votes = predict_batch(model, np.zeros((1, 12)))
    assert labels.tolist() == [HARD]
    assert votes.tolist() == [1]


def test_majority_easy_wins():
    model = _model_of_leaves([EASY, EASY, HARD])
    labels, votes = predict_batch(model, np.zeros((1, 12)))
    assert labels.tolist() == [EASY]
    assert votes.tolist() == [1]


def test_predict_batch_matches_single_predict():
    x, y = _separable(n=30)
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=7, rng_seed=1))
    labels, votes = predict_batch(model, x)
    for i in range(len(x)):
        one_label, one_votes = predict_batch(model, x[i : i + 1])
        assert one_label.tolist() == [labels[i]]
        assert one_votes.tolist() == [votes[i]]


def test_hard_votes_counts_tree_votes():
    model = _model_of_leaves([EASY, HARD, HARD])
    votes = hard_votes(model, np.zeros((4, 12)))
    assert votes.tolist() == [2, 2, 2, 2]


def test_hard_votes_rejects_non_finite_rows():
    model = _model_of_leaves([EASY, HARD, HARD])
    rows = np.zeros((3, 12))
    rows[1, :] = np.nan
    with pytest.raises(ValueError, match="row 1"):
        hard_votes(model, rows)
    with pytest.raises(ValueError, match="row 1"):
        predict_batch(model, rows)
    with pytest.raises(ValueError, match="row 0"):
        predict_batch(model, np.full((1, 12), np.inf))


# -------------------------------------------------------------------- metrics


def test_evaluate_confusion_orientation():
    model = _model_of_leaves([HARD])  # predicts hard everywhere
    x = np.zeros((3, 12))
    y = np.array([0, 0, 1], dtype=np.int8)
    m = evaluate(model, x, y)
    assert m["confusion"] == [[0, 2], [0, 1]]  # rows true, columns predicted
    assert m["accuracy"] == pytest.approx(1 / 3)
    assert m["precision"]["easy"] == 0.0  # no easy predictions: defined as 0
    assert m["precision"]["hard"] == pytest.approx(1 / 3)
    assert m["recall"]["hard"] == 1.0
    assert m["n_rows"] == 3


def test_cross_validate_reports_folds():
    x, y = _separable(n=40)
    ids = [f"f{i:02d}" for i in range(len(y))]
    report = cross_validate(x, y, ids, FeatureSchema(1), ForestParams(n_trees=5), k=4)
    assert report["k"] == 4
    assert len(report["folds"]) == 4
    assert report["mean_accuracy"] == pytest.approx(
        sum(f["accuracy"] for f in report["folds"]) / 4
    )


def test_cross_validate_is_deterministic():
    x, y = _separable(n=30)
    ids = [f"f{i:02d}" for i in range(len(y))]
    a = cross_validate(x, y, ids, FeatureSchema(1), ForestParams(n_trees=4), k=3)
    b = cross_validate(x, y, ids, FeatureSchema(1), ForestParams(n_trees=4), k=3)
    assert a == b


def test_cross_validate_validates():
    x, y = _separable(n=10)
    ids = [f"f{i}" for i in range(10)]
    with pytest.raises(ValueError):
        cross_validate(x, y, ids, FeatureSchema(1), k=1)
    with pytest.raises(ValueError):
        cross_validate(x, y, ids, FeatureSchema(1), k=11)
    with pytest.raises(ValueError):
        cross_validate(x, y, ids[:-1] + [ids[0]], FeatureSchema(1), k=2)


# -------------------------------------------------------------- serialization


def test_model_round_trip_is_byte_identical():
    x, y = _separable()
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=5, rng_seed=9))
    text = dumps_model(model)
    again = dumps_model(loads_model(text))
    assert text == again


def test_model_file_round_trip(tmp_path):
    x, y = _separable()
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=4, rng_seed=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert dumps_model(loaded) == dumps_model(model)
    labels_a, _ = predict_batch(model, x)
    labels_b, _ = predict_batch(loaded, x)
    assert np.array_equal(labels_a, labels_b)


def test_loads_model_rejects_garbage():
    with pytest.raises(ModelFormatError):
        loads_model("{}")
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps({"format": "something-else", "format_version": 1}))


def test_loads_model_rejects_malformed_tree():
    x, y = _separable()
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=2, rng_seed=4))
    doc = json.loads(dumps_model(model))
    doc["trees"][0]["left"] = doc["trees"][0]["left"][:-1]
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps(doc))


def test_dumps_model_rejects_non_finite_threshold():
    x, y = _separable()
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=2, rng_seed=4))
    internal = int(np.flatnonzero(model.trees[0].feature >= 0)[0])
    model.trees[0].threshold[internal] = np.nan
    with pytest.raises(ValueError):
        dumps_model(model)


def _saved_tree_doc():
    x, y = _separable()
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=2, rng_seed=4))
    doc = json.loads(dumps_model(model))
    assert sum(f >= 0 for f in doc["trees"][0]["feature"]) >= 3  # room for every mutation
    return doc


def _leaf(tree):
    return tree["feature"].index(-1)


def _second_internal(tree):
    return [i for i, f in enumerate(tree["feature"]) if f >= 0][1]


# name: (array, node, new value); a callable node or value is applied to the tree
TREE_MUTATIONS = {
    "root-left-cycles-to-root": ("left", 0, 0),
    "root-right-cycles-to-root": ("right", 0, 0),
    "child-before-parent": ("right", _second_internal, 1),
    "child-out-of-range": ("left", 0, 10_000),
    "child-negative": ("right", 0, -1),
    "child-with-two-parents": ("right", 0, lambda t: t["left"][0]),
    "leaf-without-class": ("label", _leaf, -1),
    "leaf-with-bad-class": ("label", _leaf, 7),
    "leaf-with-feature-minus-two": ("feature", _leaf, -2),
    "internal-with-class": ("label", 0, 1),
    "feature-out-of-range": ("feature", 0, 12),
    "feature-overflows-int32": ("feature", 0, 2**40),
    "counts-do-not-add-up": ("count_easy", 0, lambda t: t["count_easy"][0] + 1),
    "negative-count": ("count_hard", _leaf, -1),
    "nan-threshold": ("threshold", 0, float("nan")),
    "infinite-threshold": ("threshold", 0, float("inf")),
}


@pytest.mark.parametrize("mutation", sorted(TREE_MUTATIONS))
def test_loads_model_rejects_mutated_tree(mutation):
    doc = _saved_tree_doc()
    tree = doc["trees"][0]
    key, node, value = TREE_MUTATIONS[mutation]
    node = node(tree) if callable(node) else node
    tree[key][node] = value(tree) if callable(value) else value
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps(doc))
