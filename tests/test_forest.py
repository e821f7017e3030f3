"""Forest tests: split search vs brute force, training, serialization."""

import base64
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
    NodeTable,
    RandomForestModel,
    cross_validate,
    dumps_model,
    evaluate,
    export_decision_code,
    hard_votes,
    load_model,
    loads_model,
    predict_batch,
    save_model,
    train,
)
from opttriage.forest.grow import _STEP_ROWS
from opttriage.forest.model import _fingerprint
from opttriage.forest.kernels import rank_rows, split_scan

from conftest import DATA, reference_decision, set_v2_node_arrays, v2_node_arrays
from reference_grower import assert_same_trees, grow_one_tree, reference_forest, reference_tree
from split_oracle import Split, brute_split, gini, scan_one_node


def _model_of_leaves(labels: list[int], max_depth: int = 1) -> RandomForestModel:
    schema = FeatureSchema(max_depth)
    params = ForestParams(n_trees=len(labels)).resolved(schema.width)
    n = len(labels)
    nodes = NodeTable(
        feature=[-1] * n,
        threshold=[0.0] * n,
        right=[-1] * n,
        count_easy=[1 - v for v in labels],  # the counts give the class
        count_hard=labels,
        sizes=[1] * n,
    )
    return RandomForestModel(schema=schema, params=params, nodes=nodes)


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


# ------------------------------------------------------ one node's split scan


def test_best_split_midpoint_example():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1], dtype=np.int8)
    split = scan_one_node(x, y, [0], min_leaf=1)
    assert split == Split(feature=0, threshold=2.5, decrease=0.5)


def test_best_split_pure_node_returns_none():
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([1, 1, 1], dtype=np.int8)
    assert scan_one_node(x, y, [0], 1) is None


def test_best_split_constant_feature_returns_none():
    x = np.array([[5.0], [5.0], [5.0], [5.0]])
    y = np.array([0, 1, 1, 0], dtype=np.int8)
    assert scan_one_node(x, y, [0], 1) is None
    assert scan_one_node(x, y, [], 1) is None  # no candidates


def test_best_split_respects_min_samples_leaf():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 1, 1, 1], dtype=np.int8)
    assert scan_one_node(x, y, [0], 1).threshold == 1.5
    assert scan_one_node(x, y, [0], 2).threshold == 2.5
    assert scan_one_node(x, y, [0], 3) is None


def test_best_split_tie_keeps_lowest_threshold():
    # both cut points reduce impurity by exactly the same amount
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0], dtype=np.int8)
    assert scan_one_node(x, y, [0], 1).threshold == 1.5


def test_best_split_tie_keeps_lowest_feature():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.column_stack([col, col])
    y = np.array([0, 0, 1, 1], dtype=np.int8)
    assert scan_one_node(x, y, [0, 1], 1).feature == 0
    assert scan_one_node(x, y, [1], 1).feature == 1


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
        got = scan_one_node(x, y, range(width), min_leaf)
        want = brute_split(x, y, min_leaf)
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
    # each trial is one batch: nodes of bootstrap-like row subsets of one
    # table, so a node's rows repeat and skip ranks of the whole table
    rng = np.random.default_rng(23)
    for trial in range(150):
        n = int(rng.integers(1, 120))
        width = int(rng.integers(1, 7))
        if trial % 3 == 0:
            x = rng.integers(0, 5, size=(n, width)).astype(np.float64)
        else:
            x = rng.uniform(-1.0, 1.0, size=(n, width))
        if trial % 4 == 0:
            x[:, -1] = x[:, 0]  # an exact tie across columns
        labels = rng.integers(0, 2, size=n).astype(np.int8)
        k = int(rng.integers(1, width + 1))
        n_nodes = int(rng.integers(1, 6))
        node_rows = [rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1))) for _ in range(n_nodes)]
        cands = np.sort(
            np.array([rng.choice(width, size=k, replace=False) for _ in range(n_nodes)]), axis=1
        )
        min_leaf = int(rng.integers(1, max(2, n // 2 + 2)))
        got = split_scan(
            rank_rows(x, labels),
            np.concatenate(node_rows),
            [len(r) for r in node_rows],
            cands,
            min_leaf,
        )
        for j, rows in enumerate(node_rows):
            want = None
            for feature in cands[j]:
                found = _loop_scan(x[rows, feature], labels[rows], min_leaf)
                if found is not None and (want is None or found[1] > want[2]):
                    want = (int(feature), found[0], found[1])
            if want is None:
                want = (-1, 0.0, 0.0)
            assert (int(got[0][j]), float(got[1][j]), float(got[2][j])) == want, (trial, j)


def test_split_scan_without_candidates_finds_no_cut():
    x = np.array([[1.0], [2.0]])
    labels = np.array([0, 1], dtype=np.int8)
    got = split_scan(rank_rows(x, labels), np.arange(2), [2], np.zeros((1, 0), dtype=np.int64), 1)
    assert got[0].tolist() == [-1]


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


@pytest.mark.parametrize("n", [1, 255, 256, 257, 2000])
def test_training_fingerprint_equals_the_one_shot_json_digest(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-300, 300, size=(n, 5))
    y = rng.integers(0, 2, size=n).astype(np.int8)
    ids = [f"kernel_{i:04d}.c::f\u00e9\"{i}" for i in range(n)]
    doc = [[str(i), [float(v) for v in row], int(lab)] for i, row, lab in zip(ids, x, y)]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert _fingerprint(ids, x, y) == "sha256:" + hashlib.sha256(blob).hexdigest()


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


@pytest.mark.parametrize("field, value", [
    ("n_trees", 2.0), ("max_tree_depth", 4.5), ("min_samples_leaf", True), ("rng_seed", "3"),
    ("features_per_split", 2.0), ("features_per_split", False), ("bootstrap_fraction", True),
    ("bootstrap_fraction", "0.5"),
])
def test_forest_params_of_the_wrong_type_are_rejected(field, value):
    # a model trained with them would dump, and then not load
    x, y = _separable()
    with pytest.raises(ValueError, match=field):
        train(x, y, FeatureSchema(1), ForestParams(**{field: value}))


def test_forest_params_take_an_int_bootstrap_fraction_and_no_features_per_split():
    ForestParams(bootstrap_fraction=1, features_per_split=None).validate(12)


def test_train_rejects_ids_of_another_length():
    x, y = _separable()
    with pytest.raises(ValueError, match="one id per row"):
        train(x, y, FeatureSchema(1), ForestParams(n_trees=2), ids=["a", "b"])


def test_features_per_split_default_is_sqrt_width():
    assert ForestParams().resolved(16).features_per_split == 4
    assert ForestParams().resolved(12).features_per_split == 4  # ceil(sqrt(12))
    assert ForestParams(features_per_split=2).resolved(16).features_per_split == 2


def test_build_tree_equals_reference_tree():
    x, y = _separable(n=60)
    for width in (1, 5, 12):
        for seed in range(4):
            params = ForestParams(features_per_split=min(width, 3)).resolved(width)
            tree, sample = grow_one_tree(x[:, :width], y, params, np.random.default_rng(seed))
            want = reference_tree(x[:, :width], y, params, np.random.default_rng(seed))
            assert_same_trees([tree], [want])
            assert sample.tolist() == np.random.default_rng(seed).integers(0, 60, size=60).tolist()


def test_forest_whose_roots_exceed_a_step_equals_reference():
    # every root alone holds more rows than one growth step takes
    rng = np.random.default_rng(31)
    n = _STEP_ROWS + 300
    x = rng.integers(0, 6, size=(n, 12)).astype(np.float64)
    y = (x[:, 2] + rng.integers(0, 4, size=n) >= 5).astype(np.int8)
    params = ForestParams(n_trees=3, max_tree_depth=4, rng_seed=8)
    model = train(x, y, FeatureSchema(1), params)
    assert_same_trees(model.trees, reference_forest(x, y, model.params))


def test_stack_table_is_sized_by_the_largest_sample_not_the_depth_cap():
    import tracemalloc

    # no node of a 200-row sample is deeper than 199, so a cap of 100,000
    # grows the trees a cap of 200 does, in a stack table of 201 slots
    rng = np.random.default_rng(17)
    x = rng.normal(size=(200, 12))
    y = rng.integers(0, 2, size=200).astype(np.int8)  # noise: deep trees
    texts = []
    for depth in (200, 100_000):
        params = ForestParams(n_trees=25, max_tree_depth=depth, min_samples_leaf=1, rng_seed=4)
        tracemalloc.start()
        try:
            model = train(x, y, FeatureSchema(1), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, (depth, peak)
        doc = json.loads(dumps_model(model))
        assert doc["params"].pop("max_tree_depth") == depth
        texts.append(json.dumps(doc, sort_keys=True))
    assert texts[0] == texts[1]


def test_build_tree_single_class_is_one_leaf():
    x = np.zeros((5, 12))
    y = np.zeros(5, dtype=np.int8)
    tree, sample = grow_one_tree(x, y, ForestParams().resolved(12), np.random.default_rng(0))
    assert tree.n_nodes == 1
    assert tree.label[0] == EASY
    assert len(sample) == 5


# --------------------------------------------------------------- golden bytes
#
# sha256 of dumps_model on two fixed seeded datasets. A change to the split
# arithmetic, to the tie order (lowest feature, then lowest threshold) or
# to the order of each tree's RNG draws changes these digests. They also
# rest on numpy's Generator streams, which NEP 19 lets a numpy release change.
# The model digests were re-recorded for model format v2, whose node arrays
# are base64 text; the trees did not change, which the export digests below
# pin independently of the file format.


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
        (_golden_uniform, "4497b8e6d2489156d77f39e90e7a897131a4f6830c6e1c9b4b3529fa95f4bc1f"),
        (_golden_ties, "59fb72c3658a59f97a95e0f2aed40f343a42af197e75d51f53a1241b479a9118"),
    ],
    ids=["uniform", "ties"],
)
def test_model_bytes_are_golden(make, digest):
    x, y, params = make()
    text = dumps_model(train(x, y, FeatureSchema(3), params))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "make, digest",
    [
        (_golden_uniform, "9a8e435f0313093cdbceae77478aa7fb4dc980e7e6c71c3e63795b91b298284f"),
        (_golden_ties, "1ca5f7c9185c70e2c706f17ec16046999c7c8bae9555ba51affc958911e71217"),
    ],
    ids=["uniform", "ties"],
)
def test_exported_code_is_golden(make, digest):
    # the export reads only the trees, so a model format change keeps these
    x, y, params = make()
    code = export_decision_code(train(x, y, FeatureSchema(3), params))
    assert hashlib.sha256(code.encode()).hexdigest() == digest


@pytest.mark.parametrize("make", [_golden_uniform, _golden_ties], ids=["uniform", "ties"])
def test_golden_forests_equal_reference_tree_for_tree(make):
    x, y, params = make()
    model = train(x, y, FeatureSchema(3), params)
    assert_same_trees(model.trees, reference_forest(x, y, model.params))


# ----------------------------------------------------------------- prediction


def test_leaf_count_tie_votes_hard():
    x = np.array([[1.0] * 12, [1.0] * 12])
    y = np.array([0, 1], dtype=np.int8)
    params = ForestParams(n_trees=1, bootstrap_fraction=1.0, rng_seed=0).resolved(12)
    # bootstrap may duplicate a row; force the tie with an explicit builder run
    tree, _ = grow_one_tree(x, y, params, np.random.default_rng(1))
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


def test_evaluate_needs_one_label_per_row():
    x, y = _separable(n=40)
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=3))
    with pytest.raises(ValueError, match="one label per row"):
        evaluate(model, x, y[:10])  # not the prefix's score


@pytest.mark.parametrize("bad", [-1, 2])
def test_evaluate_refuses_a_label_other_than_0_or_1(bad):
    x, y = _separable(n=40)
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=3))
    y = y.copy()
    y[7] = bad  # -1 would count as hard, 2 would index past the confusion matrix
    with pytest.raises(ValueError, match="labels must be 0"):
        evaluate(model, x, y)


def test_a_label_that_int8_would_wrap_to_1_is_refused():
    x, y = _separable(n=40)
    y = y.astype(np.int64)
    y[3] = 257  # 257 as int8 is 1
    ids = [f"f{i:02d}" for i in range(len(y))]
    with pytest.raises(ValueError, match="labels must be 0"):
        train(x, y, FeatureSchema(1), ForestParams(n_trees=2))
    with pytest.raises(ValueError, match="labels must be 0"):
        cross_validate(x, y, ids, FeatureSchema(1), ForestParams(n_trees=2), k=4)


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


def test_cross_validate_names_the_row_of_a_non_finite_value():
    x, y = _separable(n=20)
    x[7, 0] = np.nan
    ids = [f"f{i:02d}" for i in range(20)]
    # the row's index in the table, as train gives it, not within a fold
    for fit in (lambda: train(x, y, FeatureSchema(1), ForestParams(n_trees=3)),
                lambda: cross_validate(x, y, ids, FeatureSchema(1), ForestParams(n_trees=3), k=4)):
        with pytest.raises(ValueError, match=r"^row 7 has a non-finite feature value$"):
            fit()


def _seeded_table(n=157):
    rng = np.random.default_rng(2024)
    x = rng.integers(0, 7, size=(n, 16)).astype(np.float64)
    y = (x[:, 0] + x[:, 3] + rng.integers(0, 4, size=n) >= 9).astype(np.int8)
    return x, y, [f"fn{i:03d}" for i in range(n)]


# An odd bootstrap fraction leaves half a generator output over for the first
# candidate draw of some trees.
_CV_PARAMS = ForestParams(n_trees=6, max_tree_depth=6, rng_seed=11, bootstrap_fraction=0.9)


def test_cross_validate_report_is_pinned():
    # the reports of the former grower, one growth per fold
    x, y, ids = _seeded_table()
    pinned = {
        3: (0.6881954523463958, [[[25, 10], [9, 9]], [[20, 14], [4, 14]], [[26, 8], [4, 14]]]),
        5: (0.7325672043010752, [[[16, 5], [4, 7]], [[19, 2], [4, 7]], [[14, 7], [3, 8]],
                                 [[15, 5], [5, 6]], [[15, 5], [2, 8]]]),
    }
    for k, (mean_accuracy, confusions) in pinned.items():
        report = cross_validate(x, y, ids, FeatureSchema(3), _CV_PARAMS, k=k)
        assert report["mean_accuracy"] == mean_accuracy
        assert [fold["confusion"] for fold in report["folds"]] == confusions


def test_cross_validate_fold_forests_equal_reference_on_their_rows(monkeypatch):
    from opttriage.forest import model as model_module

    x, y, ids = _seeded_table()  # 157 rows: folds of unequal size for k=3 and k=5
    evaluate_fold = model_module.evaluate
    for k in (3, 5):
        seen = []
        monkeypatch.setattr(model_module, "evaluate",
                            lambda m, xs, ys: seen.append(m) or evaluate_fold(m, xs, ys))
        cross_validate(x, y, ids, FeatureSchema(3), _CV_PARAMS, k=k)
        fold_of = np.zeros(len(y), dtype=np.int64)
        for cls in (EASY, HARD):
            members = sorted(np.flatnonzero(y == cls).tolist(), key=lambda i: ids[i])
            fold_of[members] = np.arange(len(members)) % k
        assert len(seen) == k
        for f, fold_model in enumerate(seen):
            rows = fold_of != f
            assert_same_trees(fold_model.trees, reference_forest(x[rows], y[rows], fold_model.params))


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
    doc = _v1_doc()
    doc["trees"][0]["left"] = doc["trees"][0]["left"][:-1]
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps(doc))


def test_loads_model_rejects_v1_trees_whose_arrays_trade_lengths():
    # the joined right array has as many entries as the joined feature array,
    # but neither tree's arrays agree in length
    doc = _v1_doc()
    first, second = doc["trees"]
    second["right"].append(first["right"].pop())
    n_right, n_feature = (sum(len(t[key]) for t in doc["trees"]) for key in ("right", "feature"))
    assert n_right == n_feature
    with pytest.raises(ModelFormatError, match="tree arrays are inconsistent"):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("key", ["feature", "threshold", "right", "count_easy", "count_hard"])
def test_node_table_rejects_arrays_other_than_the_sizes_give(key):
    fields = {k: [0] * 3 for k in ("feature", "threshold", "right", "count_easy", "count_hard")}
    NodeTable(sizes=[1, 2], **fields)
    fields[key] = [0] * 4
    with pytest.raises(ModelFormatError, match="3 nodes"):
        NodeTable(sizes=[1, 2], **fields)


def test_dumps_model_rejects_non_finite_threshold():
    # thresholds are written as base64, where allow_nan=False cannot see them
    for bad in (np.nan, np.inf, -np.inf):
        x, y = _separable()
        model = train(x, y, FeatureSchema(1), ForestParams(n_trees=2, rng_seed=4))
        internal = int(np.flatnonzero(model.trees[0].feature >= 0)[0])
        model.trees[0].threshold[internal] = bad
        with pytest.raises(ValueError, match="non-finite threshold"):
            dumps_model(model)


# ------------------------------------------------------------ model format v1
#
# tests/data/model_v1.json was written by format v1's dumps_model for
# train(*_separable(), FeatureSchema(1), ForestParams(n_trees=2, rng_seed=4)).

V1_MODEL = DATA / "model_v1.json"


def _v1_twin() -> RandomForestModel:
    x, y = _separable()
    return train(x, y, FeatureSchema(1), ForestParams(n_trees=2, rng_seed=4))


def _v1_doc() -> dict:
    doc = json.loads(V1_MODEL.read_text(encoding="utf-8"))
    assert doc["format_version"] == 1
    assert sum(f >= 0 for f in doc["trees"][0]["feature"]) >= 3  # room for every mutation
    return doc


def test_v1_model_loads_and_predicts_like_the_reference_walk():
    model = load_model(V1_MODEL)
    rows = np.random.default_rng(8).uniform(0.0, 1.0, size=(200, 12))
    labels, _votes = predict_batch(model, rows)
    assert [reference_decision(model, row) for row in rows] == labels.tolist()


def test_v1_model_re_dumps_as_the_same_forest_trained_now():
    text = dumps_model(load_model(V1_MODEL))
    assert json.loads(text)["format_version"] == 2
    assert text == dumps_model(_v1_twin())


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
    doc = _v1_doc()
    tree = doc["trees"][0]
    key, node, value = TREE_MUTATIONS[mutation]
    node = node(tree) if callable(node) else node
    tree[key][node] = value(tree) if callable(value) else value
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps(doc))


def _swap_root_children(tree):
    tree["left"][0], tree["right"][0] = tree["right"][0], tree["left"][0]


def _flip_leaf_class(tree):
    tree["label"][_leaf(tree)] ^= 1


def _leaf_threshold(tree):
    tree["threshold"][_leaf(tree)] = 0.5


# Format v1 stored left, label and leaf thresholds that v2 derives or drops;
# a v1 file whose values differ would not survive the conversion, so it is
# rejected, even where the tree is otherwise walkable.
@pytest.mark.parametrize(
    "mutate, message",
    [
        (_swap_root_children, "left child other than the next node"),
        (_flip_leaf_class, "class other than its counts give"),
        (_leaf_threshold, "leaf with a threshold"),
    ],
    ids=["children-swapped", "leaf-class-against-counts", "leaf-with-threshold"],
)
def test_v1_model_whose_stored_field_breaks_the_derived_rule_is_rejected(mutate, message):
    doc = _v1_doc()
    mutate(doc["trees"][0])
    with pytest.raises(ModelFormatError, match=message):
        loads_model(json.dumps(doc))


# ------------------------------------------------------------ model format v2


def _v2_doc() -> dict:
    return json.loads(dumps_model(_v1_twin()))


def test_v2_document_layout():
    doc = _v2_doc()
    model = _v1_twin()
    assert doc["format_version"] == 2
    assert doc["tree_sizes"] == [tree.n_nodes for tree in model.trees] == [13, 3]
    arrays = v2_node_arrays(doc)
    internal = np.concatenate([tree.feature for tree in model.trees]) >= 0
    for key in ("feature", "right", "count_easy", "count_hard"):
        assert arrays[key].tolist() == np.concatenate([getattr(t, key) for t in model.trees]).tolist()
    thresholds = np.concatenate([tree.threshold for tree in model.trees])
    assert arrays["threshold"].tolist() == thresholds[internal].tolist()


def _v2_leaf(a):
    return int(np.flatnonzero(a["feature"] < 0)[0])


def _v2_second_internal(a):
    return int(np.flatnonzero(a["feature"] >= 0)[1])


# name: (array, node, new value) on the decoded node arrays, as in
# TREE_MUTATIONS; tree 0 holds nodes 0..12 and tree 1 nodes 13..15, and the
# threshold array holds internal nodes only. v2 derives left and label, so
# the v1 cases that edit them have no v2 form.
V2_NODE_MUTATIONS = {
    "root-right-cycles-to-root": ("right", 0, 0),
    "child-before-parent": ("right", _v2_second_internal, 1),
    "child-out-of-range": ("right", 0, 10_000),
    "child-negative": ("right", 0, -1),
    "child-in-the-next-tree": ("right", 0, 13),
    "child-with-two-parents": ("right", 0, 1),
    "leaf-with-right-child": ("right", _v2_leaf, 12),
    "leaf-with-feature-minus-two": ("feature", _v2_leaf, -2),
    "feature-out-of-range": ("feature", 0, 12),
    "feature-far-out-of-range": ("feature", 0, 2**31 - 1),
    "counts-do-not-add-up": ("count_easy", 0, lambda a: a["count_easy"][0] + 1),
    "negative-count": ("count_hard", _v2_leaf, -1),
    "nan-threshold": ("threshold", 0, np.nan),
    "infinite-threshold": ("threshold", 0, np.inf),
    "negative-infinite-threshold": ("threshold", 0, -np.inf),
    "threshold-of-tree-1": ("threshold", -1, np.nan),
}


def _load_v2_arrays(arrays):
    doc = _v2_doc()
    set_v2_node_arrays(doc, arrays)
    return loads_model(json.dumps(doc))


@pytest.mark.parametrize("mutation", sorted(V2_NODE_MUTATIONS))
def test_loads_model_rejects_mutated_v2_nodes(mutation):
    arrays = v2_node_arrays(_v2_doc())
    key, node, value = V2_NODE_MUTATIONS[mutation]
    node = node(arrays) if callable(node) else node
    arrays[key][node] = value(arrays) if callable(value) else value
    with pytest.raises(ModelFormatError):
        _load_v2_arrays(arrays)


def test_loads_model_rejects_v2_tree_whose_last_node_is_internal():
    # the one way a v2 file can break the derived left: it would leave the tree
    arrays = v2_node_arrays(_v2_doc())
    last = 12
    at = int(np.count_nonzero(arrays["feature"][:last] >= 0))
    arrays["feature"][last] = 0
    arrays["threshold"] = np.insert(arrays["threshold"], at, 0.5)
    with pytest.raises(ModelFormatError, match="tree 0 node 12"):
        _load_v2_arrays(arrays)


def _set(doc, path, value):
    *outer, last = path
    for key in outer:
        doc = doc[key]
    doc[last] = value


def _node_bytes(doc, key):
    return base64.b64decode(doc["nodes"][key])


def _encoded(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


# name: edit of the v2 document itself
V2_DOCUMENT_MUTATIONS = {
    "base64-bad-character": lambda d: _set(d, ("nodes", "feature"), "!" + d["nodes"]["feature"][1:]),
    "base64-non-ascii": lambda d: _set(d, ("nodes", "feature"), "\u00e9" + d["nodes"]["feature"][1:]),
    "base64-padding-missing": lambda d: _set(
        d, ("nodes", "right"), d["nodes"]["right"].rstrip("=")
    ),
    "base64-data-after-padding": lambda d: _set(
        d, ("nodes", "right"), d["nodes"]["right"] + "AAAA"
    ),
    "array-not-text": lambda d: _set(d, ("nodes", "right"), [8, 5, 4]),
    "array-one-node-short": lambda d: _set(
        d, ("nodes", "feature"), _encoded(_node_bytes(d, "feature")[:-4])
    ),
    "array-one-node-long": lambda d: _set(
        d, ("nodes", "count_hard"), _encoded(_node_bytes(d, "count_hard") + bytes(8))
    ),
    "array-half-a-value": lambda d: _set(
        d, ("nodes", "count_easy"), _encoded(_node_bytes(d, "count_easy")[:-4])
    ),
    "threshold-array-short": lambda d: _set(
        d, ("nodes", "threshold"), _encoded(_node_bytes(d, "threshold")[:-8])
    ),
    "array-missing": lambda d: d["nodes"].pop("right"),
    "array-unknown": lambda d: _set(d, ("nodes", "left"), d["nodes"]["right"]),
    "nodes-not-an-object": lambda d: _set(d, ("nodes",), "AAAA"),
    "tree-size-zero": lambda d: _set(d, ("tree_sizes",), [0, 16]),
    "tree-size-zero-between-trees": lambda d: (
        _set(d, ("tree_sizes",), [13, 0, 3]), _set(d, ("params", "n_trees"), 3)
    ),
    "tree-size-negative": lambda d: _set(d, ("tree_sizes",), [-3, 19]),
    "tree-size-not-an-integer": lambda d: _set(d, ("tree_sizes",), [13.0, 3]),
    "tree-size-boolean": lambda d: _set(d, ("tree_sizes",), [True, 15]),
    "tree-size-huge": lambda d: _set(d, ("tree_sizes",), [2**62, 3]),
    "tree-sizes-mis-summed": lambda d: _set(d, ("tree_sizes",), [13, 4]),
    "tree-sizes-shifted": lambda d: _set(d, ("tree_sizes",), [12, 4]),
    "tree-sizes-one-per-tree": lambda d: _set(d, ("tree_sizes",), [16]),
    "tree-sizes-not-a-list": lambda d: _set(d, ("tree_sizes",), 16),
    "tree-sizes-missing": lambda d: d.pop("tree_sizes"),
    "n-trees-zero": lambda d: _set(d, ("params", "n_trees"), 0),
    "version-true": lambda d: _set(d, ("format_version",), True),
    "version-three": lambda d: _set(d, ("format_version",), 3),
}


@pytest.mark.parametrize("mutation", sorted(V2_DOCUMENT_MUTATIONS))
def test_loads_model_rejects_mutated_v2_document(mutation):
    doc = _v2_doc()
    V2_DOCUMENT_MUTATIONS[mutation](doc)
    with pytest.raises(ModelFormatError):
        loads_model(json.dumps(doc))


# name: (path of a header field, a value of the wrong type); each must be
# rejected, not coerced
HEADER_TYPE_MUTATIONS = {
    "schema-max-depth-boolean": (("schema", "max_depth"), True),
    "n-trees-string": (("params", "n_trees"), "2"),
    "max-tree-depth-float": (("params", "max_tree_depth"), 12.9),
    "min-samples-leaf-whole-float": (("params", "min_samples_leaf"), 2.0),
    "features-per-split-boolean": (("params", "features_per_split"), True),
    "rng-seed-string": (("params", "rng_seed"), "4"),
    "bootstrap-fraction-string": (("params", "bootstrap_fraction"), "1.0"),
    "bootstrap-fraction-boolean": (("params", "bootstrap_fraction"), True),
    "training-fingerprint-null": (("training_fingerprint",), None),
    "training-fingerprint-number": (("training_fingerprint",), 5),
}


@pytest.mark.parametrize("mutation", sorted(HEADER_TYPE_MUTATIONS))
def test_loads_model_rejects_header_field_of_wrong_type(mutation):
    path, value = HEADER_TYPE_MUTATIONS[mutation]
    doc = _v2_doc()
    _set(doc, path, value)
    with pytest.raises(ModelFormatError, match=path[-1]):
        loads_model(json.dumps(doc))


@pytest.mark.parametrize("depth", [4996, 10**9])
def test_loads_model_rejects_a_schema_wider_than_ten_thousand(depth):
    doc = _v2_doc()
    _set(doc, ("schema", "max_depth"), depth)
    with pytest.raises(ModelFormatError, match="exceed 10000"):
        loads_model(json.dumps(doc))


def test_loads_model_takes_a_whole_bootstrap_fraction():
    doc = _v2_doc()
    _set(doc, ("params", "bootstrap_fraction"), 1)
    assert dumps_model(loads_model(json.dumps(doc))) == dumps_model(_v1_twin())
