"""Property tests for the numeric invariants that hold on any input."""

import copy
import functools
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from opttriage import FeatureSchema
from opttriage.forest import (
    ForestParams,
    ModelFormatError,
    dumps_model,
    loads_model,
    predict_batch,
    train,
)
from opttriage.forest import grow
from opttriage.forest.model import _grow_forests
from opttriage.labeler import label_from_ratio
from opttriage.manifest import ManifestRow, TimingRecord

from conftest import DATA, MODEL_V2_DTYPES, set_v2_node_arrays, v2_node_arrays
from reference_grower import assert_same_trees, grow_one_tree, reference_forest, reference_tree
from split_oracle import brute_split, gini, scan_one_node

finite_times = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
deltas = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_gini_bounded_and_symmetric(e, h):
    if e + h == 0:
        return
    g = gini((e, h))
    assert 0.0 <= g <= 0.5 + 1e-15
    # symmetric up to rounding: the two squares are summed in a fixed order
    assert abs(g - gini((h, e))) <= 1e-15
    if e == 0 or h == 0:
        assert g == 0.0


@given(finite_times, finite_times, deltas)
def test_label_matches_displayed_formula(t_basic, t_aggr, delta):
    want = "easy" if t_aggr / t_basic > delta else "hard"
    assert label_from_ratio(t_basic, t_aggr, delta) == want


@given(
    st.lists(finite_times, min_size=1, max_size=9).filter(lambda s: len(s) % 2 == 1),
    st.lists(finite_times, min_size=1, max_size=9).filter(lambda s: len(s) % 2 == 1),
)
def test_timing_record_median_is_order_free(basic, aggr):
    a = TimingRecord(basic, aggr)
    b = TimingRecord(sorted(basic), sorted(aggr))
    assert a.t_basic == b.t_basic
    assert a.t_aggr == b.t_aggr
    assert a.ratio == b.ratio


@settings(max_examples=60)
@given(
    st.integers(2, 16),
    st.integers(1, 3),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_best_split_equals_exhaustive_search(n, width, min_leaf, rnd):
    x = np.array(
        [[rnd.randint(0, 3) for _ in range(width)] for _ in range(n)], dtype=np.float64
    )
    y = np.array([rnd.randint(0, 1) for _ in range(n)], dtype=np.int8)
    assert scan_one_node(x, y, range(width), min_leaf) == brute_split(x, y, min_leaf)


def _table(rnd, n, width, kind):
    """n rows of the width: few distinct values (ties everywhere) or floats."""
    if kind == "ties":
        rows = [[rnd.randint(0, 3) for _ in range(width)] for _ in range(n)]
    else:
        rows = [[rnd.uniform(-1.0, 1.0) for _ in range(width)] for _ in range(n)]
    x = np.array(rows, dtype=np.float64)
    y = np.array([rnd.randint(0, 1) for _ in range(n)], dtype=np.int8)
    return x, y


_GROWTH = dict(
    n=st.integers(1, 60),
    kind=st.sampled_from(["ties", "floats"]),
    max_tree_depth=st.integers(1, 6),
    min_samples_leaf=st.integers(1, 4),
    bootstrap_fraction=st.sampled_from([1.0, 0.6, 0.25]),
    seed=st.integers(0, 2**16),
    rnd=st.randoms(use_true_random=False),
)


@settings(max_examples=60, deadline=None)
@given(
    n_trees=st.integers(1, 4),
    features_per_split=st.sampled_from([None, 1, 12]),  # 12 is the whole width
    **_GROWTH,
)
def test_forest_equals_reference_tree_for_tree(
    n, kind, n_trees, max_tree_depth, min_samples_leaf, features_per_split,
    bootstrap_fraction, seed, rnd,
):
    x, y = _table(rnd, n, 12, kind)
    params = ForestParams(
        n_trees=n_trees,
        max_tree_depth=max_tree_depth,
        min_samples_leaf=min_samples_leaf,
        features_per_split=features_per_split,
        bootstrap_fraction=bootstrap_fraction,
        rng_seed=seed,
    )
    model = train(x, y, FeatureSchema(1), params)
    assert_same_trees(model.trees, reference_forest(x, y, model.params))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 300),
    width=st.integers(1, 20),
    kind=st.sampled_from(["ties", "floats"]),
    copied=st.integers(0, 3),
    constant=st.booleans(),
    one_class=st.booleans(),
    n_trees=st.integers(1, 3),
    max_tree_depth=st.integers(1, 12),
    min_samples_leaf=st.integers(1, 300),
    whole_width=st.booleans(),
    bootstrap_fraction=st.sampled_from([1.0, 0.7, 0.3]),
    n_folds=st.integers(1, 3),
    step_rows=st.sampled_from([1, 16, 200, 8192]),
    seed=st.integers(0, 2**16),
    rnd=st.randoms(use_true_random=False),
)
def test_growth_equals_reference_tree_for_tree(
    n, width, kind, copied, constant, one_class, n_trees, max_tree_depth, min_samples_leaf,
    whole_width, bootstrap_fraction, n_folds, step_rows, seed, rnd,
):
    x, y = _table(rnd, n, width, kind)
    for _ in range(copied):  # a duplicate column ties every cut of its original
        x[:, rnd.randrange(width)] = x[:, rnd.randrange(width)]
    if constant:
        x[:, rnd.randrange(width)] = 0.5
    if one_class:
        y[:] = rnd.randint(0, 1)
    params = ForestParams(
        n_trees=n_trees,
        max_tree_depth=max_tree_depth,
        min_samples_leaf=min(min_samples_leaf, n),
        features_per_split=width if whole_width else None,
        bootstrap_fraction=bootstrap_fraction,
        rng_seed=seed,
    ).resolved(width)
    # the folds' training rows, as cross-validation grows them in one growth
    folds = min(n_folds, n)
    fold_of = np.arange(n) % folds
    subsets = [np.flatnonzero(fold_of != f) for f in range(folds)] if folds > 1 else [np.arange(n)]
    subsets = [rows.astype(np.int32) for rows in subsets]
    # a small step leaves trees waiting for later steps, some with their roots
    with mock.patch.object(grow, "_STEP_ROWS", step_rows):
        forests = list(_grow_forests(x, y, params, subsets))
    assert len(forests) == len(subsets)
    for rows, nodes in zip(subsets, forests):
        assert_same_trees(nodes.trees, reference_forest(x[rows], y[rows], params))


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 3), **_GROWTH)
def test_narrow_tree_equals_reference_tree(
    n, kind, width, max_tree_depth, min_samples_leaf, bootstrap_fraction, seed, rnd
):
    x, y = _table(rnd, n, width, kind)
    params = ForestParams(
        max_tree_depth=max_tree_depth,
        min_samples_leaf=min_samples_leaf,
        features_per_split=width,
        bootstrap_fraction=bootstrap_fraction,
    ).resolved(width)
    tree, _sample = grow_one_tree(x, y, params, np.random.default_rng(seed))
    assert_same_trees([tree], [reference_tree(x, y, params, np.random.default_rng(seed))])


@given(
    st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=30),
    st.one_of(
        st.none(),
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=1,
            max_size=8,
        ),
    ),
)
def test_manifest_row_round_trip(function_id, features):
    row = ManifestRow(function_id=function_id, feature_values=features)
    assert ManifestRow.from_dict(row.to_dict()) == row


@functools.cache
def _small_model_doc() -> dict:
    rng = np.random.default_rng(0)
    x = rng.integers(0, 4, size=(40, 12)).astype(np.float64)
    y = (x[:, 0] + x[:, 5] >= 4).astype(np.int8)
    model = train(x, y, FeatureSchema(1), ForestParams(n_trees=1, rng_seed=3))
    return json.loads(dumps_model(model))


@functools.cache
def _v1_model_doc() -> dict:
    return json.loads((DATA / "model_v1.json").read_text(encoding="utf-8"))


def _assert_every_route_ends(model, probe_seed: int) -> None:
    rows = np.random.default_rng(probe_seed).integers(-1, 5, size=(20, 12)).astype(np.float64)
    for tree in model.trees:
        for row in rows:
            node = 0
            for _ in range(tree.n_nodes):  # a walk longer than n nodes would revisit one
                if tree.feature[node] < 0:
                    break
                goes_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if goes_left else tree.right[node]
            assert tree.feature[node] < 0
    labels, _votes = predict_batch(model, rows)
    assert set(labels.tolist()) <= {0, 1}


def _edits(keys):
    return st.lists(
        st.tuples(st.sampled_from(keys), st.integers(0, 10_000), st.integers(-3, 40)),
        min_size=1,
        max_size=3,
    )


@settings(max_examples=300, deadline=None)
@given(_edits(tuple(MODEL_V2_DTYPES)), st.integers(0, 2**32 - 1))
def test_mutated_model_is_rejected_or_every_route_ends(edits, probe_seed):
    doc = copy.deepcopy(_small_model_doc())
    arrays = v2_node_arrays(doc)
    for key, at, value in edits:
        arrays[key][at % len(arrays[key])] = value
    set_v2_node_arrays(doc, arrays)
    try:
        model = loads_model(json.dumps(doc))
    except ModelFormatError:
        return
    _assert_every_route_ends(model, probe_seed)


_V1_TREE_KEYS = ("feature", "threshold", "left", "right", "label", "count_easy", "count_hard")


@settings(max_examples=300, deadline=None)
@given(_edits(_V1_TREE_KEYS), st.integers(0, 2**32 - 1))
def test_mutated_v1_model_is_rejected_or_every_route_ends(edits, probe_seed):
    doc = copy.deepcopy(_v1_model_doc())
    raw = doc["trees"][0]
    n = len(raw["feature"])
    for key, at, value in edits:
        raw[key][at % n] = value
    try:
        model = loads_model(json.dumps(doc))
    except ModelFormatError:
        return
    _assert_every_route_ends(model, probe_seed)
