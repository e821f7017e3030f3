"""Exported decision code must behave exactly like the in-memory model."""

import numpy as np
import pytest

from opttriage import FeatureSchema
from opttriage.forest import (
    ForestParams,
    export_decision_code,
    predict_batch,
    train,
)
from opttriage.minic import parse_functions
from opttriage.minic.interp import call_function

from conftest import parse_ast, reference_decision


def _toy_model(n_trees=9, seed=13, n=80):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 4.0, size=(n, 12))
    y = ((x[:, 0] > 2.0) ^ (x[:, 5] > 1.5)).astype(np.int8)
    return train(x, y, FeatureSchema(1), ForestParams(n_trees=n_trees, rng_seed=seed))


def test_export_header_shape():
    model = _toy_model()
    code = export_decision_code(model)
    assert code.startswith("int classify_function(float f[12])")


def test_export_custom_name():
    model = _toy_model(n_trees=3)
    code = export_decision_code(model, name="triage")
    assert code.startswith("int triage(float f[12])")


def test_export_parses_in_own_grammar():
    model = _toy_model()
    fn = parse_ast(export_decision_code(model))
    assert fn.name == "classify_function"
    assert fn.return_type == "int"
    assert [p.name for p in fn.params] == ["f"]
    assert fn.params[0].extents == (12,)


def test_export_round_trips_through_printer():
    from opttriage.minic.printer import function_text

    code = export_decision_code(_toy_model(n_trees=5))
    assert function_text(parse_ast(code)) == code


def test_interpreted_code_matches_predict():
    model = _toy_model()
    fn = parse_ast(export_decision_code(model))
    rng = np.random.default_rng(99)
    probes = rng.uniform(-1.0, 5.0, size=(200, 12))
    labels, _votes = predict_batch(model, probes)
    for i, row in enumerate(probes):
        got = call_function(fn, [[float(v) for v in row]])
        assert got == int(labels[i]), f"row {i}"


def test_reference_walker_matches_predict():
    model = _toy_model(n_trees=4)  # even count exercises the tie rule
    rng = np.random.default_rng(5)
    probes = rng.uniform(0.0, 4.0, size=(300, 12))
    labels, _ = predict_batch(model, probes)
    for i, row in enumerate(probes):
        assert reference_decision(model, row) == int(labels[i])


def test_exported_votes_respect_tie_rule():
    # single split-free scenario: every probe reaches the same leaves
    model = _toy_model(n_trees=2, seed=3, n=20)
    fn = parse_ast(export_decision_code(model))
    probe = [0.0] * 12
    got = call_function(fn, [probe])
    assert got == reference_decision(model, np.zeros(12))


def test_threshold_boundary_goes_left():
    model = _toy_model(n_trees=1)
    tree = model.trees[0]
    if tree.feature[0] < 0:
        pytest.skip("degenerate root leaf")
    probe = np.zeros(12)
    probe[tree.feature[0]] = tree.threshold[0]  # exactly on the cut
    fn = parse_ast(export_decision_code(model))
    want = int(tree.label[tree.left[0]]) if tree.feature[tree.left[0]] < 0 else None
    got_walk = reference_decision(model, probe)
    got_interp = call_function(fn, [[float(v) for v in probe]])
    assert got_walk == got_interp
    if want is not None:
        assert got_walk == (1 if 2 * want >= 1 else 0)


def test_export_fidelity_sweep_over_forest_sizes():
    rng = np.random.default_rng(123)
    program_texts = []
    for n_trees in (1, 2, 3, 8):
        model = _toy_model(n_trees=n_trees, seed=n_trees)
        code = export_decision_code(model)
        program_texts.append(code)
        fn = parse_ast(code)
        probes = rng.uniform(0.0, 4.0, size=(40, 12))
        labels, _ = predict_batch(model, probes)
        for i, row in enumerate(probes):
            assert call_function(fn, [[float(v) for v in row]]) == int(labels[i])
    # each forest exports distinct code
    assert len(set(program_texts)) == 4


def test_exported_program_with_multiple_functions_parses():
    code = export_decision_code(_toy_model(n_trees=2), name="a") + "\n" + \
        export_decision_code(_toy_model(n_trees=3), name="b")
    functions, _ = parse_functions(code, strict=True)
    assert [f.name for f in functions] == ["a", "b"]
