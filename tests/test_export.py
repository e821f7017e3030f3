"""Exported decision code must behave exactly like the in-memory model."""

import json
from dataclasses import replace

import numpy as np
import pytest

from opttriage import FeatureSchema
from opttriage.forest import (
    ForestParams,
    NodeTable,
    RandomForestModel,
    dumps_model,
    export_decision_code,
    loads_model,
    predict_batch,
    train,
)
from opttriage.minic import ast, parse_functions

from conftest import (
    ast_export, compiled_decisions, parse_ast, read_back, reference_decision, requires_compiler,
    set_v2_node_arrays, v2_node_arrays,
)


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


def _probes():
    return np.random.default_rng(99).uniform(-1.0, 5.0, size=(200, 12))


def test_interpreted_code_matches_predict():
    # the export reads back as the model, and the model's plain walk is predict_batch
    model = _toy_model()
    read_back(model, export_decision_code(model))
    probes = _probes()
    labels, _votes = predict_batch(model, probes)
    assert [reference_decision(model, row) for row in probes] == labels.tolist()


@pytest.mark.integration
@requires_compiler
def test_compiled_code_matches_predict(tmp_path):
    model = _toy_model()
    probes = _probes()
    labels, _votes = predict_batch(model, probes)
    assert compiled_decisions(export_decision_code(model), probes, tmp_path).tolist() == \
        labels.tolist()


def test_reference_walker_matches_predict():
    model = _toy_model(n_trees=4)  # even count exercises the tie rule
    rng = np.random.default_rng(5)
    probes = rng.uniform(0.0, 4.0, size=(300, 12))
    labels, _ = predict_batch(model, probes)
    for i, row in enumerate(probes):
        assert reference_decision(model, row) == int(labels[i])


def _tie_case():
    # single split-free scenario: every probe reaches the same leaves
    return _toy_model(n_trees=2, seed=3, n=20), np.zeros((1, 12))


def test_exported_votes_respect_tie_rule():
    model, probe = _tie_case()
    read_back(model, export_decision_code(model))
    assert reference_decision(model, probe[0]) == predict_batch(model, probe)[0][0]


@pytest.mark.integration
@requires_compiler
def test_compiled_votes_respect_tie_rule(tmp_path):
    model, probe = _tie_case()
    got = compiled_decisions(export_decision_code(model), probe, tmp_path)
    assert got.tolist() == [reference_decision(model, probe[0])]


def test_threshold_boundary_goes_left():
    model = _toy_model(n_trees=1)
    tree = model.trees[0]
    if tree.feature[0] < 0:
        pytest.skip("degenerate root leaf")
    root = parse_ast(export_decision_code(model)).body.items[2].value.right
    f_k = ast.Index(ast.Name("f"), (ast.Num(int(tree.feature[0])),))
    assert root.cond == ast.Binary("<=", f_k, ast.Num(float(tree.threshold[0])))
    probe = np.zeros(12)
    probe[tree.feature[0]] = tree.threshold[0]  # exactly on the cut
    want = int(tree.label[tree.left[0]]) if tree.feature[tree.left[0]] < 0 else None
    got_walk = reference_decision(model, probe)
    if want is not None:
        assert got_walk == (1 if 2 * want >= 1 else 0)


def _sweep_cases():
    """Forests of 1, 2, 3 and 8 trees, with 40 probes each and their predicted labels."""
    rng = np.random.default_rng(123)
    for n_trees in (1, 2, 3, 8):
        model = _toy_model(n_trees=n_trees, seed=n_trees)
        probes = rng.uniform(0.0, 4.0, size=(40, 12))
        yield model, export_decision_code(model), probes, predict_batch(model, probes)[0]


def test_export_fidelity_sweep_over_forest_sizes():
    program_texts = []
    for model, code, probes, labels in _sweep_cases():
        program_texts.append(code)
        read_back(model, code)
        assert [reference_decision(model, row) for row in probes] == labels.tolist()
    # each forest exports distinct code
    assert len(set(program_texts)) == 4


@pytest.mark.integration
@requires_compiler
def test_compiled_fidelity_sweep_over_forest_sizes(tmp_path):
    for model, code, probes, labels in _sweep_cases():
        assert compiled_decisions(code, probes, tmp_path).tolist() == labels.tolist()


def test_exported_program_with_multiple_functions_parses():
    code = export_decision_code(_toy_model(n_trees=2), name="a") + "\n" + \
        export_decision_code(_toy_model(n_trees=3), name="b")
    functions, _ = parse_functions(code, strict=True)
    assert [f.name for f in functions] == ["a", "b"]


@pytest.mark.parametrize("name", ["", "1st", "two words", "f;", "classify-function", "x\n", "é"])
def test_export_refuses_a_name_that_is_no_c_identifier(name):
    with pytest.raises(ValueError, match="not a C function name"):
        export_decision_code(_toy_model(n_trees=1), name=name)


def test_export_equals_the_printed_syntax_tree_over_forest_sizes():
    for model, code, _probes, _labels in _sweep_cases():
        assert code == ast_export(model)
    model = _toy_model(n_trees=3)
    assert export_decision_code(model, name="_Triage9") == ast_export(model, name="_Triage9")


def test_export_of_one_leaf_trees_equals_the_printed_syntax_tree():
    x = np.random.default_rng(2).uniform(0.0, 4.0, size=(30, 12))
    for y in (np.zeros(30, dtype=np.int8), np.ones(30, dtype=np.int8)):
        model = train(x, y, FeatureSchema(1), ForestParams(n_trees=2))
        assert (model.nodes.sizes == 1).all()
        assert export_decision_code(model) == ast_export(model)
    # a one-leaf tree, hard, between two grown ones
    grown = _toy_model(n_trees=2)
    t, a = grown.nodes, int(grown.nodes.sizes[0])
    leaf = {"feature": -1, "threshold": 0.0, "right": -1, "count_easy": 2, "count_hard": 5}
    nodes = NodeTable(
        sizes=[a, 1, int(t.sizes[1])],
        **{key: np.concatenate((getattr(t, key)[:a], [leaf[key]], getattr(t, key)[a:]))
           for key in leaf},
    )
    model = RandomForestModel(grown.schema, replace(grown.params, n_trees=3), nodes)
    code = export_decision_code(model)
    assert "    votes = votes + 1;\n" in code
    assert code == ast_export(model)
    read_back(model, code)


def test_export_of_loaded_thresholds_equals_the_printed_syntax_tree():
    # negative, signed-zero and 17-significant-digit thresholds print as repr(float)
    model = _toy_model(n_trees=3)
    doc = json.loads(dumps_model(model))
    arrays = v2_node_arrays(doc)
    special = [-1.5, -0.0, 0.1 + 0.2, -2.0000000000000004, 1e-300, 1.2345678901234567e20]
    arrays["threshold"] = np.resize(special, len(arrays["threshold"]))
    set_v2_node_arrays(doc, arrays)
    loaded = loads_model(json.dumps(doc))
    code = export_decision_code(loaded)
    for text in ("-1.5", "-0.0", "0.30000000000000004", "1.2345678901234567e+20"):
        assert f"<= {text} ?" in code
    assert code == ast_export(loaded)
    read_back(loaded, code)
