"""Feature schema and extraction tests, including the golden vector."""

import numpy as np
import pytest

from opttriage import FeatureSchema, FeatureVector, compute_max_depth, extract
from opttriage.features import DepthError, nest_features, reduce_nests

from conftest import parse_one

GOLDEN = [0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]


def test_golden_vector(shortest_paths_fn, schema3):
    vec = extract(shortest_paths_fn, schema3)
    assert vec.values.tolist() == [float(v) for v in GOLDEN]


def test_golden_named_slots(shortest_paths_fn, schema3):
    vec = extract(shortest_paths_fn, schema3)
    assert vec["niter_symbolic_0"] == 1.0
    assert vec["niter_known_0"] == 0.0
    assert vec["loop_num_logical_ops"] == 1.0
    assert vec["loop_num_arith_ops"] == 1.0
    assert vec["loop_num_branches"] == 1.0
    assert vec["loop_num_arrays"] == 1.0
    assert vec["loop_num_scalars"] == 0.0
    assert vec["num_arith_ops"] == 0.0


def test_schema_width_formula():
    for d in (1, 2, 3, 7):
        schema = FeatureSchema(d)
        assert schema.width == 2 * d + 10
        assert len(schema.slot_names()) == schema.width


def test_schema_rejects_zero_depth():
    with pytest.raises(ValueError):
        FeatureSchema(0)


def test_schema_width_is_at_most_ten_thousand():
    assert FeatureSchema(4995).width == 10_000
    for depth in (4996, 10**9):
        with pytest.raises(ValueError, match="exceed 10000"):
            FeatureSchema(depth)


def test_schema_index_unknown_name():
    with pytest.raises(KeyError):
        FeatureSchema(2).index("niter_known_9")


def test_vector_width_checked(schema3):
    with pytest.raises(ValueError):
        FeatureVector(schema3, np.zeros(3))


def test_known_and_symbolic_channels_are_disjoint():
    fn = parse_one(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < 8; i++) {\n"
        "    for (int j = 0; j < n; j++) a[j] = a[j] + 1.0;\n"
        "  }\n}"
    )
    vec = extract(fn, FeatureSchema(2))
    assert vec["niter_known_0"] == 8.0
    assert vec["niter_symbolic_0"] == 0.0
    assert vec["niter_known_1"] == 0.0
    assert vec["niter_symbolic_1"] == 1.0


def test_trip_count_arithmetic():
    cases = [
        ("i = 0; i < 8; i += 2", 4.0),
        ("i = 0; i <= 8; i += 2", 5.0),
        ("i = 2; i < 7; i++", 5.0),
        ("i = 5; i < 3; i++", 0.0),
    ]
    for header, trips in cases:
        fn = parse_one(
            "void f(int n, float a[N]) { for (int %s) a[0] = a[0] + 1.0; }" % header
        )
        vec = extract(fn, FeatureSchema(1))
        assert vec["niter_known_0"] == trips, header


def test_loopless_function_uses_outer_slots():
    fn = parse_one(
        "void f(int n, float a[N], float b[N]) {\n"
        "  float t;\n"
        "  t = a[0] * 2.0 + b[1];\n"
        "  if (t > 0.0) a[0] = t;\n"
        "}"
    )
    vec = extract(fn, FeatureSchema(2))
    assert vec.values[: vec.schema.width - 5].tolist() == [0.0] * (vec.schema.width - 5)
    assert vec["num_arith_ops"] == 2.0
    assert vec["num_branches"] == 1.0
    assert vec["num_logical_ops"] == 1.0
    assert vec["num_arrays"] == 2.0
    assert vec["num_scalars"] == 1.0


def test_empty_function_is_zero_vector():
    fn = parse_one("void f(int n) { }")
    vec = extract(fn, FeatureSchema(3))
    assert not vec.values.any()


TWO_NESTS = (
    "void f(int n, float a[N], float b[N]) {\n"
    "  for (int i = 0; i < 4; i++) {\n"
    "    for (int j = 0; j < 8; j++) {\n"
    "      a[i] = a[i] + b[j] * 2.0 - 1.0;\n"
    "    }\n"
    "  }\n"
    "  for (int k = 0; k < 16; k++) {\n"
    "    b[k] = b[k] + 1.0;\n"
    "  }\n"
    "}"
)


def test_depth_weighted_reduction_oracle():
    """Hand-computed weighted average of a depth-2 and a depth-1 nest."""
    fn = parse_one(TWO_NESTS)
    vec = extract(fn, FeatureSchema(2))
    assert vec["niter_known_0"] == pytest.approx((2 * 4 + 1 * 16) / 3)
    assert vec["niter_known_1"] == pytest.approx((2 * 8 + 1 * 0) / 3)
    assert vec["loop_num_arith_ops"] == pytest.approx((2 * 3 + 1 * 1) / 3)
    assert vec["loop_num_arrays"] == pytest.approx((2 * 2 + 1 * 1) / 3)
    assert vec["loop_num_scalars"] == 0.0
    assert vec["num_arith_ops"] == 0.0


def test_nest_order_does_not_matter():
    fn = parse_one(TWO_NESTS)
    blocks = [nest_features(n, 2) for n in fn.loop_nests]
    depths = [n.depth for n in fn.loop_nests]
    forward = reduce_nests(blocks, depths)
    backward = reduce_nests(blocks[::-1], depths[::-1])
    assert np.array_equal(forward, backward)


def test_reduce_nests_validates():
    with pytest.raises(ValueError):
        reduce_nests([], [])
    with pytest.raises(ValueError):
        reduce_nests([np.zeros(4)], [0])
    with pytest.raises(ValueError):
        reduce_nests([np.zeros(4), np.zeros(4)], [1])


def test_nest_deeper_than_schema(shortest_paths_fn):
    with pytest.raises(DepthError, match="recompute the schema"):
        extract(shortest_paths_fn, FeatureSchema(2))


def test_compute_max_depth(shortest_paths_fn):
    assert compute_max_depth([shortest_paths_fn]) == 3
    loopless = parse_one("void f(int n) { }")
    assert compute_max_depth([loopless]) == 1
    assert compute_max_depth([loopless, shortest_paths_fn]) == 3


def test_header_identifiers_do_not_count(schema3):
    """Loop variables and bound symbols never show up as scalars."""
    fn = parse_one(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < n; i++) a[i] = a[i] + 1.0;\n"
        "}"
    )
    vec = extract(fn, schema3)
    assert vec["loop_num_scalars"] == 0.0
    assert vec["loop_num_arrays"] == 1.0


def test_loop_variable_used_in_arithmetic_not_a_scalar(schema3):
    fn = parse_one(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < n; i++) a[i] = a[i] + i * 2.0;\n"
        "}"
    )
    vec = extract(fn, schema3)
    assert vec["loop_num_scalars"] == 0.0


def test_repeated_subexpression_counts_once_per_statement(schema3):
    fn = parse_one(
        "void f(int n, float a[N], float b[N]) {\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    a[i] = a[i] + b[i] < 1.0 ? a[i] + b[i] : 0.0;\n"
        "  }\n"
        "}"
    )
    vec = extract(fn, schema3)
    assert vec["loop_num_arith_ops"] == 1.0
    assert vec["loop_num_logical_ops"] == 1.0


def test_identical_statements_each_count(schema3):
    fn = parse_one(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    a[i] = a[i] + 1.0;\n"
        "    a[i] = a[i] + 1.0;\n"
        "  }\n"
        "}"
    )
    vec = extract(fn, schema3)
    assert vec["loop_num_arith_ops"] == 2.0


def test_conditional_statement_counts_branch(schema3):
    fn = parse_one(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    if (a[i] > 0.0) a[i] = a[i] - 1.0;\n"
        "  }\n"
        "}"
    )
    vec = extract(fn, schema3)
    assert vec["loop_num_branches"] == 1.0
    assert vec["loop_num_logical_ops"] == 1.0
    assert vec["loop_num_arith_ops"] == 1.0
