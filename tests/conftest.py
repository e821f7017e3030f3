import base64
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from opttriage import FeatureSchema, SourceUnit, parse_unit
from opttriage.minic import ast, function_text, parse_functions

DATA = Path(__file__).parent / "data"


def parse_one(text: str, path: str = "unit.c"):
    """Parse a snippet that must contain exactly one clean function."""
    units, diagnostics = parse_unit(SourceUnit(path, text), strict=True)
    assert not diagnostics
    assert len(units) == 1
    return units[0]


def parse_ast(text: str):
    """Parse a snippet down to a single raw syntax-tree function."""
    functions, _ = parse_functions(text, strict=True)
    assert len(functions) == 1
    return functions[0]


@pytest.fixture(scope="session")
def shortest_paths_source() -> str:
    return (DATA / "floyd_warshall.c").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def shortest_paths_fn(shortest_paths_source):
    return parse_one(shortest_paths_source, "floyd_warshall.c")


@pytest.fixture(scope="session")
def schema3() -> FeatureSchema:
    return FeatureSchema(max_depth=3)


def reference_decision(model, values) -> int:
    """Walk each tree node by node and count votes: 1 (hard) on at least half.

    This is what the exported decision code computes, written out plainly
    as an oracle for `predict_batch`.
    """
    votes = 0
    for tree in model.trees:
        node = 0
        while tree.feature[node] >= 0:
            if values[tree.feature[node]] <= tree.threshold[node]:
                node = int(tree.left[node])
            else:
                node = int(tree.right[node])
        votes += int(tree.label[node])
    return 1 if 2 * votes >= model.n_trees else 0


def read_back(model, code: str) -> None:
    """Decode exported decision code and require it to be exactly the model.

    Each `votes = votes + <ternary>` is read in preorder: a test
    `f[k] <= <literal>` is an internal node whose `then` arm is its left
    child (a negative literal parses as a minus on its magnitude), and a
    literal is a leaf's class. The decoded node arrays must
    equal each tree's, thresholds with exact float equality, and the
    function must end with the tie rule `2 * votes >= n_trees ? 1 : 0`.
    """
    (fn,), _ = parse_functions(code, strict=True)
    votes = ast.Name("votes")
    assert fn.params == (ast.ParamDecl("f", "float", (model.schema.width,)),)
    decl, init, *sums, tally = fn.body.items
    assert (decl, init) == (ast.Decl("int", ("votes",)), ast.Assign(votes, ast.Num(0)))
    tie_rule = ast.Binary(">=", ast.Binary("*", ast.Num(2), votes), ast.Num(model.n_trees))
    assert tally == ast.Return(ast.Ternary(tie_rule, ast.Num(1), ast.Num(0)))
    assert len(sums) == model.n_trees

    def literal(e) -> float:  # a negative threshold reads as a minus and its magnitude
        match e:
            case ast.Num(value):
                return value
            case ast.Unary("-", ast.Num(value)):
                return -value
        raise AssertionError(f"not a threshold: {e!r}")

    def decode(e, nodes: list) -> None:  # appends [feature, threshold, left, right, label]
        match e:
            case ast.Num(label):
                nodes.append([-1, 0.0, -1, -1, label])
            case ast.Ternary(ast.Binary("<=", ast.Index(ast.Name("f"), (ast.Num(k),)),
                                        threshold), then, orelse):
                at = len(nodes)
                nodes.append([k, literal(threshold), at + 1, -1, -1])
                decode(then, nodes)
                nodes[at][3] = len(nodes)
                decode(orelse, nodes)
            case _:
                raise AssertionError(f"not a node of the decision code: {e!r}")

    for t, (tree, stmt) in enumerate(zip(model.trees, sums)):
        assert stmt.target == votes and (stmt.value.op, stmt.value.left) == ("+", votes)
        nodes: list = []
        decode(stmt.value.right, nodes)
        for key, column in zip(("feature", "threshold", "left", "right", "label"), zip(*nodes)):
            assert np.array_equal(getattr(tree, key), column), f"tree {t} {key}"


def ast_export(model, name: str = "classify_function") -> str:
    """The decision code as the printer renders its syntax tree: each tree's
    vote a nested `Ternary` over `f[k] <= threshold` tests, leaves `Num`s.

    `export_decision_code` writes the same text from the node arrays; this
    is the reference it must equal byte for byte.
    """

    def vote(tree) -> ast.Expr:
        feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
        left, right, label = tree.left.tolist(), tree.right.tolist(), tree.label.tolist()

        def expr(node: int) -> ast.Expr:
            if feature[node] < 0:
                return ast.Num(label[node])
            test = ast.Binary(
                "<=", ast.Index(ast.Name("f"), (ast.Num(feature[node]),)), ast.Num(threshold[node])
            )
            return ast.Ternary(cond=test, then=expr(left[node]), orelse=expr(right[node]))

        return expr(0)

    votes = ast.Name("votes")
    body: list = [ast.Decl("int", ("votes",)), ast.Assign(votes, ast.Num(0))]
    body += [ast.Assign(votes, ast.Binary("+", votes, vote(tree))) for tree in model.trees]
    tally = ast.Binary(">=", ast.Binary("*", ast.Num(2), votes), ast.Num(model.n_trees))
    body.append(ast.Return(ast.Ternary(tally, ast.Num(1), ast.Num(0))))
    param = ast.ParamDecl("f", "float", (model.schema.width,))
    return function_text(
        ast.Function(name=name, return_type="int", params=(param,), body=ast.Block(tuple(body)))
    )


_DECIDE_MAIN = r"""
#include <stdio.h>

int main(void)
{
    float f[WIDTH];
    double v;
    int j = 0;
    while (scanf("%la", &v) == 1) {
        f[j++] = (float)v;
        if (j == WIDTH) {
            printf("%d\n", classify_function(f));
            j = 0;
        }
    }
    return 0;
}
"""


def compiled_decisions(code: str, rows: np.ndarray, workdir: Path) -> np.ndarray:
    """Build exported `classify_function` code with `cc -O0` and run it per row.

    A small main reads each row as `%la` hex doubles into a `float f[W]`, as
    a real caller passes features, and prints the function's result.
    """
    source, binary = workdir / "decide.c", workdir / "decide"
    source.write_text(f"#define WIDTH {rows.shape[1]}\n{code}{_DECIDE_MAIN}", encoding="utf-8")
    subprocess.run(["cc", "-O0", "-o", str(binary), str(source)], check=True,
                   capture_output=True, timeout=120)
    text = "".join(" ".join(float(v).hex() for v in row) + "\n" for row in rows)
    out = subprocess.run([str(binary)], input=text, check=True, capture_output=True, text=True,
                         timeout=60).stdout
    return np.array(out.split(), dtype=np.int8)


# A v2 model document stores each node array as base64 of one fixed
# little-endian dtype; thresholds are those of the internal nodes only.
MODEL_V2_DTYPES = {
    "feature": "<i4",
    "right": "<i4",
    "count_easy": "<i8",
    "count_hard": "<i8",
    "threshold": "<f8",
}


def v2_node_arrays(doc: dict) -> dict:
    """The node arrays of a v2 model document, decoded into writable arrays."""
    return {
        key: np.frombuffer(base64.b64decode(doc["nodes"][key]), dtype=dtype).copy()
        for key, dtype in MODEL_V2_DTYPES.items()
    }


def set_v2_node_arrays(doc: dict, arrays: dict) -> None:
    doc["nodes"] = {
        key: base64.b64encode(np.asarray(arrays[key], dtype=dtype).tobytes()).decode("ascii")
        for key, dtype in MODEL_V2_DTYPES.items()
    }


def has_compiler() -> bool:
    return shutil.which("cc") is not None


requires_compiler = pytest.mark.skipif(
    not has_compiler(), reason="no C compiler on PATH"
)


def pytest_terminal_summary(terminalreporter):
    """Show one verdict line per acceptance criterion after the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
