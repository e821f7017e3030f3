import base64
import shutil
from pathlib import Path

import numpy as np
import pytest

from opttriage import FeatureSchema, SourceUnit, parse_unit
from opttriage.minic import parse_functions

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
