"""Standalone decision code for a trained forest.

The emitted function is written in the same C subset the pipeline parses,
so it can be re-parsed or compiled elsewhere. Each tree contributes one
vote through a chain of conditional expressions; the result is 1 (hard)
when hard holds at least half the votes, matching the in-memory tie rule.

The text is written straight from each tree's node arrays, in preorder, in
the printer's canonical form (`opttriage.minic.printer.function_text`):
every nested conditional is parenthesized, a threshold prints as the
`repr` of its float and a leaf as its class, 0 or 1.

The function takes ``float f[W]`` while the model compares doubles, so it
agrees with `predict_batch` on inputs a float holds exactly, such as
integer counts below 2**24. A value a float cannot hold, such as the
depth-weighted average of several nests' blocks, can round across a
threshold on its way into the array and get the other class.
"""

from __future__ import annotations

import re

from opttriage.forest.model import NodeTable, RandomForestModel

_C_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _votes(nodes: NodeTable) -> list[str]:
    """Each tree's vote: a leaf's class, or the root's parenthesized conditional.

    An internal node opens `(f[k] <= t ? ` and its left child follows it. A
    leaf at depth d closes the d - e conditionals whose subtrees end with
    it, e being the depth of the next node in the table: 0 at the next
    tree's root, else the depth of the right child that is the else arm of
    the conditional left open.
    """
    feature, threshold = nodes.feature.tolist(), nodes.threshold.tolist()
    right, label = nodes.right_node.tolist(), nodes.label.tolist()
    depth = [0] * (len(feature) + 1)  # a root's stays 0
    votes = []
    for root, size in zip(nodes.roots.tolist(), nodes.sizes.tolist()):
        parts = []
        for node in range(root, root + size):
            if feature[node] >= 0:
                depth[node + 1] = depth[right[node]] = depth[node] + 1
                parts.append(f"(f[{feature[node]}] <= {threshold[node]!r} ? ")
            else:
                parts.append(f"{label[node]}{')' * (depth[node] - depth[node + 1])} : ")
        parts[-1] = parts[-1][:-3]  # the tree's last leaf begins no else arm
        votes.append("".join(parts))
    return votes


def export_decision_code(model: RandomForestModel, name: str = "classify_function") -> str:
    """Render the forest as one self-contained function, 1 = hard, 0 = easy."""
    if not _C_NAME.fullmatch(name):
        raise ValueError(f"not a C function name: {name!r}")
    lines = [f"int {name}(float f[{model.schema.width}])", "{", "    int votes;", "    votes = 0;"]
    lines += [f"    votes = votes + {vote};" for vote in _votes(model.nodes)]
    lines += [f"    return 2 * votes >= {model.n_trees} ? 1 : 0;", "}", ""]
    return "\n".join(lines)
