"""Standalone decision code for a trained forest.

The emitted function is written in the same C subset the pipeline parses,
so it can be re-parsed, interpreted, or compiled elsewhere. Each tree
contributes one vote through a chain of conditional expressions; the
result is 1 (hard) when hard holds at least half the votes, matching the
in-memory tie rule.
"""

from __future__ import annotations

from opttriage.forest.model import NodeTable, RandomForestModel
from opttriage.minic import ast, function_text

ARG_NAME = "f"


def _tree_expr(tree: NodeTable) -> ast.Expr:
    """One tree's vote, its arrays read once as Python lists."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    left, right, label = tree.left.tolist(), tree.right.tolist(), tree.label.tolist()

    def expr(node: int) -> ast.Expr:
        if feature[node] < 0:
            return ast.Num(label[node])
        test = ast.Binary(
            "<=",
            ast.Index(ast.Name(ARG_NAME), (ast.Num(feature[node]),)),
            ast.Num(threshold[node]),
        )
        return ast.Ternary(cond=test, then=expr(left[node]), orelse=expr(right[node]))

    return expr(0)


def decision_function_ast(
    model: RandomForestModel, name: str = "classify_function"
) -> ast.Function:
    votes = ast.Name("votes")
    body: list[ast.Stmt] = [
        ast.Decl("int", ("votes",)),
        ast.Assign(votes, ast.Num(0)),
    ]
    for tree in model.trees:
        body.append(ast.Assign(votes, ast.Binary("+", votes, _tree_expr(tree))))
    tally = ast.Binary(">=", ast.Binary("*", ast.Num(2), votes), ast.Num(model.n_trees))
    body.append(ast.Return(ast.Ternary(tally, ast.Num(1), ast.Num(0))))
    param = ast.ParamDecl(ARG_NAME, "float", (model.schema.width,))
    return ast.Function(name=name, return_type="int", params=(param,), body=ast.Block(tuple(body)))


def export_decision_code(model: RandomForestModel, name: str = "classify_function") -> str:
    """Render the forest as one self-contained function, 1 = hard, 0 = easy."""
    return function_text(decision_function_ast(model, name))

