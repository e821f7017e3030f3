"""Canonical text rendering for syntax trees.

The output is stable and reparses to an equal tree, which makes it usable
both as the generator's serializer and as the canonical form for
expression-identity comparisons.
"""

from __future__ import annotations

from opttriage.minic import ast

BIN_PREC = {
    "||": 2,
    "&&": 3,
    "==": 4,
    "!=": 4,
    "<": 5,
    "<=": 5,
    ">": 5,
    ">=": 5,
    "+": 6,
    "-": 6,
    "*": 7,
    "/": 7,
    "%": 7,
}

_INDENT = "    "


def _prec(e: ast.Expr) -> int:
    if isinstance(e, ast.Ternary):
        return 1
    if isinstance(e, ast.Binary):
        return BIN_PREC[e.op]
    if isinstance(e, ast.Unary):
        return 8
    return 9


def _num_text(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean literal")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def expr_text(e: ast.Expr) -> str:
    if isinstance(e, ast.Num):
        return _num_text(e.value)
    if isinstance(e, ast.Name):
        return e.ident
    if isinstance(e, ast.Index):
        return e.base.ident + "".join(f"[{expr_text(s)}]" for s in e.subs)
    if isinstance(e, ast.Unary):
        inner = expr_text(e.operand)
        if _prec(e.operand) < 8:
            inner = f"({inner})"
        return e.op + inner
    if isinstance(e, ast.Binary):
        lhs = expr_text(e.left)
        if _prec(e.left) < BIN_PREC[e.op]:
            lhs = f"({lhs})"
        rhs = expr_text(e.right)
        if _prec(e.right) <= BIN_PREC[e.op]:
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, ast.Ternary):
        cond = expr_text(e.cond)
        if _prec(e.cond) <= 1:
            cond = f"({cond})"
        then = expr_text(e.then)
        if isinstance(e.then, ast.Ternary):
            then = f"({then})"
        orelse = expr_text(e.orelse)
        if isinstance(e.orelse, ast.Ternary):
            orelse = f"({orelse})"
        return f"{cond} ? {then} : {orelse}"
    raise TypeError(f"not an expression: {e!r}")


def _param_text(p: ast.ParamDecl) -> str:
    return f"{p.base_type} {p.name}" + "".join(f"[{x}]" for x in p.extents)


def _stmt_lines(s: ast.Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(s, ast.Block):
        lines = [pad + "{"]
        for item in s.items:
            lines.extend(_stmt_lines(item, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(s, ast.Decl):
        return [f"{pad}{s.base_type} {', '.join(s.names)};"]
    if isinstance(s, ast.Assign):
        return [f"{pad}{expr_text(s.target)} = {expr_text(s.value)};"]
    if isinstance(s, ast.Return):
        if s.value is None:
            return [pad + "return;"]
        return [f"{pad}return {expr_text(s.value)};"]
    if isinstance(s, ast.If):
        lines = [f"{pad}if ({expr_text(s.cond)})"]
        lines.extend(_stmt_lines(_as_block(s.then), depth))
        if s.orelse is not None:
            lines.append(pad + "else")
            lines.extend(_stmt_lines(_as_block(s.orelse), depth))
        return lines
    if isinstance(s, ast.For):
        step = expr_text(s.step)
        incr = f"{s.var}++" if step == "1" else f"{s.var} += {step}"
        header = (
            f"{pad}for ({s.var} = {expr_text(s.init)}; "
            f"{s.var} {s.bound_op} {expr_text(s.bound)}; {incr})"
        )
        return [header] + _stmt_lines(_as_block(s.body), depth)
    raise TypeError(f"not a statement: {s!r}")


def _as_block(s: ast.Stmt) -> ast.Block:
    return s if isinstance(s, ast.Block) else ast.Block((s,))


def function_text(f: ast.Function) -> str:
    params = ", ".join(_param_text(p) for p in f.params) or "void"
    header = f"{f.return_type} {f.name}({params})"
    return "\n".join([header] + _stmt_lines(f.body, 0)) + "\n"
