"""Canonical text rendering for syntax trees.

The output is stable and reparses to an equal tree, which makes it usable
both as the generator's serializer and as the canonical form for
expression-identity comparisons.
"""

from __future__ import annotations

from typing import Callable, Optional

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


def _num_text(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean literal")
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def expr_text(e: ast.Expr, visit: Optional[Callable[[ast.Expr, str], None]] = None) -> str:
    """Canonical text of e, built bottom-up so each subexpression is rendered
    once. visit(node, text), if given, sees every subexpression of e after
    its children; the array name of a subscript is not one."""
    return _render(e, visit)[0]


def _render(e: ast.Expr, visit) -> tuple[str, int]:
    """Text and precedence of e: 1 for a ternary, BIN_PREC for a binary
    operator, 8 for a unary one and 9 for an operand."""
    cls = type(e)
    if cls is ast.Name:
        text, prec = e.ident, 9
    elif cls is ast.Binary:
        prec = BIN_PREC[e.op]
        lhs, lhs_prec = _render(e.left, visit)
        rhs, rhs_prec = _render(e.right, visit)
        if lhs_prec < prec:
            lhs = f"({lhs})"
        if rhs_prec <= prec:
            rhs = f"({rhs})"
        text = f"{lhs} {e.op} {rhs}"
    elif cls is ast.Num:
        text, prec = _num_text(e.value), 9
    elif cls is ast.Index:
        text = e.base.ident + "".join([f"[{_render(s, visit)[0]}]" for s in e.subs])
        prec = 9
    elif cls is ast.Unary:
        inner, inner_prec = _render(e.operand, visit)
        if inner_prec < 8:
            inner = f"({inner})"
        elif e.op == "-" and inner[0] == "-":
            inner = " " + inner  # "--" would lex as a decrement
        text, prec = e.op + inner, 8
    elif cls is ast.Ternary:
        cond, cond_prec = _render(e.cond, visit)
        then, then_prec = _render(e.then, visit)
        orelse, orelse_prec = _render(e.orelse, visit)
        if cond_prec <= 1:
            cond = f"({cond})"
        if then_prec == 1:
            then = f"({then})"
        if orelse_prec == 1:
            orelse = f"({orelse})"
        text, prec = f"{cond} ? {then} : {orelse}", 1
    else:
        raise TypeError(f"not an expression: {e!r}")
    if visit is not None:
        visit(e, text)
    return text, prec


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
