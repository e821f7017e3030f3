"""Recursive-descent parser for the supported C subset.

The grammar covers what the rest of the pipeline can analyze and drive:
function definitions over int/float scalars and 1-D/2-D arrays, counted
``for`` loops with a single loop variable, if/else, assignment statements
(compound assignments are desugared), return, and side-effect-free
expressions built from arithmetic, comparison, and logical operators plus
the conditional operator. Anything else is reported as an unsupported
construct; there is no semantic checking.
"""

from __future__ import annotations

from typing import Optional

from opttriage.minic import ast
from opttriage.minic.lexer import RESERVED_UNSUPPORTED, Tokens
from opttriage.minic.printer import BIN_PREC

_TYPE_WORDS = ("void", "int", "float")
_COMPOUND_ASSIGN = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%"}
_POSTFIX = ("[", "(", ".")  # texts that can follow a name or number in a postfix expression


class ParseProblem(Exception):
    """Internal signal for a parse failure inside one function."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.message = message
        self.offset = offset


class Parser:
    """Parses the function at the start of a `split_functions` chunk, in place.
    It reads no token past the chunk unless that is "eof": it takes braces
    only in matched pairs and ';' only inside a block, so it stops at the
    chunk's closing brace or fails before the chunk ends."""

    # Blocks, if and for statements, expressions (parenthesized, subscripts,
    # ternary arms), unary operators and each operator of a binary chain open
    # one level. Capping them keeps both this recursive descent and the
    # recursive walks over the tree it builds far from Python's stack limit.
    MAX_NESTING = 100

    def __init__(self, tokens: Tokens, start: int):
        self.kinds, self.texts, self.offsets, self.values = tokens
        self.pos = start
        self.depth = 0

    # ------------------------------------------------------------- utilities

    def problem(self, message: str, pos: Optional[int] = None) -> ParseProblem:
        return ParseProblem(message, self.offsets[self.pos if pos is None else pos])

    def unsupported(self, what: str, pos: Optional[int] = None) -> ParseProblem:
        return self.problem(f"unsupported construct: {what}", pos)

    def at(self, text: str) -> bool:
        # only punctuation and keyword tokens can carry these texts
        return self.texts[self.pos] == text

    def expect(self, text: str) -> int:
        """Consume the current token, which must be text; returns its index."""
        pos = self.pos
        found = self.texts[pos]
        if found != text:
            raise self.problem(f"expected {text!r}, found {found or 'end of input'!r}")
        self.pos = pos + 1
        return pos

    def nest(self, pos: int) -> None:
        """Open one nesting level at token pos; the caller closes it."""
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            raise self.unsupported(f"nesting deeper than {self.MAX_NESTING} levels", pos)

    def expect_ident(self) -> str:
        pos = self.pos
        t = self.texts[pos]
        if self.kinds[pos] != "ident":
            if t in RESERVED_UNSUPPORTED:
                raise self.unsupported(f"{t!r} keyword")
            raise self.problem(f"expected identifier, found {t!r}")
        self.pos = pos + 1
        return t

    # ------------------------------------------------------------- functions

    def parse_function(self) -> ast.Function:
        start = self.pos
        ret = self.texts[start]
        if ret not in _TYPE_WORDS:
            if ret in RESERVED_UNSUPPORTED:
                raise self.unsupported(f"{ret!r} type")
            raise self.problem("expected a function definition")
        self.pos += 1
        name = self.expect_ident()
        self.expect("(")
        params = self.parse_params()
        self.expect(")")
        if self.at(";"):
            raise self.unsupported("function declaration without a body")
        body = self.parse_block()
        last = self.pos - 1
        return ast.Function(
            name=name,
            return_type=ret,
            params=tuple(params),
            body=body,
            span=(self.offsets[start], self.offsets[last] + len(self.texts[last])),
        )

    def parse_params(self) -> list[ast.ParamDecl]:
        if self.at(")"):
            return []
        if self.at("void") and self.texts[self.pos + 1] == ")":
            self.pos += 1
            return []
        params = [self.parse_param()]
        while self.at(","):
            self.pos += 1
            params.append(self.parse_param())
        return params

    def parse_param(self) -> ast.ParamDecl:
        base = self.texts[self.pos]
        if base not in ("int", "float"):
            if self.kinds[self.pos] == "kw":
                raise self.unsupported(f"{base!r} parameter type")
            raise self.problem(f"expected parameter type, found {base!r}")
        self.pos += 1
        if self.at("*"):
            raise self.unsupported("pointer parameter")
        name = self.expect_ident()
        extents: list[ast.Extent] = []
        while self.at("["):
            if len(extents) == 2:
                raise self.unsupported("array with more than two dimensions")
            self.pos += 1
            pos = self.pos
            kind = self.kinds[pos]
            if kind == "num" and isinstance(self.values[pos], int):
                extents.append(self.values[pos])  # type: ignore[arg-type]
            elif kind == "ident":
                extents.append(self.texts[pos])
            else:
                raise self.problem("expected array extent")
            self.pos = pos + 1
            self.expect("]")
        return ast.ParamDecl(name=name, base_type=base, extents=tuple(extents))

    # ------------------------------------------------------------- statements

    def parse_block(self) -> ast.Block:
        self.nest(self.expect("{"))
        texts = self.texts
        items: list[ast.Stmt] = []
        while texts[self.pos] != "}":
            if self.kinds[self.pos] == "eof":
                raise self.problem("unterminated block")
            items.append(self.parse_statement())
        self.pos += 1
        self.depth -= 1
        return ast.Block(tuple(items))

    def parse_statement(self) -> ast.Stmt:
        pos = self.pos
        t = self.texts[pos]
        if self.kinds[pos] == "ident" or t == "void":
            return self.parse_assignment()
        if t == "{":
            return self.parse_block()
        if t == ";":
            self.pos = pos + 1
            return ast.Block(())
        if t in ("int", "float"):
            return self.parse_decl()
        if t == "for":
            return self.parse_for()
        if t == "if":
            return self.parse_if()
        if t == "return":
            self.pos = pos + 1
            if self.at(";"):
                self.pos += 1
                return ast.Return(None)
            value = self.parse_expr()
            self.expect(";")
            return ast.Return(value)
        if t in RESERVED_UNSUPPORTED:
            raise self.unsupported(f"{t!r} statement")
        raise self.problem(f"expected a statement, found {t!r}")

    def parse_decl(self) -> ast.Decl:
        base = self.texts[self.pos]
        self.pos += 1
        if self.at("*"):
            raise self.unsupported("pointer declaration")
        names = [self.expect_ident()]
        if self.at("["):
            raise self.unsupported("local array declaration")
        if self.at("="):
            raise self.unsupported("initializer in declaration")
        while self.at(","):
            self.pos += 1
            names.append(self.expect_ident())
            if self.at("[") or self.at("="):
                raise self.unsupported("local array declaration or initializer")
        self.expect(";")
        return ast.Decl(base_type=base, names=tuple(names))

    def parse_assignment(self) -> ast.Assign:
        target = self.parse_postfix()
        if not isinstance(target, (ast.Name, ast.Index)):
            raise self.problem("expected an assignable location")
        op = self.texts[self.pos]
        if op == "=":
            self.pos += 1
            value = self.parse_expr()
        elif op in _COMPOUND_ASSIGN:
            self.pos += 1
            value = ast.Binary(_COMPOUND_ASSIGN[op], target, self.parse_expr())
        elif op in ("++", "--"):
            self.pos += 1
            value = ast.Binary(op[0], target, ast.Num(1))
        else:
            if op == "(":
                raise self.unsupported("function call")
            raise self.problem(f"expected an assignment operator, found {op!r}")
        self.expect(";")
        return ast.Assign(target=target, value=value)

    def parse_if(self) -> ast.If:
        self.nest(self.expect("if"))
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_statement()
        orelse = None
        if self.at("else"):
            self.pos += 1
            orelse = self.parse_statement()
        self.depth -= 1
        return ast.If(cond=cond, then=then, orelse=orelse)

    def parse_for(self) -> ast.For:
        self.nest(self.expect("for"))
        self.expect("(")
        if self.at("int"):  # C99-style declarator in the header
            self.pos += 1
        elif self.at("float"):
            raise self.unsupported("non-integer loop variable")
        var = self.expect_ident()
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        if self.expect_ident() != var:
            raise self.unsupported("loop condition on a different variable", self.pos - 1)
        rel = self.texts[self.pos]
        if rel not in ("<", "<="):
            raise self.unsupported(f"loop condition with {rel!r}")
        self.pos += 1
        bound = self.parse_expr()
        self.expect(";")
        step = self.parse_for_step(var)
        self.expect(")")
        body = self.parse_statement()
        self.depth -= 1
        return ast.For(var=var, init=init, bound_op=rel, bound=bound, step=step, body=body)

    def parse_for_step(self, var: str) -> ast.Expr:
        if self.at("++"):  # prefix
            self.pos += 1
            if self.expect_ident() != var:
                raise self.unsupported("loop increment on a different variable", self.pos - 1)
            return ast.Num(1)
        if self.expect_ident() != var:
            raise self.unsupported("loop increment on a different variable", self.pos - 1)
        op_pos = self.pos
        op = self.texts[op_pos]
        if op == "++":
            self.pos += 1
            return ast.Num(1)
        if op == "+=":
            self.pos += 1
            return self.parse_expr()
        if op == "=":
            self.pos += 1
            if self.expect_ident() != var or not self.at("+"):
                raise self.unsupported("non-incrementing loop step", op_pos)
            self.pos += 1
            return self.parse_expr()
        if op in ("--", "-="):
            raise self.unsupported("decrementing loop step")
        raise self.unsupported(f"loop step with {op!r}")

    # ------------------------------------------------------------ expressions

    def parse_expr(self) -> ast.Expr:
        self.nest(self.pos)
        e = self.parse_unary()
        if self.texts[self.pos] in BIN_PREC:
            e = self.parse_binary(e, 1)  # 1: below every operator's precedence
        if self.texts[self.pos] == "?":
            self.pos += 1
            then = self.parse_expr()
            self.expect(":")
            e = ast.Ternary(cond=e, then=then, orelse=self.parse_expr())
        self.depth -= 1
        return e

    def parse_binary(self, left: ast.Expr, min_prec: int) -> ast.Expr:
        """Precedence climbing over BIN_PREC from a parsed left operand; every
        operator is left-associative and opens one nesting level."""
        depth = self.depth
        texts = self.texts
        while True:
            op = texts[self.pos]
            prec = BIN_PREC.get(op, 0)
            if prec < min_prec:
                break
            self.nest(self.pos)
            self.pos += 1
            right = self.parse_unary()
            if BIN_PREC.get(texts[self.pos], 0) > prec:
                right = self.parse_binary(right, prec + 1)
            left = ast.Binary(op, left, right)
        self.depth = depth
        return left

    def parse_unary(self) -> ast.Expr:
        pos = self.pos
        kind = self.kinds[pos]
        if (kind == "ident" or kind == "num") and self.texts[pos + 1] not in _POSTFIX:
            self.pos = pos + 1  # a plain name or number, most operands
            return ast.Name(self.texts[pos]) if kind == "ident" else ast.Num(self.values[pos])
        t = self.texts[pos]
        if t == "-" or t == "!":
            self.nest(pos)
            self.pos = pos + 1
            e = ast.Unary(t, self.parse_unary())
            self.depth -= 1
            return e
        if t in ("&", "*", "~", "++", "--"):
            raise self.unsupported(f"unary {t!r}")
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        base = self.parse_primary()
        if self.at("["):
            if not isinstance(base, ast.Name):
                raise self.problem("only named arrays can be subscripted")
            subs: list[ast.Expr] = []
            while self.at("["):
                if len(subs) == 2:
                    raise self.unsupported("more than two subscripts")
                self.pos += 1
                subs.append(self.parse_expr())
                self.expect("]")
            return ast.Index(base=base, subs=tuple(subs))
        if self.at("(") and isinstance(base, ast.Name):
            raise self.unsupported("function call")
        if self.at("."):
            raise self.unsupported("member access")
        return base

    def parse_primary(self) -> ast.Expr:
        pos = self.pos
        kind = self.kinds[pos]
        t = self.texts[pos]
        if kind == "num":
            self.pos = pos + 1
            return ast.Num(self.values[pos])  # type: ignore[arg-type]
        if kind == "ident":
            self.pos = pos + 1
            return ast.Name(t)
        if t == "(":
            self.pos = pos + 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if t in RESERVED_UNSUPPORTED:
            raise self.unsupported(f"{t!r} in expression")
        raise self.problem(f"expected an expression, found {t or 'end of input'!r}")


def split_functions(tokens: Tokens) -> list[tuple[int, int, Optional[int]]]:
    """Segment a token stream into per-function chunks by brace matching.

    Returns (start, end, index of the chunk's first "error" token or None)
    triples; a chunk is tokens[start:end]. Chunks that never open a body
    brace end at the next top-level type keyword so one malformed
    definition cannot swallow the rest of the file.
    """
    kinds, texts = tokens.kinds, tokens.texts
    last = len(texts) - 1  # the "eof" token
    chunks = []
    start = 0
    while start < last:
        depth = 0
        opened = False
        error = None
        j = start
        while j < last:
            t = texts[j]
            if t == "{":
                depth += 1
                opened = True
            elif t == "}":
                depth -= 1
                if opened and depth == 0:
                    j += 1
                    break
            elif kinds[j] == "error":
                if error is None:
                    error = j
            elif not opened and j > start and t in _TYPE_WORDS and texts[j - 1] in (";", "}"):
                break
            j += 1
        chunks.append((start, j, error))
        start = j
    return chunks
