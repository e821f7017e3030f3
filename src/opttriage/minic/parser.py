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
from opttriage.minic.lexer import RESERVED_UNSUPPORTED, Token
from opttriage.minic.printer import BIN_PREC

_TYPE_WORDS = ("void", "int", "float")
_COMPOUND_ASSIGN = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%"}


class ParseProblem(Exception):
    """Internal signal for a parse failure inside one function."""

    def __init__(self, message: str, token: Token):
        super().__init__(f"offset {token.offset}: {message}")
        self.message = message
        self.offset = token.offset


def _unsupported(what: str, token: Token) -> ParseProblem:
    return ParseProblem(f"unsupported construct: {what}", token)


class Parser:
    # Blocks, if and for statements, expressions (parenthesized, subscripts,
    # ternary arms), unary operators and each operator of a binary chain open
    # one level. Capping them keeps both this recursive descent and the
    # recursive walks over the tree it builds far from Python's stack limit.
    MAX_NESTING = 100

    def __init__(self, tokens: list[Token]):
        self.toks = tokens  # ends with the "eof" token, which next() never passes
        self.pos = 0
        self.depth = 0

    # ------------------------------------------------------------- utilities

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        # only punctuation and keyword tokens can carry these texts
        return self.toks[self.pos].text == text

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            shown = t.text if t.text else "end of input"
            raise ParseProblem(f"expected {text!r}, found {shown!r}", t)
        return self.next()

    def nest(self, t: Token) -> None:
        """Open one nesting level at token t; the caller closes it."""
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            raise _unsupported(f"nesting deeper than {self.MAX_NESTING} levels", t)

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            if t.kind == "kw" and t.text in RESERVED_UNSUPPORTED:
                raise _unsupported(f"{t.text!r} keyword", t)
            raise ParseProblem(f"expected identifier, found {t.text!r}", t)
        return self.next()

    # ------------------------------------------------------------- functions

    def parse_function(self) -> ast.Function:
        ret_tok = self.peek()
        if ret_tok.text not in _TYPE_WORDS:
            if ret_tok.kind == "kw" and ret_tok.text in RESERVED_UNSUPPORTED:
                raise _unsupported(f"{ret_tok.text!r} type", ret_tok)
            raise ParseProblem("expected a function definition", ret_tok)
        self.next()
        name = self.expect_ident()
        self.expect("(")
        params = self.parse_params()
        self.expect(")")
        if self.at(";"):
            raise _unsupported("function declaration without a body", self.peek())
        body = self.parse_block()
        end = self.toks[self.pos - 1]
        return ast.Function(
            name=name.text,
            return_type=ret_tok.text,
            params=tuple(params),
            body=body,
            span=(ret_tok.offset, end.offset + len(end.text)),
        )

    def parse_params(self) -> list[ast.ParamDecl]:
        if self.at(")"):
            return []
        if self.at("void") and self.peek(1).text == ")":
            self.next()
            return []
        params = [self.parse_param()]
        while self.at(","):
            self.next()
            params.append(self.parse_param())
        return params

    def parse_param(self) -> ast.ParamDecl:
        t = self.peek()
        if t.text not in ("int", "float"):
            if t.kind == "kw":
                raise _unsupported(f"{t.text!r} parameter type", t)
            raise ParseProblem(f"expected parameter type, found {t.text!r}", t)
        self.next()
        if self.at("*"):
            raise _unsupported("pointer parameter", self.peek())
        name = self.expect_ident()
        extents: list[ast.Extent] = []
        while self.at("["):
            if len(extents) == 2:
                raise _unsupported("array with more than two dimensions", self.peek())
            self.next()
            ext = self.peek()
            if ext.kind == "num" and isinstance(ext.value, int):
                extents.append(ext.value)
                self.next()
            elif ext.kind == "ident":
                extents.append(ext.text)
                self.next()
            else:
                raise ParseProblem("expected array extent", ext)
            self.expect("]")
        return ast.ParamDecl(name=name.text, base_type=t.text, extents=tuple(extents))

    # ------------------------------------------------------------- statements

    def parse_block(self) -> ast.Block:
        self.nest(self.expect("{"))
        items: list[ast.Stmt] = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise ParseProblem("unterminated block", self.peek())
            items.append(self.parse_statement())
        self.expect("}")
        self.depth -= 1
        return ast.Block(tuple(items))

    def parse_statement(self) -> ast.Stmt:
        t = self.peek()
        if t.text == "{":
            return self.parse_block()
        if t.text == ";":
            self.next()
            return ast.Block(())
        if t.text in ("int", "float"):
            return self.parse_decl()
        if t.text == "for":
            return self.parse_for()
        if t.text == "if":
            return self.parse_if()
        if t.text == "return":
            self.next()
            if self.at(";"):
                self.next()
                return ast.Return(None)
            value = self.parse_expr()
            self.expect(";")
            return ast.Return(value)
        if t.kind == "kw" and t.text in RESERVED_UNSUPPORTED:
            raise _unsupported(f"{t.text!r} statement", t)
        if t.kind == "ident" or t.text == "void":
            return self.parse_assignment()
        raise ParseProblem(f"expected a statement, found {t.text!r}", t)

    def parse_decl(self) -> ast.Decl:
        base = self.next().text
        if self.at("*"):
            raise _unsupported("pointer declaration", self.peek())
        names = [self.expect_ident().text]
        if self.at("["):
            raise _unsupported("local array declaration", self.peek())
        if self.at("="):
            raise _unsupported("initializer in declaration", self.peek())
        while self.at(","):
            self.next()
            names.append(self.expect_ident().text)
            if self.at("[") or self.at("="):
                raise _unsupported("local array declaration or initializer", self.peek())
        self.expect(";")
        return ast.Decl(base_type=base, names=tuple(names))

    def parse_assignment(self) -> ast.Assign:
        target = self.parse_postfix()
        if not isinstance(target, (ast.Name, ast.Index)):
            raise ParseProblem("expected an assignable location", self.peek())
        op = self.peek()
        if op.text == "=":
            self.next()
            value = self.parse_expr()
        elif op.text in _COMPOUND_ASSIGN:
            self.next()
            rhs = self.parse_expr()
            value = ast.Binary(_COMPOUND_ASSIGN[op.text], target, rhs)
        elif op.text in ("++", "--"):
            self.next()
            value = ast.Binary(op.text[0], target, ast.Num(1))
        else:
            if op.text == "(":
                raise _unsupported("function call", op)
            raise ParseProblem(f"expected an assignment operator, found {op.text!r}", op)
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
            self.next()
            orelse = self.parse_statement()
        self.depth -= 1
        return ast.If(cond=cond, then=then, orelse=orelse)

    def parse_for(self) -> ast.For:
        self.nest(self.expect("for"))
        self.expect("(")
        if self.at("int"):  # C99-style declarator in the header
            self.next()
        elif self.at("float"):
            raise _unsupported("non-integer loop variable", self.peek())
        var = self.expect_ident()
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        cmp_var = self.expect_ident()
        if cmp_var.text != var.text:
            raise _unsupported("loop condition on a different variable", cmp_var)
        rel = self.peek()
        if rel.text not in ("<", "<="):
            raise _unsupported(f"loop condition with {rel.text!r}", rel)
        self.next()
        bound = self.parse_expr()
        self.expect(";")
        step = self.parse_for_step(var.text)
        self.expect(")")
        body = self.parse_statement()
        self.depth -= 1
        return ast.For(
            var=var.text, init=init, bound_op=rel.text, bound=bound, step=step, body=body
        )

    def parse_for_step(self, var: str) -> ast.Expr:
        t = self.peek()
        if t.text == "++":  # prefix
            self.next()
            inc_var = self.expect_ident()
            if inc_var.text != var:
                raise _unsupported("loop increment on a different variable", inc_var)
            return ast.Num(1)
        inc_var = self.expect_ident()
        if inc_var.text != var:
            raise _unsupported("loop increment on a different variable", inc_var)
        op = self.peek()
        if op.text == "++":
            self.next()
            return ast.Num(1)
        if op.text == "+=":
            self.next()
            return self.parse_expr()
        if op.text == "=":
            self.next()
            lhs = self.expect_ident()
            if lhs.text != var or not self.at("+"):
                raise _unsupported("non-incrementing loop step", op)
            self.next()
            return self.parse_expr()
        if op.text in ("--", "-="):
            raise _unsupported("decrementing loop step", op)
        raise _unsupported(f"loop step with {op.text!r}", op)

    # ------------------------------------------------------------ expressions

    def parse_expr(self) -> ast.Expr:
        self.nest(self.peek())
        e = self.parse_binary(1)  # 1: below every operator's precedence
        if self.at("?"):
            self.next()
            then = self.parse_expr()
            self.expect(":")
            e = ast.Ternary(cond=e, then=then, orelse=self.parse_expr())
        self.depth -= 1
        return e

    def parse_binary(self, min_prec: int) -> ast.Expr:
        """Precedence climbing over BIN_PREC; every operator is left-associative."""
        depth = self.depth
        left = self.parse_unary()
        while True:
            op = self.peek()
            prec = BIN_PREC.get(op.text, 0)
            if prec < min_prec:
                break
            self.next()
            self.nest(op)
            left = ast.Binary(op.text, left, self.parse_binary(prec + 1))
        self.depth = depth
        return left

    def parse_unary(self) -> ast.Expr:
        t = self.peek()
        if t.text in ("-", "!"):
            self.next()
            self.nest(t)
            e = ast.Unary(t.text, self.parse_unary())
            self.depth -= 1
            return e
        if t.text in ("&", "*", "~", "++", "--"):
            raise _unsupported(f"unary {t.text!r}", t)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        base = self.parse_primary()
        if self.at("["):
            if not isinstance(base, ast.Name):
                raise ParseProblem("only named arrays can be subscripted", self.peek())
            subs: list[ast.Expr] = []
            while self.at("["):
                if len(subs) == 2:
                    raise _unsupported("more than two subscripts", self.peek())
                self.next()
                subs.append(self.parse_expr())
                self.expect("]")
            return ast.Index(base=base, subs=tuple(subs))
        if self.at("(") and isinstance(base, ast.Name):
            raise _unsupported("function call", self.peek())
        if self.at("."):
            raise _unsupported("member access", self.peek())
        return base

    def parse_primary(self) -> ast.Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return ast.Num(t.value)  # type: ignore[arg-type]
        if t.kind == "ident":
            self.next()
            return ast.Name(t.text)
        if t.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if t.kind == "kw" and t.text in RESERVED_UNSUPPORTED:
            raise _unsupported(f"{t.text!r} in expression", t)
        shown = t.text if t.text else "end of input"
        raise ParseProblem(f"expected an expression, found {shown!r}", t)


def split_functions(tokens: list[Token]) -> list[tuple[list[Token], Optional[Token]]]:
    """Segment a token stream into per-function chunks by brace matching.

    Returns (chunk tokens, first "error" token of the chunk or None) pairs.
    Chunks that never open a body brace end at the next top-level type
    keyword so one malformed definition cannot swallow the rest of the file.
    """
    chunks = []
    i = 0
    n = len(tokens)
    while i < n and tokens[i].kind != "eof":
        start = i
        depth = 0
        opened = False
        error = None
        j = i
        while j < n and tokens[j].kind != "eof":
            t = tokens[j]
            if t.text == "{":
                depth += 1
                opened = True
            elif t.text == "}":
                depth -= 1
                if opened and depth == 0:
                    j += 1
                    break
            elif t.kind == "error":
                error = error or t
            elif not opened and j > start and t.text in _TYPE_WORDS and tokens[j - 1].text in (";", "}"):
                break
            j += 1
        chunks.append((tokens[start:j], error))
        i = j
    return chunks
