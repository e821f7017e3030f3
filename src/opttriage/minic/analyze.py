"""Turns parsed functions into countable units.

Counting rules:

* Comparison and boolean connectives count as logical ops, the five
  arithmetic operators as arithmetic ops, and each ``if`` statement or
  conditional expression as one branch.
* Within a single statement, subexpressions with identical canonical text
  are counted once; repeats across statements count again.
* A loop nest's tallies cover every statement inside it but exclude the
  member ``for`` headers entirely (their operators and identifiers), and
  the member loop variables are not reported as scalars.
* Arrays and scalars are distinct-name counts. A name subscripted anywhere
  in the region, or declared as an array parameter, counts as an array.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional, Union

from opttriage.minic import ast
from opttriage.minic.lexer import tokenize
from opttriage.minic.parser import Parser, ParseProblem, split_functions
from opttriage.minic.printer import expr_text
from opttriage.minic.units import (
    Diagnostic,
    FunctionUnit,
    LoopNest,
    OpCounts,
    ParseError,
    SourceUnit,
    TripCount,
)

_LOGICAL_OPS = frozenset({"<", "<=", ">", ">=", "==", "!=", "&&", "||", "!"})
_ARITH_OPS = frozenset({"+", "-", "*", "/", "%"})
_BRANCH_OPS = frozenset({"if", "?:"})
_NEUTRAL_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "++", "--", ",", "[]", "[", "]"})


def classify_operator(token: str) -> str:
    """Map an operator token to "logical", "arith", "branch", or "neither"."""
    if token in _LOGICAL_OPS:
        return "logical"
    if token in _ARITH_OPS:
        return "arith"
    if token in _BRANCH_OPS:
        return "branch"
    if token in _NEUTRAL_OPS:
        return "neither"
    raise ValueError(f"unknown operator: {token!r}")


class AnalysisProblem(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


INT_MAX = 2**31 - 1


def _check_int_literal(value: Union[int, float]) -> None:
    """Integer literals must fit a C int: features turn them into floats and
    the timing driver into array sizes."""
    if isinstance(value, int) and value > INT_MAX:
        raise AnalysisProblem("unsupported construct: integer literal out of int range")


class _UsageCounter:
    """Accumulates op and identifier usage for one region of code."""

    def __init__(self) -> None:
        self.logical = 0
        self.arith = 0
        self.branches = 0
        self.subscripted: set[str] = set()
        self.bare: set[str] = set()
        self.loop_vars: set[str] = set()  # of the nest tallied here; not scalars
        self.min_extent = 0  # smallest extent covering every literal subscript

    def count_statement(self, exprs: Iterable[Optional[ast.Expr]]) -> None:
        visit = partial(self._visit, set())  # operator texts counted in this statement
        for e in exprs:
            if e is not None:
                expr_text(e, visit)

    def count_if(self) -> None:
        self.branches += 1

    def _visit(self, seen: set[str], e: ast.Expr, text: str) -> None:
        cls = type(e)
        if cls is ast.Name:
            self.bare.add(e.ident)
        elif cls is ast.Num:
            _check_int_literal(e.value)
        elif cls is ast.Index:
            self.subscripted.add(e.base.ident)
            self.min_extent = max(self.min_extent, _literal_extent(e))
        elif text not in seen:
            seen.add(text)
            kind = "branch" if cls is ast.Ternary else classify_operator(e.op)
            if kind == "logical":
                self.logical += 1
            elif kind == "arith":
                self.arith += 1
            elif kind == "branch":
                self.branches += 1

    def finalize(self, declared_arrays: set[str]) -> OpCounts:
        arrays = self.subscripted | (self.bare & declared_arrays)
        scalars = self.bare - declared_arrays - self.subscripted - self.loop_vars
        return OpCounts(
            logical_ops=self.logical,
            arith_ops=self.arith,
            branches=self.branches,
            arrays=len(arrays),
            scalars=len(scalars),
        )


def _literal_extent(e: ast.Index) -> int:
    """Smallest array extent that keeps e's literal integer subscripts in bounds."""
    return max(
        (s.value + 1 for s in e.subs if isinstance(s, ast.Num) and isinstance(s.value, int)),
        default=0,
    )


# ------------------------------------------------------------------ loop nests


def _const_int(e: ast.Expr) -> Optional[int]:
    if isinstance(e, ast.Num) and isinstance(e.value, int):
        return e.value
    if isinstance(e, ast.Unary) and e.op == "-":
        inner = _const_int(e.operand)
        return None if inner is None else -inner
    return None


def _trip_count(loop: ast.For) -> TripCount:
    step = _const_int(loop.step)
    if step is not None and step <= 0:
        raise AnalysisProblem("unsupported construct: non-positive constant loop step")
    lo = _const_int(loop.init)
    hi = _const_int(loop.bound)
    if lo is None or hi is None or step is None:
        return TripCount.symbolic()
    if loop.bound_op == "<=":
        hi += 1
    span = hi - lo
    if span <= 0:
        return TripCount.known(0)
    return TripCount.known(-(-span // step))


class _FunctionScanner:
    def __init__(self, fn: ast.Function):
        self.fn = fn
        self.declared_arrays = {p.name for p in fn.params if p.extents}
        self.declared_names = {p.name for p in fn.params}
        self.headers = _UsageCounter()  # loop headers: their names and literal subscripts
        self.loop_vars: set[str] = set()
        self.nonloop = _UsageCounter()
        self.nests: list[LoopNest] = []
        self.min_extent = 0

    def scan(self) -> None:
        self._scan_region(self.fn.body.items, self.nonloop, None)

    def _scan_region(
        self, stmts: Iterable[ast.Stmt], counter: _UsageCounter, inner: Optional[list]
    ) -> None:
        """Tally statements into counter and record declared names, in one walk.
        Outside all loops (inner is None) a For starts a new nest; inside one
        it appends its trip-count chain to inner."""
        for s in stmts:
            if isinstance(s, ast.For):
                if inner is None:
                    self.nests.append(self._build_nest(s))
                else:
                    inner.append(self._build_loop(s, counter))
            elif isinstance(s, ast.Block):
                self._scan_region(s.items, counter, inner)
            elif isinstance(s, ast.If):
                counter.count_if()
                counter.count_statement([s.cond])
                self._scan_region([s.then], counter, inner)
                if s.orelse is not None:
                    self._scan_region([s.orelse], counter, inner)
            elif isinstance(s, ast.Assign):
                counter.count_statement([s.target, s.value])
            elif isinstance(s, ast.Return):
                counter.count_statement([s.value])
            elif isinstance(s, ast.Decl):
                self.declared_names.update(s.names)
            else:
                raise TypeError(f"not a statement: {s!r}")

    def _build_nest(self, outer: ast.For) -> LoopNest:
        counter = _UsageCounter()
        trips = self._build_loop(outer, counter)
        self.min_extent = max(self.min_extent, counter.min_extent)
        return LoopNest(
            depth=len(trips),
            trip_counts=trips,
            body_counts=counter.finalize(self.declared_arrays),
        )

    def _build_loop(self, node: ast.For, counter: _UsageCounter) -> tuple[TripCount, ...]:
        """Tally the loop's body into counter; returns the trip counts of its
        first deepest chain of nested loops, its own first."""
        counter.loop_vars.add(node.var)
        self.loop_vars.add(node.var)
        self.headers.count_statement([node.init, node.bound, node.step])
        hi = _const_int(node.bound)
        if hi is not None:
            self.min_extent = max(self.min_extent, hi + 1 if node.bound_op == "<=" else hi)
        trip = _trip_count(node)
        children: list[tuple[TripCount, ...]] = []
        self._scan_region([node.body], counter, children)
        return (trip,) + max(children, key=len, default=())


def build_function_unit(fn: ast.Function, source_text: str = "") -> FunctionUnit:
    for p in fn.params:
        for x in p.extents:
            _check_int_literal(x)  # a symbolic extent is a str and passes
    scanner = _FunctionScanner(fn)
    scanner.scan()
    headers = scanner.headers
    extent_names = {x for p in fn.params for x in p.extents if isinstance(x, str)}
    free = (headers.bare | headers.subscripted | extent_names) - scanner.declared_names
    free -= scanner.loop_vars
    return FunctionUnit(
        name=fn.name,
        params=fn.params,
        loop_nests=tuple(scanner.nests),
        nonloop_counts=scanner.nonloop.finalize(scanner.declared_arrays),
        return_type=fn.return_type,
        source_text=source_text,
        bound_symbols=tuple(sorted(free)),
        min_extent=max(scanner.min_extent, scanner.nonloop.min_extent, headers.min_extent),
    )


# ------------------------------------------------------------------ front door


def _report(
    diagnostics: list[Diagnostic], src: SourceUnit, strict: bool,
    offset: int, message: str, function: Optional[str],
) -> None:
    """Records an error at a text offset, at its 1-based line and column;
    with ``strict`` it raises ParseError instead of letting parsing go on."""
    text = src.text
    line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    d = Diagnostic(line, col, message, "error", function=function, path=src.path)
    diagnostics.append(d)
    if strict:
        raise ParseError(d)


def parse_functions(
    src: Union[SourceUnit, str], strict: bool = False
) -> tuple[list[ast.Function], list[Diagnostic]]:
    """Parse a source unit into raw syntax trees with per-function recovery."""
    if isinstance(src, str):
        src = SourceUnit("<source>", src)
    diagnostics: list[Diagnostic] = []
    tokens = tokenize(src.text)
    kinds, texts, offsets, _ = tokens
    functions: list[ast.Function] = []
    for start, end, error in split_functions(tokens):
        if error is not None:  # lexical errors name no function
            _report(diagnostics, src, strict, offsets[error], texts[error], None)
            continue
        guessed = texts[start + 1] if start + 1 < end and kinds[start + 1] == "ident" else None
        try:
            functions.append(Parser(tokens, start).parse_function())
        except ParseProblem as e:
            _report(diagnostics, src, strict, e.offset, e.message, guessed)
    return functions, diagnostics


def parse_unit(
    src: Union[SourceUnit, str], strict: bool = False
) -> tuple[list[FunctionUnit], list[Diagnostic]]:
    """Parse source text into function units plus diagnostics.

    With ``strict=False``, functions that fail to parse or analyze are
    skipped and described by a Diagnostic; with ``strict=True`` the first
    problem raises ParseError.
    """
    if isinstance(src, str):
        src = SourceUnit("<source>", src)
    functions, diagnostics = parse_functions(src, strict=strict)

    units: list[FunctionUnit] = []
    seen_names: set[str] = set()
    for fn in functions:
        start, end = fn.span
        problem: Optional[str] = None
        if fn.name in seen_names:
            problem = f"duplicate function name {fn.name!r}"
        else:
            try:
                units.append(build_function_unit(fn, source_text=src.text[start:end]))
                seen_names.add(fn.name)
            except AnalysisProblem as e:
                problem = e.message
        if problem is not None:
            _report(diagnostics, src, strict, start, problem, fn.name)
    return units, diagnostics
