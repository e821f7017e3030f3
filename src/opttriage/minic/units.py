"""Analysis-facing views of parsed functions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from opttriage.minic import ast


@dataclass(frozen=True)
class SourceUnit:
    """One source file: a path for reporting plus its full text."""

    path: str
    text: str


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str
    severity: str = "error"  # "error" | "warning"
    function: Optional[str] = None
    path: Optional[str] = None

    def render(self) -> str:
        where = f"{self.path or '<source>'}:{self.line}:{self.col}"
        who = f" [{self.function}]" if self.function else ""
        return f"{where}: {self.severity}: {self.message}{who}"


class ParseError(Exception):
    """Raised in strict mode for any diagnostic-worthy problem."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class TripCount:
    """Iteration count of one loop: a known constant or symbolic."""

    value: Optional[int] = None  # None when not statically known

    @property
    def is_symbolic(self) -> bool:
        return self.value is None

    @staticmethod
    def known(n: int) -> "TripCount":
        if n < 0:
            raise ValueError("negative trip count")
        return TripCount(n)

    @staticmethod
    def symbolic() -> "TripCount":
        return TripCount(None)


@dataclass(frozen=True)
class OpCounts:
    """Operator and identifier tallies for one code region.

    Operators are counted once per distinct subexpression within a single
    statement; arrays and scalars count distinct names, not accesses.
    """

    logical_ops: int = 0
    arith_ops: int = 0
    branches: int = 0
    arrays: int = 0
    scalars: int = 0

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.logical_ops, self.arith_ops, self.branches, self.arrays, self.scalars)


@dataclass(frozen=True)
class LoopNest:
    """A maximal tree of syntactically nested loops.

    ``depth`` is the longest chain of loops in the tree and ``trip_counts``
    lists per-level trips along the first such chain, outermost first.
    ``body_counts`` covers every statement inside the nest, excluding the
    headers of the member loops; the member loop variables do not count
    as scalars.
    """

    depth: int
    trip_counts: tuple[TripCount, ...]
    body_counts: OpCounts

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("a loop nest has at least one loop")
        if len(self.trip_counts) != self.depth:
            raise ValueError("need one trip count per nesting level")


@dataclass(frozen=True)
class FunctionUnit:
    """Everything downstream stages need to know about one function."""

    name: str
    params: tuple[ast.ParamDecl, ...]
    loop_nests: tuple[LoopNest, ...]
    nonloop_counts: OpCounts
    return_type: str = "void"
    source_text: str = field(default="", compare=False)
    # Free names used as array extents or loop bounds; a timing driver must
    # bind these to concrete sizes.
    bound_symbols: tuple[str, ...] = ()
    # Smallest array extent that keeps every literal loop bound and literal
    # subscript of the original code in bounds.
    min_extent: int = 0
