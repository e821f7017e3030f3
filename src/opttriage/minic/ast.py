"""Syntax tree for the supported C subset.

Node equality ignores source spans so that a parse -> print -> parse round
trip compares equal structurally. Nodes are slotted rather than frozen,
which makes them about three times cheaper to build (frozen costs the same
with or without slots). So they are mutable and, comparing by value,
unhashable: nothing mutates a node once built, and none may be used as a set
member or dict key. ParamDecl, which FunctionUnit holds, stays frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


# ---------------------------------------------------------------- expressions


@dataclass(slots=True)
class Num:
    value: Union[int, float]


@dataclass(slots=True)
class Name:
    ident: str


@dataclass(slots=True)
class Index:
    base: Name
    subs: tuple["Expr", ...]  # one or two subscripts


@dataclass(slots=True)
class Unary:
    op: str  # "-" | "!"
    operand: "Expr"


@dataclass(slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(slots=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Num, Name, Index, Unary, Binary, Ternary]


# ----------------------------------------------------------------- statements


@dataclass(slots=True)
class Decl:
    base_type: str  # "int" | "float"
    names: tuple[str, ...]


@dataclass(slots=True)
class Assign:
    target: Union[Name, Index]
    value: Expr


@dataclass(slots=True)
class If:
    cond: Expr
    then: "Stmt"
    orelse: Optional["Stmt"] = None


@dataclass(slots=True)
class For:
    var: str
    init: Expr
    bound_op: str  # "<" | "<="
    bound: Expr
    step: Expr  # increment added to var each iteration
    body: "Stmt"


@dataclass(slots=True)
class Return:
    value: Optional[Expr] = None


@dataclass(slots=True)
class Block:
    items: tuple["Stmt", ...]


Stmt = Union[Decl, Assign, If, For, Return, Block]


# ------------------------------------------------------------------ top level


Extent = Union[int, str]  # literal size or a symbolic name


@dataclass(frozen=True)
class ParamDecl:
    name: str
    base_type: str  # "int" | "float"
    extents: tuple[Extent, ...] = ()

    @property
    def tag(self) -> str:
        if len(self.extents) == 2:
            return "array-2d"
        if len(self.extents) == 1:
            return "array-1d"
        return f"scalar-{self.base_type}"


@dataclass(slots=True)
class Function:
    name: str
    return_type: str  # "void" | "int" | "float"
    params: tuple[ParamDecl, ...]
    body: Block
    span: tuple[int, int] = field(default=(0, 0), compare=False)  # text offsets
