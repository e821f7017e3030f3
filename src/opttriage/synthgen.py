"""Deterministic generator of valid, terminating training functions.

Functions are built as syntax trees and rendered through the canonical
printer, so generator output reparses with zero diagnostics by
construction. Termination and memory safety are guaranteed structurally:
every loop runs from 0 with stride +1 to a literal bound or a
driver-bound symbolic size, subscripts are in-scope loop variables (or
small literals) that never exceed those bounds, and float divisors have
the form (e * e + 1.0), which is strictly positive.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from opttriage.minic import SourceUnit, ast, function_text

SYMBOL_EXTENT = "N"  # macro-style size every driver binds

# Each loop level opens two of Parser.MAX_NESTING's levels, and the function
# body and the deepest statement up to ten more: (MAX_NESTING - 10) // 2,
# written out so that gen does not import the parser (a test ties the two).
MAX_LOOP_DEPTH = 45


class GenConfigError(ValueError):
    pass


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_functions: int = 10
    depth_range: tuple[int, int] = (1, 3)
    niter_range: tuple[int, int] = (4, 64)
    p_symbolic: float = 0.5
    ops_range: tuple[int, int] = (1, 3)  # statements per loop body
    p_branch: float = 0.25  # chance a statement's value is a ternary
    n_arrays_range: tuple[int, int] = (1, 2)
    n_scalars_range: tuple[int, int] = (0, 2)

    def __post_init__(self):
        for name in ("seed", "n_functions"):
            if type(getattr(self, name)) is not int:
                raise GenConfigError(f"{name} must be an integer, not {getattr(self, name)!r}")
        for name in ("p_symbolic", "p_branch"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise GenConfigError(f"{name} must be a number, not {p!r}")
        for name in ("depth_range", "niter_range", "ops_range", "n_arrays_range", "n_scalars_range"):
            pair = getattr(self, name)
            if type(pair) is not tuple or len(pair) != 2 or any(type(v) is not int for v in pair):
                raise GenConfigError(f"{name} must be a pair of integers, not {pair!r}")
            lo, hi = pair
            if lo > hi:
                raise GenConfigError(f"{name} is empty: {lo} > {hi}")
            if lo < 0:
                raise GenConfigError(f"{name} must be non-negative")
        if self.n_functions < 1:
            raise GenConfigError("n_functions must be positive")
        if self.depth_range[0] < 1:
            raise GenConfigError("depth_range must start at 1 or more")
        if self.depth_range[1] > MAX_LOOP_DEPTH:
            raise GenConfigError(f"depth_range must end at {MAX_LOOP_DEPTH} or less")
        if self.niter_range[0] < 1:
            raise GenConfigError("niter_range must start at 1 or more")
        for name in ("p_symbolic", "p_branch"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise GenConfigError(f"{name} must be a probability")
        if self.ops_range[1] == 0 and self.p_branch > 0:
            raise GenConfigError("p_branch > 0 needs loop bodies with statements")
        if self.ops_range[1] > 0 and self.n_arrays_range[1] == 0 and self.n_scalars_range[1] == 0:
            raise GenConfigError("statements need at least one array or scalar to assign")

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key, value in doc.items():
            if isinstance(value, tuple):
                doc[key] = list(value)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "GenConfig":
        known = {f for f in GenConfig.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise GenConfigError(f"unknown generator config keys: {sorted(unknown)}")
        clean = {}
        for key, value in doc.items():
            clean[key] = tuple(value) if isinstance(value, list) else value
        return GenConfig(**clean)


class _FunctionBuilder:
    def __init__(self, cfg: GenConfig, rng: random.Random, name: str):
        self.cfg = cfg
        self.rng = rng
        self.name = name
        self.symbolic_sizes = cfg.p_symbolic > 0
        self.literal_extent = max(cfg.niter_range[1], 2)
        self.arrays: list[ast.ParamDecl] = []
        self.scalars: list[str] = []

    def build(self) -> ast.Function:
        rng = self.rng
        cfg = self.cfg
        n_arrays = rng.randint(*cfg.n_arrays_range)
        n_scalars = rng.randint(*cfg.n_scalars_range)
        if n_arrays == 0 and n_scalars == 0 and cfg.ops_range[1] > 0:
            n_scalars = 1  # something must be assignable
        extent: ast.Extent = SYMBOL_EXTENT if self.symbolic_sizes else self.literal_extent
        for j in range(n_arrays):
            ndim = rng.choice((1, 2))
            self.arrays.append(
                ast.ParamDecl(f"a{j}", "float", (extent,) * ndim)
            )
        self.scalars = [f"s{j}" for j in range(n_scalars)]

        body: list[ast.Stmt] = []
        n_nests = rng.randint(1, 2)
        depths = [rng.randint(*cfg.depth_range) for _ in range(n_nests)]
        loop_vars = [f"iv{k}" for k in range(max(depths))]
        if loop_vars:
            body.append(ast.Decl("int", tuple(loop_vars)))
        if self.scalars:
            body.append(ast.Decl("float", tuple(self.scalars)))
            for s in self.scalars:
                body.append(ast.Assign(ast.Name(s), ast.Num(self._literal())))
        for depth in depths:
            body.append(self._nest(depth, loop_vars))
        if self.scalars and rng.random() < 0.5:
            for _ in range(rng.randint(1, max(1, cfg.ops_range[1]))):
                target = ast.Name(rng.choice(self.scalars))
                body.append(ast.Assign(target, self._expr([], scalars_only=True)))

        params = [ast.ParamDecl("n", "int")] + self.arrays
        return ast.Function(
            name=self.name,
            return_type="void",
            params=tuple(params),
            body=ast.Block(tuple(body)),
        )

    # ------------------------------------------------------------- loop nests

    def _bound(self) -> ast.Expr:
        if self.rng.random() < self.cfg.p_symbolic:
            return ast.Name(self.rng.choice((SYMBOL_EXTENT, "n")))
        return ast.Num(self.rng.randint(*self.cfg.niter_range))

    def _nest(self, depth: int, loop_vars: list[str]) -> ast.Stmt:
        return self._loop_level(0, depth, loop_vars)

    def _loop_level(self, level: int, depth: int, loop_vars: list[str]) -> ast.Stmt:
        in_scope = loop_vars[: level + 1]
        stmts = [self._statement(in_scope) for _ in range(self.rng.randint(*self.cfg.ops_range))]
        if level + 1 < depth:
            stmts.append(self._loop_level(level + 1, depth, loop_vars))
        return ast.For(
            var=loop_vars[level],
            init=ast.Num(0),
            bound_op="<",
            bound=self._bound(),
            step=ast.Num(1),
            body=ast.Block(tuple(stmts)),
        )

    # ------------------------------------------------------------- statements

    def _subscripts(self, ndim: int, in_scope: list[str]) -> tuple[ast.Expr, ...]:
        subs = []
        for _ in range(ndim):
            if in_scope:
                subs.append(ast.Name(self.rng.choice(in_scope)))
            else:
                subs.append(ast.Num(self.rng.randint(0, 1)))
        return tuple(subs)

    def _array_ref(self, in_scope: list[str]) -> ast.Index:
        arr = self.rng.choice(self.arrays)
        return ast.Index(ast.Name(arr.name), self._subscripts(len(arr.extents), in_scope))

    def _literal(self) -> float:
        return round(self.rng.uniform(0.25, 4.0), 2)

    def _operand(self, in_scope: list[str], scalars_only: bool = False) -> ast.Expr:
        choices = ["literal"]
        if self.scalars:
            choices.append("scalar")
        if not scalars_only:
            if self.arrays:
                choices += ["array", "array"]  # bias toward memory traffic
            if in_scope:
                choices.append("loop_var")
        kind = self.rng.choice(choices)
        if kind == "array":
            return self._array_ref(in_scope)
        if kind == "scalar":
            return ast.Name(self.rng.choice(self.scalars))
        if kind == "loop_var":
            return ast.Name(self.rng.choice(in_scope))
        return ast.Num(self._literal())

    def _expr(self, in_scope: list[str], scalars_only: bool = False) -> ast.Expr:
        rng = self.rng
        e = self._operand(in_scope, scalars_only)
        for _ in range(rng.randint(0, 3)):
            op = rng.choice(("+", "-", "*", "/"))
            rhs = self._operand(in_scope, scalars_only)
            if op == "/":
                # strictly positive divisor: e*e + 1.0 >= 1
                rhs = ast.Binary("+", ast.Binary("*", rhs, rhs), ast.Num(1.0))
            e = ast.Binary(op, e, rhs)
        if rng.random() < self.cfg.p_branch:
            rel = rng.choice(("<", "<=", ">", ">=", "==", "!="))
            cond = ast.Binary(
                rel, self._operand(in_scope, scalars_only), self._operand(in_scope, scalars_only)
            )
            e = ast.Ternary(cond=cond, then=e, orelse=self._operand(in_scope, scalars_only))
        return e

    def _statement(self, in_scope: list[str]) -> ast.Stmt:
        use_array = self.arrays and (not self.scalars or self.rng.random() < 0.75)
        if use_array:
            target: ast.Expr = self._array_ref(in_scope)
        else:
            target = ast.Name(self.rng.choice(self.scalars))
        return ast.Assign(target, self._expr(in_scope))


def generate(cfg: GenConfig) -> list[SourceUnit]:
    """Generate cfg.n_functions single-function source units, deterministically.

    The function in ``kernel_0007.c`` is named ``kernel_0007``: each unit's
    one function is named after its file stem.

    Each function gets an independent stream seeded by (cfg.seed, index),
    so corpora for disjoint index ranges can be produced concurrently.
    """
    units = []
    for i in range(cfg.n_functions):
        rng = random.Random(f"{cfg.seed}:{i}")
        name = f"kernel_{i:04d}"
        fn = _FunctionBuilder(cfg, rng, name).build()
        units.append(SourceUnit(path=f"{name}.c", text=function_text(fn)))
    return units

