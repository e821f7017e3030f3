"""Fixed-width numeric features for parsed functions.

A schema is sized by the deepest loop nest it must represent. The vector
layout for ``max_depth`` D is::

    [0,  D)      niter_known     known trip count per nesting level
    [D, 2D)      niter_symbolic  1.0 where the level's trip is symbolic
    [2D, 2D+5)   loop_num_*      logical_ops, arith_ops, branches, arrays, scalars
                                 aggregated over the function's loop nests
    [2D+5, 2D+10) num_*          the same five tallies for code outside loops

Shallower nests are padded with zeros. A function with several nests
contributes the depth-weighted average of its per-nest blocks, so nest
order never matters. No schema is wider than ``MAX_WIDTH``, so D <= 4995.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy loads with the first array, so a schema alone costs no numpy
    import numpy as np

    from opttriage.minic import FunctionUnit, LoopNest

_COUNT_NAMES = ("logical_ops", "arith_ops", "branches", "arrays", "scalars")

# Up to this population numpy's choice() draws by Floyd's algorithm for every
# k, the one rule forest/draws.py reproduces; the parser's nesting limit keeps
# real schemas far narrower. A model or manifest naming a wider schema is
# refused here, before any row of its width is built.
MAX_WIDTH = 10_000


class DepthError(ValueError):
    """A loop nest is deeper than the schema; rebuild the schema to fit."""


@dataclass(frozen=True)
class FeatureSchema:
    max_depth: int

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.width > MAX_WIDTH:
            raise ValueError(f"max_depth {self.max_depth} makes the width exceed {MAX_WIDTH}")

    @property
    def width(self) -> int:
        return 2 * self.max_depth + 10

    def slot_names(self) -> list[str]:
        d = self.max_depth
        names = [f"niter_known_{i}" for i in range(d)]
        names += [f"niter_symbolic_{i}" for i in range(d)]
        names += [f"loop_num_{c}" for c in _COUNT_NAMES]
        names += [f"num_{c}" for c in _COUNT_NAMES]
        return names

    def index(self, name: str) -> int:
        try:
            return self.slot_names().index(name)
        except ValueError:
            raise KeyError(name) from None


@dataclass(frozen=True)
class FeatureVector:
    schema: FeatureSchema
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.schema.width,):
            raise ValueError(
                f"expected {self.schema.width} values, got {self.values.shape}"
            )

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.schema.index(name)])


def nest_features(nest: LoopNest, max_depth: int) -> np.ndarray:
    """Per-nest feature block: known trips, symbolic flags, body tallies."""
    import numpy as np

    if nest.depth > max_depth:
        raise DepthError(
            f"nest depth {nest.depth} exceeds schema max_depth {max_depth}; "
            "recompute the schema over the full corpus"
        )
    out = np.zeros(2 * max_depth + 5, dtype=np.float64)
    for level, trip in enumerate(nest.trip_counts):
        if trip.is_symbolic:
            out[max_depth + level] = 1.0
        else:
            out[level] = float(trip.value)
    out[2 * max_depth :] = nest.body_counts.as_tuple()
    return out


def reduce_nests(blocks: list[np.ndarray], depths: list[int]) -> np.ndarray:
    """Average per-nest blocks, each weighted by its nest depth."""
    import numpy as np

    if len(blocks) != len(depths):
        raise ValueError("need one depth per block")
    if not blocks:
        raise ValueError("no nests to reduce")
    if any(d < 1 for d in depths):
        raise ValueError("nest depths must be positive")
    total = np.zeros_like(blocks[0])
    for block, depth in zip(blocks, depths):
        total += float(depth) * block
    return total / float(sum(depths))


def extract(fn: FunctionUnit, schema: FeatureSchema) -> FeatureVector:
    """Extract the feature vector of one function under a schema."""
    import numpy as np

    values = np.zeros(schema.width, dtype=np.float64)
    if fn.loop_nests:
        blocks = [nest_features(n, schema.max_depth) for n in fn.loop_nests]
        depths = [n.depth for n in fn.loop_nests]
        values[: 2 * schema.max_depth + 5] = reduce_nests(blocks, depths)
    values[2 * schema.max_depth + 5 :] = fn.nonloop_counts.as_tuple()
    return FeatureVector(schema=schema, values=values)


def compute_max_depth(corpus: list[FunctionUnit]) -> int:
    """Deepest nest across the corpus; 1 for a corpus with no loops."""
    deepest = 1
    for fn in corpus:
        for nest in fn.loop_nests:
            deepest = max(deepest, nest.depth)
    return deepest
