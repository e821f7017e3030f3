"""Front end for the supported C subset: lexing, parsing, counting, printing."""

from opttriage.minic.analyze import (
    build_function_unit,
    classify_operator,
    parse_functions,
    parse_unit,
)
from opttriage.minic.interp import EvalError, call_function
from opttriage.minic.lexer import Tokens, tokenize
from opttriage.minic.printer import expr_text, function_text
from opttriage.minic.units import (
    Diagnostic,
    FunctionUnit,
    LoopNest,
    OpCounts,
    ParseError,
    SourceUnit,
    TripCount,
)

__all__ = [
    "Diagnostic",
    "EvalError",
    "FunctionUnit",
    "LoopNest",
    "OpCounts",
    "ParseError",
    "SourceUnit",
    "Tokens",
    "TripCount",
    "build_function_unit",
    "call_function",
    "classify_operator",
    "expr_text",
    "function_text",
    "parse_functions",
    "parse_unit",
    "tokenize",
]
