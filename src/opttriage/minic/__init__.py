"""Front end for the supported C subset: lexing, parsing, counting, printing."""

from opttriage import _lazy

_EXPORTS = {
    "opttriage.minic.analyze": (
        "build_function_unit", "classify_operator", "parse_functions", "parse_unit",
    ),
    "opttriage.minic.lexer": ("Tokens", "tokenize"),
    "opttriage.minic.printer": ("expr_text", "function_text"),
    "opttriage.minic.units": (
        "Diagnostic", "FunctionUnit", "LoopNest", "OpCounts", "ParseError", "SourceUnit",
        "TripCount",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = _lazy(__name__, _EXPORTS)
