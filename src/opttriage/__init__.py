"""Triage C-like functions into easy/hard-to-optimize classes and pick compiler flags."""

import importlib
import sys

__version__ = "0.1.0"


def _lazy(package: str, exports: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` (PEP 562) for package: each name in
    exports ({module: names}) is imported from its module on first access,
    so importing a package loads none of its modules."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


_EXPORTS = {
    "opttriage.features": ("FeatureSchema", "FeatureVector", "compute_max_depth", "extract"),
    "opttriage.minic.analyze": ("parse_unit",),
    "opttriage.minic.units": (
        "Diagnostic", "FunctionUnit", "LoopNest", "OpCounts", "ParseError", "SourceUnit",
        "TripCount",
    ),
}
__all__ = [*(name for names in _EXPORTS.values() for name in names), "__version__"]
__getattr__ = _lazy(__name__, _EXPORTS)
