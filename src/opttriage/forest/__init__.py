"""Random forest: training, prediction, evaluation, serialization, export."""

from opttriage import _lazy

_EXPORTS = {
    "opttriage.forest.export": ("decision_function_ast", "export_decision_code"),
    "opttriage.forest.model": (
        "EASY", "HARD", "LABEL_NAMES", "ForestParams", "ModelFormatError", "NodeTable",
        "RandomForestModel", "cross_validate", "dumps_model", "evaluate", "hard_votes",
        "load_model", "loads_model", "predict_batch", "save_model", "train",
    ),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__getattr__ = _lazy(__name__, _EXPORTS)
