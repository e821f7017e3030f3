"""Spans and counts recorded around the package's public functions.

A traced run wraps each target function at every name the package binds
it to (``opttriage.cli.parse_unit``, ``opttriage.forest.kernels.split_scan``
and so on), so the wrappers see exactly the calls the program makes. No
program file changes. Spans stay in memory as
``[name, layer, start, end, parent, request]`` rows and are written out
when the traced phase ends; `layer_metrics` turns them into per-layer
numbers.

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans (which belong to the same or a
lower layer).
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# (layer, defining module, function). A target missing from the package
# (renamed or deleted by a later change) is reported, not fatal.
TARGETS = (
    ("synthgen", "opttriage.synthgen", "generate"),
    ("minic", "opttriage.minic.analyze", "parse_unit"),
    ("features", "opttriage.features", "extract"),
    ("labeler", "opttriage.labeler", "label_corpus"),
    ("labeler", "opttriage.labeler", "compile_variant"),
    ("labeler", "opttriage.labeler", "measure"),
    ("manifest", "opttriage.manifest", "read_manifest"),
    ("manifest", "opttriage.manifest", "loads_manifest"),
    ("manifest", "opttriage.manifest", "write_manifest"),
    ("manifest", "opttriage.manifest", "dumps_manifest"),
    ("forest.model", "opttriage.forest.model", "train"),
    ("forest.model", "opttriage.forest.model", "cross_validate"),
    ("forest.model", "opttriage.forest.model", "build_tree"),
    ("forest.model", "opttriage.forest.model", "evaluate"),
    ("forest.model", "opttriage.forest.model", "predict"),
    ("forest.model", "opttriage.forest.model", "predict_batch"),
    ("forest.model", "opttriage.forest.model", "load_model"),
    ("forest.model", "opttriage.forest.model", "loads_model"),
    ("forest.model", "opttriage.forest.model", "save_model"),
    ("forest.model", "opttriage.forest.model", "dumps_model"),
    ("forest.kernels", "opttriage.forest.kernels", "split_scan"),
    ("forest.kernels", "opttriage.forest.kernels", "route_tree"),
    ("forest.export", "opttriage.forest.export", "export_decision_code"),
    ("cli", "opttriage.cli", "main"),
)

LAYERS = (
    "synthgen",
    "minic",
    "features",
    "labeler",
    "manifest",
    "forest.model",
    "forest.kernels",
    "forest.export",
    "cli",
)

QUARANTINE_CAUSES = ("driver", "compile", "run", "checksum", "timer")

# Every metric layer_metrics returns: name -> (unit, better).
METRICS = {
    "synthgen.generate_s": ("s", "lower"),
    "minic.parse_calls": ("count", "lower"),
    "minic.parse_s": ("s", "lower"),
    "minic.parse_us_per_fn": ("us", "lower"),
    "minic.parses_per_source": ("count/source", "lower"),
    "minic.diagnostics": ("count", "lower"),
    "features.extract_calls": ("count", "lower"),
    "features.extract_s": ("s", "lower"),
    "labeler.compile_calls": ("count", "lower"),
    "labeler.compile_s": ("s", "lower"),
    "labeler.binary_launches": ("count", "lower"),
    "labeler.run_s": ("s", "lower"),
    "labeler.s_per_fn": ("s", "lower"),
    **{f"labeler.quarantined.{c}": ("count", "lower") for c in QUARANTINE_CAUSES},
    "labeler.ratio_mad": ("share", "lower"),
    "labeler.near_delta_share": ("share", "lower"),
    "manifest.dump_s": ("s", "lower"),
    "manifest.load_s": ("s", "lower"),
    "manifest.bytes": ("bytes", "lower"),
    "forest.train_s": ("s", "lower"),
    "forest.cv_s": ("s", "lower"),
    "forest.trees_built": ("count", "lower"),
    "forest.nodes_built": ("count", "lower"),
    "forest.model_load_s": ("s", "lower"),
    "forest.predict_calls": ("count", "lower"),
    "forest.rows_per_predict_call": ("rows/call", "higher"),
    "forest.predict_s": ("s", "lower"),
    "forest.kernels.split_scan_calls": ("count", "lower"),
    "forest.kernels.split_scan_us": ("us", "lower"),
    "forest.kernels.route_calls": ("count", "lower"),
    "forest.kernels.route_s": ("s", "lower"),
    "forest.export.export_s": ("s", "lower"),
    "forest.export.bytes": ("bytes", "lower"),
    "cli.commands": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.spans": ("count", "lower"),
}


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else int(shape[0])
    return 1


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _info_parse(args, kwargs, result):
    units, diagnostics = result
    src = _arg(args, kwargs, 0, "src")
    return {
        "path": getattr(src, "path", "<source>"),
        "functions": len(units) + len(diagnostics),
        "diagnostics": len(diagnostics),
    }


def _info_label(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    results = [
        {
            "quarantine_reason": r.quarantine_reason,
            "samples_basic": list(r.timing.samples_basic) if r.timing else None,
            "samples_aggr": list(r.timing.samples_aggr) if r.timing else None,
            "ratio": r.timing.ratio if r.timing else None,
        }
        for r in result
    ]
    return {"delta": getattr(cfg, "delta", 0.8), "results": results}


def _info_build_tree(args, kwargs, result):
    tree = result[0] if isinstance(result, tuple) else result
    return {"nodes": int(getattr(tree, "n_nodes", 0))}


def _info_predict(args, kwargs, result):
    return {"rows": _rows(_arg(args, kwargs, 1, "x", kwargs.get("x_rows")))}


def _info_len(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


INFO = {
    "parse_unit": _info_parse,
    "label_corpus": _info_label,
    "build_tree": _info_build_tree,
    "predict": _info_predict,
    "predict_batch": _info_predict,
    "dumps_manifest": _info_len,
    "export_decision_code": _info_len,
}


class _CountingSubprocess:
    """Stands in for the labeler's ``subprocess`` module and times launches."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def run(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self._real.run(*args, **kwargs)
        finally:
            self._tracer.launch(time.perf_counter() - start)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.info: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self.request = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ----------------------------------------------------------- recording

    def _wrap(self, fn, name: str, layer: str):
        info = INFO.get(name)
        spans, stack, infos = self.spans, self._stack, self.info
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                infos[idx] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def launch(self, seconds: float) -> None:
        """One process started by the labeler: a compiler or a timed binary."""
        in_compile = any(self.spans[i][0] == "compile_variant" for i in self._stack)
        kind = "compiler" if in_compile else "binary"
        self.counts[f"{kind}_launches"] += 1
        self.counts[f"{kind}_launch_s"] += seconds

    def install(self) -> None:
        """Patch every target at each name the loaded package binds it to."""
        import opttriage.cli  # noqa: F401  - loads the modules the CLI uses

        for layer, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, attr, layer)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("opttriage") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        labeler = sys.modules.get("opttriage.labeler")
        if labeler is not None and hasattr(labeler, "subprocess"):
            real = labeler.subprocess
            labeler.subprocess = _CountingSubprocess(real, self)
            self._undo.append((labeler, "subprocess", real))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "info": {str(k): v for k, v in self.info.items()},
            "counts": dict(self.counts),
            "missing": self.missing,
        }


# -------------------------------------------------------------- summaries


def _rel_mad(samples) -> float:
    med = statistics.median(samples)
    return statistics.median(abs(s - med) for s in samples) / med


def layer_metrics(trace: dict, iterations: int) -> dict[str, float]:
    """Per-layer numbers from one traced phase, each per workload iteration."""
    spans = trace["spans"]
    info = {int(k): v for k, v in trace["info"].items()}
    counts = trace["counts"]
    per = 1.0 / max(1, iterations)

    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def has_ancestor(i, names) -> bool:
        p = spans[i][4]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][4]
        return False

    def outer(names) -> list[int]:
        idx = [i for n in names for i in by_name.get(n, ())]
        return [i for i in idx if not has_ancestor(i, names)]

    def total(idx) -> float:
        return sum(dur[i] for i in idx)

    m: dict[str, float] = {}
    gen = by_name.get("generate", [])
    m["synthgen.generate_s"] = total(gen) * per

    parses = by_name.get("parse_unit", [])
    parsed_fns = sum(info[i]["functions"] for i in parses)
    parse_s = total(parses)
    m["minic.parse_calls"] = len(parses) * per
    m["minic.parse_s"] = parse_s * per
    m["minic.parse_us_per_fn"] = parse_s / parsed_fns * 1e6 if parsed_fns else 0.0
    sources = {info[i]["path"].rsplit("/", 1)[-1] for i in parses}
    m["minic.parses_per_source"] = len(parses) / len(sources) * per if sources else 0.0
    m["minic.diagnostics"] = sum(info[i]["diagnostics"] for i in parses) * per

    ext = by_name.get("extract", [])
    m["features.extract_calls"] = len(ext) * per
    m["features.extract_s"] = total(ext) * per

    comp = by_name.get("compile_variant", [])
    m["labeler.compile_calls"] = len(comp) * per
    m["labeler.compile_s"] = total(comp) * per
    m["labeler.binary_launches"] = counts.get("binary_launches", 0) * per
    m["labeler.run_s"] = counts.get("binary_launch_s", 0.0) * per
    labels = by_name.get("label_corpus", [])
    results = [r for i in labels for r in info[i]["results"]]
    m["labeler.s_per_fn"] = total(labels) / len(results) if results else 0.0
    for cause in QUARANTINE_CAUSES:
        n = sum(1 for r in results if (r["quarantine_reason"] or "").startswith(cause))
        m[f"labeler.quarantined.{cause}"] = n * per
    mads, near = [], 0
    timed = [(r, info[i]["delta"]) for i in labels for r in info[i]["results"] if r["ratio"]]
    for r, delta in timed:
        mad_b, mad_a = _rel_mad(r["samples_basic"]), _rel_mad(r["samples_aggr"])
        mads += [mad_b, mad_a]
        near += abs(r["ratio"] - delta) <= r["ratio"] * (mad_b + mad_a)
    m["labeler.ratio_mad"] = statistics.fmean(mads) if mads else 0.0
    m["labeler.near_delta_share"] = near / len(timed) if timed else 0.0

    dumps = by_name.get("dumps_manifest", [])
    m["manifest.dump_s"] = total(outer(("write_manifest", "dumps_manifest"))) * per
    m["manifest.load_s"] = total(outer(("read_manifest", "loads_manifest"))) * per
    m["manifest.bytes"] = sum(info[i]["bytes"] for i in dumps) * per

    trains = [i for i in by_name.get("train", []) if not has_ancestor(i, ("cross_validate",))]
    trees = by_name.get("build_tree", [])
    predicts = outer(("predict", "predict_batch"))
    rows = sum(info[i]["rows"] for i in predicts)
    m["forest.train_s"] = total(trains) * per
    m["forest.cv_s"] = total(by_name.get("cross_validate", [])) * per
    m["forest.trees_built"] = len(trees) * per
    m["forest.nodes_built"] = sum(info[i]["nodes"] for i in trees) * per
    m["forest.model_load_s"] = total(outer(("load_model", "loads_model"))) * per
    m["forest.predict_calls"] = len(predicts) * per
    m["forest.rows_per_predict_call"] = rows / len(predicts) if predicts else 0.0
    m["forest.predict_s"] = total(predicts) * per

    scans = by_name.get("split_scan", [])
    routes = by_name.get("route_tree", [])
    m["forest.kernels.split_scan_calls"] = len(scans) * per
    m["forest.kernels.split_scan_us"] = total(scans) / len(scans) * 1e6 if scans else 0.0
    m["forest.kernels.route_calls"] = len(routes) * per
    m["forest.kernels.route_s"] = total(routes) * per

    exports = by_name.get("export_decision_code", [])
    m["forest.export.export_s"] = total(exports) * per
    m["forest.export.bytes"] = sum(info[i]["bytes"] for i in exports) * per

    mains = by_name.get("main", [])
    m["cli.commands"] = len(mains) * per

    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        self_time[s[1]] += dur[i] - child[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer] * per
    m["trace.spans"] = len(spans) * per
    return m
