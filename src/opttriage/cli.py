"""Command-line pipeline: gen, extract, label, train, eval, classify, export.

Every command is a pure function of its inputs and flags: outputs carry
config digests, manifests are canonical line-delimited records, and
chaining commands through files reproduces the in-process pipeline
exactly. Exit codes: 0 success, 2 finished with quarantined functions,
1 fatal.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from opttriage import forest
from opttriage.features import DepthError, FeatureSchema, compute_max_depth, extract
from opttriage.forest import ForestParams, ModelFormatError
from opttriage.labeler import LabelerConfig, LabelResult, label_corpus, number_list
from opttriage.manifest import (
    CorpusManifest,
    ManifestFormatError,
    ManifestRow,
    config_digest,
    dumps_manifest,
    function_id,
    read_manifest,
    write_manifest,
)
from opttriage.minic import FunctionUnit, ParseError, SourceUnit, parse_unit
from opttriage.synthgen import GenConfig, GenConfigError, generate

OK, PARTIAL, FATAL = 0, 2, 1


class _Parser(argparse.ArgumentParser):
    # usage problems are fatal errors, not "partial results"
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _Fatal(message)


class _Fatal(Exception):
    pass


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _report_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _say(message: str) -> None:
    print(message)


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


# ------------------------------------------------------------------ source IO


def _input_files(inputs: list[str]) -> tuple[list[Path], dict, dict]:
    """Expand command-line inputs; a .jsonl input is a manifest of sources.

    Returns the files plus the merged config_hashes and meta of any
    manifests among the inputs, so provenance survives the pipeline.
    """
    files: list[Path] = []
    hashes: dict = {}
    meta: dict = {}
    for raw in inputs:
        p = Path(raw)
        if p.suffix == ".jsonl":
            man = read_manifest(p)
            hashes.update(man.config_hashes)
            meta.update(man.meta)
            for row in man.rows:
                if row.source_path is None:
                    raise _Fatal(f"manifest row {row.function_id!r} has no source_path")
                files.append((p.parent / row.source_path))
        else:
            files.append(p)
    return list(dict.fromkeys(files)), hashes, meta


def _parse_source_file(
    path: Path, strict: bool
) -> tuple[list[FunctionUnit], list[ManifestRow]]:
    """Parse one file into units plus quarantine rows for its failures."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise _Fatal(f"cannot read {path}: {e}") from e
    units, diagnostics = parse_unit(SourceUnit(str(path), text), strict=strict)
    quarantined = []
    for d in diagnostics:
        _warn(d.render())
        who = d.function or f"line_{d.line}"
        quarantined.append(
            ManifestRow(
                function_id=function_id(path.name, who),
                source_path=path.name,
                quarantine_reason=f"parse: {d.message}",
            )
        )
    return units, quarantined


def _relative_to(path: Path, out: Optional[str]) -> str:
    base = Path(out).parent if out else Path.cwd()
    try:
        return os.path.relpath(path, base)
    except ValueError:  # different drive on some platforms
        return str(path)


# ----------------------------------------------------------------------- gen


def _cmd_gen(args) -> int:
    try:
        cfg = GenConfig.from_dict(_read_json(args.config)) if args.config else GenConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.count is not None:
            cfg = replace(cfg, n_functions=args.count)
    except (GenConfigError, TypeError) as e:
        raise _Fatal(f"bad generator config: {e}") from e
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    units = generate(cfg)
    rows = []
    for unit in units:
        (out_dir / unit.path).write_text(unit.text, encoding="utf-8")
        name = Path(unit.path).stem  # generate() names each unit's one function after its file
        rows.append(ManifestRow(function_id=function_id(unit.path, name), source_path=unit.path))
    man = CorpusManifest(
        rows=rows,
        config_hashes={"generator": config_digest(cfg.to_dict())},
        meta={"generator_config": cfg.to_dict()},
    )
    write_manifest(man, out_dir / "manifest.jsonl")
    _say(f"generated {len(units)} functions in {out_dir}")
    return OK


# ------------------------------------------------------------------- extract


def _cmd_extract(args) -> int:
    if (args.max_depth is None) == (not args.fit_schema):
        raise _Fatal("choose exactly one of --max-depth or --fit-schema")
    files, in_hashes, in_meta = _input_files(args.sources)
    parsed: list[tuple[Path, list[FunctionUnit]]] = []
    quarantined: list[ManifestRow] = []
    for path in files:
        units, bad_rows = _parse_source_file(path, args.strict)
        parsed.append((path, units))
        quarantined.extend(bad_rows)

    all_units = [u for _, units in parsed for u in units]
    if args.fit_schema:
        if not all_units:
            raise _Fatal("no functions parsed; cannot fit a schema")
        schema = FeatureSchema(compute_max_depth(all_units))
    else:
        schema = FeatureSchema(args.max_depth)

    rows: list[ManifestRow] = []
    for path, units in parsed:
        rel = _relative_to(path, args.out)
        for fn in units:
            try:
                vec = extract(fn, schema)
            except DepthError as e:
                raise _Fatal(f"{path.name}::{fn.name}: {e}") from e
            rows.append(
                ManifestRow(
                    function_id=function_id(path.name, fn.name),
                    source_path=rel,
                    feature_values=[float(v) for v in vec.values],
                )
            )
    rows.extend(quarantined)
    man = CorpusManifest(rows=rows, schema=schema, config_hashes=in_hashes, meta=in_meta)
    _emit(dumps_manifest(man), args.out)
    if args.out:
        _say(
            f"extracted {len(rows) - len(quarantined)} functions "
            f"(schema max_depth={schema.max_depth}) -> {args.out}"
        )
    return PARTIAL if quarantined else OK


# --------------------------------------------------------------------- label


def _load_fake_timer(path: str):
    table = _read_json(path)
    if not isinstance(table, dict):
        raise _Fatal("--fake-timer file must map function ids to [t_basic, t_aggr]")

    def timer(fn_id: str, _fn: FunctionUnit):
        entry = table.get(fn_id, table.get("default"))
        if entry is None:
            return None
        if len(number_list(entry, "entry")) != 2:
            raise ValueError("entry must be a list of two numbers")
        t_basic, t_aggr = entry
        return float(t_basic), float(t_aggr)

    return timer


def _cmd_label(args) -> int:
    man = read_manifest(args.manifest)
    try:
        cfg = LabelerConfig.from_dict(_read_json(args.config)) if args.config else LabelerConfig()
        if args.delta is not None:
            cfg = replace(cfg, delta=args.delta)
        if args.seed is not None:
            cfg = replace(cfg, rng_seed=args.seed)
    except (ValueError, TypeError) as e:
        raise _Fatal(f"bad labeler config: {e}") from e
    timer = _load_fake_timer(args.fake_timer) if args.fake_timer else None

    base = Path(args.manifest).parent
    units_by_file: dict[str, dict[str, FunctionUnit]] = {}
    targets: list[tuple[str, FunctionUnit]] = []
    outcomes: dict[str, LabelResult] = {}  # function_id -> its new timing, label or quarantine
    for row in man.rows:
        if row.quarantine_reason is not None:
            continue
        if row.source_path is None:
            reason = "label: row has no source_path"
        else:
            if row.source_path not in units_by_file:
                try:
                    units, _bad = _parse_source_file(base / row.source_path, strict=False)
                except _Fatal as e:
                    units = []
                    _warn(str(e))
                units_by_file[row.source_path] = {u.name: u for u in units}
            unit = units_by_file[row.source_path].get(row.function_id.split("::", 1)[-1])
            if unit is not None:
                targets.append((row.function_id, unit))
                continue
            reason = "label: function not found or unparseable"
        outcomes[row.function_id] = LabelResult(row.function_id, quarantine_reason=reason)
    if targets:
        outcomes.update((res.function_id, res) for res in label_corpus(targets, cfg, timer=timer))

    out_rows = [
        replace(row, timing=res.timing, label=res.label, quarantine_reason=res.quarantine_reason)
        if (res := outcomes.get(row.function_id))
        else row
        for row in man.rows
    ]
    n_quarantined = sum(row.quarantine_reason is not None for row in out_rows)
    n_labeled = sum(row.label is not None for row in out_rows)

    out_man = CorpusManifest(
        rows=out_rows,
        schema=man.schema,
        config_hashes={**man.config_hashes, "labeler": config_digest(cfg.to_dict())},
        meta={**man.meta, "labeler_config": cfg.to_dict()},
    )
    _emit(dumps_manifest(out_man), args.out)
    if args.out:
        _say(f"labeled {n_labeled}, quarantined {n_quarantined} -> {args.out}")
    return PARTIAL if n_quarantined else OK


# ------------------------------------------------------------------ train/eval


def _forest_params(args) -> ForestParams:
    return ForestParams(
        n_trees=args.trees,
        max_tree_depth=args.max_tree_depth,
        min_samples_leaf=args.min_samples_leaf,
        features_per_split=args.features_per_split,
        bootstrap_fraction=args.bootstrap_fraction,
        rng_seed=args.seed if args.seed is not None else 0,
    )


def _training_table(man: CorpusManifest) -> tuple[np.ndarray, np.ndarray, list[str]]:
    rows = [r for r in man.rows if r.label is not None and r.feature_values is not None]
    if not rows:
        raise _Fatal("manifest has no labeled rows with features")
    if man.schema is None:
        raise _Fatal("manifest carries no feature schema")
    x_rows = np.array([r.feature_values for r in rows], dtype=np.float64)
    y = np.array([forest.LABEL_NAMES.index(r.label) for r in rows], dtype=np.int8)
    return x_rows, y, [r.function_id for r in rows]


def _cmd_train(args) -> int:
    man = read_manifest(args.manifest)
    x_rows, y, ids = _training_table(man)
    try:
        params = _forest_params(args)
        model = forest.train(x_rows, y, man.schema, params, ids=ids)
    except ValueError as e:
        raise _Fatal(str(e)) from e
    forest.save_model(model, args.out)
    _say(
        f"trained {model.n_trees} trees on {len(y)} rows "
        f"(width {man.schema.width}) -> {args.out}"
    )
    return OK


def _cmd_eval(args) -> int:
    if (args.model is None) == (args.cv is None):
        raise _Fatal("choose exactly one of --model or --cv")
    man = read_manifest(args.manifest)
    x_rows, y, ids = _training_table(man)
    if args.cv is not None:
        try:
            report = forest.cross_validate(
                x_rows, y, ids, man.schema, _forest_params(args), k=args.cv
            )
        except ValueError as e:
            raise _Fatal(str(e)) from e
        report = {"kind": "cv-report", **report}
        _say(f"cv mean accuracy {report['mean_accuracy']:.4f} over {args.cv} folds")
    else:
        model = forest.load_model(args.model)
        if model.schema.width != man.schema.width:
            raise _Fatal(
                f"schema mismatch: model width {model.schema.width}, "
                f"manifest width {man.schema.width}"
            )
        metrics = forest.evaluate(model, x_rows, y)
        report = {"kind": "eval-report", **metrics}
        _say(f"accuracy {metrics['accuracy']:.4f} on {metrics['n_rows']} rows")
    _emit(_report_text(report), args.out)
    return OK


# ------------------------------------------------------------------- classify


def _cmd_classify(args) -> int:
    model = forest.load_model(args.model)
    try:
        cfg = LabelerConfig.from_dict(_read_json(args.config)) if args.config else LabelerConfig()
    except (ValueError, TypeError) as e:
        raise _Fatal(f"bad labeler config: {e}") from e
    recommended = {
        "easy": list(cfg.flags_basic),
        "hard": list(cfg.flags_aggr),
    }
    names = []
    vectors = []
    quarantined = []
    source_files, _hashes, _meta = _input_files(args.sources)
    for path in source_files:
        units, bad_rows = _parse_source_file(path, args.strict)
        for row in bad_rows:
            quarantined.append({"name": row.function_id, "reason": row.quarantine_reason})
        for fn in units:
            name = function_id(path.name, fn.name)
            try:
                vec = extract(fn, model.schema)
            except DepthError as e:
                quarantined.append({"name": name, "reason": f"features: {e}"})
                continue
            names.append(name)
            vectors.append(vec.values)
    x_rows = np.array(vectors, dtype=np.float64).reshape(-1, model.schema.width)
    labels, votes = forest.predict_batch(model, x_rows)
    functions = []
    for name, cls, n_hard in zip(names, labels.tolist(), votes.tolist()):
        label = forest.LABEL_NAMES[cls]
        functions.append(
            {
                "name": name,
                "label": label,
                "votes": {"easy": model.n_trees - n_hard, "hard": n_hard},
                "recommended_flags": recommended[label],
            }
        )
    report = {
        "kind": "classification-report",
        "functions": functions,
        "quarantined": quarantined,
        "summary": {
            "easy": sum(1 for f in functions if f["label"] == "easy"),
            "hard": sum(1 for f in functions if f["label"] == "hard"),
            "quarantined": len(quarantined),
        },
    }
    _emit(_report_text(report), args.out)
    if args.out:
        s = report["summary"]
        _say(f"easy {s['easy']}, hard {s['hard']}, quarantined {s['quarantined']} -> {args.out}")
    return PARTIAL if quarantined else OK


# --------------------------------------------------------------------- export


def _cmd_export(args) -> int:
    model = forest.load_model(args.model)
    _emit(forest.export_decision_code(model), args.out)
    if args.out:
        _say(f"exported decision code for {model.n_trees} trees -> {args.out}")
    return OK


# ---------------------------------------------------------------------- main


_SHARED_OPTIONS = {
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--config": dict(default=None, help="JSON config file"),
    "--out": dict(default=None, help="output path (default: stdout)"),
    "--strict": dict(action="store_true", help="fail on the first parse problem"),
}


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process: a build costs far more than a parse."""
    parser = _Parser(prog="opttriage", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, summary: str, *shared: str, out_required: bool = False) -> _Parser:
        """A subcommand with only the shared options its handler reads."""
        p = sub.add_parser(name, help=summary)
        for flag in shared:
            p.add_argument(flag, **_SHARED_OPTIONS[flag])
        if out_required:
            p.add_argument("--out", required=True, help="output path")
        p.set_defaults(fn=fn)
        return p

    p = command("gen", _cmd_gen, "generate a synthetic training corpus",
                "--seed", "--config", out_required=True)
    p.add_argument("--count", type=int, default=None, help="override n_functions")

    p = command("extract", _cmd_extract, "extract feature vectors from sources",
                "--out", "--strict")
    p.add_argument("sources", nargs="+", help="source files or a corpus manifest (.jsonl)")
    p.add_argument("--max-depth", type=int, default=None, help="feature schema depth")
    p.add_argument("--fit-schema", action="store_true", help="size the schema from the corpus")

    p = command("label", _cmd_label, "time and label the functions of a manifest",
                "--seed", "--config", "--out")
    p.add_argument("--manifest", required=True, help="input manifest (from gen or extract)")
    p.add_argument("--delta", type=float, default=None, help="override the easy/hard ratio bound")
    p.add_argument(
        "--fake-timer",
        default=None,
        help="JSON table {function_id: [t_basic, t_aggr]}; skips compiling entirely",
    )

    def train_flags(p: _Parser) -> None:
        p.add_argument("--manifest", required=True)
        p.add_argument("--trees", type=int, default=25)
        p.add_argument("--max-tree-depth", type=int, default=12)
        p.add_argument("--min-samples-leaf", type=int, default=2)
        p.add_argument("--features-per-split", type=int, default=None)
        p.add_argument("--bootstrap-fraction", type=float, default=1.0)

    p = command("train", _cmd_train, "train a forest on a labeled manifest",
                "--seed", out_required=True)
    train_flags(p)

    p = command("eval", _cmd_eval, "evaluate a model or cross-validate", "--seed", "--out")
    train_flags(p)
    p.add_argument("--model", default=None)
    p.add_argument("--cv", type=int, default=None, help="k-fold cross-validation")

    p = command("classify", _cmd_classify, "label functions of a source file with a model",
                "--config", "--out", "--strict")
    p.add_argument("--model", required=True)
    p.add_argument("sources", nargs="+", help="source files to classify")

    p = command("export", _cmd_export, "emit a model as standalone decision code", "--out")
    p.add_argument("--model", required=True)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except _Fatal as e:
        _warn(f"error: {e}")
        return FATAL
    except (ManifestFormatError, ModelFormatError, ParseError, GenConfigError) as e:
        _warn(f"error: {e}")
        return FATAL
    except OSError as e:
        _warn(f"error: {e}")
        return FATAL
    except json.JSONDecodeError as e:
        _warn(f"error: bad JSON input: {e}")
        return FATAL


if __name__ == "__main__":
    sys.exit(main())
