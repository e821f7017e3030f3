"""Command-line pipeline tests, run in-process against a temp tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opttriage
from opttriage import SourceUnit, extract, forest, parse_unit
from opttriage.cli import main
from opttriage.manifest import read_manifest

GEN_CFG = {"seed": 7, "n_functions": 16, "depth_range": [1, 3], "p_symbolic": 0.5}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def corpus(tmp_path) -> Path:
    cfg = _write_json(tmp_path / "gen.json", GEN_CFG)
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "corpus")]) == 0
    return tmp_path / "corpus"


@pytest.fixture()
def labeled(tmp_path, corpus) -> Path:
    features = tmp_path / "features.jsonl"
    assert main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema",
                 "--out", str(features)]) == 0
    man = read_manifest(features)
    # fake timings that follow a feature rule, so the data is learnable;
    # cutting at the median keeps the two classes balanced
    arith = man.schema.index("loop_num_arith_ops")
    values = sorted(row.feature_values[arith] for row in man.rows)
    cut = values[len(values) // 2]
    table = {
        row.function_id: ([1.0, 0.4] if row.feature_values[arith] > cut else [1.0, 0.95])
        for row in man.rows
    }
    timer = _write_json(tmp_path / "timer.json", table)
    out = tmp_path / "labeled.jsonl"
    assert main(["label", "--manifest", str(features), "--fake-timer", timer,
                 "--out", str(out)]) == 0
    return out


# ----------------------------------------------------------------------- gen


def test_gen_writes_sources_and_manifest(corpus):
    man = read_manifest(corpus / "manifest.jsonl")
    assert len(man.rows) == 16
    assert "generator" in man.config_hashes
    assert man.meta["generator_config"]["seed"] == 7
    for row in man.rows:
        assert (corpus / row.source_path).is_file()


def test_gen_is_byte_deterministic(tmp_path):
    cfg = _write_json(tmp_path / "gen.json", GEN_CFG)
    main(["gen", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["gen", "--config", cfg, "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "manifest.jsonl").read_bytes()
    b = (tmp_path / "b" / "manifest.jsonl").read_bytes()
    assert a == b


def test_gen_seed_flag_overrides_config(tmp_path):
    cfg = _write_json(tmp_path / "gen.json", GEN_CFG)
    main(["gen", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "a")])
    man = read_manifest(tmp_path / "a" / "manifest.jsonl")
    assert man.meta["generator_config"]["seed"] == 99


def test_gen_without_out_is_a_usage_error(capsys):
    assert main(["gen", "--count", "2"]) == 1
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_successive_calls_share_one_parser_and_behave_alike(tmp_path, capsys):
    from opttriage import cli

    assert cli._parser() is cli._parser()
    cfg = _write_json(tmp_path / "gen.json", GEN_CFG)
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: opttriage")
        with pytest.raises(SystemExit):
            main(["export", "--help"])
        assert "--model" in capsys.readouterr().out
        assert main(["gen", "--count", "2"]) == 1
        assert "required: --out" in capsys.readouterr().err
        assert main(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err
    # a flag given to one call does not carry over to the next
    assert main(["gen", "--config", cfg, "--count", "3", "--out", str(tmp_path / "a")]) == 0
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert len(read_manifest(tmp_path / "a" / "manifest.jsonl").rows) == 3
    assert len(read_manifest(tmp_path / "b" / "manifest.jsonl").rows) == GEN_CFG["n_functions"]


def test_gen_bad_config_is_fatal(tmp_path):
    cfg = _write_json(tmp_path / "gen.json", {"n_functions": 0})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize(
    "key,doc",
    [
        ("seed", {"seed": "x"}),
        ("n_functions", {"n_functions": 2.5}),
        ("n_functions", {"n_functions": True}),
        ("depth_range", {"n_functions": 2, "depth_range": [1, 2.5]}),
        ("niter_range", {"niter_range": [4]}),
        ("ops_range", {"ops_range": 2}),
        ("n_arrays_range", {"n_arrays_range": [1, True]}),
        ("n_scalars_range", {"n_scalars_range": "02"}),
        ("p_symbolic", {"p_symbolic": "0.5"}),
        ("p_branch", {"p_branch": False}),
    ],
)
def test_gen_config_field_of_the_wrong_type_is_a_bad_config(tmp_path, capsys, key, doc):
    cfg = _write_json(tmp_path / "gen.json", doc)
    out = tmp_path / "corpus"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: bad generator config: {key} ")
    assert not out.exists()


# ------------------------------------------------------------------- extract


def test_extract_carries_provenance_and_schema(tmp_path, corpus):
    out = tmp_path / "features.jsonl"
    assert main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema",
                 "--out", str(out)]) == 0
    man = read_manifest(out)
    assert "generator" in man.config_hashes
    assert man.schema is not None
    for row in man.rows:
        assert len(row.feature_values) == man.schema.width


def test_extract_explicit_depth_failure_names_function(tmp_path, capsys):
    deep = tmp_path / "deep.c"
    deep.write_text(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < n; i++) {\n"
        "    for (int j = 0; j < n; j++) a[j] = a[j] + 1.0;\n"
        "  }\n}"
    )
    rc = main(["extract", str(deep), "--max-depth", "1", "--out", str(tmp_path / "o.jsonl")])
    assert rc == 1
    assert "deep.c::f" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_extract_depth_below_one_is_fatal(tmp_path, corpus, capsys, depth):
    out = tmp_path / "o.jsonl"
    rc = main(["extract", str(corpus / "manifest.jsonl"), "--max-depth", depth, "--out", str(out)])
    assert rc == 1
    assert "error: --max-depth: max_depth must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_extract_depth_wider_than_ten_thousand_is_fatal(tmp_path, corpus, capsys):
    out = tmp_path / "o.jsonl"
    rc = main(["extract", str(corpus / "manifest.jsonl"), "--max-depth", "4996", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: --max-depth: max_depth 4996 makes the width exceed 10000" in err
    assert not out.exists()


def test_extract_parse_failure_quarantines(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text(
        "void f(int n) { while (n) { n = n - 1; } }\n"
        "void g(int n, float a[N]) { for (int i = 0; i < n; i++) a[i] = 0.0; }\n"
    )
    out = tmp_path / "o.jsonl"
    assert main(["extract", str(bad), "--max-depth", "2", "--out", str(out)]) == 2
    man = read_manifest(out)
    reasons = {r.function_id: r.quarantine_reason for r in man.rows}
    assert reasons["bad.c::g"] is None
    assert "while" in reasons["bad.c::f"]


def test_extract_quarantine_row_names_its_source_as_parsed_rows_do(tmp_path, labeled,
                                                                    monkeypatch):
    # a manifest holding a quarantine row re-extracts and classifies from its own
    # directory, with the quarantine kept
    model = tmp_path / "model.json"
    assert main(["train", "--manifest", str(labeled), "--out", str(model)]) == 0
    work = tmp_path / "work"
    (work / "corpus").mkdir(parents=True)
    (work / "corpus" / "mixed.c").write_text(
        "void f(int n) { while (n) { n = n - 1; } }\n"
        "void g(int n, float a[N]) { for (int i = 0; i < n; i++) a[i] = 0.0; }\n"
    )
    monkeypatch.chdir(work)
    assert main(["extract", "corpus/mixed.c", "--max-depth", "2", "--out", "features.jsonl"]) == 2
    assert {r.source_path for r in read_manifest("features.jsonl").rows} == {"corpus/mixed.c"}
    assert main(["extract", "features.jsonl", "--max-depth", "2", "--out", "again.jsonl"]) == 2
    reasons = {r.function_id: r.quarantine_reason for r in read_manifest("again.jsonl").rows}
    assert reasons["mixed.c::g"] is None and "while" in reasons["mixed.c::f"]
    assert main(["classify", "--model", str(model), "features.jsonl", "--out", "report.json"]) == 2
    doc = json.loads(Path("report.json").read_text())
    assert [q["name"] for q in doc["quarantined"]] == ["mixed.c::f"]
    assert [fn["name"] for fn in doc["functions"]] == ["mixed.c::g"]


def test_extract_out_of_int_range_literal_quarantines(tmp_path):
    src = tmp_path / "big.c"
    src.write_text(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < 1" + "0" * 400 + "; i++) a[i] = 0.0;\n}\n"
        "void g(int n, float a[N]) { for (int i = 0; i < n; i++) a[i] = 0.0; }\n"
    )
    out = tmp_path / "o.jsonl"
    assert main(["extract", str(src), "--max-depth", "2", "--out", str(out)]) == 2
    reasons = {r.function_id: r.quarantine_reason for r in read_manifest(out).rows}
    assert reasons == {
        "big.c::f": "parse: unsupported construct: integer literal out of int range",
        "big.c::g": None,
    }


def test_extract_reads_a_file_named_twice_once_in_first_seen_order(tmp_path, corpus):
    manifest = corpus / "manifest.jsonl"
    sources = [corpus / r.source_path for r in read_manifest(manifest).rows]
    out = tmp_path / "o.jsonl"
    assert main(["extract", str(sources[5]), str(manifest), str(sources[0]), "--fit-schema",
                 "--out", str(out)]) == 0
    ids = [r.function_id for r in read_manifest(out).rows]
    want = [sources[5]] + [p for p in sources if p != sources[5]]
    assert ids == [f"{p.name}::{p.stem}" for p in want]


def test_extract_rejects_a_manifest_row_of_the_wrong_type(tmp_path, corpus, capsys):
    header, row, *rest = (corpus / "manifest.jsonl").read_text().splitlines()
    bad = corpus / "bad.jsonl"
    bad.write_text("\n".join([header, json.dumps({**json.loads(row), "source_path": 5}), *rest]))
    out = tmp_path / "o.jsonl"
    assert main(["extract", str(bad), "--fit-schema", "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: line 2: ")
    assert not out.exists()


def test_extract_strict_flag_is_fatal(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("void f(int n) { while (n) { n = n - 1; } }\n")
    assert main(["extract", str(bad), "--max-depth", "2", "--strict",
                 "--out", str(tmp_path / "o.jsonl")]) == 1


# --------------------------------------------------------------------- label


def test_label_writes_timings_and_labels(labeled):
    man = read_manifest(labeled)
    labeled_rows = [r for r in man.rows if r.label is not None]
    assert len(labeled_rows) == 16
    for row in labeled_rows:
        assert row.label in ("easy", "hard")
        assert row.timing.ratio > 0
        assert row.feature_values is not None  # features survive labeling


def test_label_delta_override_recorded(tmp_path, corpus):
    features = tmp_path / "f.jsonl"
    main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema", "--out", str(features)])
    timer = _write_json(tmp_path / "t.json", {"default": [1.0, 0.7]})
    out = tmp_path / "l.jsonl"
    assert main(["label", "--manifest", str(features), "--fake-timer", timer,
                 "--delta", "0.6", "--out", str(out)]) == 0
    man = read_manifest(out)
    assert man.meta["labeler_config"]["delta"] == 0.6
    assert "labeler" in man.config_hashes
    assert "generator" in man.config_hashes
    assert all(r.label == "easy" for r in man.rows if r.label is not None)


def test_label_missing_timer_entry_quarantines(tmp_path, corpus):
    features = tmp_path / "f.jsonl"
    main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema", "--out", str(features)])
    first = read_manifest(features).rows[0].function_id
    timer = _write_json(tmp_path / "t.json", {first: [1.0, 0.5]})
    out = tmp_path / "l.jsonl"
    assert main(["label", "--manifest", str(features), "--fake-timer", timer,
                 "--out", str(out)]) == 2
    man = read_manifest(out)
    assert len([r for r in man.rows if r.label is not None]) == 1
    assert len([r for r in man.rows if r.quarantine_reason is not None]) == 15


def test_label_gen_manifest_directly(tmp_path, corpus):
    timer = _write_json(tmp_path / "t.json", {"default": [1.0, 0.5]})
    out = tmp_path / "l.jsonl"
    assert main(["label", "--manifest", str(corpus / "manifest.jsonl"),
                 "--fake-timer", timer, "--out", str(out)]) == 0
    man = read_manifest(out)
    assert all(r.label == "hard" for r in man.rows if r.label is not None)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "0", "-1.0"])
def test_label_bad_fake_timer_entry_quarantines_only_its_row(tmp_path, corpus, capsys, token):
    features = tmp_path / "f.jsonl"
    main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema", "--out", str(features)])
    bad = read_manifest(features).rows[3].function_id
    timer = tmp_path / "t.json"
    timer.write_text('{"default": [1.0, 0.5], "%s": [1.0, %s]}' % (bad, token))
    out = tmp_path / "l.jsonl"
    capsys.readouterr()
    assert main(["label", "--manifest", str(features), "--fake-timer", str(timer),
                 "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    reasons = {r.function_id: r.quarantine_reason for r in read_manifest(out).rows}
    assert reasons.pop(bad) in ("timer: timings must be finite", "timer: timings must be positive")
    assert set(reasons.values()) == {None}  # every neighbour is labeled
    assert len(reasons) == 15


@pytest.mark.parametrize(
    "entry", ['"35"', '["1.0", "0.5"]', "[1.0]", "[1.0, 0.5, 0.2]", "[true, 0.5]", "1.0", '{"a": 1}']
)
def test_label_fake_timer_entry_that_is_not_two_numbers_quarantines(tmp_path, corpus, capsys, entry):
    features = tmp_path / "f.jsonl"
    main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema", "--out", str(features)])
    bad = read_manifest(features).rows[3].function_id
    timer = tmp_path / "t.json"
    timer.write_text('{"default": [1.0, 0.5], "%s": %s}' % (bad, entry))
    out = tmp_path / "l.jsonl"
    capsys.readouterr()
    assert main(["label", "--manifest", str(features), "--fake-timer", str(timer),
                 "--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    reasons = {r.function_id: r.quarantine_reason for r in read_manifest(out).rows}
    assert reasons.pop(bad).startswith("timer: entry must be a list of")
    assert set(reasons.values()) == {None}


def test_label_string_default_timer_entry_labels_nothing(tmp_path, corpus):
    features = tmp_path / "f.jsonl"
    main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema", "--out", str(features)])
    timer = _write_json(tmp_path / "t.json", {"default": "35"})
    out = tmp_path / "l.jsonl"
    assert main(["label", "--manifest", str(features), "--fake-timer", timer,
                 "--out", str(out)]) == 2
    rows = read_manifest(out).rows
    assert {r.quarantine_reason for r in rows} == {"timer: entry must be a list of numbers"}
    assert all(r.label is None for r in rows)


# ---------------------------------------------------------------- train/eval


def test_train_eval_cycle(tmp_path, labeled):
    model = tmp_path / "model.json"
    assert main(["train", "--manifest", str(labeled), "--trees", "15",
                 "--seed", "3", "--out", str(model)]) == 0
    report = tmp_path / "eval.json"
    assert main(["eval", "--manifest", str(labeled), "--model", str(model),
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["kind"] == "eval-report"
    assert doc["accuracy"] >= 0.9  # replayed training data on a learnable rule
    assert doc["n_rows"] == 16
    assert sum(sum(r) for r in doc["confusion"]) == 16


def test_train_workers_flag_is_a_usage_error(tmp_path, labeled, capsys):
    model = tmp_path / "m.json"
    rc = main(["train", "--manifest", str(labeled), "--workers", "2", "--out", str(model)])
    assert rc == 1
    assert "usage:" in capsys.readouterr().err
    assert not model.exists()


def test_train_without_out_is_a_usage_error_before_training(labeled, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(forest, "train", lambda *a, **k: trained.append(a))
    assert main(["train", "--manifest", str(labeled)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "--out" in err
    assert trained == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--out", "corpus", "--strict"], "--strict"),
        (["extract", "a.c", "--fit-schema", "--seed", "3"], "--seed 3"),
        (["extract", "a.c", "--fit-schema", "--config", "x.json"], "--config x.json"),
        (["label", "--manifest", "m.jsonl", "--strict"], "--strict"),
        (["train", "--manifest", "m.jsonl", "--out", "m.json", "--config", "x.json"],
         "--config x.json"),
        (["train", "--manifest", "m.jsonl", "--out", "m.json", "--strict"], "--strict"),
        (["eval", "--manifest", "m.jsonl", "--cv", "3", "--config", "x.json"], "--config x.json"),
        (["eval", "--manifest", "m.jsonl", "--cv", "3", "--strict"], "--strict"),
        (["classify", "--model", "m.json", "a.c", "--seed", "3"], "--seed 3"),
        (["export", "--model", "m.json", "--seed", "3"], "--seed 3"),
        (["export", "--model", "m.json", "--config", "x.json"], "--config x.json"),
        (["export", "--model", "m.json", "--strict"], "--strict"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else v.split()[0],
)
def test_flag_a_command_does_not_read_is_a_usage_error(argv, flag, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"error: unrecognized arguments: {flag}" in err


def test_train_without_labels_is_fatal(tmp_path, corpus):
    features = tmp_path / "f.jsonl"
    main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema", "--out", str(features)])
    assert main(["train", "--manifest", str(features), "--out", str(tmp_path / "m.json")]) == 1


def test_eval_cv_report(tmp_path, labeled):
    report = tmp_path / "cv.json"
    assert main(["eval", "--manifest", str(labeled), "--cv", "4", "--seed", "3",
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["kind"] == "cv-report"
    assert doc["k"] == 4
    assert len(doc["folds"]) == 4
    assert 0.0 <= doc["mean_accuracy"] <= 1.0


def test_eval_needs_exactly_one_mode(tmp_path, labeled):
    assert main(["eval", "--manifest", str(labeled)]) == 1
    assert main(["eval", "--manifest", str(labeled), "--cv", "3",
                 "--model", "x.json"]) == 1


def test_eval_schema_mismatch_is_fatal(tmp_path, labeled, corpus):
    model = tmp_path / "model.json"
    main(["train", "--manifest", str(labeled), "--out", str(model)])
    # re-extract under a wider schema than the model was trained with
    features = tmp_path / "wide.jsonl"
    main(["extract", str(corpus / "manifest.jsonl"), "--max-depth", "7",
          "--out", str(features)])
    timer = _write_json(tmp_path / "t.json", {"default": [1.0, 0.5]})
    wide_labeled = tmp_path / "wide_labeled.jsonl"
    main(["label", "--manifest", str(features), "--fake-timer", timer,
          "--out", str(wide_labeled)])
    assert main(["eval", "--manifest", str(wide_labeled), "--model", str(model)]) == 1


# ------------------------------------------------------------------ classify


@pytest.mark.parametrize("flags", ["-O3", [3]], ids=["bare-string", "number"])
def test_compiler_flags_that_are_not_strings_are_a_bad_config(
    tmp_path, labeled, corpus, capsys, flags
):
    cfg = _write_json(tmp_path / "labeler.json", {"flags_aggr": flags})
    out = tmp_path / "relabeled.jsonl"
    assert main(["label", "--manifest", str(labeled), "--config", cfg, "--out", str(out)]) == 1
    assert "error: bad labeler config: flags_aggr" in capsys.readouterr().err
    assert not out.exists()

    model = tmp_path / "model.json"
    assert main(["train", "--manifest", str(labeled), "--out", str(model)]) == 0
    source = sorted(corpus.glob("*.c"))[0]
    report = tmp_path / "report.json"
    assert main(["classify", "--model", str(model), "--config", cfg, str(source),
                 "--out", str(report)]) == 1
    assert "error: bad labeler config: flags_aggr" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("repetitions", 3.0),
        ("array_extent", 64.5),
        ("rng_seed", "x"),
        ("delta", "0.8"),
        ("timeout_s", True),
        ("min_runtime_s", True),
        ("compiler_cmd", 5),
        ("workdir", 5),
    ],
)
def test_labeler_config_field_of_the_wrong_type_is_a_bad_config(
    tmp_path, labeled, corpus, capsys, key, value
):
    cfg = _write_json(tmp_path / "labeler.json", {key: value})
    timer = _write_json(tmp_path / "t.json", {"default": [1.0, 0.5]})
    out = tmp_path / "relabeled.jsonl"
    assert main(["label", "--manifest", str(labeled), "--config", cfg, "--fake-timer", timer,
                 "--out", str(out)]) == 1
    assert f"error: bad labeler config: {key}" in capsys.readouterr().err
    assert not out.exists()

    model = tmp_path / "model.json"
    assert main(["train", "--manifest", str(labeled), "--out", str(model)]) == 0
    source = sorted(corpus.glob("*.c"))[0]
    report = tmp_path / "report.json"
    assert main(["classify", "--model", str(model), "--config", cfg, str(source),
                 "--out", str(report)]) == 1
    assert f"error: bad labeler config: {key}" in capsys.readouterr().err
    assert not report.exists()


def test_classify_report_shape(tmp_path, labeled, corpus):
    model = tmp_path / "model.json"
    main(["train", "--manifest", str(labeled), "--out", str(model)])
    sources = sorted(str(p) for p in corpus.glob("*.c"))[:4]
    report = tmp_path / "report.json"
    assert main(["classify", "--model", str(model), *sources, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["kind"] == "classification-report"
    assert len(doc["functions"]) == 4
    for entry in doc["functions"]:
        assert entry["label"] in ("easy", "hard")
        assert entry["votes"]["easy"] + entry["votes"]["hard"] == 25
        want = ["-O1"] if entry["label"] == "easy" else ["-O3"]
        assert entry["recommended_flags"] == want
    counts = doc["summary"]
    assert counts["easy"] + counts["hard"] == 4


def test_classify_batch_matches_predict_batch_in_input_order(tmp_path, labeled, corpus):
    model_path = tmp_path / "model.json"
    main(["train", "--manifest", str(labeled), "--seed", "3", "--out", str(model_path)])
    model = forest.load_model(model_path)
    first, last = sorted(corpus.glob("*.c"))[:2]
    bad = tmp_path / "bad.c"
    bad.write_text(
        "void f(int n) { while (n) { n = n - 1; } }\n"
        "void g(int n, float a[N]) { for (int i = 0; i < n; i++) a[i] = a[i] * 2.0; }\n"
    )
    report = tmp_path / "report.json"
    assert main(["classify", "--model", str(model_path), str(first), str(bad), str(last),
                 "--out", str(report)]) == 2
    doc = json.loads(report.read_text())

    names, rows = [], []
    for path in (first, bad, last):
        units, _ = parse_unit(SourceUnit(str(path), path.read_text()))
        for fn in units:
            names.append(f"{path.name}::{fn.name}")
            rows.append(extract(fn, model.schema).values)
    labels, votes = forest.predict_batch(model, np.array(rows))
    assert names == [first.name + "::" + first.stem, "bad.c::g", last.name + "::" + last.stem]
    assert [e["name"] for e in doc["functions"]] == names
    for entry, label, n_hard in zip(doc["functions"], labels, votes):
        assert entry["label"] == forest.LABEL_NAMES[label]
        assert entry["votes"] == {"easy": model.n_trees - n_hard, "hard": n_hard}
    assert [q["name"] for q in doc["quarantined"]] == ["bad.c::f"]
    assert doc["summary"]["quarantined"] == 1


def test_classify_unparseable_source_quarantines(tmp_path, labeled):
    model = tmp_path / "model.json"
    main(["train", "--manifest", str(labeled), "--out", str(model)])
    bad = tmp_path / "bad.c"
    bad.write_text("void f(int n) { g(n); }\n")
    report = tmp_path / "report.json"
    assert main(["classify", "--model", str(model), str(bad), "--out", str(report)]) == 2
    doc = json.loads(report.read_text())
    assert doc["summary"]["quarantined"] == 1
    assert "call" in doc["quarantined"][0]["reason"]


def test_classify_deep_nest_quarantines(tmp_path, labeled):
    model = tmp_path / "model.json"
    main(["train", "--manifest", str(labeled), "--out", str(model)])
    deep = tmp_path / "deep.c"
    loops = "".join(
        "for (int i%d = 0; i%d < n; i%d++) {\n" % (k, k, k) for k in range(6)
    )
    deep.write_text(
        "void f(int n, float a[N]) {\n%s a[i0] = a[i0] + 1.0;\n%s}\n"
        % (loops, "}" * 6)
    )
    report = tmp_path / "report.json"
    assert main(["classify", "--model", str(model), str(deep), "--out", str(report)]) == 2
    doc = json.loads(report.read_text())
    assert doc["quarantined"][0]["reason"].startswith("features:")


@pytest.mark.parametrize(
    "body",
    [
        "  x = \u00b2;\n",
        "  x = \u0663;\n",
        "  int \u00e9;\n",
        "  x = " + "(" * 200 + "x" + ")" * 200 + ";\n",
        "  x = 4000000000;\n",
    ],
    ids=[
        "superscript-digit",
        "arabic-digit",
        "non-ascii-identifier",
        "200-parentheses",
        "out-of-int-range-literal",
    ],
)
def test_classify_quarantines_only_the_bad_function(tmp_path, labeled, body):
    model = tmp_path / "model.json"
    main(["train", "--manifest", str(labeled), "--trees", "3", "--out", str(model)])
    src = tmp_path / "mixed.c"
    src.write_text(
        "void first(int n, float a[N]) { for (int i = 0; i < n; i++) a[i] = 0.0; }\n"
        "void bad(int x) {\n" + body + "}\n"
        "void last(int n) { n = n + 1; }\n",
        encoding="utf-8",
    )
    report = tmp_path / "report.json"
    assert main(["classify", "--model", str(model), str(src), "--out", str(report)]) == 2
    doc = json.loads(report.read_text())
    assert [f["name"] for f in doc["functions"]] == ["mixed.c::first", "mixed.c::last"]
    assert len(doc["quarantined"]) == 1
    assert doc["quarantined"][0]["reason"].startswith("parse: ")


def test_label_rejects_non_finite_number_in_manifest(tmp_path, labeled, capsys):
    lines = labeled.read_text().splitlines()
    header = json.loads(lines[0])
    header["meta"]["note"] = float("nan")
    row = json.loads(lines[1])
    row["timing"]["t_aggr"] = float("nan")
    for lineno, poisoned_lines in ((1, [json.dumps(header)] + lines[1:]),
                                   (2, lines[:1] + [json.dumps(row)] + lines[2:])):
        poisoned = tmp_path / "poisoned.jsonl"
        poisoned.write_text("\n".join(poisoned_lines) + "\n")
        capsys.readouterr()
        assert main(["label", "--manifest", str(poisoned), "--fake-timer",
                     str(tmp_path / "timer.json"), "--out", str(tmp_path / "out.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {lineno}:")
        assert "Traceback" not in err


# -------------------------------------------------------------------- export


def test_export_writes_parseable_code(tmp_path, labeled):
    model = tmp_path / "model.json"
    main(["train", "--manifest", str(labeled), "--trees", "5", "--out", str(model)])
    out = tmp_path / "decide.c"
    assert main(["export", "--model", str(model), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("int classify_function(float f[")
    from conftest import parse_ast

    assert parse_ast(text).name == "classify_function"


def test_export_stdout(tmp_path, labeled, capsys):
    model = tmp_path / "model.json"
    main(["train", "--manifest", str(labeled), "--trees", "3", "--out", str(model)])
    capsys.readouterr()
    assert main(["export", "--model", str(model)]) == 0
    assert "classify_function" in capsys.readouterr().out


# ----------------------------------------------------------------- round trip


def test_pipeline_reruns_are_byte_identical(tmp_path):
    cfg = _write_json(tmp_path / "gen.json", GEN_CFG)
    outputs = []
    for tag in ("one", "two"):
        root = tmp_path / tag
        root.mkdir()
        main(["gen", "--config", cfg, "--out", str(root / "corpus")])
        main(["extract", str(root / "corpus" / "manifest.jsonl"), "--fit-schema",
              "--out", str(root / "features.jsonl")])
        timer = _write_json(root / "t.json", {"default": [1.0, 0.5]})
        main(["label", "--manifest", str(root / "features.jsonl"),
              "--fake-timer", timer, "--out", str(root / "labeled.jsonl")])
        main(["train", "--manifest", str(root / "labeled.jsonl"), "--seed", "5",
              "--out", str(root / "model.json")])
        outputs.append(
            (
                (root / "features.jsonl").read_bytes(),
                (root / "labeled.jsonl").read_bytes(),
                (root / "model.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_eval_model_on_non_finite_manifest_is_fatal(tmp_path, labeled, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--manifest", str(labeled), "--trees", "3", "--out", str(model)]) == 0
    lines = labeled.read_text().splitlines()
    row = json.loads(lines[1])
    row["feature_values"][0] = float("nan")
    lines[1] = json.dumps(row)
    poisoned = tmp_path / "poisoned.jsonl"
    poisoned.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--manifest", str(poisoned), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:")
    assert "Traceback" not in err


# ------------------------------------------------------------ fresh process


def _bad_model(tmp):
    return ["export", "--model", _write_json(tmp / "bad-model.json", {"format": "nonsense"})]


def _tampered_manifest(tmp):
    lines = (tmp / "labeled.jsonl").read_text().splitlines()
    row = json.loads(lines[1])
    row["label"] = "medium"
    lines[1] = json.dumps(row)
    (tmp / "tampered.jsonl").write_text("\n".join(lines) + "\n")
    return ["train", "--manifest", str(tmp / "tampered.jsonl"), "--out", str(tmp / "m.json")]


def _bad_gen_config(tmp):
    cfg = _write_json(tmp / "bad-gen.json", {**GEN_CFG, "n_functions": 0})
    return ["gen", "--config", cfg, "--out", str(tmp / "c")]


def _strict_while(tmp):
    (tmp / "w.c").write_text("void f(int n) { while (n) { n = n - 1; } }\n")
    return ["extract", "--strict", str(tmp / "w.c"), "--max-depth", "2"]


@pytest.mark.parametrize("bad_input", [_bad_model, _tampered_manifest, _bad_gen_config,
                                       _strict_while])
def test_fatal_input_errors_from_a_fresh_process(tmp_path, labeled, bad_input):
    """A launch has imported nothing before the command runs, so main must
    catch each input error without having imported its module first."""
    src = str(Path(opttriage.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "opttriage.cli", *bad_input(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")
