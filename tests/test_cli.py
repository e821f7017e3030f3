"""Command-line pipeline tests, run in-process against a temp tree."""

import json
from pathlib import Path

import numpy as np
import pytest

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


def test_gen_bad_config_is_fatal(tmp_path):
    cfg = _write_json(tmp_path / "gen.json", {"n_functions": 0})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


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


def test_extract_strict_flag_is_fatal(tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("void f(int n) { while (n) { n = n - 1; } }\n")
    assert main(["extract", str(bad), "--max-depth", "2", "--strict",
                 "--out", str(tmp_path / "o.jsonl")]) == 1


# --------------------------------------------------------------------- label


def test_label_writes_timings_and_labels(labeled):
    man = read_manifest(labeled)
    assert len(man.labeled_rows()) == 16
    for row in man.labeled_rows():
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
    assert all(r.label == "easy" for r in man.labeled_rows())


def test_label_missing_timer_entry_quarantines(tmp_path, corpus):
    features = tmp_path / "f.jsonl"
    main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema", "--out", str(features)])
    first = read_manifest(features).rows[0].function_id
    timer = _write_json(tmp_path / "t.json", {first: [1.0, 0.5]})
    out = tmp_path / "l.jsonl"
    assert main(["label", "--manifest", str(features), "--fake-timer", timer,
                 "--out", str(out)]) == 2
    man = read_manifest(out)
    assert len(man.labeled_rows()) == 1
    assert len(man.quarantined_rows()) == 15


def test_label_gen_manifest_directly(tmp_path, corpus):
    timer = _write_json(tmp_path / "t.json", {"default": [1.0, 0.5]})
    out = tmp_path / "l.jsonl"
    assert main(["label", "--manifest", str(corpus / "manifest.jsonl"),
                 "--fake-timer", timer, "--out", str(out)]) == 0
    man = read_manifest(out)
    assert all(r.label == "hard" for r in man.labeled_rows())


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
