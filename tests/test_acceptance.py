"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Each test records ``ACCEPTANCE <n> (<title>): PASS|FAIL`` through the
conftest terminal-summary hook, so the verdict block always appears at
the end of a pytest run. Budgets are wall-clock seconds and are part of
the criterion.
"""

import contextlib
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from opttriage import FeatureSchema, compute_max_depth, extract, parse_unit
from opttriage import forest
from opttriage.cli import main
from opttriage.forest import ForestParams
from opttriage.labeler import LabelerConfig, label_corpus, label_from_ratio
from opttriage.manifest import read_manifest
from opttriage.synthgen import GenConfig, generate

from conftest import (
    DATA, compiled_decisions, has_compiler, parse_one, read_back, reference_decision,
    requires_compiler,
)
from split_oracle import brute_split, scan_one_node

RESULTS: list[str] = []


@contextlib.contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        RESULTS.append(
            f"ACCEPTANCE {number} ({title}): FAIL (took {elapsed:.2f}s, budget {budget_s:g}s)"
        )
        raise AssertionError(f"criterion {number} exceeded {budget_s:g}s: {elapsed:.2f}s")
    RESULTS.append(f"ACCEPTANCE {number} ({title}): PASS ({elapsed:.2f}s)")


def test_acceptance_1_golden_example():
    with criterion(1, "golden feature vector", 1.0):
        fn = parse_one((DATA / "floyd_warshall.c").read_text(), "floyd_warshall.c")
        vec = extract(fn, FeatureSchema(3))
        want = [
            0.0, 0.0, 0.0,  # niter_known
            1.0, 1.0, 1.0,  # niter_symbolic
            1.0, 1.0, 1.0, 1.0, 0.0,  # loop: logical, arith, branches, arrays, scalars
            0.0, 0.0, 0.0, 0.0, 0.0,  # non-loop
        ]
        assert vec.values.tolist() == want


def test_acceptance_2_delta_rule_table():
    with criterion(2, "delta rule on 20 triples", 1.0):
        table = [
            (1.0, 0.9, 0.8, "easy"),
            (1.0, 0.81, 0.8, "easy"),
            (1.0, 0.8, 0.8, "hard"),  # boundary ratio == delta
            (1.0, 0.79, 0.8, "hard"),
            (1.0, 0.2, 0.8, "hard"),
            (2.0, 1.9, 0.8, "easy"),
            (2.0, 1.6, 0.8, "hard"),  # boundary again, scaled
            (1.0, 1.1, 0.8, "easy"),
            (1.0, 1.0, 1.0, "hard"),  # boundary at delta = 1
            (1.0, 0.999, 0.5, "easy"),
            (1.0, 0.5, 0.5, "hard"),
            (1.0, 0.51, 0.5, "easy"),
            (10.0, 9.0, 0.9, "hard"),
            (10.0, 9.1, 0.9, "easy"),
            (0.5, 0.4, 0.8, "hard"),
            (0.5, 0.45, 0.8, "easy"),
            (3.0, 3.0, 0.8, "easy"),
            (1e-6, 9e-7, 0.8, "easy"),
            (1e-6, 7e-7, 0.8, "hard"),
            (1.0, 0.80000001, 0.8, "easy"),
        ]
        assert len(table) == 20
        for t_basic, t_aggr, delta, want in table:
            got = label_from_ratio(t_basic, t_aggr, delta)
            assert got == want, (t_basic, t_aggr, delta, got)


def test_acceptance_3_forest_oracle():
    with criterion(3, "vote recount and brute-force splits", 10.0):
        rng = np.random.default_rng(301)
        x = rng.uniform(0.0, 3.0, size=(120, 12))
        y = ((x[:, 1] > 1.0) & (x[:, 4] < 2.0)).astype(np.int8)
        model = forest.train(x, y, FeatureSchema(1), ForestParams(n_trees=15, rng_seed=301))
        probes = rng.uniform(0.0, 3.0, size=(200, 12))
        labels, _votes = forest.predict_batch(model, probes)
        for row, label in zip(probes, labels):
            assert label == reference_decision(model, row)

        for trial in range(50):
            n = int(rng.integers(2, 21))
            width = int(rng.integers(1, 5))
            if trial % 2:
                xx = rng.integers(0, 4, size=(n, width)).astype(np.float64)
            else:
                xx = rng.uniform(0.0, 1.0, size=(n, width))
            yy = rng.integers(0, 2, size=n).astype(np.int8)
            min_leaf = int(rng.integers(1, 4))
            assert scan_one_node(xx, yy, range(width), min_leaf) == brute_split(xx, yy, min_leaf)


def test_acceptance_4_planted_rule_learnability():
    with criterion(4, "planted rule reaches 95% CV accuracy", 30.0):
        units = generate(GenConfig(seed=400, n_functions=400))
        fns = []
        for unit in units:
            parsed, diags = parse_unit(unit, strict=True)
            assert not diags
            fns.extend(parsed)
        schema = FeatureSchema(compute_max_depth(fns))
        rows = np.stack([extract(fn, schema).values for fn in fns])
        arith = schema.index("loop_num_arith_ops")
        y = (rows[:, arith] > 2.0).astype(np.int8)  # easy iff arith_ops <= 2
        assert 0 < int(y.sum()) < len(y), "planted rule must split the corpus"
        ids = [f"{u.path}::{fn.name}" for u, fn in zip(units, fns)]
        report = forest.cross_validate(
            rows, y, ids, schema, ForestParams(n_trees=25, rng_seed=400), k=5
        )
        assert report["mean_accuracy"] >= 0.95, report["mean_accuracy"]


def test_acceptance_5_training_determinism(tmp_path):
    with criterion(5, "byte-identical model across runs", 60.0):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"seed": 50, "n_functions": 30}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "corpus")]) == 0
        features = tmp_path / "features.jsonl"
        assert main(["extract", str(tmp_path / "corpus" / "manifest.jsonl"),
                     "--fit-schema", "--out", str(features)]) == 0
        ids = [r.function_id for r in read_manifest(features).rows]
        table = {fid: ([1.0, 0.9] if i % 2 else [1.0, 0.3]) for i, fid in enumerate(ids)}
        timer = tmp_path / "timer.json"
        timer.write_text(json.dumps(table))
        labeled = tmp_path / "labeled.jsonl"
        assert main(["label", "--manifest", str(features), "--fake-timer", str(timer),
                     "--out", str(labeled)]) == 0
        blobs = []
        for tag in ("a", "b", "c"):
            model = tmp_path / f"model_{tag}.json"
            assert main(["train", "--manifest", str(labeled), "--seed", "50",
                         "--out", str(model)]) == 0
            blobs.append(model.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


def _acceptance_6_model_and_vectors():
    rng = np.random.default_rng(600)
    x = rng.uniform(0.0, 4.0, size=(150, 12))
    y = ((x[:, 0] > 2.0) ^ (x[:, 5] > 1.5)).astype(np.int8)
    model = forest.train(x, y, FeatureSchema(1), ForestParams(n_trees=25, rng_seed=600))
    return model, rng.uniform(-1.0, 5.0, size=(1000, 12))


def test_acceptance_6_export_fidelity():
    with criterion(6, "exported code matches predict on 1000 vectors", 30.0):
        model, vectors = _acceptance_6_model_and_vectors()
        read_back(model, forest.export_decision_code(model))
        labels, _ = forest.predict_batch(model, vectors)
        for i, row in enumerate(vectors):
            assert reference_decision(model, row) == int(labels[i]), f"vector {i}"


@pytest.mark.integration
@requires_compiler
def test_acceptance_6_compiled_export_matches_predict(tmp_path):
    model, vectors = _acceptance_6_model_and_vectors()
    got = compiled_decisions(forest.export_decision_code(model), vectors, tmp_path)
    labels, _ = forest.predict_batch(model, vectors)
    assert np.flatnonzero(got != labels).tolist() == []


def test_acceptance_7_hermetic_pipeline(tmp_path):
    with criterion(7, "hermetic gen-to-classify pipeline", 60.0):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"seed": 70, "n_functions": 40}))
        corpus = tmp_path / "corpus"
        assert main(["gen", "--config", str(cfg), "--out", str(corpus)]) == 0
        features = tmp_path / "features.jsonl"
        assert main(["extract", str(corpus / "manifest.jsonl"), "--fit-schema",
                     "--out", str(features)]) == 0
        ids = [r.function_id for r in read_manifest(features).rows]
        table = {fid: ([1.0, 0.9] if i % 2 else [1.0, 0.3]) for i, fid in enumerate(ids)}
        timer = tmp_path / "timer.json"
        timer.write_text(json.dumps(table))
        labeled = tmp_path / "labeled.jsonl"
        assert main(["label", "--manifest", str(labeled.parent / "features.jsonl"),
                     "--fake-timer", str(timer), "--out", str(labeled)]) == 0
        model = tmp_path / "model.json"
        assert main(["train", "--manifest", str(labeled), "--out", str(model)]) == 0
        cv = tmp_path / "cv.json"
        assert main(["eval", "--manifest", str(labeled), "--cv", "5", "--out", str(cv)]) == 0
        cv_doc = json.loads(cv.read_text())
        assert cv_doc["k"] == 5 and len(cv_doc["folds"]) == 5
        report = tmp_path / "report.json"
        sources = sorted(str(p) for p in corpus.glob("*.c"))
        assert main(["classify", "--model", str(model), *sources,
                     "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "classification-report"
        assert len(doc["functions"]) == 40
        assert doc["summary"]["quarantined"] == 0
        assert doc["summary"]["easy"] + doc["summary"]["hard"] == 40
        for entry in doc["functions"]:
            assert set(entry) == {"name", "label", "votes", "recommended_flags"}
            assert entry["recommended_flags"] == (
                ["-O1"] if entry["label"] == "easy" else ["-O3"]
            )


@pytest.mark.integration
def test_acceptance_8_real_compiler_checksums(tmp_path):
    if not has_compiler():
        RESULTS.append("ACCEPTANCE 8 (real-compiler timing run): SKIP (no C compiler)")
        pytest.skip("no C compiler on PATH")
    with criterion(8, "real-compiler timing run", 120.0):
        fn = parse_one((DATA / "floyd_warshall.c").read_text(), "floyd_warshall.c")
        cfg = LabelerConfig(array_extent=512, repetitions=3, min_runtime_s=0.05,
                            workdir=str(tmp_path))
        results = label_corpus([("floyd_warshall.c::floyd_warshall", fn)], cfg)
        res = results[0]
        # equal checksums show up as a clean (non-quarantined) result
        assert res.quarantine_reason is None, res.quarantine_reason
        assert res.timing is not None
        assert np.isfinite(res.timing.ratio) and res.timing.ratio > 0.0
        assert res.timing.t_basic == statistics.median(res.timing.samples_basic)
