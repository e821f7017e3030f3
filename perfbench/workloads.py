"""The four workloads: input preparation, output checks and digests.

Each workload prepares its seeded inputs in a work directory (outside
any timed region), hands worker.py a spec, and afterwards checks every
output the worker's iterations wrote. A check counts the distinct
operations it examined (``attempted``) and the wrong ones (``failed``).
An operation repeated in several iterations is checked in every one of
them and counts once, as failed if any repetition was wrong, so both
counts depend on the seed alone and not on how many iterations fit in
the run. ``known`` is the part of ``failed`` explained by a documented
defect of the program, which stays counted but does not make the run
incorrect.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import inputs
from opttriage import forest
from opttriage.forest import ForestParams
from opttriage.labeler import label_from_ratio
from opttriage.manifest import dumps_manifest, function_id
from opttriage.synthgen import GenConfig, generate


@dataclass
class Check:
    name: str
    attempted: int = 0
    failed: int = 0
    known: int = 0
    skipped: Optional[str] = None
    detail: str = ""
    outcomes: dict = field(default_factory=dict, repr=False)

    def record(self, key, ok) -> None:
        """One repetition of operation ``key``; it fails if any repetition does."""
        if key not in self.outcomes:
            self.outcomes[key] = True
            self.attempted += 1
        if self.outcomes[key] and not ok:
            self.outcomes[key] = False
            self.failed += 1

    @property
    def status(self) -> str:
        if self.skipped is not None:
            return "SKIPPED"
        return "PASS" if self.failed == 0 else "FAIL"

    def line(self) -> str:
        if self.skipped is not None:
            return f"check {self.name}: SKIPPED ({self.skipped})"
        text = f"check {self.name}: {self.status} attempted={self.attempted} failed={self.failed}"
        if self.known:
            text += f" known={self.known}"
        return text + (f" ({self.detail})" if self.detail else "")


def sha256_file(path: Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def iteration_dirs(phases: list[dict]) -> list[Path]:
    return [Path(d) for phase in phases for d in phase["dirs"]]


# ---------------------------------------------------------------------- fit


class Fit:
    """Model builder: train 25 trees, cross-validate k=5, save, export."""

    name = "fit"

    def prepare(self, workdir: Path, seed: int, size: dict, ctx) -> dict:
        corpus = inputs.synthetic_corpus(seed, size["fit_functions"])
        timers = inputs.timer_table(corpus.ids, corpus.rows, corpus.schema, seed)
        manifest = inputs.labeled_manifest(corpus, timers)
        path = workdir / "labeled.jsonl"
        path.write_text(dumps_manifest(manifest), encoding="utf-8")
        self.x, self.y, self.ids = inputs.training_table(manifest)
        self.schema = corpus.schema
        self.seed = seed
        ctx.note(
            f"corpus {len(self.y)} functions, hard share {timers.hard_share:.3f}, "
            f"noise flip rate {timers.flip_rate:.3f}"
        )
        ctx.digest("labeled manifest", sha256_file(path))
        return {
            "manifest": str(path),
            "seed": seed,
            "trees": inputs.N_TREES,
            "folds": inputs.CV_FOLDS,
        }

    def check(self, phases: list[dict], ctx) -> list[Check]:
        dirs = iteration_dirs(phases)
        first = dirs[0]
        ctx.digest("model", sha256_file(first / "model.json"))
        ctx.digest("export", sha256_file(first / "export.c"))
        same = Check("train-determinism",
                     detail=f"model, export and cv bytes of {len(dirs) - 1} retrainings vs the first")
        for d in dirs[1:]:
            for name in ("model.json", "export.c", "cv.json"):
                same.record(name, (d / name).read_bytes() == (first / name).read_bytes())
        ctx.cv_accuracy = json.loads((first / "cv.json").read_text())["mean_accuracy"]
        model = forest.load_model(first / "model.json")
        return [
            same,
            export_fidelity(model, (first / "export.c").read_text(), self.x, ctx.workdir),
            backend_identity(self.x, self.y, self.schema, self.seed),
        ]


def probe_rows(model, x: np.ndarray) -> np.ndarray:
    """Training rows plus, per internal node, a row that reaches the node with
    its tested feature set to the threshold and to both neighbouring doubles."""
    probes = [x]
    for tree in model.trees:
        first = np.full(tree.n_nodes, len(x))
        node = np.zeros(len(x), dtype=np.int64)
        active = np.arange(len(x))
        while active.size:
            at = node[active]
            np.minimum.at(first, at, active)
            inner = tree.feature[at] >= 0
            active, at = active[inner], at[inner]
            left = x[active, tree.feature[at]] <= tree.threshold[at]
            node[active] = np.where(left, tree.left[at], tree.right[at])
        for i in np.nonzero((tree.feature >= 0) & (first < len(x)))[0]:
            thr = tree.threshold[i]
            for value in (np.nextafter(thr, -np.inf), thr, np.nextafter(thr, np.inf)):
                row = x[first[i]].copy()
                row[tree.feature[i]] = value
                probes.append(row[None, :])
    return np.concatenate(probes)


_HARNESS_MAIN = """
#include <stdio.h>

int main(int argc, char **argv)
{
    FILE *in = fopen(argv[1], "r");
    int n, w;
    if (!in || fscanf(in, "%d %d", &n, &w) != 2 || w != WIDTH)
        return 3;
    for (int r = 0; r < n; r++) {
        float f[WIDTH];
        for (int j = 0; j < WIDTH; j++) {
            double v;
            if (fscanf(in, "%la", &v) != 1)
                return 4;
            f[j] = (float)v;
        }
        printf("%d\\n", classify_function(f));
    }
    return 0;
}
"""


def export_fidelity(model, export_text: str, x: np.ndarray, build: Path) -> Check:
    """Compile the exported classifier with cc and compare it with predict_batch.

    A disagreement that the same forest also produces on float32-rounded
    inputs is the known float32 export defect (the export takes
    ``float f[W]`` while the model compares doubles); it is counted as
    failed and reported as known.
    """
    check = Check("export-fidelity")
    if shutil.which("cc") is None:
        check.skipped = "no cc on PATH"
        return check
    width = model.schema.width
    rows = probe_rows(model, x)
    source = build / "harness.c"
    source.write_text(
        f"#define WIDTH {width}\n" + export_text + _HARNESS_MAIN, encoding="utf-8"
    )
    data = build / "probes.txt"
    with open(data, "w", encoding="ascii") as fh:
        fh.write(f"{len(rows)} {width}\n")
        for row in rows:
            fh.write(" ".join(float(v).hex() for v in row) + "\n")
    binary = build / "harness"
    check.attempted = len(rows)
    try:
        subprocess.run(["cc", "-O0", "-o", str(binary), str(source)], check=True,
                       capture_output=True, text=True, timeout=120)
        out = subprocess.run([str(binary), str(data)], check=True, capture_output=True,
                             text=True, timeout=60).stdout.split()
    except subprocess.CalledProcessError as e:
        check.failed = check.attempted
        check.detail = f"exported code failed to build or run: {e.stderr.strip()[-300:]}"
        return check
    got = np.array([int(v) for v in out], dtype=np.int8)
    want, _ = forest.predict_batch(model, rows)
    as_float32, _ = forest.predict_batch(model, rows.astype(np.float32).astype(np.float64))
    wrong = got != want
    check.failed = int(wrong.sum())
    check.known = int((wrong & (got == as_float32)).sum())
    check.detail = f"{len(x)} training rows + {len(rows) - len(x)} threshold probes"
    if check.known:
        check.detail += "; known = float32 rounding of inputs (ROADMAP item 5)"
    return check


def backend_identity(x, y, schema, seed: int) -> Check:
    """Models trained on every importable kernel backend must be byte-identical."""
    check = Check("backend-identity")
    kernels = forest.kernels if hasattr(forest, "kernels") else None
    backends = kernels.available_backends() if hasattr(kernels, "available_backends") else ()
    if len(backends) < 2:
        check.skipped = f"only {', '.join(backends) or 'one backend'} importable"
        return check
    params = ForestParams(n_trees=inputs.N_TREES, rng_seed=seed)
    blobs = [forest.dumps_model(forest.train(x, y, schema, params, backend=b)) for b in backends]
    check.attempted = len(blobs) - 1
    check.failed = sum(b != blobs[0] for b in blobs[1:])
    check.detail = " vs ".join(backends)
    return check


# ------------------------------------------------------------------- triage


class Triage:
    """Developer: one in-process `classify` per translation unit, fixed model."""

    name = "triage"

    def prepare(self, workdir: Path, seed: int, size: dict, ctx) -> dict:
        model_path = ctx.cached("triage-model", lambda p: _train_triage_model(p, size))
        model = forest.load_model(model_path)
        ctx.digest("model", sha256_file(model_path))
        files, clean = inputs.triage_sources(
            seed, size["triage_files"], size["triage_functions"]
        )
        src = workdir / "src"
        src.mkdir()
        for f in files:
            (src / f.path).write_text(f.text, encoding="utf-8")
        self.files = files
        self.reference = inputs.reference_predictions(
            model, *inputs.standalone_vectors(clean, model.schema)
        )
        n_bad = sum(len(f.invalid) for f in files)
        ctx.note(
            f"{len(files)} files, {len(self.reference) + n_bad} functions, "
            f"{n_bad} with a planted unsupported construct"
        )
        return {"model": str(model_path), "sources": [str(src / f.path) for f in files]}

    def check(self, phases: list[dict], ctx) -> list[Check]:
        labels = Check("classify-labels", detail="label and votes vs predict_batch")
        quarantine = Check("parse-quarantine", detail="planted invalid functions only")
        codes = Check("classify-exit-codes")
        for phase in phases:
            for d, it in zip(phase["dirs"], phase["iterations"]):
                for f, code in zip(self.files, it["exit_codes"]):
                    codes.record(f.path, code == (2 if f.invalid else 0))
                    report = Path(d) / "reports" / f"{f.path[:-2]}.json"
                    doc = (json.loads(report.read_text()) if report.exists()
                           else {"functions": [], "quarantined": []})
                    got = {e["name"]: (e["label"], e["votes"]) for e in doc["functions"]}
                    held = {e["name"]: e["reason"] for e in doc["quarantined"]}
                    for name in f.valid:
                        fid = function_id(f.path, name)
                        labels.record(fid, got.get(fid) == self.reference[fid])
                        quarantine.record(fid, fid not in held)
                    for name in f.invalid:
                        fid = function_id(f.path, name)
                        quarantine.record(fid, held.get(fid, "").startswith("parse:"))
        return [labels, quarantine, codes]


def _train_triage_model(path: Path, size: dict) -> None:
    seed = inputs.TRIAGE_MODEL_SEED
    corpus = inputs.synthetic_corpus(seed, size["triage_model_functions"])
    timers = inputs.timer_table(corpus.ids, corpus.rows, corpus.schema, seed)
    x, y, ids = inputs.training_table(inputs.labeled_manifest(corpus, timers))
    model = forest.train(x, y, corpus.schema, ForestParams(n_trees=inputs.N_TREES, rng_seed=seed),
                         ids=ids)
    forest.save_model(model, path)


# --------------------------------------------------------------- corpus-cli


class CorpusCli:
    """Corpus builder: the README's CLI chain as real subprocesses, fake timer."""

    name = "corpus-cli"

    def prepare(self, workdir: Path, seed: int, size: dict, ctx) -> dict:
        corpus = inputs.synthetic_corpus(seed, size["cli_functions"])
        timers = inputs.timer_table(corpus.ids, corpus.rows, corpus.schema, seed)
        timer_path = workdir / "timer.json"
        timer_path.write_text(json.dumps(timers.table, sort_keys=True), encoding="utf-8")
        # The same pipeline in-process: chaining through files must reproduce it.
        x, y, ids = inputs.training_table(inputs.labeled_manifest(corpus, timers))
        params = ForestParams(n_trees=inputs.N_TREES, rng_seed=seed)
        model = forest.train(x, y, corpus.schema, params, ids=ids)
        self.model_text = forest.dumps_model(model)
        self.cv = forest.cross_validate(x, y, ids, corpus.schema, params, k=inputs.CV_FOLDS)
        self.reference = inputs.reference_predictions(model, corpus.ids, corpus.rows)
        ctx.note(
            f"corpus {len(corpus.ids)} functions, hard share {timers.hard_share:.3f}, "
            f"noise flip rate {timers.flip_rate:.3f}"
        )
        ctx.digest("in-process model", sha256_text(self.model_text))
        return {
            "seed": seed,
            "n_functions": size["cli_functions"],
            "timer": str(timer_path),
            "trees": inputs.N_TREES,
            "folds": inputs.CV_FOLDS,
        }

    def check(self, phases: list[dict], ctx) -> list[Check]:
        codes = Check("cli-exit-codes", detail="gen extract label train eval classify export")
        same = Check("cli-model-matches-in-process")
        cv = Check("cli-cv-matches-in-process")
        labels = Check("classify-labels", detail="label and votes vs predict_batch")
        for phase in phases:
            for d, it in zip(phase["dirs"], phase["iterations"]):
                d = Path(d)
                for k, code in enumerate(it["exit_codes"]):
                    codes.record(k, code == 0)
                model = d / "model.json"
                same.record("model", model.exists() and model.read_text() == self.model_text)
                doc = json.loads((d / "cv.json").read_text()) if (d / "cv.json").exists() else {}
                cv.record("cv", doc.get("mean_accuracy") == self.cv["mean_accuracy"])
                report = d / "report.json"
                got = {}
                if report.exists():
                    got = {e["name"]: (e["label"], e["votes"])
                           for e in json.loads(report.read_text())["functions"]}
                for fid, want in self.reference.items():
                    labels.record(fid, got.get(fid) == want)
        first = Path(phases[0]["dirs"][0])
        for what, name in (("gen manifest", "corpus/manifest.jsonl"),
                           ("features manifest", "features.jsonl"),
                           ("labeled manifest", "labeled.jsonl"),
                           ("model", "model.json"), ("export", "export.c")):
            if (first / name).exists():
                ctx.digest(what, sha256_file(first / name))
        ctx.cv_accuracy = self.cv["mean_accuracy"]
        return [codes, same, cv, labels]


# --------------------------------------------------------------- label-real


class LabelReal:
    """Ground truth: label_corpus with the real cc on a few seeded kernels."""

    name = "label-real"

    def prepare(self, workdir: Path, seed: int, size: dict, ctx) -> dict:
        if shutil.which("cc") is None:
            raise RuntimeError("label-real needs a C compiler named cc on PATH")
        units = generate(GenConfig(seed=seed, n_functions=size["label_functions"]))
        src = workdir / "kernels"
        src.mkdir()
        for unit in units:
            (src / unit.path).write_text(unit.text, encoding="utf-8")
        ctx.note(f"{len(units)} kernels, labeler config {inputs.LABEL_CONFIG}")
        return {
            "sources": [str(src / u.path) for u in units],
            "labeler_config": inputs.LABEL_CONFIG,
        }

    def check(self, phases: list[dict], ctx) -> list[Check]:
        check = Check("labels", detail="no quarantine, medians and ratio rule hold")
        causes = []
        for d in iteration_dirs(phases):
            for row in json.loads((d / "labels.json").read_text()):
                t = row["timing"]
                if row["quarantine_reason"] is not None or t is None:
                    check.record(row["function_id"], False)
                    causes.append(str(row["quarantine_reason"]))
                    continue
                check.record(row["function_id"], (
                    t["t_basic"] == statistics.median(t["samples_basic"])
                    and t["t_aggr"] == statistics.median(t["samples_aggr"])
                    and row["label"] == label_from_ratio(t["t_basic"], t["t_aggr"], inputs.DELTA)
                ))
        if causes:
            check.detail += "; quarantined: " + "; ".join(sorted(set(causes)))[:300]
        return [check]


WORKLOADS = {w.name: w for w in (Fit, Triage, CorpusCli, LabelReal)}
