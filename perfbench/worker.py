"""One measured phase of a workload, in a fresh process.

run.py starts this process, so its peak memory and start-up belong to
the workload alone:

    python3 worker.py <phase-dir>          # timed iterations, spec in <phase-dir>/spec.json
    python3 worker.py --setup <spec.json>  # set-up only: import, load inputs, print "ready <t>"

A phase repeats the workload's work until ``seconds`` have passed (and at
least ``min_iterations`` times). Each iteration writes its outputs under
``<phase-dir>/iter-<k>/`` for run.py to check; only the work itself is
inside the timed region. ``result.json`` holds the timings and resource
use; a traced phase also writes its spans to ``trace.json``.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path


def _load(spec: dict):
    """The workload's set-up: the modules and inputs a user loads first."""
    workload = spec["workload"]
    if workload == "fit":
        import numpy as np

        from opttriage import forest
        from opttriage.manifest import read_manifest

        man = read_manifest(spec["manifest"])
        rows = [r for r in man.rows if r.label is not None]
        x = np.array([r.feature_values for r in rows], dtype=np.float64)
        y = np.array([forest.LABEL_NAMES.index(r.label) for r in rows], dtype=np.int8)
        return man.schema, x, y, [r.function_id for r in rows]
    if workload == "triage":
        from opttriage import cli, forest  # noqa: F401

        return forest.load_model(spec["model"])
    if workload == "corpus-cli":
        from opttriage import cli  # noqa: F401 - what every CLI command imports

        return None
    from opttriage import parse_unit
    from opttriage.labeler import label_corpus  # noqa: F401
    from opttriage.manifest import function_id
    from opttriage.minic import SourceUnit

    targets = []
    for path in spec["sources"]:
        (fn,), _ = parse_unit(SourceUnit(Path(path).name, Path(path).read_text()), strict=True)
        targets.append((function_id(path, fn.name), fn))
    return targets


# ----------------------------------------------------------------- workloads


def _fit(spec, loaded, out: Path, k: int, tracer) -> dict:
    from opttriage import forest
    from opttriage.forest import ForestParams

    schema, x, y, ids = loaded
    seed = spec["seed"] + (k if spec.get("fault") == "train-drift" else 0)
    params = ForestParams(n_trees=spec["trees"], rng_seed=seed)
    start = time.perf_counter()
    _request(tracer, "train")
    model = forest.train(x, y, schema, params, ids=ids)
    _request(tracer, "cross_validate")
    cv = forest.cross_validate(x, y, ids, schema, params, k=spec["folds"])
    _request(tracer, "save")
    forest.save_model(model, out / "model.json")
    _request(tracer, "export")
    (out / "export.c").write_text(forest.export_decision_code(model), encoding="utf-8")
    wall = time.perf_counter() - start
    (out / "cv.json").write_text(json.dumps({"mean_accuracy": cv["mean_accuracy"]}))
    return {"wall_s": wall}


def _triage(spec, loaded, out: Path, k: int, tracer) -> dict:
    from opttriage import cli

    reports = out / "reports"
    reports.mkdir()
    latencies, codes = [], []
    start = time.perf_counter()
    for src in spec["sources"]:
        _request(tracer, Path(src).name)
        report = reports / (Path(src).stem + ".json")
        t0 = time.perf_counter()
        codes.append(cli.main(["classify", "--model", spec["model"], src, "--out", str(report)]))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    _plant_report_fault(spec.get("fault"), reports)
    return {"wall_s": wall, "file_s": latencies, "exit_codes": codes}


def _plant_report_fault(fault, reports: Path) -> None:
    """Self-test faults: corrupt one classify report after the fact."""
    if fault not in ("flip-label", "quarantine-valid"):
        return
    path = sorted(reports.glob("*.json"))[0]
    doc = json.loads(path.read_text())
    fn = doc["functions"][0]
    if fault == "flip-label":
        fn["label"] = "easy" if fn["label"] == "hard" else "hard"
    else:
        doc["functions"].pop(0)
        doc["quarantined"].append({"name": fn["name"], "reason": "parse: planted fault"})
    path.write_text(json.dumps(doc))


def cli_chain(spec, out: Path) -> list[list[str]]:
    """The README's command chain, rooted in one iteration directory."""
    o = lambda name: str(out / name)  # noqa: E731
    seed = str(spec["seed"])
    return [
        ["gen", "--seed", seed, "--count", str(spec["n_functions"]), "--out", o("corpus")],
        ["extract", o("corpus/manifest.jsonl"), "--fit-schema", "--out", o("features.jsonl")],
        ["label", "--manifest", o("features.jsonl"), "--fake-timer", spec["timer"],
         "--out", o("labeled.jsonl")],
        ["train", "--manifest", o("labeled.jsonl"), "--trees", str(spec["trees"]),
         "--seed", seed, "--out", o("model.json")],
        ["eval", "--manifest", o("labeled.jsonl"), "--cv", str(spec["folds"]),
         "--trees", str(spec["trees"]), "--seed", seed, "--out", o("cv.json")],
        ["classify", "--model", o("model.json"), o("corpus/manifest.jsonl"),
         "--out", o("report.json")],
        ["export", "--model", o("model.json"), "--out", o("export.c")],
    ]


def _corpus_cli(spec, loaded, out: Path, k: int, tracer) -> dict:
    codes = []
    with open(out / "cli.log", "w", encoding="utf-8") as log:
        start = time.perf_counter()
        for argv in cli_chain(spec, out):
            if spec["in_process"]:
                from opttriage import cli

                _request(tracer, argv[0])
                codes.append(cli.main(argv))
            else:
                proc = subprocess.run([sys.executable, "-m", "opttriage.cli", *argv],
                                      stdout=log, stderr=subprocess.STDOUT, timeout=120)
                codes.append(proc.returncode)
        wall = time.perf_counter() - start
    return {"wall_s": wall, "exit_codes": codes}


def _label_real(spec, loaded, out: Path, k: int, tracer) -> dict:
    from opttriage.labeler import LabelerConfig, label_corpus

    cfg = LabelerConfig(**spec["labeler_config"], workdir=str(out / "build"))
    _request(tracer, "label_corpus")
    start = time.perf_counter()
    results = label_corpus(loaded, cfg)
    wall = time.perf_counter() - start
    doc = [
        {
            "function_id": r.function_id,
            "label": r.label,
            "quarantine_reason": r.quarantine_reason,
            "timing": None if r.timing is None else r.timing.to_dict(),
        }
        for r in results
    ]
    (out / "labels.json").write_text(json.dumps(doc), encoding="utf-8")
    return {"wall_s": wall}


WORKLOADS = {
    "fit": _fit,
    "triage": _triage,
    "corpus-cli": _corpus_cli,
    "label-real": _label_real,
}


def _request(tracer, name: str) -> None:
    if tracer is not None:
        tracer.request = name


def _max_rss_mb() -> float:
    """Peak resident memory of this process and of the largest child, in MiB.

    The process's own peak comes from VmHWM: ru_maxrss also counts the
    parent's resident set at spawn time, which belongs to run.py's
    input preparation, not to the workload.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # both in KiB on Linux


def run_phase(phase_dir: Path) -> None:
    spec = json.loads((phase_dir / "spec.json").read_text())
    sys.path.insert(0, spec["src"])
    loaded = _load(spec)
    tracer = None
    if spec["traced"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    work = WORKLOADS[spec["workload"]]
    iterations = []
    start = time.perf_counter()
    # stop before an iteration as long as the last one would overrun the budget
    while len(iterations) < spec["min_iterations"] or (
        time.perf_counter() - start + iterations[-1]["wall_s"] <= spec["seconds"]
    ):
        out = phase_dir / f"iter-{len(iterations)}"
        out.mkdir()
        iterations.append(work(spec, loaded, out, len(iterations), tracer))
    result = {"iterations": iterations, "peak_rss_mb": _max_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        (phase_dir / "trace.json").write_text(json.dumps(tracer.dump()))
    (phase_dir / "result.json").write_text(json.dumps(result))


def run_setup(spec_path: Path) -> None:
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, spec["src"])
    _load(spec)
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time
    print(f"ready {time.monotonic()!r}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--setup":
        run_setup(Path(sys.argv[2]))
    elif len(sys.argv) == 2:
        run_phase(Path(sys.argv[1]))
    else:
        sys.exit(__doc__)
