"""Benchmark harness for opttriage: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 16 --trace 0

Run it from the root of a checkout; it imports the package from
``src/`` and fails (exit 2, no result) when that is missing. Inputs come
from the benchmark's own seeded generation. The untraced run
(``--trace 0``) prints every end-to-end metric and correctness check; the
traced run (``--trace 1``) prints per-layer metrics from spans recorded
around the package's public functions. The last line of output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0  # the whole run, prep and checks included
SETUP_REPEATS = 5

# name -> unit. The untraced JSON carries END_TO_END; the traced JSON PER_LAYER.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed by the untraced run too, but not bounded: they are not defined on
# every workload (file_ms_*, cv_accuracy) or are 0 on a clean run (failed_share).
REPORTED = {"file_ms_p50": "ms", "file_ms_p90": "ms", "cv_accuracy": "share",
            "failed_share": "share"}


# Per-layer metrics beyond the trace's own: name -> (unit, better).
EXTRA_LAYER_METRICS = {
    "trace.overhead_s": ("s", "lower"),
    "triage.file_ms_p50": ("ms", "lower"),
    "triage.file_ms_p90": ("ms", "lower"),
    "cv_accuracy": ("share", "higher"),
    "failed_share": ("share", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    import tracing

    return {**tracing.METRICS, **EXTRA_LAYER_METRICS}


class BenchError(RuntimeError):
    pass


class Context:
    """What preparation and checks share: the work directory, notes, digests, cache."""

    def __init__(self, workdir: Path, size_name: str):
        self.workdir = workdir
        self.size_name = size_name
        self.notes: list[str] = []
        self.digests: list[tuple[str, str]] = []
        self.cv_accuracy = None

    def note(self, text: str) -> None:
        self.notes.append(text)

    def digest(self, what: str, value: str) -> None:
        self.digests.append((what, value))

    def cached(self, name: str, build) -> Path:
        """A seed-independent input, rebuilt whenever the package sources change."""
        h = hashlib.sha256(self.size_name.encode())
        for path in sorted(SRC.rglob("*.py")):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
        for path in sorted(HERE.glob("*.py")):
            h.update(path.read_bytes())
        cache = ROOT / ".bench_cache"
        cache.mkdir(exist_ok=True)
        target = cache / f"{name}-{h.hexdigest()[:16]}.json"
        if not target.exists():
            tmp = target.with_suffix(f".tmp{os.getpid()}")
            build(tmp)
            os.replace(tmp, target)
        return target


# ------------------------------------------------------------------ children


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def _wait(proc: subprocess.Popen, deadline: float) -> int:
    """Wait for a child started in its own session; kill its group on timeout."""
    try:
        return proc.wait(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("child process timed out") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def measure_setup(spec_path: Path, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being loaded.

    The child stamps ``time.monotonic()`` (system-wide CLOCK_MONOTONIC on
    Linux) once loaded, so interpreter teardown is not counted.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--setup", str(spec_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=_remaining(deadline))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        words = out.decode().split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise BenchError(f"set-up process failed: {err.decode()[-2000:]}")
        times.append(float(words[1]) - start)
    return times


def run_phase(workdir: Path, name: str, spec: dict, deadline: float) -> dict:
    phase_dir = workdir / name
    phase_dir.mkdir()
    (phase_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    log_path = phase_dir / "worker.log"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(phase_dir)],
            stdout=log, stderr=subprocess.STDOUT, env=_child_env(), start_new_session=True,
        )
        code = _wait(proc, deadline)
    if code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise BenchError(f"{name} phase exited with {code}:\n{tail}")
    result = json.loads((phase_dir / "result.json").read_text())
    result["dirs"] = [str(phase_dir / f"iter-{k}") for k in range(len(result["iterations"]))]
    trace_path = phase_dir / "trace.json"
    if trace_path.exists():
        result["trace"] = json.loads(trace_path.read_text())
    return result


# --------------------------------------------------------------- environment


def _command_line(argv: list[str]) -> str:
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=20, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = proc.stdout.strip().splitlines()
    return lines[0] if proc.returncode == 0 and lines else "unavailable"


def environment() -> dict:
    import importlib.util

    import numpy

    try:
        from opttriage.forest import kernels

        backend = kernels.active_backend()
    except (ImportError, AttributeError, ValueError) as e:
        backend = f"unknown ({e})"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": backend,
        "nproc": os.cpu_count(),
        "cc": _command_line(["cc", "--version"]),
        "git_sha": _command_line(["git", "rev-parse", "HEAD"])
        if (ROOT / ".git").exists() else "unavailable (not a git checkout)",
        "loadavg_1m_start": os.getloadavg()[0],
    }


# ----------------------------------------------------------------------- run


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(args) -> dict:
    import inputs
    import tracing
    from workloads import WORKLOADS

    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    size = inputs.SIZES[args.size]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # the compiler's and the labeler's temporary files stay inside the checkout
    (workdir / "tmp").mkdir()
    os.environ["TMPDIR"] = str(workdir / "tmp")
    ctx = Context(workdir, args.size)
    try:
        workload = WORKLOADS[args.workload]()
        spec = workload.prepare(workdir, args.seed, size, ctx)
        # A traced run drives the CLI through opttriage.cli.main in both of its
        # phases, so that trace.overhead_s compares like with like.
        spec.update(workload=args.workload, src=str(SRC), fault=args.fault,
                    in_process=bool(args.trace))
        spec_path = workdir / "setup-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")

        # fit compares two trainings, so it always runs at least two iterations
        min_untraced = 2 if args.workload == "fit" else 1
        if args.trace:
            half = args.seconds / 2.0
            phases = [
                run_phase(workdir, "untraced", {**spec, "seconds": half,
                          "min_iterations": min_untraced, "traced": False}, deadline),
                run_phase(workdir, "traced", {**spec, "seconds": half,
                          "min_iterations": 1, "traced": True}, deadline),
            ]
            setups = []
        else:
            setups = measure_setup(spec_path, deadline)
            phases = [run_phase(workdir, "untraced", {**spec, "seconds": args.seconds,
                                "min_iterations": min_untraced, "traced": False}, deadline)]
        checks = workload.check(phases, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    untraced = phases[0]
    walls = [it["wall_s"] for it in untraced["iterations"]]
    files = [s * 1e3 for it in untraced["iterations"] for s in it.get("file_s", [])]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    reported = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": untraced["peak_rss_mb"],
        "failed_share": failed / attempted if attempted else 0.0,
    }
    if setups:
        reported["setup_s"] = statistics.median(setups)
    if files:
        reported["file_ms_p50"] = statistics.median(files)
        reported["file_ms_p90"] = _percentile(files, 90)
    if ctx.cv_accuracy is not None:
        reported["cv_accuracy"] = ctx.cv_accuracy

    if args.trace:
        traced = phases[1]
        units = {name: unit for name, (unit, _) in per_layer_metrics().items()}
        metrics = tracing.layer_metrics(traced["trace"], len(traced["iterations"]))
        metrics["trace.overhead_s"] = (
            statistics.median(it["wall_s"] for it in traced["iterations"]) - reported["wall_s"]
        )
        metrics["triage.file_ms_p50"] = reported.get("file_ms_p50", 0.0)
        metrics["triage.file_ms_p90"] = reported.get("file_ms_p90", 0.0)
        metrics["cv_accuracy"] = reported.get("cv_accuracy", 0.0)
        metrics["failed_share"] = reported["failed_share"]
        missing = traced["trace"]["missing"]
    else:
        units = END_TO_END
        metrics = {name: reported[name] for name in END_TO_END}
        missing = []

    return {
        "env": env,
        "notes": ctx.notes,
        "digests": ctx.digests,
        "checks": checks,
        "setups": setups,
        "iterations": [len(p["iterations"]) for p in phases],
        "walls": [it["wall_s"] for p in phases for it in p["iterations"]],
        "file_samples": len(files),
        "reported": reported,
        "missing": missing,
        "correct": all(c.failed == c.known for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def _print(result: dict, args) -> None:
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for note in result["notes"]:
        print(f"input {note}")
    print(f"iterations per phase {result['iterations']}; file samples {result['file_samples']}"
          + (f"; set-ups {len(result['setups'])}" if result["setups"] else ""))
    print("iteration wall_s " + " ".join(f"{w:.4g}" for w in result["walls"]))
    for what, value in result["digests"]:
        print(f"digest {what} {value}")
    for check in result["checks"]:
        print(check.line())
    for name in result["missing"]:
        print(f"trace target not found: {name}")
    if not args.trace:
        for name, value in result["reported"].items():
            unit = END_TO_END.get(name) or REPORTED[name]
            print(f"metric {name} = {value:.6g} {unit}")
    else:
        for name, m in result["metrics"].items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("fit", "triage", "corpus-cli", "label-real"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's self-test")
    parser.add_argument("--fault", default=None,
                        choices=("train-drift", "flip-label", "quarantine-valid"),
                        help="plant a fault the checks must catch (self-test only)")
    args = parser.parse_args(argv)

    if not (SRC / "opttriage" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    _print(result, args)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
