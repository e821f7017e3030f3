"""The public import surface: every exported name exists, and each CLI
command loads only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opttriage


@pytest.mark.parametrize("name", ["opttriage", "opttriage.minic", "opttriage.forest"])
def test_every_name_in_all_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


# Runs one CLI command in a fresh interpreter (none when no arguments are
# given) and prints its exit code and the opttriage modules and numpy loaded.
_PROBE = """
import json, sys
from opttriage import cli
rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith(("numpy", "opttriage")))]))
"""


def _loaded_modules(cwd, *argv):
    src = str(Path(opttriage.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    return set(modules)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "timer.json").write_text('{"default": [1.0, 0.5]}')
    (tmp_path / "labeler.json").write_text('{"flags_aggr": ["-O2"]}')
    front_end = {"opttriage.minic.analyze", "opttriage.synthgen"}
    labeler = "opttriage.labeler"  # only label times anything
    assert _loaded_modules(tmp_path).isdisjoint(
        {"numpy", "opttriage.forest", labeler, *front_end}
    )
    assert _loaded_modules(tmp_path, "gen", "--seed", "3", "--count", "8",
                           "--out", "corpus").isdisjoint({"numpy", labeler, "opttriage.minic.parser"})
    assert labeler not in _loaded_modules(tmp_path, "extract", "corpus/manifest.jsonl",
                                          "--fit-schema", "--out", "features.jsonl")
    assert "numpy" not in _loaded_modules(tmp_path, "label", "--manifest", "features.jsonl",
                                          "--fake-timer", "timer.json", "--out", "labeled.jsonl")
    grower = {"opttriage.forest.grow", "opttriage.forest.draws"}
    for argv in (["train", "--manifest", "labeled.jsonl", "--trees", "3", "--out", "model.json"],
                 ["eval", "--manifest", "labeled.jsonl", "--model", "model.json",
                  "--out", "report.json"],
                 ["export", "--model", "model.json", "--out", "decide.c"]):
        loaded = _loaded_modules(tmp_path, *argv)
        assert loaded.isdisjoint({labeler, *front_end})
        assert not [m for m in loaded if m.startswith("opttriage.minic")], argv[0]
        if argv[0] == "train":
            assert grower <= loaded
        else:  # a model is read, not grown
            assert loaded.isdisjoint(grower)
    # classify reads a labeler config's flags without loading the labeler, and grows no tree
    assert _loaded_modules(tmp_path, "classify", "--model", "model.json",
                           "--config", "labeler.json", "corpus/manifest.jsonl",
                           "--out", "classified.json").isdisjoint({labeler, *grower})
    report = json.loads((tmp_path / "classified.json").read_text())
    assert {"-O2"} <= {flag for fn in report["functions"] for flag in fn["recommended_flags"]}
