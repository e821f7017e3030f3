"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the benchmark seed and a size
table, so the same seed always yields the same sources, manifests and
timer tables.

Fake-timer rule (hermetic workloads)
------------------------------------
Labels in ``fit`` and ``corpus-cli`` come from a fixed rule on the
function's own feature vector plus seeded noise, not from hash-random
labels, so a forest can learn them and its trees stay a realistic size.
With ``trips`` = sum over nesting levels of the known trip count, plus 64
for each symbolic level, the latent score is::

    z = 0.8 * (log2(1 + trips) - 6.7)
      + 0.2 * (loop_num_arith_ops - 9)
      - 0.9 * (loop_num_branches - 1)
      + 0.6 * (loop_num_arrays - 1.4)
      + Z_SHIFT

    ratio_clean = 0.35 + 0.65 / (1 + exp(z))       # t_aggr / t_basic
    ratio       = ratio_clean * exp(SIGMA * g)     # g ~ N(0, 1), seeded per function

Long, arithmetic-heavy, array-heavy loop nests gain most from ``-O3``
(low ratio, "hard"); branchy or short code gains little ("easy").
``t_basic`` grows with trips and arithmetic; ``t_aggr = t_basic * ratio``.
The label is the labeler's own ratio rule (easy iff ratio > delta = 0.8).
Z_SHIFT centres the rule so that about half the functions are hard, and
SIGMA = 0.05 flips about 6% of labels against the noiseless rule; the
benchmark prints both figures for every generated corpus.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from opttriage import FeatureSchema, compute_max_depth, extract, forest, parse_unit
from opttriage.labeler import LabelerConfig, label_corpus, label_from_ratio
from opttriage.manifest import CorpusManifest, ManifestRow, function_id
from opttriage.synthgen import GenConfig, generate

SIGMA = 0.05
Z_SHIFT = -0.8
DELTA = LabelerConfig().delta
N_TREES = 25
CV_FOLDS = 5
TRIAGE_MODEL_SEED = 4242  # the triage workload's fixed pre-trained model

# Work per workload. "full" is what BENCHMARK.json runs; "tiny" is for the
# benchmark's self-test.
SIZES = {
    "full": {
        "fit_functions": 2000,
        "triage_files": 100,
        "triage_functions": 1200,
        "triage_model_functions": 2000,
        "cli_functions": 100,
        "label_functions": 8,
    },
    "tiny": {
        "fit_functions": 120,
        "triage_files": 6,
        "triage_functions": 60,
        "triage_model_functions": 120,
        "cli_functions": 24,
        "label_functions": 2,
    },
}

# Reduced real-compiler labeling: short calibrated runs over small arrays,
# so every kernel lands in the calibrated regime instead of one long call.
LABEL_CONFIG = {"min_runtime_s": 0.02, "repetitions": 3, "array_extent": 64}

# Statements outside the supported C subset, one planted per invalid
# triage function; each must end in a "parse:" quarantine.
UNSUPPORTED = (
    "while (n > 0) { n = n - 1; }",
    "do { n = n - 1; } while (n > 0);",
    "double t;",
    "switch (n) { }",
    "goto done;",
    "break;",
)
INVALID_SHARE = 0.1


def fake_ratio(schema: FeatureSchema, values, noise: float) -> tuple[float, float, float]:
    """(t_basic, clean ratio, noisy ratio) for one feature vector."""
    g = lambda name: float(values[schema.index(name)])  # noqa: E731
    trips = sum(
        g(f"niter_known_{lvl}") + 64.0 * g(f"niter_symbolic_{lvl}")
        for lvl in range(schema.max_depth)
    )
    arith = g("loop_num_arith_ops")
    z = (
        0.8 * (math.log2(1.0 + trips) - 6.7)
        + 0.2 * (arith - 9.0)
        - 0.9 * (g("loop_num_branches") - 1.0)
        + 0.6 * (g("loop_num_arrays") - 1.4)
        + Z_SHIFT
    )
    clean = 0.35 + 0.65 / (1.0 + math.exp(z))
    t_basic = 1e-6 * (1.0 + trips) * (1.0 + arith)
    return t_basic, clean, clean * math.exp(SIGMA * noise)


@dataclass
class TimerTable:
    table: dict  # function id -> [t_basic, t_aggr]
    hard_share: float
    flip_rate: float


def timer_table(ids, rows, schema: FeatureSchema, seed: int) -> TimerTable:
    table = {}
    hard = flips = 0
    for fid, values in zip(ids, rows):
        noise = random.Random(f"timer:{seed}:{fid}").gauss(0.0, 1.0)
        t_basic, clean, ratio = fake_ratio(schema, values, noise)
        table[fid] = [t_basic, t_basic * ratio]
        label = label_from_ratio(1.0, ratio, DELTA)
        hard += label == "hard"
        flips += label != label_from_ratio(1.0, clean, DELTA)
    n = max(1, len(table))
    return TimerTable(table, hard / n, flips / n)


def table_timer(table: dict):
    """The same lookup the CLI's --fake-timer performs, for library calls."""

    def timer(fn_id, _fn):
        entry = table.get(fn_id)
        return None if entry is None else (float(entry[0]), float(entry[1]))

    return timer


@dataclass
class Corpus:
    units: list  # SourceUnit, one function each, in generator order
    fns: list  # FunctionUnit
    ids: list
    schema: FeatureSchema
    rows: np.ndarray


def synthetic_corpus(seed: int, n: int) -> Corpus:
    """Generate n kernels and extract their vectors under a fitted schema."""
    units = generate(GenConfig(seed=seed, n_functions=n))
    fns = []
    for unit in units:
        parsed, _ = parse_unit(unit, strict=True)
        fns.extend(parsed)
    schema = FeatureSchema(compute_max_depth(fns))
    rows = np.stack([extract(fn, schema).values for fn in fns])
    ids = [function_id(u.path, fn.name) for u, fn in zip(units, fns)]
    return Corpus(units, fns, ids, schema, rows)


def labeled_manifest(corpus: Corpus, timers: TimerTable) -> CorpusManifest:
    """The manifest `extract` + `label --fake-timer` would write, built in-process."""
    results = label_corpus(
        list(zip(corpus.ids, corpus.fns)), LabelerConfig(), timer=table_timer(timers.table)
    )
    rows = [
        ManifestRow(
            function_id=fid,
            source_path=unit.path,
            feature_values=[float(v) for v in values],
            timing=res.timing,
            label=res.label,
            quarantine_reason=res.quarantine_reason,
        )
        for fid, unit, values, res in zip(corpus.ids, corpus.units, corpus.rows, results)
    ]
    return CorpusManifest(rows=rows, schema=corpus.schema)


def training_table(manifest: CorpusManifest):
    """(x_rows, y, ids) of the labeled rows, as the CLI's train command builds it."""
    rows = [r for r in manifest.rows if r.label is not None and r.feature_values is not None]
    x = np.array([r.feature_values for r in rows], dtype=np.float64)
    y = np.array([forest.LABEL_NAMES.index(r.label) for r in rows], dtype=np.int8)
    return x, y, [r.function_id for r in rows]


# ----------------------------------------------------------------- triage


def file_sizes(n_files: int, n_functions: int, rng: random.Random) -> list[int]:
    """Functions per file: a fixed ramp from small to ~6x larger, seeded order.

    The multiset of sizes depends only on the totals, so every seed sees
    the same spread of file sizes and only the content changes.
    """
    weights = [1.0 + 5.0 * k / max(1, n_files - 1) for k in range(n_files)]
    scale = n_functions / sum(weights)
    sizes = [max(1, int(w * scale)) for w in weights]
    sizes[-1] += n_functions - sum(sizes)
    rng.shuffle(sizes)
    return sizes


def plant_unsupported(text: str, rng: random.Random) -> str:
    """Insert one unsupported statement at the end of some block of the function."""
    lines = text.rstrip("\n").split("\n")
    ends = [i for i, line in enumerate(lines) if line.strip() == "}"]
    at = rng.choice(ends)
    indent = lines[at][: len(lines[at]) - len(lines[at].lstrip())] + "    "
    lines.insert(at, indent + rng.choice(UNSUPPORTED))
    return "\n".join(lines) + "\n"


@dataclass
class TriageFile:
    path: str
    text: str
    valid: list  # names of functions that parse
    invalid: list  # names of functions with a planted unsupported construct


def triage_sources(seed: int, n_files: int, n_functions: int):
    """Multi-function files plus the clean standalone units of the valid functions."""
    rng = random.Random(f"triage:{seed}")
    units = generate(GenConfig(seed=seed, n_functions=n_functions))
    invalid = set(rng.sample(range(n_functions), round(INVALID_SHARE * n_functions)))
    files = []
    clean = []  # (file path, SourceUnit) of every valid function
    at = 0
    for k, size in enumerate(file_sizes(n_files, n_functions, rng)):
        path = f"tu_{k:03d}.c"
        texts, good, bad = [], [], []
        for i in range(at, at + size):
            name = units[i].path[: -len(".c")]
            if i in invalid:
                texts.append(plant_unsupported(units[i].text, rng))
                bad.append(name)
            else:
                texts.append(units[i].text)
                good.append(name)
                clean.append((path, units[i]))
        at += size
        files.append(TriageFile(path, "\n".join(texts), good, bad))
    return files, clean


def standalone_vectors(clean, schema: FeatureSchema):
    """(function ids, rows) of the valid triage functions, each parsed on its own."""
    ids, rows = [], []
    for path, unit in clean:
        (fn,), _ = parse_unit(unit, strict=True)
        ids.append(function_id(path, fn.name))
        rows.append(extract(fn, schema).values)
    return ids, np.stack(rows)


def reference_predictions(model, ids, rows) -> dict:
    """function id -> (label, votes) as a classification report gives them,
    computed with predict_batch."""
    labels, votes = forest.predict_batch(model, rows)
    return {
        fid: (forest.LABEL_NAMES[int(lab)], {"easy": model.n_trees - int(v), "hard": int(v)})
        for fid, lab, v in zip(ids, labels, votes)
    }
