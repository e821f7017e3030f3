"""Labeling tests: the ratio rule, medians, drivers, and quarantine paths.

Everything except the integration block runs without a compiler by
injecting a timer.
"""

import itertools
import re
import statistics
import subprocess
import threading
from pathlib import Path

import pytest

from opttriage import SourceUnit, labeler, parse_unit
from opttriage.labeler import (
    VARIANTS,
    CompileError,
    DriverError,
    LabelerConfig,
    RunError,
    compile_variant,
    label_corpus,
    label_from_ratio,
    measure,
    synthesize_driver,
)
from opttriage.manifest import (
    CorpusManifest, ManifestRow, TimingRecord, dumps_manifest, loads_manifest,
)

from opttriage.synthgen import GenConfig, generate

from conftest import DATA, parse_one, requires_compiler

FAST_CFG = LabelerConfig(repetitions=3, min_runtime_s=0.01, array_extent=64)


def _simple_fn(name="saxpy"):
    return parse_one(
        "void %s(int n, float x[N], float y[N]) {\n"
        "  for (int i = 0; i < n; i++) y[i] = y[i] + 2.0 * x[i];\n"
        "}" % name,
        path=f"{name}.c",
    )


# ------------------------------------------------------------------ rule + math


def test_delta_rule_table():
    # (t_basic, t_aggr, delta) -> label; ratio == delta is hard (strict >)
    cases = [
        (1.0, 0.9, 0.8, "easy"),
        (1.0, 0.81, 0.8, "easy"),
        (1.0, 0.8, 0.8, "hard"),
        (1.0, 0.79, 0.8, "hard"),
        (1.0, 0.2, 0.8, "hard"),
        (2.0, 1.9, 0.8, "easy"),
        (2.0, 1.6, 0.8, "hard"),
        (1.0, 1.1, 0.8, "easy"),
        (1.0, 1.0, 1.0, "hard"),
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
    assert len(cases) == 20
    for t_basic, t_aggr, delta, want in cases:
        assert label_from_ratio(t_basic, t_aggr, delta) == want, (t_basic, t_aggr, delta)


def test_label_from_ratio_validates():
    with pytest.raises(ValueError):
        label_from_ratio(0.0, 1.0, 0.8)
    with pytest.raises(ValueError):
        label_from_ratio(1.0, -1.0, 0.8)
    with pytest.raises(ValueError):
        label_from_ratio(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        label_from_ratio(1.0, 1.0, 1.5)


def test_timing_record_uses_median():
    basic = [3.0, 1.0, 2.0]
    aggr = [0.9, 1.1, 1.0]
    rec = TimingRecord(basic, aggr)
    assert rec.t_basic == statistics.median(basic) == 2.0
    assert rec.t_aggr == 1.0
    assert rec.ratio == 0.5
    assert rec.samples_basic == (3.0, 1.0, 2.0)


def test_timing_record_round_trip():
    rec = TimingRecord([1.0, 2.0, 3.0], [0.5, 0.6, 0.7])
    assert TimingRecord.from_dict(rec.to_dict()) == rec


def test_timing_record_rejects_nonpositive():
    with pytest.raises(ValueError):
        TimingRecord([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize(
    "basic, aggr, message",
    [
        ([1.0, float("nan"), 1.0], [1.0], "timings must be finite"),
        ([1.0], [float("inf")], "timings must be finite"),
        ([1.0, -1.0, 2.0], [1.0], "timings must be positive"),
        ([], [1.0], "no timing samples"),
        ([1e-300], [1e300], "timing ratio is not finite"),
    ],
    ids=["nan-sample", "inf-sample", "negative-sample", "no-samples", "ratio-overflow"],
)
def test_timing_record_checks_every_sample(basic, aggr, message):
    with pytest.raises(ValueError, match=message):
        TimingRecord(basic, aggr)


@pytest.mark.parametrize("key", ["t_basic", "t_aggr", "ratio"])
def test_timing_record_from_dict_rejects_stored_values_its_samples_disagree_with(key):
    doc = TimingRecord([1.0, 2.0, 3.0], [0.5, 0.6, 0.7]).to_dict()
    doc[key] = 123.0
    with pytest.raises(ValueError, match=f"timing {key} 123.0 disagrees with its samples"):
        TimingRecord.from_dict(doc)


# --------------------------------------------------------------------- config


def test_config_rejects_even_repetitions():
    with pytest.raises(ValueError):
        LabelerConfig(repetitions=4)


def test_config_rejects_bad_delta():
    with pytest.raises(ValueError):
        LabelerConfig(delta=0.0)
    with pytest.raises(ValueError):
        LabelerConfig(delta=1.2)


def test_config_requires_command_placeholders():
    with pytest.raises(ValueError):
        LabelerConfig(compiler_cmd="cc -o out")


def test_config_round_trip_and_unknown_keys():
    cfg = LabelerConfig(delta=0.7, flags_aggr=("-O3", "-march=native"))
    assert LabelerConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown"):
        LabelerConfig.from_dict({"delt": 0.7})


@pytest.mark.parametrize("key", ["flags_basic", "flags_aggr"])
def test_config_rejects_flags_that_are_not_a_sequence_of_strings(key):
    with pytest.raises(ValueError, match=key):
        LabelerConfig.from_dict({key: "-O3"})  # would otherwise split into characters
    with pytest.raises(ValueError, match=key):
        LabelerConfig.from_dict({key: [3]})
    with pytest.raises(ValueError, match=key):
        LabelerConfig(**{key: ["-O3"]})
    with pytest.raises(ValueError, match=key):
        LabelerConfig(**{key: ("-O3", None)})


# One value of the wrong JSON type per field; each used to load.
BAD_FIELD_TYPES = {
    "repetitions": 3.0,
    "array_extent": 64.5,
    "rng_seed": "x",
    "delta": "0.8",
    "timeout_s": True,
    "min_runtime_s": True,
    "compiler_cmd": ["cc", "{flags}", "-o", "{output}", "{source}"],
    "workdir": 5,
}


@pytest.mark.parametrize("key", BAD_FIELD_TYPES)
def test_config_rejects_a_field_of_the_wrong_type(key):
    with pytest.raises(ValueError, match=key):
        LabelerConfig.from_dict({key: BAD_FIELD_TYPES[key]})
    with pytest.raises(ValueError, match=key):
        LabelerConfig(**{key: BAD_FIELD_TYPES[key]})


def test_config_accepts_int_seconds_and_a_null_workdir():
    cfg = LabelerConfig.from_dict(
        {"delta": 1, "timeout_s": 5, "min_runtime_s": 0, "workdir": None}
    )
    assert (cfg.delta, cfg.timeout_s, cfg.min_runtime_s, cfg.workdir) == (1, 5, 0, None)


# --------------------------------------------------------------------- driver


def test_driver_contains_measurement_guards():
    code = synthesize_driver([(0, _simple_fn())], FAST_CFG)
    assert "setvbuf(stdout, NULL, _IOLBF, 0);" in code  # a crash keeps what was printed
    assert "static volatile int ot_k0_s0 = 64;" in code  # scalar args defeat constant folding
    assert '__asm__ __volatile__("" ::: "memory")' in code
    assert "checksum" in code
    assert "rng_next" in code  # deterministic data fill
    assert "CLOCK_MONOTONIC" in code
    # both renamed variants of the kernel, declared and never defined here,
    # their parameters unnamed
    assert "void ot_k0_basic(int, float[64], float[64]);" in code
    assert "void ot_k0_aggr(int, float[64], float[64]);" in code
    assert "static float ot_k0_g1[64];" in code and "static float ot_k0_g2[64];" in code
    assert "saxpy" not in code.replace("/* kernel 0: saxpy */", "")
    # one calibration routine for every variant, then the repetitions alternate
    assert code.count("for (;;)") == 1
    assert code.count("calls *= 2;") == 1
    assert "target / 16.0" in code and "1.1 * target / elapsed" in code
    assert code.count(f"for (int rep = 0; rep < {FAST_CFG.repetitions}; rep++)") == 1
    assert code.count("for (int rep") == 1
    assert code.count('printf("running') == 3  # announced before verify, calibrate, each batch
    assert code.count('printf("per_call_seconds') == 1
    assert code.count('printf("rep_checksum %s %.6e\\n", ot_variants[v], h->checksum());') == 1
    assert code.count('printf("checksum') == 1
    # verification is a batch of one call: the kernel's calls are written once
    assert code.count("ot_k0_basic(ot_k0_s0, ot_k0_g1, ot_k0_g2);") == 1
    assert "ot_k0_batch(ot_aggr, 1);" in code


def test_driver_holds_one_harness_per_kernel_with_literal_sizes():
    wide = parse_one("void g(float a[M][N]) { for (int i = 0; i < M; i++) a[i][0] = 1.0; }")
    code = synthesize_driver([(0, _simple_fn()), (3, wide)], FAST_CFG)
    assert "{0, ot_k0_verify, ot_k0_batch, ot_k0_checksum}," in code
    assert "{3, ot_k3_verify, ot_k3_batch, ot_k3_checksum}," in code
    first, second = code.split("/* kernel 3: g */")
    assert "#define" not in code and "#undef" not in code
    assert "void ot_k0_basic(int, float[64], float[64]);" in first
    assert "void ot_k3_basic(float[64][64]);" in second
    assert "static float ot_k3_g0[64][64];" in second


def test_driver_writes_symbolic_extent_as_its_size():
    code = synthesize_driver([(0, _simple_fn())], FAST_CFG)
    assert "for (long ot_i0 = 0; ot_i0 < 64; ot_i0++) ot_k0_g1[ot_i0] = (float)ot_rng_next();" in code
    assert "N" not in code.split("/* kernel 0: saxpy */")[1].split("struct ot_harness")[0]


def test_driver_respects_minimum_extent():
    fn = parse_one(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < 100; i++) a[i] = a[i] + 1.0;\n"
        "}"
    )
    code = synthesize_driver([(0, fn)], FAST_CFG)  # cfg extent 64 is too small
    assert "void ot_k0_basic(int, float[100]);" in code
    assert "static volatile int ot_k0_s0 = 100;" in code
    assert "static float ot_k0_g1[100];" in code


def test_driver_accepts_names_the_driver_uses():
    # no name of the kernel reaches the driver, so none can collide with one of its own
    fn = parse_one("void f(float a[ot_n]) { for (int i = 0; i < ot_n; i++) a[i] = 1.0; }")
    code = synthesize_driver([(0, fn)], FAST_CFG)
    assert not re.search(r"\bot_n\b", code) and "void ot_k0_basic(float[64]);" in code
    # the kernel's own name never reaches the driver: its objects are renamed
    assert "int main(int argc" in synthesize_driver([(0, parse_one("void main(int n) { }"))], FAST_CFG)


C_KEYWORDS = frozenset(
    "auto break case char const continue default do double else enum extern float for goto if "
    "inline int long register restrict return short signed sizeof static struct switch typedef "
    "union unsigned void volatile while __asm__ __volatile__".split()
)


def _identifiers(code: str) -> set:
    """The identifiers of C code, outside comments, string literals and numbers."""
    code = re.sub(r"/\*.*?\*/|//[^\n]*", " ", code, flags=re.S)
    code = re.sub(r'"(?:\\.|[^"\\])*"', " ", code)
    code = re.sub(r"(?<![\w.])\.?\d(?:[eEpP][+-]|[\w.])*", " ", code)
    return set(re.findall(r"[A-Za-z_]\w*", code))


def test_harnesses_name_nothing_of_the_kernel():
    units = generate(GenConfig(seed=1, n_functions=500))
    units += [SourceUnit(p.name, p.read_text()) for p in sorted(DATA.glob("*.c"))]
    functions = [fn for unit in units for fn in parse_unit(unit)[0]]
    assert len(functions) > 500
    for k, fn in enumerate(functions):
        names = _identifiers(labeler._harness(k, fn, LabelerConfig()))
        assert {n for n in names if n not in C_KEYWORDS and not n.startswith("ot_")} == set(), fn.name
    assert _identifiers('/* f */ x = 1.5f + 20ULL + 1e-9 + "y z";') == {"x"}


def test_driver_rejects_functions_without_source():
    import dataclasses

    bare = dataclasses.replace(_simple_fn(), source_text="")
    with pytest.raises(DriverError):
        synthesize_driver([(0, bare)], FAST_CFG)


# ----------------------------------------------------------------- fake timers


def test_label_corpus_with_timer():
    fns = [("a.c::f", _simple_fn("f")), ("b.c::g", _simple_fn("g"))]

    def timer(fn_id, fn):
        return (1.0, 0.9) if fn_id == "a.c::f" else (1.0, 0.3)

    results = label_corpus(fns, FAST_CFG, timer=timer)
    by_id = {r.function_id: r for r in results}
    assert by_id["a.c::f"].label == "easy"
    assert by_id["b.c::g"].label == "hard"
    assert by_id["a.c::f"].timing.ratio == pytest.approx(0.9)
    # a timer reading stands in for every repetition
    assert len(by_id["a.c::f"].timing.samples_basic) == FAST_CFG.repetitions


def test_label_corpus_timer_without_entry_quarantines():
    results = label_corpus([("a.c::f", _simple_fn("f"))], FAST_CFG, timer=lambda i, f: None)
    assert results[0].label is None
    assert results[0].timing is None
    assert "timer" in results[0].quarantine_reason


def test_label_corpus_timer_exception_quarantines():
    def bad_timer(fn_id, fn):
        raise RuntimeError("clock skew")

    results = label_corpus([("a.c::f", _simple_fn("f"))], FAST_CFG, timer=bad_timer)
    assert results[0].quarantine_reason.startswith("timer:")
    assert "clock skew" in results[0].quarantine_reason


def test_label_corpus_bad_timing_values_quarantine():
    results = label_corpus(
        [("a.c::f", _simple_fn("f"))], FAST_CFG, timer=lambda i, f: (0.0, 1.0)
    )
    assert results[0].label is None
    assert results[0].quarantine_reason is not None


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_label_corpus_non_finite_timer_reading_quarantines(bad):
    fns = [("a.c::f", _simple_fn("f")), ("b.c::g", _simple_fn("g")), ("c.c::h", _simple_fn("h"))]
    results = label_corpus(
        fns, FAST_CFG, timer=lambda i, f: (1.0, bad) if i == "b.c::g" else (1.0, 0.5)
    )
    assert [r.label for r in results] == ["hard", None, "hard"]
    assert results[1].timing is None
    assert results[1].quarantine_reason == "timer: timings must be finite"


def test_label_corpus_timer_reading_of_the_wrong_shape_quarantines():
    (res,) = label_corpus([("a.c::f", _simple_fn("f"))], FAST_CFG, timer=lambda i, f: (1.0,))
    assert res.quarantine_reason == "timer: not enough values to unpack (expected 2, got 1)"


def test_label_corpus_preserves_order_and_ids():
    fns = [(f"x.c::k{i}", _simple_fn(f"k{i}")) for i in range(5)]
    results = label_corpus(fns, FAST_CFG, timer=lambda i, f: (1.0, 1.0))
    assert [r.function_id for r in results] == [fid for fid, _ in fns]


def test_label_corpus_rows_round_trip_through_a_manifest():
    fns = [("a.c::f", _simple_fn("f")), ("b.c::g", _simple_fn("g")), ("c.c::h", _simple_fn("h"))]
    timings = {"a.c::f": (1.0, 0.9), "c.c::h": (1.0, 0.3)}  # no entry quarantines b.c::g
    rows = label_corpus(fns, FAST_CFG, timer=lambda i, f: timings.get(i))
    assert all(type(r) is ManifestRow for r in rows)
    assert [r.quarantine_reason for r in rows] == [None, "timer: no timing entry", None]
    assert loads_manifest(dumps_manifest(CorpusManifest(rows=rows))).rows == rows


def test_label_corpus_rejects_empty():
    with pytest.raises(ValueError):
        label_corpus([], FAST_CFG, timer=lambda i, f: (1.0, 1.0))


def test_label_corpus_delta_changes_labels():
    fns = [("a.c::f", _simple_fn("f"))]
    timer = lambda i, f: (1.0, 0.7)  # noqa: E731
    low = label_corpus(fns, LabelerConfig(delta=0.6, repetitions=3), timer=timer)
    high = label_corpus(fns, LabelerConfig(delta=0.9, repetitions=3), timer=timer)
    assert low[0].label == "easy"
    assert high[0].label == "hard"


# -------------------------------------------------------------------- measure


def _fake_binary(tmp_path, stdout, exit_code=0, name="fake.bin"):
    """An executable shell script standing in for a compiled driver.

    ``stdout`` is what it prints for every kernel, or a dict of what it
    prints per kernel argument.
    """
    outputs = stdout if isinstance(stdout, dict) else {"*": stdout}
    cases = "".join(f"{k}) cat <<'EOF'\n{text}EOF\n;;\n" for k, text in outputs.items())
    script = tmp_path / name
    script.write_text(f'#!/bin/sh\ncase "$1" in\n{cases}esac\nexit {exit_code}\n')
    script.chmod(0o755)
    return script


_GOOD = {"samples": (1e-6, 2e-6, 3e-6), "rep_checksums": ("4.0e+02",) * 3, "checksums": ("1.5e+01",)}


def _driver_output(basic=None, aggr=None):
    """What a driver prints for one kernel; ``basic``/``aggr`` override a variant's lines."""
    spec = {"basic": {**_GOOD, **(basic or {})}, "aggr": {**_GOOD, **(aggr or {})}}
    lines = []
    for v in VARIANTS:
        lines += [f"running {v}"] + [f"checksum {v} {c}" for c in spec[v]["checksums"]]
    for v in VARIANTS:
        lines += [f"running {v}", f"calls {v} 1024"]
    batches = {v: list(itertools.zip_longest(spec[v]["samples"], spec[v]["rep_checksums"])) for v in VARIANTS}
    for rep in range(max(map(len, batches.values()))):
        for v in VARIANTS:
            if rep < len(batches[v]):
                s, c = batches[v][rep]
                lines.append(f"running {v}")
                lines += [f"per_call_seconds {v} {s!r}"] if s is not None else []
                lines += [f"rep_checksum {v} {c}"] if c is not None else []
    return "\n".join(lines) + "\n"


def test_measure_parses_one_sample_per_repetition_from_one_launch(tmp_path, monkeypatch):
    binary = _fake_binary(tmp_path, _driver_output(aggr={"samples": (4e-6, 5e-6, 6e-6)}))
    launches = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        launches.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr("opttriage.labeler.subprocess.run", counting_run)
    result = measure(binary, 7, FAST_CFG)
    assert result["basic"].samples == (1e-6, 2e-6, 3e-6)
    assert result["aggr"].samples == (4e-6, 5e-6, 6e-6)
    assert result["basic"].checksum == result["aggr"].checksum == "1.5e+01"
    assert launches == [[str(binary), "7"]]  # both variants of kernel 7 in one launch


@pytest.mark.parametrize(
    "stdout, exit_code, message, variant",
    [
        (_driver_output(aggr={"samples": (1e-6, 2e-6)}), 0, "malformed driver output", "aggr"),
        (_driver_output(basic={"samples": (1e-6,) * 5}), 0, "malformed driver output", "basic"),
        (_driver_output(basic={"checksums": ()}), 0, "malformed driver output", "basic"),
        (_driver_output(aggr={"checksums": ("1.5e+01", "1.6e+01")}), 0, "malformed driver output", "aggr"),
        (_driver_output(basic={"rep_checksums": ("4.0e+02",) * 2}), 0, "malformed driver output", "basic"),
        (_driver_output(aggr={"samples": (1e-6, "fast", 3e-6)}), 0, "malformed driver output", "aggr"),
        (
            _driver_output(aggr={"rep_checksums": ("4.0e+02", "4.0e+02", "4.1e+02")}),
            0,
            r"checksum varies across batches of aggr: \['4.0e\+02', '4.1e\+02'\]",
            "aggr",
        ),
        (_driver_output(), 3, "binary exited with 3", "aggr"),  # the last variant announced
        (_driver_output(basic={"samples": (1e-6, float("nan"), 3e-6)}), 0, "malformed driver output", "basic"),
        (_driver_output(aggr={"samples": (1e-6, float("inf"), 3e-6)}), 0, "malformed driver output", "aggr"),
        (_driver_output(basic={"samples": (1e-6, 0.0, 3e-6)}), 0, "malformed driver output", "basic"),
        (_driver_output(aggr={"samples": (1e-6, -2e-6, 3e-6)}), 0, "malformed driver output", "aggr"),
    ],
    ids=[
        "fewer-samples",
        "more-samples",
        "no-checksum",
        "two-checksums",
        "fewer-rep-checksums",
        "unparseable-sample",
        "rep-checksums-differ",
        "non-zero-exit",
        "nan-sample",
        "inf-sample",
        "zero-sample",
        "negative-sample",
    ],
)
def test_measure_rejects_bad_driver_runs(tmp_path, stdout, exit_code, message, variant):
    with pytest.raises(RunError, match=message) as caught:
        measure(_fake_binary(tmp_path, stdout, exit_code), 0, FAST_CFG)
    assert caught.value.variant == variant


def test_measure_checks_basic_before_aggr(tmp_path):
    both_bad = _driver_output(basic={"samples": (1e-6,)}, aggr={"samples": (1e-6,)})
    with pytest.raises(RunError, match="basic printed 1 checksums, 1 samples") as caught:
        measure(_fake_binary(tmp_path, both_bad), 0, FAST_CFG)
    assert caught.value.variant == "basic"


def test_measure_rejects_a_short_sample_count_of_one_variant(tmp_path):
    short = _driver_output(aggr={"samples": (1e-6, 2e-6), "rep_checksums": ("4.0e+02",) * 2})
    with pytest.raises(RunError) as caught:
        measure(_fake_binary(tmp_path, short), 0, FAST_CFG)
    assert caught.value.variant == "aggr"
    assert str(caught.value) == (
        "malformed driver output: aggr printed 1 checksums, 2 samples and 2 batch checksums, "
        "not 1, 3 and 3"
    )


def _cut_at_aggr_batch(text):
    """Driver output up to and including the first timed aggr announcement."""
    head, _, _ = text.partition("per_call_seconds aggr")
    return head


def test_measure_charges_a_crash_to_the_variant_running(tmp_path):
    script = tmp_path / "dies.bin"
    script.write_text(
        f"#!/bin/sh\ncat <<'EOF'\n{_cut_at_aggr_batch(_driver_output())}EOF\nkill -SEGV $$\n"
    )
    script.chmod(0o755)
    with pytest.raises(RunError, match="binary exited with -11") as caught:
        measure(script, 0, FAST_CFG)
    assert caught.value.variant == "aggr"


def test_measure_charges_a_timeout_to_the_variant_running(tmp_path):
    script = tmp_path / "hangs.bin"
    script.write_text(
        f"#!/bin/sh\ncat <<'EOF'\n{_cut_at_aggr_batch(_driver_output())}EOF\nexec sleep 30\n"
    )
    script.chmod(0o755)
    cfg = LabelerConfig(repetitions=3, timeout_s=0.5)
    with pytest.raises(RunError, match="run timed out after 0.5s") as caught:
        measure(script, 0, cfg)
    assert caught.value.variant == "aggr"


def test_measure_times_out_the_one_launch(tmp_path):
    script = tmp_path / "slow.bin"
    script.write_text("#!/bin/sh\nexec sleep 30\n")
    script.chmod(0o755)
    cfg = LabelerConfig(repetitions=3, timeout_s=0.2)
    with pytest.raises(RunError, match="run timed out after 0.2s") as caught:
        measure(script, 0, cfg)
    assert caught.value.variant == "basic"  # nothing announced: charged to the first


def test_measure_reports_a_binary_that_cannot_start(tmp_path):
    not_executable = tmp_path / "plain.bin"
    not_executable.write_text(_driver_output())
    with pytest.raises(RunError, match="cannot run binary"):
        measure(not_executable, 0, FAST_CFG)


# ------------------------------------------------------ label_corpus call shape


def _fake_toolchain(monkeypatch, outputs=None, fail=()):
    """Stand-ins for compile_variant and measure that record what ran.

    Returns the events: kernel objects and driver builds as ("compile",
    stem, start, end), launches as ("run", kernel, start, end).
    A build whose stem is in ``fail``, or whose source contains an entry
    of it, raises CompileError; a driver prints ``outputs``
    (per kernel, default: a clean run) through the real ``measure``.
    """
    events = []
    real_measure = labeler.measure
    clock = itertools.count()

    def fake_compile(source, flags, cfg, workdir, stem="driver", link=None):
        start = next(clock)
        try:
            if any(bad == stem or bad in source for bad in fail):
                raise CompileError(f"{stem} failed")
            if link is None:
                return Path(workdir) / f"{stem}.o"
            return _fake_binary(Path(workdir), outputs or {"*": _driver_output()}, name=f"{stem}.bin")
        finally:
            events.append(("compile", stem, start, next(clock)))

    def fake_measure(binary, kernel, cfg):
        start = next(clock)
        try:
            return real_measure(binary, kernel, cfg)
        finally:
            events.append(("run", kernel, start, next(clock)))

    monkeypatch.setattr(labeler, "compile_variant", fake_compile)
    monkeypatch.setattr(labeler, "measure", fake_measure)
    return events


# Quarantine order of one function: compile[basic], compile[aggr], then
# run[basic] before run[aggr] within its one launch. Every compile ends
# before the launch.
@pytest.mark.parametrize(
    "failing, reason",
    [
        ({"compile basic", "compile aggr"}, "compile[basic]: "),
        ({"compile aggr", "run basic"}, "compile[aggr]: "),
        ({"run basic", "run aggr"}, "run[basic]: "),
        ({"run aggr"}, "run[aggr]: "),
    ],
)
def test_label_quarantine_order(tmp_path, monkeypatch, failing, reason):
    bad = {"samples": (1e-6, float("nan"), 1e-6)}
    output = _driver_output(**{v: bad for v in VARIANTS if f"run {v}" in failing})
    fail = [f"ot_k0_{v}" for v in VARIANTS if f"compile {v}" in failing]
    events = _fake_toolchain(monkeypatch, outputs={0: output}, fail=fail)
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    (result,) = label_corpus([("a.c::f", _simple_fn("f"))], cfg)
    assert result.quarantine_reason.startswith(reason)
    steps = [(kind, name) for kind, name, _, _ in events]
    assert sorted(steps[:2]) == [("compile", "ot_k0_aggr"), ("compile", "ot_k0_basic")]
    if reason.startswith("compile"):
        assert steps[2:] == []  # no driver for a kernel without objects, no launch
    else:
        assert steps[2:] == [("compile", "ot_driver"), ("run", 0)]


@pytest.mark.parametrize("bad", [float("nan"), 0.0])
@pytest.mark.parametrize("tag", ["basic", "aggr"])
def test_label_corpus_quarantines_a_bad_driver_sample(tmp_path, monkeypatch, bad, tag):
    outputs = {0: _driver_output(**{tag: {"samples": (1e-6, bad, 1e-6)}}), 1: _driver_output()}
    _fake_toolchain(monkeypatch, outputs=outputs)
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    bad_fn, good_fn = label_corpus([("a.c::f", _simple_fn("f")), ("b.c::g", _simple_fn("g"))], cfg)
    assert bad_fn.label is None and bad_fn.timing is None
    assert bad_fn.quarantine_reason.startswith(f"run[{tag}]: malformed driver output")
    assert good_fn.label == "easy" and good_fn.timing.ratio == 1.0


def test_label_corpus_quarantines_a_checksum_mismatch(tmp_path, monkeypatch):
    outputs = {0: _driver_output(aggr={"checksums": ("1.6e+01",)})}
    _fake_toolchain(monkeypatch, outputs=outputs)
    (res,) = label_corpus([("a.c::f", _simple_fn("f"))], LabelerConfig(repetitions=3, workdir=str(tmp_path)))
    assert res.quarantine_reason == "checksum mismatch between variants: basic=1.5e+01 aggr=1.6e+01"


def test_label_corpus_counts_compiles_and_launches(tmp_path, monkeypatch):
    n = 4
    events = _fake_toolchain(monkeypatch)
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    results = label_corpus([(f"k{i}.c::k", _simple_fn("k")) for i in range(n)], cfg)
    assert all(r.quarantine_reason is None for r in results)
    compiles = [e for e in events if e[0] == "compile"]
    runs = [e for e in events if e[0] == "run"]
    assert sorted(name for _, name, _, _ in compiles) == sorted(
        [f"ot_k{k}_{v}" for k in range(n) for v in VARIANTS] + ["ot_driver"]
    )
    assert [kernel for _, kernel, _, _ in runs] == list(range(n))
    assert max(end for _, _, _, end in compiles) < min(start for _, _, start, _ in runs)
    assert all(a[3] < b[2] for a, b in zip(runs, runs[1:]))  # launches one at a time


def test_label_corpus_rebuilds_a_failing_driver_per_kernel(tmp_path, monkeypatch):
    # the harness of kernel 1 breaks any driver it is part of
    events = _fake_toolchain(monkeypatch, fail=["{1, ot_k1_verify"])
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    results = label_corpus([(f"k{i}.c::k", _simple_fn("k")) for i in range(3)], cfg)
    assert [r.quarantine_reason for r in results[::2]] == [None, None]
    assert results[1].quarantine_reason == "compile[basic]: ot_k1_driver failed"
    drivers = [name for kind, name, _, _ in events if kind == "compile" and "driver" in name]
    assert drivers[0] == "ot_driver"
    assert sorted(drivers[1:]) == ["ot_k0_driver", "ot_k1_driver", "ot_k2_driver"]
    assert [kernel for kind, kernel, _, _ in events if kind == "run"] == [0, 2]


def test_label_compiles_both_variants_at_once(tmp_path, monkeypatch):
    both_compiling = threading.Barrier(2, timeout=10)  # broken if compiles run serially
    events = _fake_toolchain(monkeypatch)
    fake_compile = labeler.compile_variant

    def overlapping_compile(source, flags, cfg, workdir, stem="driver", link=None):
        if link is None:  # kernel objects meet in pairs; the one driver build comes alone
            both_compiling.wait()
        return fake_compile(source, flags, cfg, workdir, stem, link)

    monkeypatch.setattr(labeler, "compile_variant", overlapping_compile)
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    results = label_corpus([("a.c::f", _simple_fn("f")), ("b.c::g", _simple_fn("g"))], cfg)
    assert [r.quarantine_reason for r in results] == [None, None]
    assert not both_compiling.broken
    runs = [e for e in events if e[0] == "run"]
    last_compile = max(end for kind, _, _, end in events if kind == "compile")
    assert len(runs) == 2 and last_compile < runs[0][2] and runs[0][3] < runs[1][2]


# ---------------------------------------------------------------- integration


@pytest.mark.integration
@requires_compiler
def test_compile_and_measure_real_binary(tmp_path):
    fn = _simple_fn()
    objects = [
        compile_variant(fn.source_text, (*flags, f"-Dsaxpy=ot_k0_{tag}", "-DN=64"), FAST_CFG, tmp_path, f"k_{tag}")
        for tag, flags in (("basic", FAST_CFG.flags_basic), ("aggr", FAST_CFG.flags_aggr))
    ]
    assert [o.suffix for o in objects] == [".o", ".o"]
    driver = synthesize_driver([(0, fn)], FAST_CFG)
    binary = compile_variant(driver, FAST_CFG.flags_basic, FAST_CFG, tmp_path, "driver", link=objects)
    result = measure(binary, 0, FAST_CFG)
    for tag in VARIANTS:
        assert len(result[tag].samples) == FAST_CFG.repetitions
        assert all(s > 0 for s in result[tag].samples)
        assert "e" in result[tag].checksum  # scientific notation
    assert result["basic"].checksum == result["aggr"].checksum
    with pytest.raises(RunError, match="binary exited with 2: usage"):
        measure(binary, 1, FAST_CFG)  # no harness for kernel 1


@pytest.mark.integration
@requires_compiler
def test_compile_error_carries_stderr(tmp_path):
    with pytest.raises(CompileError, match="nope_not_defined") as caught:
        compile_variant(
            "int main(void) { return nope_not_defined; }\n", ("-O1",), FAST_CFG, tmp_path
        )
    message = str(caught.value)
    assert "\n" not in message and str(tmp_path) not in message, message
    assert str(tmp_path) in caught.value.stderr  # the full text, paths and all, stays


@pytest.mark.integration
@requires_compiler
def test_a_compile_quarantine_reason_is_the_first_error_line_without_the_workdir():
    # the kernel parses, but cc refuses its float subscript; the workdir is
    # a fresh temporary directory, whose random name the reason must not carry
    text = (DATA / "literal_subscripts.c").read_text()
    units, _ = parse_unit(SourceUnit("literal_subscripts.c", text))
    (fn,) = [unit for unit in units if unit.name == "float_and_negative"]
    cfg = LabelerConfig(repetitions=3, min_runtime_s=0.01, array_extent=64)
    (res,) = label_corpus([("literal_subscripts.c::float_and_negative", fn)], cfg)
    reason = res.quarantine_reason
    assert reason.startswith("compile[basic]: compiler exited with 1: ot_k0_basic.c:"), reason
    assert reason.endswith("error: array subscript is not an integer"), reason
    assert "\n" not in reason


@pytest.mark.integration
@requires_compiler
def test_label_corpus_real_compiler_end_to_end(tmp_path):
    cfg = LabelerConfig(
        repetitions=3, min_runtime_s=0.02, array_extent=128, workdir=str(tmp_path)
    )
    results = label_corpus([("saxpy.c::saxpy", _simple_fn())], cfg)
    res = results[0]
    assert res.quarantine_reason is None, res.quarantine_reason
    assert res.label in ("easy", "hard")
    assert res.timing.ratio > 0.0
    assert len(res.timing.samples_basic) == 3


@pytest.mark.integration
@requires_compiler
def test_label_corpus_quarantines_a_failing_aggressive_compile(tmp_path):
    cfg = LabelerConfig(
        repetitions=3,
        min_runtime_s=0.01,
        array_extent=64,
        flags_aggr=("-fno-such-flag",),
        workdir=str(tmp_path),
    )
    (res,) = label_corpus([("saxpy.c::saxpy", _simple_fn())], cfg)
    assert res.quarantine_reason.startswith("compile[aggr]: "), res.quarantine_reason
    assert "no-such-flag" in res.quarantine_reason
    assert (tmp_path / "ot_k0_basic.o").exists()  # basic compiled
    assert not (tmp_path / "ot_k0_aggr.o").exists()


@pytest.mark.integration
@requires_compiler
def test_label_corpus_shares_one_driver_among_kernels_named_like_c_library_or_driver_names(
    tmp_path, monkeypatch
):
    # each name reached the driver once and broke it, or was refused
    sources = [
        "void plain(int n, float a[N]) { for (int i = 0; i < n; i++) a[i] = a[i] * 0.5 + 1.0; }",
        "void null_ext(float a[NULL]) { for (int i = 0; i < NULL; i++) a[i] = a[i] + 1.0; }",
        "float eof_arg(int EOF, float a[N]) { float s; s = 0.0;"
        " for (int i = 0; i < EOF; i++) s = s + a[i]; return s; }",
        "void asm_ext(float a[__asm__]) { for (int i = 0; i < __asm__; i++) a[i] = a[i] * 2.0; }",
        "void ot_ext(float a[ot_n]) { for (int i = 0; i < ot_n; i++) a[i] = 1.0; }",
    ]
    fns = [(f"k{i}.c::k", parse_one(text, path=f"k{i}.c")) for i, text in enumerate(sources)]
    drivers = []
    real_compile = labeler.compile_variant

    def counting_compile(source, flags, cfg, workdir, stem="driver", link=None):
        if link is not None:
            drivers.append(stem)
        return real_compile(source, flags, cfg, workdir, stem, link)

    monkeypatch.setattr(labeler, "compile_variant", counting_compile)
    cfg = LabelerConfig(repetitions=3, min_runtime_s=0.01, array_extent=64, workdir=str(tmp_path))
    results = label_corpus(fns, cfg)
    assert [r.quarantine_reason for r in results] == [None] * 5
    assert all(r.label in ("easy", "hard") for r in results)
    assert drivers == ["ot_driver"]


@pytest.mark.integration
@requires_compiler
def test_verification_checksum_counts_the_return_value(tmp_path):
    # a kernel that returns K and stores nothing, next to its void twin
    cfg = LabelerConfig(repetitions=1, min_runtime_s=0.0, array_extent=64)
    checksums = []
    for k, text in enumerate((
        "float f(float a[N]) { return 1000.0; }",
        "void f(float a[N]) { }",
    )):
        fn = parse_one(text)
        objects = [
            compile_variant(fn.source_text, (*flags, f"-Df=ot_k{k}_{tag}", "-DN=64"), cfg, tmp_path, f"ot_k{k}_{tag}")
            for tag, flags in (("basic", cfg.flags_basic), ("aggr", cfg.flags_aggr))
        ]
        driver = synthesize_driver([(k, fn)], cfg)
        binary = compile_variant(driver, cfg.flags_basic, cfg, tmp_path, f"ot_k{k}_driver", link=objects)
        result = measure(binary, k, cfg)
        assert result["basic"].checksum == result["aggr"].checksum
        checksums.append(float(result["basic"].checksum))
    returning, void = checksums
    assert returning - void == pytest.approx(1000.0, abs=0.01)


def _repeat_fn(name, rounds, path):
    return parse_one(
        "void %s(int n, float a[N]) {\n"
        "  for (int r = 0; r < %d; r++)\n"
        "    for (int i = 0; i < n; i++) a[i] = a[i] * 0.5 + 1.0;\n"
        "}" % (name, rounds),
        path=path,
    )


@pytest.mark.integration
@requires_compiler
def test_label_corpus_keeps_kernels_whose_ids_sanitize_alike_apart(tmp_path):
    # "a/b.c::k" and "a_b.c::k" once mapped to one file name, and all three
    # define a symbol "k"; each must still be timed on its own code
    fns = [
        ("a/b.c::k", _repeat_fn("k", 1, "a/b.c")),
        ("a_b.c::k", _repeat_fn("k", 8, "a_b.c")),
        ("c.c::k", _repeat_fn("k", 64, "c.c")),
    ]
    cfg = LabelerConfig(repetitions=3, min_runtime_s=0.01, array_extent=256, workdir=str(tmp_path))
    results = label_corpus(fns, cfg)
    assert [r.quarantine_reason for r in results] == [None, None, None]
    t_basic = [r.timing.t_basic for r in results]
    assert t_basic[0] * 3 < t_basic[1] and t_basic[1] * 3 < t_basic[2], t_basic


@pytest.mark.integration
@requires_compiler
def test_label_corpus_quarantines_only_the_kernel_cc_rejects(tmp_path):
    import dataclasses

    broken = dataclasses.replace(_simple_fn("g"), source_text="void g(int n) { this is not C }\n")
    fns = [("a.c::f", _simple_fn("f")), ("b.c::g", broken), ("c.c::h", _simple_fn("h"))]
    cfg = LabelerConfig(repetitions=3, min_runtime_s=0.01, array_extent=64, workdir=str(tmp_path))
    first, bad, last = label_corpus(fns, cfg)
    assert bad.quarantine_reason.startswith("compile[basic]: "), bad.quarantine_reason
    assert first.quarantine_reason is None and first.label in ("easy", "hard")
    assert last.quarantine_reason is None and last.label in ("easy", "hard")
