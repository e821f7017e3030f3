"""Labeling tests: the ratio rule, medians, drivers, and quarantine paths.

Everything except the integration block runs without a compiler by
injecting a timer.
"""

import itertools
import re
import statistics
import subprocess
import threading
import time
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
    synthesize_main,
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


@pytest.mark.parametrize(
    "value", [float("inf"), float("-inf"), float("nan"), 10**400], ids=["inf", "-inf", "nan", "huge-int"]
)
@pytest.mark.parametrize("key", ["delta", "timeout_s", "min_runtime_s"])
def test_config_rejects_a_non_finite_number(key, value):
    # timeout_s and min_runtime_s once loaded; the run then crashed, or its manifest digest did
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        LabelerConfig.from_dict({key: value})


@pytest.mark.parametrize("key", ["flags_basic", "flags_aggr"])
def test_config_rejects_flags_the_command_cannot_split(key):
    with pytest.raises(ValueError, match=f"{key} .*No closing quotation"):
        LabelerConfig.from_dict({key: ["-O3", "-DX='"]})


def test_a_flag_element_holding_a_space_is_two_flags(tmp_path, monkeypatch):
    cfg = LabelerConfig.from_dict({"flags_aggr": ["-O3 -march=native"]})
    argvs = []

    def fake_run(argv, **kwargs):
        argvs.append(argv)
        Path(argv[argv.index("-o") + 1]).write_text("")
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr("opttriage.labeler.subprocess.run", fake_run)
    compile_variant("void f(void) { }\n", cfg.flags_aggr, cfg, tmp_path)
    assert argvs[0][:5] == ["cc", "-ffp-contract=off", "-O3", "-march=native", "-c"]


def test_config_accepts_int_seconds_and_a_null_workdir():
    cfg = LabelerConfig.from_dict(
        {"delta": 1, "timeout_s": 5, "min_runtime_s": 0, "workdir": None}
    )
    assert (cfg.delta, cfg.timeout_s, cfg.min_runtime_s, cfg.workdir) == (1, 5, 0, None)


# --------------------------------------------------------------------- driver


def test_driver_contains_measurement_guards():
    main, unit = synthesize_main(FAST_CFG), synthesize_driver(0, _simple_fn(), FAST_CFG)
    # main holds no harness, and the kernel's unit no main
    assert "ot_k0" not in main and "main" not in _identifiers(unit)
    # main takes no argument: it runs the one harness its driver links
    assert "int main(void)" in main and "argv" not in main and "stdlib" not in main
    assert "extern const struct ot_harness ot_harness;" in main
    assert "const struct ot_harness *h = &ot_harness;" in main
    assert unit.endswith("const struct ot_harness ot_harness = {ot_k0_verify, ot_k0_batch, ot_k0_checksum};\n")
    assert "static __attribute__((noinline)) double ot_rng_next(void)" in unit
    code = main + unit
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
    # one print site per field: repetition 0 is the calibration's last batch,
    # whose checksum is taken before the other variant calibrates
    assert code.count('printf("per_call_seconds') == 1
    assert code.count('printf("rep_checksum') == 1
    assert code.count('printf("checksum') == 1
    assert code.count("h->batch(") == 2  # in the calibration and in repetitions 1 and up
    assert "double elapsed = rep ? h->batch(v, calls[v]) : first[v];" in code
    assert "rep ? h->checksum() : first_checksum[v]" in code
    assert re.search(
        r"calls\[v\] = ot_calibrate\(h, v, &first\[v\]\);\s*(/\*[^*]*\*/\s*)?"
        r"first_checksum\[v\] = h->checksum\(\);",
        code,
    )
    # verification is a batch of one call: the kernel's calls are written once
    assert code.count("ot_k0_basic(ot_k0_s0, ot_k0_g1, ot_k0_g2);") == 1
    assert "ot_k0_batch(ot_aggr, 1);" in code


def test_driver_holds_one_harness_per_kernel_with_literal_sizes():
    wide = parse_one("void g(float a[M][N]) { for (int i = 0; i < M; i++) a[i][0] = 1.0; }")
    first, second = synthesize_driver(0, _simple_fn(), FAST_CFG), synthesize_driver(3, wide, FAST_CFG)
    for k, code in ((0, first), (3, second)):
        assert code.count("/* kernel ") == 1 and code.count("ot_harness = {") == 1
        assert f"ot_harness = {{ot_k{k}_verify, ot_k{k}_batch, ot_k{k}_checksum}};" in code
        assert "#define" not in code and "#undef" not in code
    assert "ot_k3" not in first and "ot_k0" not in second
    assert "void ot_k0_basic(int, float[64], float[64]);" in first
    assert "void ot_k3_basic(float[64][64]);" in second
    assert "static float ot_k3_g0[64][64];" in second


def test_driver_writes_symbolic_extent_as_its_size():
    code = synthesize_driver(0, _simple_fn(), FAST_CFG)
    assert "for (long ot_i0 = 0; ot_i0 < 64; ot_i0++) ot_k0_g1[ot_i0] = (float)ot_rng_next();" in code
    assert "N" not in code.split("/* kernel 0: saxpy */")[1].split("struct ot_harness")[0]


def test_driver_respects_minimum_extent():
    fn = parse_one(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < 100; i++) a[i] = a[i] + 1.0;\n"
        "}"
    )
    code = synthesize_driver(0, fn, FAST_CFG)  # cfg extent 64 is too small
    assert "void ot_k0_basic(int, float[100]);" in code
    assert "static volatile int ot_k0_s0 = 100;" in code
    assert "static float ot_k0_g1[100];" in code


def test_driver_accepts_names_the_driver_uses():
    # no name of the kernel reaches the driver, so none can collide with one of its own
    fn = parse_one("void f(float a[ot_n]) { for (int i = 0; i < ot_n; i++) a[i] = 1.0; }")
    code = synthesize_driver(0, fn, FAST_CFG)
    assert not re.search(r"\bot_n\b", code) and "void ot_k0_basic(float[64]);" in code
    # the kernel's own name never reaches the driver: its objects are renamed
    assert "main" not in _identifiers(synthesize_driver(0, parse_one("void main(int n) { }"), FAST_CFG))


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
        synthesize_driver(0, bare, FAST_CFG)


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
    """An executable shell script standing in for a compiled driver: it prints ``stdout``."""
    script = tmp_path / name
    script.write_text(f"#!/bin/sh\ncat <<'EOF'\n{stdout}EOF\nexit {exit_code}\n")
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
    result = measure(binary, FAST_CFG)
    assert result["basic"].samples == (1e-6, 2e-6, 3e-6)
    assert result["aggr"].samples == (4e-6, 5e-6, 6e-6)
    assert result["basic"].checksum == result["aggr"].checksum == "1.5e+01"
    assert launches == [[str(binary)]]  # both variants in one launch, with no argument


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
        measure(_fake_binary(tmp_path, stdout, exit_code), FAST_CFG)
    assert caught.value.variant == variant


def test_measure_checks_basic_before_aggr(tmp_path):
    both_bad = _driver_output(basic={"samples": (1e-6,)}, aggr={"samples": (1e-6,)})
    with pytest.raises(RunError, match="basic printed 1 checksums, 1 samples") as caught:
        measure(_fake_binary(tmp_path, both_bad), FAST_CFG)
    assert caught.value.variant == "basic"


def test_measure_rejects_a_short_sample_count_of_one_variant(tmp_path):
    short = _driver_output(aggr={"samples": (1e-6, 2e-6), "rep_checksums": ("4.0e+02",) * 2})
    with pytest.raises(RunError) as caught:
        measure(_fake_binary(tmp_path, short), FAST_CFG)
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
        measure(script, FAST_CFG)
    assert caught.value.variant == "aggr"


def test_measure_charges_a_timeout_to_the_variant_running(tmp_path):
    script = tmp_path / "hangs.bin"
    script.write_text(
        f"#!/bin/sh\ncat <<'EOF'\n{_cut_at_aggr_batch(_driver_output())}EOF\nexec sleep 30\n"
    )
    script.chmod(0o755)
    cfg = LabelerConfig(repetitions=3, timeout_s=0.5)
    with pytest.raises(RunError, match="run timed out after 0.5s") as caught:
        measure(script, cfg)
    assert caught.value.variant == "aggr"


def test_measure_times_out_the_one_launch(tmp_path):
    script = tmp_path / "slow.bin"
    script.write_text("#!/bin/sh\nexec sleep 30\n")
    script.chmod(0o755)
    cfg = LabelerConfig(repetitions=3, timeout_s=0.2)
    with pytest.raises(RunError, match="run timed out after 0.2s") as caught:
        measure(script, cfg)
    assert caught.value.variant == "basic"  # nothing announced: charged to the first


def test_measure_reports_a_binary_that_cannot_start(tmp_path):
    not_executable = tmp_path / "plain.bin"
    not_executable.write_text(_driver_output())
    with pytest.raises(RunError, match="cannot run binary"):
        measure(not_executable, FAST_CFG)


# ------------------------------------------------------ label_corpus call shape


def _fake_toolchain(monkeypatch, outputs=None, fail=(), cpus=2):
    """Stand-ins for compile_variant and measure that record what ran.

    Returns the events: objects (``-c``) as ("compile", stem, start, end),
    driver binaries, compiled and linked, as ("link", stem, start, end),
    and launches as ("run", kernel, start, end), where start and end are
    ticks of one counter that every thread reads, and a launch's kernel is
    the one its binary's stem names (``ot_k<k>_driver``). A build whose
    stem is in ``fail``, or whose source or object list contains an entry
    of it, raises CompileError; kernel k's driver prints ``outputs[k]``
    (default: a clean run) through the real ``measure``. The process sees
    ``cpus`` usable CPUs, whatever the host has.
    """
    events = []
    real_measure = labeler.measure
    clock = itertools.count()
    monkeypatch.setattr(labeler.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    def fake_compile(source, flags, cfg, workdir, stem="driver", link=None):
        start = next(clock)
        text = source + " ".join(map(str, link or ()))
        try:
            time.sleep(0.002)  # lasts long enough to overlap a launch, where the schedule lets it
            if any(bad == stem or bad in text for bad in fail):
                raise CompileError(f"{stem} failed")
            if link is None:
                return Path(workdir) / f"{stem}.o"
            output = (outputs or {}).get(_kernel_of(stem), _driver_output())
            return _fake_binary(Path(workdir), output, name=f"{stem}.bin")
        finally:
            events.append(("compile" if link is None else "link", stem, start, next(clock)))

    def fake_measure(binary, cfg):
        start = next(clock)
        try:
            return real_measure(binary, cfg)
        finally:
            events.append(("run", _kernel_of(Path(binary).stem), start, next(clock)))

    monkeypatch.setattr(labeler, "compile_variant", fake_compile)
    monkeypatch.setattr(labeler, "measure", fake_measure)
    return events


def _steps(events, kind):
    return [name for k, name, _, _ in events if k == kind]


def _kernel_of(stem):
    """The kernel a build step belongs to; None for ot_main, which is every kernel's."""
    match = re.match(r"ot_k(\d+)_", stem)
    return int(match.group(1)) if match else None


def _overlap(a, b):
    return a[2] < b[3] and b[2] < a[3]


def _check_schedule(events):
    """What holds for every labeling call: ot_main is compiled once, each
    launch starts after its driver's link ends, launches never overlap, and
    every compiler call beside a launch belongs to one kernel's build and
    runs alone."""
    runs = sorted((e for e in events if e[0] == "run"), key=lambda e: e[2])
    builds = [e for e in events if e[0] != "run"]
    assert _steps(events, "compile").count("ot_main") == 1
    assert all(a[3] < b[2] for a, b in zip(runs, runs[1:]))
    links = {name: end for kind, name, _, end in events if kind == "link"}
    for run in runs:
        assert run[2] > links[f"ot_k{run[1]}_driver"]
        beside = [b for b in builds if _overlap(b, run)]
        assert len({_kernel_of(name) for _, name, _, _ in beside}) <= 1, (run, beside)
        assert not any(_overlap(a, b) for a, b in itertools.combinations(beside, 2)), (run, beside)


def _kernels(n):
    return [(f"k{i}.c::k", _simple_fn("k")) for i in range(n)]


# Quarantine order of one function: compile[basic], compile[aggr], its
# driver build (compile[basic], also when ot_main fails), then run[basic]
# before run[aggr] within its one launch. A kernel's build stops at its
# first failure, and only a linked driver is launched.
@pytest.mark.parametrize(
    "failing, reason",
    [
        ({"compile basic", "compile aggr"}, "compile[basic]: "),
        ({"compile aggr", "run basic"}, "compile[aggr]: "),
        ({"run basic", "run aggr"}, "run[basic]: "),
        ({"run aggr"}, "run[aggr]: "),
        ({"link", "run basic"}, "compile[basic]: ot_k0_driver failed"),
        ({"main", "compile aggr"}, "compile[aggr]: "),
        ({"main", "run basic"}, "compile[basic]: ot_main failed"),
    ],
)
def test_label_quarantine_order(tmp_path, monkeypatch, failing, reason):
    bad = {"samples": (1e-6, float("nan"), 1e-6)}
    output = _driver_output(**{v: bad for v in VARIANTS if f"run {v}" in failing})
    fail = [f"ot_k0_{v}" for v in VARIANTS if f"compile {v}" in failing]
    fail += ["ot_k0_driver"] * ("link" in failing) + ["ot_main"] * ("main" in failing)
    events = _fake_toolchain(monkeypatch, outputs={0: output}, fail=fail)
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    (result,) = label_corpus([("a.c::f", _simple_fn("f"))], cfg)
    assert result.quarantine_reason.startswith(reason)
    assert _steps(events, "compile").count("ot_main") == 1
    path = [("compile", "ot_k0_basic"), ("compile", "ot_k0_aggr"), ("link", "ot_k0_driver"), ("run", 0)]
    stops = (("compile basic", 1), ("compile aggr", 2), ("main", 2), ("link", 3))
    done = next((n for step, n in stops if step in failing), 4)
    assert [(kind, name) for kind, name, _, _ in events if name != "ot_main"] == path[:done]


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
    results = label_corpus(_kernels(n), LabelerConfig(repetitions=3, workdir=str(tmp_path)))
    assert all(r.quarantine_reason is None for r in results)
    # ot_main once, then per kernel its two objects, its driver and one launch
    assert sorted(_steps(events, "compile")) == sorted(
        [f"ot_k{k}_{v}" for k in range(n) for v in VARIANTS] + ["ot_main"]
    )
    assert sorted(_steps(events, "link")) == [f"ot_k{k}_driver" for k in range(n)]
    assert _steps(events, "run") == list(range(n))
    _check_schedule(events)


def test_label_corpus_compiles_the_driver_beside_the_kernels_and_links_it_last(tmp_path, monkeypatch):
    # ot_main, the part of the driver every kernel shares, compiles beside
    # kernel 0's objects; each kernel's driver links after its objects and ot_main
    both_compiling = threading.Barrier(2, timeout=10)  # broken if they compile one after the other
    events = _fake_toolchain(monkeypatch)
    fake_compile = labeler.compile_variant

    def main_meets_kernel_0(source, flags, cfg, workdir, stem="driver", link=None):
        if stem in ("ot_main", "ot_k0_basic"):
            both_compiling.wait()
        return fake_compile(source, flags, cfg, workdir, stem, link)

    monkeypatch.setattr(labeler, "compile_variant", main_meets_kernel_0)
    results = label_corpus(_kernels(3), LabelerConfig(repetitions=3, workdir=str(tmp_path)))
    assert [r.quarantine_reason for r in results] == [None] * 3
    assert not both_compiling.broken
    compiles = {name: end for kind, name, _, end in events if kind == "compile"}
    links = {name: start for kind, name, start, _ in events if kind == "link"}
    for k in range(3):
        inputs = [compiles["ot_main"]] + [compiles[f"ot_k{k}_{v}"] for v in VARIANTS]
        assert links[f"ot_k{k}_driver"] > max(inputs)
    _check_schedule(events)


def test_label_corpus_builds_the_next_kernel_while_one_is_timed(tmp_path, monkeypatch):
    meet = threading.Barrier(2, timeout=10)  # broken if kernel 2 builds only after kernel 1's launch
    events = _fake_toolchain(monkeypatch)
    fake_compile, fake_measure = labeler.compile_variant, labeler.measure

    def compile_meets_launch(source, flags, cfg, workdir, stem="driver", link=None):
        if stem == "ot_k2_basic":
            meet.wait()
        return fake_compile(source, flags, cfg, workdir, stem, link)

    def launch_meets_compile(binary, cfg):
        if _kernel_of(Path(binary).stem) == 1:
            meet.wait()
        return fake_measure(binary, cfg)

    monkeypatch.setattr(labeler, "compile_variant", compile_meets_launch)
    monkeypatch.setattr(labeler, "measure", launch_meets_compile)
    results = label_corpus(_kernels(3), LabelerConfig(repetitions=3, workdir=str(tmp_path)))
    assert [r.quarantine_reason for r in results] == [None] * 3
    assert not meet.broken
    _check_schedule(events)


def test_label_corpus_alternates_builds_and_launches_on_one_cpu(tmp_path, monkeypatch):
    n = 4
    events = _fake_toolchain(monkeypatch, cpus=1)
    results = label_corpus(_kernels(n), LabelerConfig(repetitions=3, workdir=str(tmp_path)))
    assert [r.quarantine_reason for r in results] == [None] * n
    runs = [e for e in events if e[0] == "run"]
    builds = [e for e in events if e[0] != "run"]
    assert not any(_overlap(b, r) for b in builds for r in runs)
    # build kernel k (two objects, its driver), then launch it
    order = sorted((e for e in events if e[1] != "ot_main"), key=lambda e: e[2])
    owners = [name if kind == "run" else _kernel_of(name) for kind, name, _, _ in order]
    assert owners == [k for k in range(n) for _ in range(4)]
    _check_schedule(events)


def test_label_corpus_stops_queued_builds_when_a_launch_raises(tmp_path, monkeypatch):
    events = _fake_toolchain(monkeypatch)
    started = []
    fake_compile, fake_measure = labeler.compile_variant, labeler.measure

    def recording_compile(source, flags, cfg, workdir, stem="driver", link=None):
        started.append(stem)
        return fake_compile(source, flags, cfg, workdir, stem, link)

    def interrupted_launch(binary, cfg):
        if _kernel_of(Path(binary).stem) == 1:
            raise KeyboardInterrupt
        return fake_measure(binary, cfg)

    monkeypatch.setattr(labeler, "compile_variant", recording_compile)
    monkeypatch.setattr(labeler, "measure", interrupted_launch)
    with pytest.raises(KeyboardInterrupt):
        label_corpus(_kernels(6), LabelerConfig(repetitions=3, workdir=str(tmp_path)))
    assert _steps(events, "run") == [0]
    assert max(_kernel_of(stem) for stem in started if stem != "ot_main") <= 2
    # the call ended only after the build that was running did
    assert sorted(started) == sorted(name for kind, name, _, _ in events if kind != "run")


def _one_driver_fails(tmp_path, monkeypatch, breaks):
    """Label three kernels where ``breaks`` fails kernel 1's driver build, and no other."""
    events = _fake_toolchain(monkeypatch, fail=[breaks])
    results = label_corpus(_kernels(3), LabelerConfig(repetitions=3, workdir=str(tmp_path)))
    assert [r.quarantine_reason for r in results[::2]] == [None, None]
    assert results[1].quarantine_reason == "compile[basic]: ot_k1_driver failed"
    assert _steps(events, "run") == [0, 2]
    # no driver is built twice
    assert sorted(_steps(events, "link")) == ["ot_k0_driver", "ot_k1_driver", "ot_k2_driver"]
    _check_schedule(events)


def test_label_corpus_a_failing_driver_build_quarantines_only_its_kernel(tmp_path, monkeypatch):
    # the harness of kernel 1 breaks its driver's compile
    _one_driver_fails(tmp_path, monkeypatch, "{ot_k1_verify")


def test_label_corpus_a_failing_link_quarantines_only_its_kernel(tmp_path, monkeypatch):
    # kernel 1's aggr object breaks any link it is part of, which is its driver's only
    _one_driver_fails(tmp_path, monkeypatch, "ot_k1_aggr.o")


def test_label_corpus_builds_a_driver_of_the_kernels_with_objects(tmp_path, monkeypatch):
    # kernel 1 has no aggr object: it gets no driver, and no other driver names it
    events = _fake_toolchain(monkeypatch, fail=["ot_k1_aggr"])
    fake_compile = labeler.compile_variant
    linked_sources = {}

    def recording_compile(source, flags, cfg, workdir, stem="driver", link=None):
        if link is not None:
            linked_sources[stem] = source
        return fake_compile(source, flags, cfg, workdir, stem, link)

    monkeypatch.setattr(labeler, "compile_variant", recording_compile)
    results = label_corpus(_kernels(3), LabelerConfig(repetitions=3, workdir=str(tmp_path)))
    assert results[1].quarantine_reason == "compile[aggr]: ot_k1_aggr failed"
    assert [r.quarantine_reason for r in results[::2]] == [None, None]
    assert sorted(linked_sources) == ["ot_k0_driver", "ot_k2_driver"]
    for k in (0, 2):
        source = linked_sources[f"ot_k{k}_driver"]
        assert f"ot_harness = {{ot_k{k}_verify, " in source and source.count("_verify, ") == 1
        assert "ot_k1" not in source
    assert _steps(events, "run") == [0, 2]
    _check_schedule(events)


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
    main = compile_variant(synthesize_main(FAST_CFG), FAST_CFG.flags_basic, FAST_CFG, tmp_path, "main")
    driver = synthesize_driver(0, fn, FAST_CFG)
    binary = compile_variant(driver, FAST_CFG.flags_basic, FAST_CFG, tmp_path, "driver", link=[main, *objects])
    result = measure(binary, FAST_CFG)
    for tag in VARIANTS:
        assert len(result[tag].samples) == FAST_CFG.repetitions
        assert all(s > 0 for s in result[tag].samples)
        assert "e" in result[tag].checksum  # scientific notation
    assert result["basic"].checksum == result["aggr"].checksum


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
def test_a_link_failure_names_the_missing_symbol(tmp_path):
    with pytest.raises(CompileError) as caught:
        compile_variant(
            "void nope(void); int main(void) { nope(); return 0; }\n", ("-O1",), FAST_CFG, tmp_path, link=[]
        )
    message = str(caught.value)
    assert re.search(r"compiler exited with 1: driver\.c:.*undefined reference to .nope.$", message), message
    assert "\n" not in message and str(tmp_path) not in message, message


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
@pytest.mark.parametrize("repetitions", [1, 3])
def test_label_corpus_times_a_kernel_that_changes_its_buffers(tmp_path, repetitions):
    # every call adds 1 to each element, so a batch's checksum tells how many
    # calls ran on its buffers since they were filled: repetition 0's, taken
    # after the calibration, must not see the other variant's calibration
    fn = parse_one("void bump(int n, int a[N]) { for (int i = 0; i < n; i++) a[i] = a[i] + 1; }")
    cfg = LabelerConfig(repetitions=repetitions, min_runtime_s=0.01, array_extent=64, workdir=str(tmp_path))
    (res,) = label_corpus([("bump.c::bump", fn)], cfg)
    assert res.quarantine_reason is None, res.quarantine_reason
    assert len(res.timing.samples_basic) == len(res.timing.samples_aggr) == repetitions
    out = subprocess.run(
        [str(tmp_path / "ot_k0_driver.bin")], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    fields = {}
    for line in out.splitlines():
        key, *rest = line.split()
        fields.setdefault((key, *rest[:1]), []).append(rest[-1])
    for v in VARIANTS:
        (verify,), (calls,) = fields["checksum", v], fields["calls", v]
        batch_checksums = fields["rep_checksum", v]
        assert len(batch_checksums) == repetitions and len(set(batch_checksums)) == 1, out
        # the verification ran one call, each batch `calls` calls, on 64 elements
        expected = float(verify) + 64 * (int(calls) - 1)
        assert float(batch_checksums[0]) == pytest.approx(expected, rel=1e-5), out


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
def test_label_corpus_times_kernels_named_like_c_library_or_driver_names(tmp_path, monkeypatch):
    # each name once reached the shared driver and broke it, or was refused
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
    assert drivers == [f"ot_k{k}_driver" for k in range(5)]


@pytest.mark.integration
@requires_compiler
def test_verification_checksum_counts_the_return_value(tmp_path):
    # a kernel that returns K and stores nothing, next to its void twin
    cfg = LabelerConfig(repetitions=1, min_runtime_s=0.0, array_extent=64)
    main = compile_variant(synthesize_main(cfg), cfg.flags_basic, cfg, tmp_path, "ot_main")
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
        driver = synthesize_driver(k, fn, cfg)
        binary = compile_variant(driver, cfg.flags_basic, cfg, tmp_path, f"ot_k{k}_driver", link=[main, *objects])
        result = measure(binary, cfg)
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
def test_label_corpus_quarantines_only_the_kernel_cc_rejects(tmp_path, monkeypatch):
    import dataclasses

    broken = dataclasses.replace(_simple_fn("g"), source_text="void g(int n) { this is not C }\n")
    fns = [("a.c::f", _simple_fn("f")), ("b.c::g", broken), ("c.c::h", _simple_fn("h"))]
    built = []
    real_compile = labeler.compile_variant

    def recording_compile(source, flags, cfg, workdir, stem="driver", link=None):
        built.append((stem, source))
        return real_compile(source, flags, cfg, workdir, stem, link)

    monkeypatch.setattr(labeler, "compile_variant", recording_compile)
    cfg = LabelerConfig(repetitions=3, min_runtime_s=0.01, array_extent=64, workdir=str(tmp_path))
    first, bad, last = label_corpus(fns, cfg)
    assert bad.quarantine_reason.startswith("compile[basic]: "), bad.quarantine_reason
    assert first.quarantine_reason is None and first.label in ("easy", "hard")
    assert last.quarantine_reason is None and last.label in ("easy", "hard")
    # nothing is built twice, and every surviving harness is compiled once, in its own driver
    assert sorted(stem for stem, _ in built) == sorted(
        ["ot_main", "ot_k1_basic"] + [f"ot_k{k}_{step}" for k in (0, 2) for step in ("basic", "aggr", "driver")]
    )
    harnesses = [re.findall(r"/\* kernel (\d+): ", source) for _, source in built]
    assert sorted(k for found in harnesses for k in found) == ["0", "2"]


@pytest.mark.integration
@requires_compiler
def test_batch_code_calls_the_generator_it_never_inlines(tmp_path):
    # an inlined generator would change the timed code that earlier labels measured
    fns = [parse_unit(unit, strict=True)[0][0] for unit in generate(GenConfig(seed=1907, n_functions=8))]
    for k, fn in enumerate(fns):
        source = tmp_path / "unit.c"
        source.write_text(synthesize_driver(k, fn, FAST_CFG))
        subprocess.run(
            ["cc", "-ffp-contract=off", "-O1", "-S", "-o", str(tmp_path / "unit.s"), str(source)], check=True
        )
        text = (tmp_path / "unit.s").read_text()
        body = text[text.index(f"ot_k{k}_batch:"):text.index(f".size\tot_k{k}_batch")]
        assert "call\tot_rng_next" in body, k
