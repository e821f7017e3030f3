"""Labeling tests: the ratio rule, medians, drivers, and quarantine paths.

Everything except the integration block runs without a compiler by
injecting a timer.
"""

import itertools
import statistics
import subprocess
import threading
from pathlib import Path

import pytest

from opttriage import labeler
from opttriage.labeler import (
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

from conftest import parse_one, requires_compiler

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
    code = synthesize_driver(_simple_fn(), FAST_CFG)
    assert "__attribute__((noinline))" in code
    assert "static volatile int s_n" in code  # scalar args defeat constant folding
    assert '__asm__ __volatile__("" ::: "memory")' in code
    assert "checksum" in code
    assert "rng_next" in code  # deterministic data fill
    assert "CLOCK_MONOTONIC" in code
    # one calibration, then every repetition timed in the same process
    assert code.count("for (;;)") == 1
    assert code.count("calls *= 2;") == 1
    assert code.count(f"for (int rep = 0; rep < {FAST_CFG.repetitions}; rep++)") == 1
    assert code.count("for (int rep") == 1
    assert code.count('printf("per_call_seconds') == 1
    assert code.count('printf("rep_checksum %.6e\\n", checksum_data());') == 1
    assert code.count('printf("checksum') == 1


def test_driver_defines_symbolic_extent():
    code = synthesize_driver(_simple_fn(), FAST_CFG)
    assert "#define N 64" in code


def test_driver_respects_minimum_extent():
    fn = parse_one(
        "void f(int n, float a[N]) {\n"
        "  for (int i = 0; i < 100; i++) a[i] = a[i] + 1.0;\n"
        "}"
    )
    code = synthesize_driver(fn, FAST_CFG)  # cfg extent 64 is too small
    assert "#define N 100" in code


def test_driver_rejects_reserved_names():
    fn = parse_one("void main(int n) { }")
    with pytest.raises(DriverError):
        synthesize_driver(fn, FAST_CFG)


def test_driver_rejects_functions_without_source():
    fn = _simple_fn()
    object.__setattr__(fn, "source_text", "") if hasattr(fn, "__dataclass_fields__") else None
    import dataclasses

    bare = dataclasses.replace(fn, source_text="")
    with pytest.raises(DriverError):
        synthesize_driver(bare, FAST_CFG)


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


def _fake_binary(tmp_path, stdout, exit_code=0):
    """An executable shell script standing in for a compiled driver."""
    script = tmp_path / "fake.bin"
    script.write_text(f"#!/bin/sh\ncat <<'EOF'\n{stdout}EOF\nexit {exit_code}\n")
    script.chmod(0o755)
    return script


def _driver_output(
    samples=(1e-6, 2e-6, 3e-6), rep_checksums=("4.0e+02",) * 3, checksums=("1.5e+01",)
):
    lines = [f"checksum {c}" for c in checksums] + ["calls 1024"]
    for s, c in itertools.zip_longest(samples, rep_checksums):
        lines += [f"per_call_seconds {s!r}"] if s is not None else []
        lines += [f"rep_checksum {c}"] if c is not None else []
    return "\n".join(lines) + "\n"


def test_measure_parses_one_sample_per_repetition_from_one_launch(tmp_path, monkeypatch):
    binary = _fake_binary(tmp_path, _driver_output())
    launches = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        launches.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr("opttriage.labeler.subprocess.run", counting_run)
    result = measure(binary, FAST_CFG)
    assert result.samples == (1e-6, 2e-6, 3e-6)
    assert result.checksum == "1.5e+01"
    assert launches == [[str(binary)]]


@pytest.mark.parametrize(
    "stdout, exit_code, message",
    [
        (_driver_output(samples=(1e-6, 2e-6)), 0, "malformed driver output"),
        (_driver_output(samples=(1e-6,) * 5), 0, "malformed driver output"),
        (_driver_output(checksums=()), 0, "malformed driver output"),
        (_driver_output(checksums=("1.5e+01", "1.6e+01")), 0, "malformed driver output"),
        (_driver_output(rep_checksums=("4.0e+02",) * 2), 0, "malformed driver output"),
        (_driver_output(samples=(1e-6, "fast", 3e-6)), 0, "malformed driver output"),
        (
            _driver_output(rep_checksums=("4.0e+02", "4.0e+02", "4.1e+02")),
            0,
            r"checksum varies across runs of one binary: \['4.0e\+02', '4.1e\+02'\]",
        ),
        (_driver_output(), 3, "binary exited with 3"),
        (_driver_output(samples=(1e-6, float("nan"), 3e-6)), 0, "malformed driver output"),
        (_driver_output(samples=(1e-6, float("inf"), 3e-6)), 0, "malformed driver output"),
        (_driver_output(samples=(1e-6, 0.0, 3e-6)), 0, "malformed driver output"),
        (_driver_output(samples=(1e-6, -2e-6, 3e-6)), 0, "malformed driver output"),
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
def test_measure_rejects_bad_driver_runs(tmp_path, stdout, exit_code, message):
    with pytest.raises(RunError, match=message):
        measure(_fake_binary(tmp_path, stdout, exit_code), FAST_CFG)


def test_measure_times_out_the_one_launch(tmp_path):
    script = tmp_path / "slow.bin"
    script.write_text("#!/bin/sh\nexec sleep 30\n")
    script.chmod(0o755)
    cfg = LabelerConfig(repetitions=3, timeout_s=0.2)
    with pytest.raises(RunError, match="run timed out after 0.2s"):
        measure(script, cfg)


def test_measure_reports_a_binary_that_cannot_start(tmp_path):
    not_executable = tmp_path / "plain.bin"
    not_executable.write_text(_driver_output())
    with pytest.raises(RunError, match="cannot run binary"):
        measure(not_executable, FAST_CFG)


# Quarantine order of one function: compile[basic], compile[aggr], run[basic],
# run[aggr]. Both variants are compiled before either is timed.
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
    calls = []

    def fake_compile(source, flags, cfg, workdir, stem):
        tag = stem.rsplit("_", 1)[-1]
        calls.append(f"compile {tag}")
        if f"compile {tag}" in failing:
            raise CompileError(f"{tag} failed")
        return Path(workdir) / tag

    def fake_measure(binary, cfg):
        calls.append(f"run {binary.name}")
        if f"run {binary.name}" in failing:
            raise RunError(f"{binary.name} failed")
        return labeler.MeasureResult(samples=(1.0,) * cfg.repetitions, checksum="1")

    monkeypatch.setattr(labeler, "compile_variant", fake_compile)
    monkeypatch.setattr(labeler, "measure", fake_measure)
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    (result,) = label_corpus([("a.c::f", _simple_fn("f"))], cfg)
    assert result.quarantine_reason.startswith(reason)
    assert sorted(calls[:2]) == ["compile aggr", "compile basic"]
    runs = calls[2:]
    assert runs == ["run basic", "run aggr"][: len(runs)]  # timing stays serial
    if reason.startswith("compile"):
        assert runs == []


@pytest.mark.parametrize("bad", [float("nan"), 0.0])
@pytest.mark.parametrize("tag", ["basic", "aggr"])
def test_label_corpus_quarantines_a_bad_driver_sample(tmp_path, monkeypatch, bad, tag):
    def fake_compile(source, flags, cfg, workdir, stem):
        samples = (1e-6, bad, 1e-6) if stem == f"a.c_f_{tag}" else (1e-6, 2e-6, 3e-6)
        (Path(workdir) / stem).mkdir()
        return _fake_binary(Path(workdir) / stem, _driver_output(samples=samples))

    monkeypatch.setattr(labeler, "compile_variant", fake_compile)
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    bad_fn, good_fn = label_corpus([("a.c::f", _simple_fn("f")), ("b.c::g", _simple_fn("g"))], cfg)
    assert bad_fn.label is None and bad_fn.timing is None
    assert bad_fn.quarantine_reason.startswith(f"run[{tag}]: malformed driver output")
    assert good_fn.label == "easy" and good_fn.timing.ratio == 1.0


# ---------------------------------------------------------------- integration


def test_label_compiles_both_variants_at_once(tmp_path, monkeypatch):
    both_compiling = threading.Barrier(2, timeout=10)  # broken if compiles run serially

    def fake_compile(source, flags, cfg, workdir, stem):
        both_compiling.wait()
        return Path(workdir) / stem

    def fake_measure(binary, cfg):
        return labeler.MeasureResult(samples=(1.0,) * cfg.repetitions, checksum="1")

    monkeypatch.setattr(labeler, "compile_variant", fake_compile)
    monkeypatch.setattr(labeler, "measure", fake_measure)
    cfg = LabelerConfig(repetitions=3, workdir=str(tmp_path))
    (result,) = label_corpus([("a.c::f", _simple_fn("f"))], cfg)
    assert result.quarantine_reason is None
    assert not both_compiling.broken


@pytest.mark.integration
@requires_compiler
def test_compile_and_measure_real_binary(tmp_path):
    driver = synthesize_driver(_simple_fn(), FAST_CFG)
    binary = compile_variant(driver, FAST_CFG.flags_basic, FAST_CFG, tmp_path)
    result = measure(binary, FAST_CFG)
    assert len(result.samples) == FAST_CFG.repetitions
    assert all(s > 0 for s in result.samples)
    assert "e" in result.checksum  # scientific notation


@pytest.mark.integration
@requires_compiler
def test_compile_error_carries_stderr(tmp_path):
    with pytest.raises(CompileError, match="nope_not_defined"):
        compile_variant(
            "int main(void) { return nope_not_defined; }\n", ("-O1",), FAST_CFG, tmp_path
        )


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
    assert (tmp_path / "saxpy.c_saxpy_basic.bin").exists()  # basic compiled
    assert not (tmp_path / "saxpy.c_saxpy_aggr.bin").exists()
