"""Produces easy/hard training labels by timing real compiled code.

For each function we synthesize a standalone driver, compile it once with
basic flags and once with aggressive flags, time both binaries, and apply
the ratio rule: the function is easy to optimize when aggressive flags
barely help, i.e. t_aggr / t_basic > delta. Functions that fail anywhere
along that path are quarantined with the cause instead of aborting the
run. An injectable timer replaces the compile-and-run leg so the whole
pipeline can run hermetically.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from opttriage.manifest import ManifestRow, TimingRecord, checked_seconds

if TYPE_CHECKING:
    from opttriage.minic import FunctionUnit

EASY_NAME = "easy"
HARD_NAME = "hard"


class DriverError(Exception):
    """The function's signature cannot be wrapped in a timing driver."""


class CompileError(Exception):
    # stderr rides along in the message so quarantine reasons stay actionable
    def __init__(self, message: str, stderr: str = ""):
        tail = stderr.strip()
        if tail:
            if len(tail) > 400:
                tail = tail[:400] + "..."
            message = f"{message}: {tail}"
        super().__init__(message)
        self.stderr = stderr


class RunError(Exception):
    pass


@dataclass(frozen=True)
class LabelerConfig:
    delta: float = 0.8
    compiler_cmd: str = "cc -ffp-contract=off {flags} -o {output} {source}"
    flags_basic: tuple[str, ...] = ("-O1",)
    flags_aggr: tuple[str, ...] = ("-O3",)
    repetitions: int = 7
    timeout_s: float = 60.0  # per compile, and per binary launch: calibration plus all repetitions
    min_runtime_s: float = 0.2
    array_extent: int = 512
    rng_seed: int = 20260814
    workdir: Optional[str] = None  # None: a throwaway temp dir per run

    def __post_init__(self):
        for key in ("repetitions", "array_extent", "rng_seed"):
            if type(getattr(self, key)) is not int:
                raise ValueError(f"{key} must be an integer, not {getattr(self, key)!r}")
        for key in ("delta", "timeout_s", "min_runtime_s"):
            value = getattr(self, key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{key} must be a number, not {value!r}")
        if not isinstance(self.compiler_cmd, str):
            raise ValueError(f"compiler_cmd must be a string, not {self.compiler_cmd!r}")
        if self.workdir is not None and not isinstance(self.workdir, str):
            raise ValueError(f"workdir must be a string or null, not {self.workdir!r}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.repetitions < 1 or self.repetitions % 2 == 0:
            raise ValueError("repetitions must be a positive odd count")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.min_runtime_s < 0:
            raise ValueError("min_runtime_s must be non-negative")
        if self.array_extent < 1:
            raise ValueError("array_extent must be positive")
        if "{source}" not in self.compiler_cmd or "{output}" not in self.compiler_cmd:
            raise ValueError("compiler_cmd must mention {source} and {output}")
        for key in ("flags_basic", "flags_aggr"):
            flags = getattr(self, key)
            if not isinstance(flags, tuple) or not all(isinstance(f, str) for f in flags):
                raise ValueError(f"{key} must be a tuple of strings, not {flags!r}")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["flags_basic"] = list(self.flags_basic)
        doc["flags_aggr"] = list(self.flags_aggr)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "LabelerConfig":
        known = {f for f in LabelerConfig.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown labeler config keys: {sorted(unknown)}")
        clean = dict(doc)
        for key in ("flags_basic", "flags_aggr"):
            if key in clean:
                if not isinstance(clean[key], (list, tuple)):  # a bare string is not a flag list
                    raise ValueError(f"{key} must be a list of strings, not {clean[key]!r}")
                clean[key] = tuple(clean[key])
        return LabelerConfig(**clean)


def label_from_ratio(t_basic: float, t_aggr: float, delta: float) -> str:
    """Easy iff t_aggr/t_basic > delta (strict); the boundary itself is hard."""
    t_basic, t_aggr = checked_seconds((t_basic, t_aggr))
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    return EASY_NAME if t_aggr / t_basic > delta else HARD_NAME


# --------------------------------------------------------------------- driver


_DRIVER_PRELUDE = """\
#include <stdio.h>
#include <stdint.h>
#include <time.h>

static uint64_t rng_state;

static double rng_next(void)
{
    rng_state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = rng_state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return (double)(z >> 11) * (1.0 / 9007199254740992.0);
}

static double now_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}
"""


def _buffer_dims(param, defines: dict[str, int], extent: int) -> list[str]:
    dims = []
    for ext in param.extents:
        if isinstance(ext, int):
            dims.append(str(ext))
        elif ext in defines:
            dims.append(ext)  # macro carries the value
        else:
            dims.append(str(extent))  # extent named after another parameter
    return dims


def synthesize_driver(fn: FunctionUnit, cfg: LabelerConfig) -> str:
    """Standalone C program that times the function and prints a checksum.

    The driver binds every symbolic array extent and loop bound to one
    concrete size, fills arrays from a seeded generator, prints a checksum
    computed from a single verification call (so it does not depend on how
    far the timing loop scales), then calibrates once, doubling its call
    count until a batch runs at least cfg.min_runtime_s. That calibration
    is the warm-up; the driver then times cfg.repetitions batches of the
    calibrated count in the same process and prints, per batch, the
    per-call seconds and a checksum of the buffers taken after the clock
    stopped.
    """
    if fn.name in ("main", "rng_next", "now_seconds", "init_data", "checksum_data"):
        raise DriverError(f"function name {fn.name!r} collides with the driver")
    if not fn.source_text.strip():
        raise DriverError("function has no source text to embed")
    # known literal bounds may exceed the configured extent; size up so every
    # in-bounds subscript of the original code stays in bounds here
    extent = max(cfg.array_extent, fn.min_extent)
    defines = {name: extent for name in fn.bound_symbols}

    lines = [_DRIVER_PRELUDE]
    for name in sorted(defines):
        lines.append(f"#define {name} {extent}")
    if defines:
        lines.append("")

    proto_params = []
    call_args = []
    globals_decl = []
    fills = []
    sums = []
    for p in fn.params:
        if p.tag == "scalar-int":
            proto_params.append(f"int {p.name}")
            globals_decl.append(f"static volatile int s_{p.name} = {extent};")
            call_args.append(f"s_{p.name}")
        elif p.tag == "scalar-float":
            proto_params.append(f"float {p.name}")
            globals_decl.append(f"static volatile float s_{p.name} = 1.5f;")
            call_args.append(f"s_{p.name}")
        else:
            dims = _buffer_dims(p, defines, extent)
            decl_dims = "".join(f"[{d}]" for d in dims)
            proto_params.append(f"{p.base_type} {p.name}{decl_dims}")
            globals_decl.append(f"static {p.base_type} g_{p.name}{decl_dims};")
            call_args.append(f"g_{p.name}")
            idx = [f"i{k}" for k in range(len(dims))]
            ref = f"g_{p.name}" + "".join(f"[{v}]" for v in idx)
            cast = "(float)rng_next()" if p.base_type == "float" else f"(int)(rng_next() * {extent}.0)"
            open_loops = "".join(
                f"for (long {v} = 0; {v} < {d}; {v}++) " for v, d in zip(idx, dims)
            )
            fills.append(f"    {open_loops}{ref} = {cast};")
            sums.append(f"    {open_loops}sum += (double){ref};")

    proto = f"{fn.return_type} {fn.name}({', '.join(proto_params) or 'void'})"
    lines.append(proto + " __attribute__((noinline));")
    lines.append("")
    lines.append(fn.source_text.rstrip())
    lines.append("")
    lines.extend(globals_decl)
    lines.append("")
    seed = cfg.rng_seed & 0xFFFFFFFFFFFFFFFF
    lines.append("static void init_data(void)")
    lines.append("{")
    lines.append(f"    rng_state = {seed}ULL;")
    lines.extend(fills)
    lines.append("}")
    lines.append("")
    lines.append("static double checksum_data(void)")
    lines.append("{")
    lines.append("    double sum = 0.0;")
    lines.extend(sums)
    lines.append("    return sum;")
    lines.append("}")
    lines.append("")

    call = f"{fn.name}({', '.join(call_args)})"
    nonvoid = fn.return_type != "void"
    if nonvoid:
        lines.append("static volatile double g_sink;")
        lines.append("")
        timed_call = f"g_sink = (double){call};"
    else:
        timed_call = f"{call};"
    # one timed batch of `calls` calls on freshly initialized data; the
    # calibration and every repetition run this same code
    batch = [
        "        init_data();",
        "        double start = now_seconds();",
        "        for (long c = 0; c < calls; c++) {",
        f"            {timed_call}",
        '            __asm__ __volatile__("" ::: "memory");',
        "        }",
        "        double elapsed = now_seconds() - start;",
    ]

    lines.append("int main(void)")
    lines.append("{")
    lines.append("    double check = 0.0;")
    lines.append("    init_data();")
    if nonvoid:
        lines.append(f"    check += (double){call};")
    else:
        lines.append(f"    {call};")
    lines.append("    check += checksum_data();")
    lines.append('    printf("checksum %.6e\\n", check);')
    lines.append("")
    lines.append("    long calls = 1;")
    lines.append("    for (;;) {")
    lines.extend(batch)
    lines.append(f"        if (elapsed >= {cfg.min_runtime_s!r} || calls >= (1L << 30))")
    lines.append("            break;")
    lines.append("        calls *= 2;")
    lines.append("    }")
    lines.append('    printf("calls %ld\\n", calls);')
    lines.append("")
    lines.append(f"    for (int rep = 0; rep < {cfg.repetitions}; rep++) {{")
    lines.extend(batch)
    lines.append('        printf("per_call_seconds %.9e\\n", elapsed / (double)calls);')
    lines.append('        printf("rep_checksum %.6e\\n", checksum_data());')
    lines.append("    }")
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _stem(fn_id: str, tag: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", fn_id) + f"_{tag}"


# ------------------------------------------------------------------ toolchain


def compile_variant(
    source: str,
    flags: Sequence[str],
    cfg: LabelerConfig,
    workdir: Union[str, Path],
    stem: str = "driver",
) -> Path:
    """Write the source and compile one binary; raises CompileError."""
    workdir = Path(workdir)
    src_path = workdir / f"{stem}.c"
    src_path.write_text(source, encoding="utf-8")
    out_path = workdir / f"{stem}.bin"
    cmd = cfg.compiler_cmd.format(
        flags=" ".join(flags),
        source=shlex.quote(str(src_path)),
        output=shlex.quote(str(out_path)),
    )
    argv = shlex.split(cmd)
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=cfg.timeout_s
        )
    except subprocess.TimeoutExpired as e:
        raise CompileError(f"compiler timed out after {cfg.timeout_s}s", "") from e
    except OSError as e:
        raise CompileError(f"cannot run compiler {argv[0]!r}: {e}", "") from e
    if proc.returncode != 0:
        raise CompileError(
            f"compiler exited with {proc.returncode}", proc.stderr.strip()
        )
    if not out_path.exists():
        raise CompileError("compiler reported success but produced no binary", proc.stderr)
    return out_path


@dataclass(frozen=True)
class MeasureResult:
    samples: tuple[float, ...]  # per-call seconds, one per repetition
    checksum: str  # textual checksum, compared verbatim across variants


def measure(binary: Union[str, Path], cfg: LabelerConfig) -> MeasureResult:
    """One launch: the driver calibrates, then times cfg.repetitions batches.

    Raises RunError when the launch fails or times out, when its output does
    not hold one checksum and exactly cfg.repetitions samples, or when the
    per-repetition checksums differ.
    """
    try:
        proc = subprocess.run(
            [str(binary)], capture_output=True, text=True, timeout=cfg.timeout_s
        )
    except subprocess.TimeoutExpired as e:
        raise RunError(f"run timed out after {cfg.timeout_s}s") from e
    except OSError as e:
        raise RunError(f"cannot run binary {str(binary)!r}: {e}") from e
    if proc.returncode != 0:
        raise RunError(f"binary exited with {proc.returncode}: {proc.stderr.strip()[:200]}")
    fields: dict[str, list[str]] = {"checksum": [], "per_call_seconds": [], "rep_checksum": []}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in fields:
            fields[parts[0]].append(parts[1])
    checksums, per_call, rep_checksums = fields.values()
    malformed = RunError(f"malformed driver output: {proc.stdout[:200]!r}")
    reps = cfg.repetitions
    if len(checksums) != 1 or len(per_call) != reps or len(rep_checksums) != reps:
        raise malformed
    try:
        samples = checked_seconds(per_call)
    except ValueError:
        raise malformed from None
    if len(set(rep_checksums)) != 1:
        raise RunError(
            f"checksum varies across runs of one binary: {sorted(set(rep_checksums))}"
        )
    return MeasureResult(samples=samples, checksum=checksums[0])


# ------------------------------------------------------------------- pipeline


# A timer takes (function_id, FunctionUnit) and returns (t_basic, t_aggr)
# seconds, or None to say it has no entry for that function.
Timer = Callable[[str, "FunctionUnit"], Optional[tuple[float, float]]]

# What a sample source gives per function: (samples_basic, samples_aggr),
# or the quarantine reason of the first step that failed.
Samples = Union[tuple[Sequence[float], Sequence[float]], str]


def _timer_samples(timer: Timer, fn_id: str, fn: FunctionUnit, repetitions: int) -> Samples:
    """The fake source: one timer reading stands in for every repetition."""
    try:
        times = timer(fn_id, fn)
        if times is None:
            return "timer: no timing entry"
        t_basic, t_aggr = times
    except Exception as e:  # a broken entry must not sink the corpus
        return f"timer: {e}"
    return (t_basic,) * repetitions, (t_aggr,) * repetitions


def _measured_samples(fn_id: str, fn: FunctionUnit, cfg: LabelerConfig, workdir: Path) -> Samples:
    """The real source: compile both variants at once, then time basic and aggr in turn.

    The first failure is the quarantine reason, checked in this order:
    driver, compile[basic], compile[aggr], run[basic], run[aggr], then a
    checksum mismatch between the variants.
    """
    try:
        driver = synthesize_driver(fn, cfg)
    except DriverError as e:
        return f"driver: {e}"
    # imported here: only real labeling needs it, and every CLI command
    # imports this module
    from concurrent.futures import ThreadPoolExecutor

    # compiling is not timed, so both variants build at once; leaving the
    # pool waits for both, and timing below stays serial
    with ThreadPoolExecutor(max_workers=2) as pool:
        builds = {
            tag: pool.submit(compile_variant, driver, flags, cfg, workdir, stem=_stem(fn_id, tag))
            for tag, flags in (("basic", cfg.flags_basic), ("aggr", cfg.flags_aggr))
        }
    binaries = {}
    for tag, build in builds.items():
        try:
            binaries[tag] = build.result()
        except CompileError as e:
            detail = f"; {e.stderr.splitlines()[-1]}" if e.stderr else ""
            return f"compile[{tag}]: {e}{detail}"
    results = {}
    for tag, binary in binaries.items():
        try:
            results[tag] = measure(binary, cfg)
        except RunError as e:
            return f"run[{tag}]: {e}"
    basic, aggr = results["basic"], results["aggr"]
    if basic.checksum != aggr.checksum:
        return f"checksum mismatch between variants: basic={basic.checksum} aggr={aggr.checksum}"
    return basic.samples, aggr.samples


@contextmanager
def _workdir(cfg: LabelerConfig) -> Iterator[Path]:
    """cfg.workdir, created when missing, or a temp dir removed afterwards."""
    if cfg.workdir is not None:
        Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
        yield Path(cfg.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="opttriage-") as tmp:
            yield Path(tmp)


def _label(fn_id: str, source: str, samples: Samples, delta: float) -> ManifestRow:
    """The shared step: samples to TimingRecord to label, or a quarantine."""
    if isinstance(samples, str):
        return ManifestRow(fn_id, quarantine_reason=samples)
    try:
        timing = TimingRecord(*samples)
    except (TypeError, ValueError) as e:
        return ManifestRow(fn_id, quarantine_reason=f"{source}: {e}")
    label = label_from_ratio(timing.t_basic, timing.t_aggr, delta)
    return ManifestRow(fn_id, timing=timing, label=label)


def label_corpus(
    functions: Sequence[tuple[str, FunctionUnit]],
    cfg: LabelerConfig = LabelerConfig(),
    timer: Optional[Timer] = None,
) -> list[ManifestRow]:
    """Label functions by measured timing ratio; failures become quarantines.

    Each result is a manifest row with only function_id and either timing
    and label or quarantine_reason set.

    With ``timer`` set, compilation and measurement are skipped entirely:
    the timer supplies (t_basic, t_aggr) per function, which keeps the flow
    deterministic and hermetic. The samples of either source go through the
    same step, ``_label``.
    """
    if not functions:
        raise ValueError("no functions to label")
    results = []
    with nullcontext() if timer is not None else _workdir(cfg) as workdir:
        for fn_id, fn in functions:
            if timer is not None:
                source, samples = "timer", _timer_samples(timer, fn_id, fn, cfg.repetitions)
            else:
                source, samples = "run", _measured_samples(fn_id, fn, cfg, workdir)
            results.append(_label(fn_id, source, samples, cfg.delta))
    return results
