"""Produces easy/hard training labels by timing real compiled code.

One call labels a whole corpus. Each function is compiled alone, once
with basic and once with aggressive flags, into an object whose symbol
is renamed after the function's position. One driver, with a timing
harness per function that names the function's parameters and sizes by
position and value only, is linked with all those objects; one launch per
function times both variants in alternating batches of one process. The
ratio rule then applies: the function is easy to optimize when
aggressive flags barely help, i.e. t_aggr / t_basic > delta. Functions
that fail anywhere along that path are quarantined with the cause
instead of aborting the run. An injectable timer replaces the
compile-and-run leg so the whole pipeline can run hermetically.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from opttriage.manifest import LabelerConfig, ManifestRow, TimingRecord, checked_seconds

if TYPE_CHECKING:
    from opttriage.minic import FunctionUnit

EASY_NAME = "easy"
HARD_NAME = "hard"


class DriverError(Exception):
    """The function cannot be wrapped in a timing driver: it has no source text."""


class CompileError(Exception):
    """A compile failed; ``stderr`` holds all the compiler printed.

    The message adds one line of it, so a quarantine reason stays one line:
    the first that says ``error:``, else the last non-blank one, with the
    workdir's prefix removed from the paths it names.
    """

    def __init__(self, message: str, stderr: str = "", workdir: Optional[Path] = None):
        lines = [line.strip() for line in stderr.splitlines() if line.strip()]
        if lines:
            line = next((text for text in lines if "error:" in text), lines[-1])
            if workdir is not None:
                line = line.replace(f"{workdir}{os.sep}", "")
            message = f"{message}: {line}"
        super().__init__(message)
        self.stderr = stderr


class RunError(Exception):
    """A timed launch failed; ``variant`` names the variant it is charged to."""

    def __init__(self, message: str, variant: str = "basic"):
        super().__init__(message)
        self.variant = variant


def label_from_ratio(t_basic: float, t_aggr: float, delta: float) -> str:
    """Easy iff t_aggr/t_basic > delta (strict); the boundary itself is hard."""
    t_basic, t_aggr = checked_seconds((t_basic, t_aggr))
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    return EASY_NAME if t_aggr / t_basic > delta else HARD_NAME


# --------------------------------------------------------------------- driver

VARIANTS = ("basic", "aggr")

_DRIVER_PRELUDE = """\
#include <stdio.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

static uint64_t ot_rng_state;

static double ot_rng_next(void)
{
    ot_rng_state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = ot_rng_state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return (double)(z >> 11) * (1.0 / 9007199254740992.0);
}

static double ot_now_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}
"""

_DRIVER_MAIN = """\
static const char *const ot_variants[2] = {"basic", "aggr"};

/* Calls per batch of one variant: double while a batch lasts under a
   sixteenth of the target, then jump to 1.1 x the calls the last batch
   predicts for the target; stop at the first batch of at least the
   target, or at 2^30 calls. */
static long ot_calibrate(const struct ot_harness *h, int aggr)
{
    const double target = %(min_runtime_s)r;
    const long cap = 1L << 30;
    long calls = 1;
    for (;;) {
        double elapsed = h->batch(aggr, calls);
        if (elapsed >= target || calls >= cap)
            return calls;
        if (elapsed < target / 16.0) {
            calls *= 2;
        } else {
            double want = (double)calls * 1.1 * target / elapsed;
            calls = want >= (double)cap ? cap : (long)want + ((double)(long)want < want);
        }
    }
}

int main(int argc, char **argv)
{
    setvbuf(stdout, NULL, _IOLBF, 0);
    const struct ot_harness *h = NULL;
    long id = argc == 2 ? strtol(argv[1], NULL, 10) : -1;
    for (size_t i = 0; i < sizeof ot_harnesses / sizeof ot_harnesses[0]; i++)
        if (ot_harnesses[i].id == id)
            h = &ot_harnesses[i];
    if (h == NULL) {
        fprintf(stderr, "usage: %%s KERNEL, where this driver has no harness for that kernel\\n", argv[0]);
        return 2;
    }
    long calls[2];
    for (int v = 0; v < 2; v++) {
        printf("running %%s\\n", ot_variants[v]);
        printf("checksum %%s %%.6e\\n", ot_variants[v], h->verify(v));
    }
    for (int v = 0; v < 2; v++) {
        printf("running %%s\\n", ot_variants[v]);
        calls[v] = ot_calibrate(h, v);
        printf("calls %%s %%ld\\n", ot_variants[v], calls[v]);
    }
    for (int rep = 0; rep < %(repetitions)d; rep++) {
        for (int v = 0; v < 2; v++) {
            printf("running %%s\\n", ot_variants[v]);
            double elapsed = h->batch(v, calls[v]);
            printf("per_call_seconds %%s %%.9e\\n", ot_variants[v], elapsed / (double)calls[v]);
            printf("rep_checksum %%s %%.6e\\n", ot_variants[v], h->checksum());
        }
    }
    return 0;
}
"""


def _extent(fn: FunctionUnit, cfg: LabelerConfig) -> int:
    # known literal bounds may exceed the configured extent; size up so every
    # in-bounds subscript of the original code stays in bounds here
    return max(cfg.array_extent, fn.min_extent)


def _alias(k: int, tag: str) -> str:
    """The symbol kernel k's object of one variant defines: position-based, so unique."""
    return f"ot_k{k}_{tag}"


def _harness(k: int, fn: FunctionUnit, cfg: LabelerConfig) -> str:
    """Driver code that times kernel k's two objects; raises DriverError.

    Outside its comment the harness names nothing of the kernel's source:
    a symbolic extent is written as its size, prototype parameters are
    unnamed, and each global is named after kernel k and its parameter's
    position, so every identifier is a C keyword or starts with ot_.
    """
    if not fn.source_text.strip():
        raise DriverError("function has no source text to embed")
    pre = f"ot_k{k}"
    extent = _extent(fn, cfg)

    lines = [f"/* kernel {k}: {fn.name} */"]
    proto_params = []
    call_args = []
    globals_decl = []
    fills = []
    sums = []
    for i, p in enumerate(fn.params):
        if not p.extents:
            value = extent if p.base_type == "int" else "1.5f"
            proto_params.append(p.base_type)
            globals_decl.append(f"static volatile {p.base_type} {pre}_s{i} = {value};")
            call_args.append(f"{pre}_s{i}")
        else:
            dims = [ext if isinstance(ext, int) else extent for ext in p.extents]
            decl_dims = "".join(f"[{d}]" for d in dims)
            proto_params.append(f"{p.base_type}{decl_dims}")
            globals_decl.append(f"static {p.base_type} {pre}_g{i}{decl_dims};")
            call_args.append(f"{pre}_g{i}")
            idx = [f"ot_i{d}" for d in range(len(dims))]
            ref = f"{pre}_g{i}" + "".join(f"[{v}]" for v in idx)
            cast = "(float)ot_rng_next()" if p.base_type == "float" else f"(int)(ot_rng_next() * {extent}.0)"
            open_loops = "".join(
                f"for (long {v} = 0; {v} < {d}; {v}++) " for v, d in zip(idx, dims)
            )
            fills.append(f"    {open_loops}{ref} = {cast};")
            sums.append(f"    {open_loops}ot_sum += (double){ref};")
    params = ", ".join(proto_params) or "void"
    lines.append("")
    lines.extend(f"{fn.return_type} {_alias(k, tag)}({params});" for tag in VARIANTS)
    lines.append("")
    lines.extend(globals_decl)
    calls = {tag: f"{_alias(k, tag)}({', '.join(call_args)})" for tag in VARIANTS}
    nonvoid = fn.return_type != "void"
    if nonvoid:
        lines.append(f"static volatile double {pre}_sink;")
    lines.append("")
    seed = cfg.rng_seed & 0xFFFFFFFFFFFFFFFF
    lines.append(f"static void {pre}_init(void)")
    lines.append("{")
    lines.append(f"    ot_rng_state = {seed}ULL;")
    lines.extend(fills)
    lines.append("}")
    lines.append("")
    lines.append(f"static double {pre}_checksum(void)")
    lines.append("{")
    lines.append("    double ot_sum = 0.0;")
    lines.extend(sums)
    lines.append("    return ot_sum;")
    lines.append("}")
    lines.append("")
    lines.append(f"static double {pre}_batch(int ot_aggr, long ot_calls)")
    lines.append("{")
    lines.append(f"    {pre}_init();")
    lines.append("    double ot_start = ot_now_seconds();")
    for keyword, tag in (("if (ot_aggr)", "aggr"), ("else", "basic")):
        timed_call = f"{pre}_sink = (double){calls[tag]};" if nonvoid else f"{calls[tag]};"
        lines.append(f"    {keyword}")
        lines.append("        for (long ot_c = 0; ot_c < ot_calls; ot_c++) {")
        lines.append(f"            {timed_call}")
        lines.append('            __asm__ __volatile__("" ::: "memory");')
        lines.append("        }")
    lines.append("    return ot_now_seconds() - ot_start;")
    lines.append("}")
    lines.append("")
    # one call on freshly initialized data, so the checksum does not depend
    # on how far the timing loop scales
    lines.append(f"static double {pre}_verify(int ot_aggr)")
    lines.append("{")
    lines.append(f"    {pre}_batch(ot_aggr, 1);")
    lines.append(f"    return {pre}_sink + {pre}_checksum();" if nonvoid else f"    return {pre}_checksum();")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _assemble(harnesses: dict[int, str], cfg: LabelerConfig) -> str:
    """One driver from harness texts keyed by kernel position."""
    table = [
        "struct ot_harness {",
        "    long id;",
        "    double (*verify)(int aggr);",
        "    double (*batch)(int aggr, long calls);",
        "    double (*checksum)(void);",
        "};",
        "",
        "static const struct ot_harness ot_harnesses[] = {",
        *(
            f"    {{{k}, ot_k{k}_verify, ot_k{k}_batch, ot_k{k}_checksum}},"
            for k in harnesses
        ),
        "};",
        "",
    ]
    main = _DRIVER_MAIN % {"min_runtime_s": cfg.min_runtime_s, "repetitions": cfg.repetitions}
    return "\n".join([_DRIVER_PRELUDE, *harnesses.values(), *table, main])


def synthesize_driver(kernels: Sequence[tuple[int, FunctionUnit]], cfg: LabelerConfig) -> str:
    """One C program that times both variants of every kernel given.

    Each kernel k is compiled alone, once per variant, as a symbol renamed
    ``ot_k<k>_basic`` or ``ot_k<k>_aggr``; the driver is linked with those
    objects. Per kernel it holds one harness, which names the kernel's
    parameters by position only: every symbolic array extent written as
    the one concrete size the kernel's objects get as ``-D<name>=<size>``,
    arrays filled from a seeded generator, scalars passed through
    ``volatile`` globals, a compiler barrier after every call, and a
    checksum of the buffers. No identifier of the kernel's source reaches
    the driver, so kernels whose names clash with the C library's or the
    driver's own share one driver.

    ``driver <k>`` runs kernel k. Stdout is line-buffered, and the driver
    prints ``running <variant>`` before each step, so a crash or a timeout
    is charged to the variant that was running. Per variant it prints the
    checksum of one verification call (a batch of one call on fresh data:
    the buffers' checksum plus the return value, if any), then calibrates
    that variant on its own: it doubles the call count while a batch lasts
    under cfg.min_runtime_s/16, then jumps to ceil(calls * 1.1 *
    min_runtime_s / elapsed), and stops at the first batch of at least
    cfg.min_runtime_s or at 2^30 calls. That calibration is the warm-up. It then times
    cfg.repetitions batches of each variant, alternating basic and aggr,
    and prints per batch the per-call seconds and a checksum of the buffers
    taken after the clock stopped. Raises DriverError when a kernel cannot
    be wrapped.
    """
    return _assemble({k: _harness(k, fn, cfg) for k, fn in kernels}, cfg)


# ------------------------------------------------------------------ toolchain


def compile_variant(
    source: str,
    flags: Sequence[str],
    cfg: LabelerConfig,
    workdir: Union[str, Path],
    stem: str = "driver",
    link: Optional[Sequence[Path]] = None,
) -> Path:
    """Write ``<stem>.c`` and compile it; raises CompileError.

    With ``link`` None the result is the object ``<stem>.o`` (``-c``);
    otherwise it is the binary ``<stem>.bin``, linked with those objects.
    """
    workdir = Path(workdir)
    src_path = workdir / f"{stem}.c"
    src_path.write_text(source, encoding="utf-8")
    if link is None:
        flags, out_path, inputs = (*flags, "-c"), workdir / f"{stem}.o", [src_path]
    else:
        out_path, inputs = workdir / f"{stem}.bin", [src_path, *link]
    out_path.unlink(missing_ok=True)  # a reused workdir must not pass off an old output
    cmd = cfg.compiler_cmd.format(
        flags=" ".join(flags),
        source=" ".join(shlex.quote(str(p)) for p in inputs),
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
        raise CompileError(f"compiler exited with {proc.returncode}", proc.stderr, workdir)
    if not out_path.exists():
        raise CompileError(
            "compiler reported success but produced no output", proc.stderr, workdir
        )
    return out_path


@dataclass(frozen=True)
class MeasureResult:
    samples: tuple[float, ...]  # per-call seconds, one per repetition
    checksum: str  # textual checksum, compared verbatim across variants


def _running(stdout: Union[str, bytes, None]) -> str:
    """The variant the driver announced last: a crash or a timeout hit it."""
    if isinstance(stdout, bytes):  # TimeoutExpired keeps undecoded output
        stdout = stdout.decode("utf-8", "replace")
    last = VARIANTS[0]
    for line in (stdout or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "running" and parts[1] in VARIANTS:
            last = parts[1]
    return last


def measure(binary: Union[str, Path], kernel: int, cfg: LabelerConfig) -> dict[str, MeasureResult]:
    """One launch, ``binary <kernel>``: both variants of one kernel, one result each.

    Raises RunError, with ``variant`` set to the variant it is charged to,
    when the launch fails or times out (the variant that was running), when
    a variant's output does not hold one checksum and exactly
    cfg.repetitions samples and batch checksums, or when its batch
    checksums differ. The basic variant's output is checked first.
    """
    try:
        proc = subprocess.run(
            [str(binary), str(kernel)], capture_output=True, text=True, timeout=cfg.timeout_s
        )
    except subprocess.TimeoutExpired as e:
        raise RunError(f"run timed out after {cfg.timeout_s}s", _running(e.stdout)) from e
    except OSError as e:
        raise RunError(f"cannot run binary {str(binary)!r}: {e}") from e
    if proc.returncode != 0:
        raise RunError(
            f"binary exited with {proc.returncode}: {proc.stderr.strip()[:200]}",
            _running(proc.stdout),
        )
    keys = ("checksum", "per_call_seconds", "rep_checksum")
    fields: dict[tuple[str, str], list[str]] = {(key, v): [] for key in keys for v in VARIANTS}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and (parts[0], parts[1]) in fields:
            fields[parts[0], parts[1]].append(parts[2])
    reps = cfg.repetitions
    results = {}
    for v in VARIANTS:
        checksums, per_call, rep_checksums = (fields[key, v] for key in keys)
        if (len(checksums), len(per_call), len(rep_checksums)) != (1, reps, reps):
            raise RunError(
                f"malformed driver output: {v} printed {len(checksums)} checksums, "
                f"{len(per_call)} samples and {len(rep_checksums)} batch checksums, "
                f"not 1, {reps} and {reps}",
                v,
            )
        try:
            samples = checked_seconds(per_call)
        except ValueError as e:
            raise RunError(f"malformed driver output: {v} samples {per_call}: {e}", v) from None
        if len(set(rep_checksums)) != 1:
            raise RunError(
                f"checksum varies across batches of {v}: {sorted(set(rep_checksums))}", v
            )
        results[v] = MeasureResult(samples=samples, checksum=checksums[0])
    return results


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


def _build(tag: str, *args, **kwargs) -> Union[Path, str]:
    """compile_variant, with a CompileError turned into its quarantine reason."""
    try:
        return compile_variant(*args, **kwargs)
    except CompileError as e:
        return f"compile[{tag}]: {e}"


def _timed(binary: Path, k: int, cfg: LabelerConfig) -> Samples:
    try:
        results = measure(binary, k, cfg)
    except RunError as e:
        return f"run[{e.variant}]: {e}"
    basic, aggr = (results[tag] for tag in VARIANTS)
    if basic.checksum != aggr.checksum:
        return f"checksum mismatch between variants: basic={basic.checksum} aggr={aggr.checksum}"
    return basic.samples, aggr.samples


def _measured_samples(
    functions: Sequence[tuple[str, FunctionUnit]], cfg: LabelerConfig, workdir: Path
) -> list[Samples]:
    """The real source: every compile of the call first, then one launch per kernel.

    Kernel k is compiled alone per variant, renamed to ``ot_k<k>_<variant>``,
    and one driver with a harness per kernel is built at cfg.flags_basic and
    linked with all their objects. When that driver fails to build, each
    kernel gets a driver of its own, which finds the culprit. A kernel's
    first failure is its quarantine reason, checked in this order: driver,
    compile[basic], compile[aggr], its driver build (compile[basic], the
    flags the driver is built at), run[basic] or run[aggr] (whichever the
    launch charges), then a checksum mismatch between the variants.
    """
    # imported here: only real labeling needs it, and every CLI command
    # imports this module
    from concurrent.futures import ThreadPoolExecutor

    samples: dict[int, Samples] = {}
    harnesses = {}
    for k, (_, fn) in enumerate(functions):
        try:
            harnesses[k] = _harness(k, fn, cfg)
        except DriverError as e:
            samples[k] = f"driver: {e}"
    variant_flags = {"basic": cfg.flags_basic, "aggr": cfg.flags_aggr}
    # compiling is not timed, so it runs two at a time; leaving the pool
    # waits for every build, and timing below stays serial
    with ThreadPoolExecutor(max_workers=2) as pool:
        builds = {}
        for k in harnesses:
            fn = functions[k][1]
            defines = [f"-D{name}={_extent(fn, cfg)}" for name in sorted(fn.bound_symbols)]
            for tag in VARIANTS:
                kernel_flags = (*variant_flags[tag], f"-D{fn.name}={_alias(k, tag)}", *defines)
                builds[k, tag] = pool.submit(
                    _build, tag, fn.source_text.rstrip() + "\n", kernel_flags, cfg, workdir, _alias(k, tag)
                )
        objects = {}
        for k in harnesses:
            outputs = [builds[k, tag].result() for tag in VARIANTS]
            failed = [out for out in outputs if isinstance(out, str)]
            if failed:
                samples[k] = failed[0]
            else:
                objects[k] = outputs

        def build_driver(kernels: list[int], stem: str):
            source = _assemble({k: harnesses[k] for k in kernels}, cfg)
            link = [obj for k in kernels for obj in objects[k]]
            return pool.submit(_build, "basic", source, cfg.flags_basic, cfg, workdir, stem, link)

        binaries = {}
        if objects:
            driver = build_driver(list(objects), "ot_driver").result()
            binaries = dict.fromkeys(objects, driver)
            if isinstance(driver, str) and len(objects) > 1:
                # a harness or an object breaks the link: a driver per kernel finds it
                solo = {k: build_driver([k], f"ot_k{k}_driver") for k in objects}
                binaries = {k: build.result() for k, build in solo.items()}
    for k, binary in binaries.items():
        samples[k] = binary if isinstance(binary, str) else _timed(binary, k, cfg)
    return [samples[k] for k in range(len(functions))]


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
    if timer is not None:
        source = "timer"
        batch = [_timer_samples(timer, fn_id, fn, cfg.repetitions) for fn_id, fn in functions]
    else:
        source = "run"
        with _workdir(cfg) as workdir:
            batch = _measured_samples(functions, cfg, workdir)
    return [_label(fn_id, source, samples, cfg.delta) for (fn_id, _), samples in zip(functions, batch)]
