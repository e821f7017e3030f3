"""Line-delimited corpus manifests and canonical JSON helpers.

A manifest is one header record followed by one record per function, each
on its own line of compact, key-sorted JSON. That keeps files diffable
line-by-line and makes equality checks byte-exact: the same records
always serialize to the same bytes. The row, its timing record and
the labeler configuration a manifest records are defined here only; the
labeler builds rows, it does not define them, and `classify` reads a
configuration's flags without loading the labeler.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
import statistics
import string
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, Union

from opttriage.features import FeatureSchema

MANIFEST_FORMAT = "opttriage-manifest"
MANIFEST_FORMAT_VERSION = 1


class ManifestFormatError(ValueError):
    pass


def canonical_json(obj) -> str:
    """Compact, key-sorted JSON; floats keep their shortest exact repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class LabelerConfig:
    delta: float = 0.8
    compiler_cmd: str = "cc -ffp-contract=off {flags} -o {output} {source}"
    flags_basic: tuple[str, ...] = ("-O1",)
    flags_aggr: tuple[str, ...] = ("-O3",)
    repetitions: int = 7
    timeout_s: float = 60.0  # per compile, and per launch: one kernel's calibration and batches, both variants
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
            if not abs(value) <= sys.float_info.max:  # nan, inf, or an int no float holds
                raise ValueError(f"{key} must be finite, not {value!r}")
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
        for key in ("flags_basic", "flags_aggr"):
            flags = getattr(self, key)
            if not isinstance(flags, tuple) or not all(isinstance(f, str) for f in flags):
                raise ValueError(f"{key} must be a tuple of strings, not {flags!r}")
        try:  # the labeler fills in exactly these fields, then splits the command
            fields = {f[1:] for f in string.Formatter().parse(self.compiler_cmd) if f[1] is not None}
            if fields != {(name, "", None) for name in ("flags", "source", "output")}:
                raise ValueError("it must use exactly the fields {flags}, {source} and {output}")
            shlex.split(self.compiler_cmd.format(flags="-O1", source="a.c", output="a.o"))
        except ValueError as e:
            raise ValueError(f"compiler_cmd {self.compiler_cmd!r}: {e}") from None
        for key in ("flags_basic", "flags_aggr"):
            try:  # joined and split as the labeler does: "-O3 -march=native" is two flags
                flags = " ".join(getattr(self, key))
                shlex.split(self.compiler_cmd.format(flags=flags, source="a.c", output="a.o"))
            except ValueError as e:
                raise ValueError(f"{key} {getattr(self, key)!r}: {e}") from None

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


def config_digest(doc: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def number_list(value, what: str) -> list:
    """value itself when it is a JSON list of numbers; a boolean is not a number here."""
    if not isinstance(value, list) or any(type(v) not in (int, float) for v in value):
        raise ValueError(f"{what} must be a list of numbers")
    return value


def checked_seconds(values: Sequence[float]) -> tuple[float, ...]:
    """The one check on measured seconds: at least one, each finite and positive."""
    seconds = tuple(float(v) for v in values)
    if not seconds:
        raise ValueError("no timing samples")
    if not all(math.isfinite(s) for s in seconds):
        raise ValueError("timings must be finite")
    if min(seconds) <= 0:
        raise ValueError("timings must be positive")
    return seconds


@dataclass(frozen=True)
class TimingRecord:
    """Per-repetition seconds of both variants; medians and ratio derive from them."""

    samples_basic: tuple[float, ...]
    samples_aggr: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples_basic", checked_seconds(self.samples_basic))
        object.__setattr__(self, "samples_aggr", checked_seconds(self.samples_aggr))
        if not math.isfinite(self.ratio):
            raise ValueError("timing ratio is not finite")

    @cached_property
    def t_basic(self) -> float:
        return statistics.median(self.samples_basic)

    @cached_property
    def t_aggr(self) -> float:
        return statistics.median(self.samples_aggr)

    @property
    def ratio(self) -> float:
        return self.t_aggr / self.t_basic

    def to_dict(self) -> dict:
        return {
            "t_basic": self.t_basic,
            "t_aggr": self.t_aggr,
            "ratio": self.ratio,
            "samples_basic": list(self.samples_basic),
            "samples_aggr": list(self.samples_aggr),
        }

    @staticmethod
    def from_dict(doc: dict) -> "TimingRecord":
        """Rebuilds the record from its samples; stored derived values must agree."""
        record = TimingRecord(
            number_list(doc["samples_basic"], "samples_basic"),
            number_list(doc["samples_aggr"], "samples_aggr"),
        )
        for key in ("t_basic", "t_aggr", "ratio"):
            derived = getattr(record, key)
            if type(doc[key]) not in (int, float):
                raise ValueError(f"timing {key} {doc[key]!r} is not a number")
            if doc[key] != derived:
                raise ValueError(
                    f"timing {key} {doc[key]!r} disagrees with its samples ({derived!r})"
                )
        return record


@dataclass
class ManifestRow:
    function_id: str
    source_path: Optional[str] = None
    feature_values: Optional[list[float]] = None
    timing: Optional[TimingRecord] = None
    label: Optional[str] = None
    quarantine_reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "kind": "row",
            "function_id": self.function_id,
            "source_path": self.source_path,
            "feature_values": self.feature_values,
            "timing": None if self.timing is None else self.timing.to_dict(),
            "label": self.label,
            "quarantine_reason": self.quarantine_reason,
        }

    @staticmethod
    def from_dict(doc: dict) -> "ManifestRow":
        if type(doc["function_id"]) is not str:
            raise ValueError(f"function_id must be a string, not {doc['function_id']!r}")
        for key in ("source_path", "label", "quarantine_reason"):
            if not isinstance(doc.get(key), (str, type(None))):
                raise ValueError(f"{key} must be a string or null, not {doc[key]!r}")
        timing = doc.get("timing")
        features = doc.get("feature_values")
        if features is not None:
            features = [float(v) for v in number_list(features, "feature_values")]
        return ManifestRow(
            function_id=doc["function_id"],
            source_path=doc.get("source_path"),
            feature_values=features,
            timing=None if timing is None else TimingRecord.from_dict(timing),
            label=doc.get("label"),
            quarantine_reason=doc.get("quarantine_reason"),
        )


@dataclass
class CorpusManifest:
    rows: list[ManifestRow] = field(default_factory=list)
    schema: Optional[FeatureSchema] = None
    config_hashes: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        seen = set()
        for row in self.rows:
            where = f"row {row.function_id!r}"
            if not row.function_id:
                raise ManifestFormatError("row without a function_id")
            if row.function_id in seen:
                raise ManifestFormatError(f"duplicate function_id {row.function_id!r}")
            seen.add(row.function_id)
            if row.label is not None:
                if row.label not in ("easy", "hard"):
                    raise ManifestFormatError(f"{where}: unknown label {row.label!r}")
                if row.timing is None:
                    raise ManifestFormatError(f"{where}: labeled but has no timing")
            if row.quarantine_reason is not None and (
                row.label is not None or row.timing is not None
            ):
                raise ManifestFormatError(f"{where}: quarantined rows carry no label or timing")
            if (
                row.feature_values is not None
                and self.schema is not None
                and len(row.feature_values) != self.schema.width
            ):
                raise ManifestFormatError(
                    f"{where}: {len(row.feature_values)} feature values, "
                    f"schema width is {self.schema.width}"
                )

    def header_dict(self) -> dict:
        return {
            "kind": "header",
            "format": MANIFEST_FORMAT,
            "format_version": MANIFEST_FORMAT_VERSION,
            "schema": None if self.schema is None else {"max_depth": self.schema.max_depth},
            "config_hashes": self.config_hashes,
            "meta": self.meta,
        }


def dumps_manifest(manifest: CorpusManifest) -> str:
    manifest.validate()
    lines = [canonical_json(manifest.header_dict())]
    lines.extend(canonical_json(row.to_dict()) for row in manifest.rows)
    return "\n".join(lines) + "\n"


def write_manifest(manifest: CorpusManifest, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_manifest(manifest), encoding="utf-8")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):  # NaN, Infinity, or a literal such as 1e999
        raise ValueError(f"non-finite number {token}")
    return value


# Decodes each manifest line; a non-finite number anywhere on it raises ValueError.
_LINE_DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


def loads_manifest(text: str) -> CorpusManifest:
    # (physical line number, text) of each non-blank line, so errors name the line as read
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ManifestFormatError("empty manifest")
    at, first = lines[0]
    try:
        header = _LINE_DECODER.decode(first)
    except ValueError as e:
        raise ManifestFormatError(f"line {at}: bad header: {e}") from e
    if not isinstance(header, dict) or header.get("format") != MANIFEST_FORMAT:
        raise ManifestFormatError(f"line {at}: not a corpus manifest")
    version = header.get("format_version")
    if type(version) is not int or version != MANIFEST_FORMAT_VERSION:
        raise ManifestFormatError(f"line {at}: unsupported manifest version {version!r}")
    raw_schema = header.get("schema")
    schema = None
    if raw_schema is not None:
        depth = raw_schema.get("max_depth") if isinstance(raw_schema, dict) else None
        if type(depth) is not int:
            raise ManifestFormatError(
                f"line {at}: header schema {raw_schema!r} needs an integer max_depth"
            )
        try:
            schema = FeatureSchema(depth)
        except ValueError as e:
            raise ManifestFormatError(f"line {at}: header schema {raw_schema!r}: {e}") from e
    tables = {}
    for key in ("config_hashes", "meta"):
        value = header.get(key)
        if value is not None and not isinstance(value, dict):
            raise ManifestFormatError(f"line {at}: header {key} is not an object")
        tables[key] = dict(value or {})
    rows = []
    for lineno, line in lines[1:]:
        try:
            doc = _LINE_DECODER.decode(line)
            if not isinstance(doc, dict) or doc.get("kind") != "row":
                raise ManifestFormatError(f"line {lineno}: expected a row record")
            rows.append(ManifestRow.from_dict(doc))
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            if isinstance(e, ManifestFormatError):
                raise
            raise ManifestFormatError(f"line {lineno}: malformed row: {e}") from e
    manifest = CorpusManifest(rows=rows, schema=schema, **tables)
    manifest.validate()
    return manifest


def read_manifest(path: Union[str, Path]) -> CorpusManifest:
    return loads_manifest(Path(path).read_text(encoding="utf-8"))


def function_id(source_name: str, function_name: str) -> str:
    """Stable id for one function: '<file base name>::<function name>'."""
    return f"{Path(source_name).name}::{function_name}"
