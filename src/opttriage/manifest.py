"""Line-delimited corpus manifests and canonical JSON helpers.

A manifest is one header record followed by one record per function, each
on its own line of compact, key-sorted JSON. That keeps files diffable
line-by-line and makes equality checks byte-exact: the same records
always serialize to the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from opttriage.features import FeatureSchema
from opttriage.labeler import TimingRecord

MANIFEST_FORMAT = "opttriage-manifest"
MANIFEST_FORMAT_VERSION = 1


class ManifestFormatError(ValueError):
    pass


def canonical_json(obj) -> str:
    """Compact, key-sorted JSON; floats keep their shortest exact repr."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(doc: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(doc).encode()).hexdigest()


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
        timing = doc.get("timing")
        features = doc.get("feature_values")
        if features is not None:
            features = [float(v) for v in features]
            if not all(map(math.isfinite, features)):
                raise ValueError("non-finite feature value")
        return ManifestRow(
            function_id=str(doc["function_id"]),
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

    def labeled_rows(self) -> list[ManifestRow]:
        return [r for r in self.rows if r.label is not None]

    def quarantined_rows(self) -> list[ManifestRow]:
        return [r for r in self.rows if r.quarantine_reason is not None]

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


def loads_manifest(text: str) -> CorpusManifest:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ManifestFormatError("empty manifest")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ManifestFormatError(f"bad header line: {e}") from e
    if not isinstance(header, dict) or header.get("format") != MANIFEST_FORMAT:
        raise ManifestFormatError("not a corpus manifest")
    if header.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise ManifestFormatError(
            f"unsupported manifest version {header.get('format_version')!r}"
        )
    raw_schema = header.get("schema")
    schema = None
    if raw_schema is not None:
        depth = raw_schema.get("max_depth") if isinstance(raw_schema, dict) else None
        if type(depth) is not int or depth < 1:
            raise ManifestFormatError(
                f"line 1: header schema {raw_schema!r} needs an integer max_depth of at least 1"
            )
        schema = FeatureSchema(depth)
    tables = {}
    for key in ("config_hashes", "meta"):
        value = header.get(key)
        if value is not None and not isinstance(value, dict):
            raise ManifestFormatError(f"line 1: header {key} is not an object")
        tables[key] = dict(value or {})
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict) or doc.get("kind") != "row":
                raise ManifestFormatError(f"line {lineno}: expected a row record")
            rows.append(ManifestRow.from_dict(doc))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
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
