"""Corpus manifest format tests: canonical bytes and invariants."""

import json

import pytest

from opttriage import FeatureSchema
from opttriage.manifest import (
    CorpusManifest,
    ManifestFormatError,
    ManifestRow,
    TimingRecord,
    canonical_json,
    config_digest,
    dumps_manifest,
    function_id,
    loads_manifest,
    read_manifest,
    write_manifest,
)


def _timing() -> TimingRecord:
    return TimingRecord([1.0, 1.2, 1.1], [0.5, 0.4, 0.6])


def _manifest() -> CorpusManifest:
    schema = FeatureSchema(1)
    return CorpusManifest(
        rows=[
            ManifestRow(
                function_id="a.c::f",
                source_path="a.c",
                feature_values=[0.0] * schema.width,
                timing=_timing(),
                label="hard",
            ),
            ManifestRow(
                function_id="b.c::g",
                source_path="b.c",
                quarantine_reason="parse: unsupported construct: 'while' statement",
            ),
        ],
        schema=schema,
        config_hashes={"generator": "sha256:00"},
        meta={"note": "fixture"},
    )


def test_canonical_json_is_compact_and_sorted():
    text = canonical_json({"b": 1, "a": [1.5, 2]})
    assert text == '{"a":[1.5,2],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_config_digest_is_stable_and_order_free():
    a = config_digest({"x": 1, "y": 2})
    b = config_digest({"y": 2, "x": 1})
    assert a == b
    assert a.startswith("sha256:")
    assert config_digest({"x": 1, "y": 3}) != a


def test_function_id_format():
    assert function_id("dir/file.c", "f") == "file.c::f"
    assert function_id("kernel_0001.c", "kernel_0001") == "kernel_0001.c::kernel_0001"


def test_round_trip_preserves_bytes():
    text = dumps_manifest(_manifest())
    again = dumps_manifest(loads_manifest(text))
    assert text == again


def test_header_is_first_line():
    lines = dumps_manifest(_manifest()).splitlines()
    head = json.loads(lines[0])
    assert head["kind"] == "header"
    assert head["format"] == "opttriage-manifest"
    assert head["schema"] == {"max_depth": 1}
    assert all(json.loads(l)["kind"] == "row" for l in lines[1:])


def test_rows_are_compact_single_lines():
    text = dumps_manifest(_manifest())
    assert len(text.splitlines()) == 3  # header + 2 rows
    assert ": " not in text.splitlines()[1]


def test_file_round_trip(tmp_path):
    man = _manifest()
    path = tmp_path / "corpus.jsonl"
    write_manifest(man, path)
    loaded = read_manifest(path)
    assert dumps_manifest(loaded) == dumps_manifest(man)
    assert loaded.rows[0].timing == _timing()
    assert loaded.rows[0].label == "hard"


def test_labeled_and_quarantined_views():
    man = _manifest()
    assert [r.function_id for r in man.rows if r.label is not None] == ["a.c::f"]
    assert [r.function_id for r in man.rows if r.quarantine_reason is not None] == ["b.c::g"]


def test_validate_rejects_duplicate_ids():
    man = _manifest()
    man.rows.append(ManifestRow(function_id="a.c::f", quarantine_reason="x"))
    with pytest.raises(ManifestFormatError, match="duplicate"):
        dumps_manifest(man)


def test_validate_rejects_label_without_timing():
    man = _manifest()
    man.rows[0] = ManifestRow(
        function_id="a.c::f",
        source_path="a.c",
        feature_values=[0.0] * 12,
        label="easy",
    )
    with pytest.raises(ManifestFormatError):
        dumps_manifest(man)


def test_validate_rejects_quarantine_with_label():
    man = _manifest()
    man.rows[1] = ManifestRow(
        function_id="b.c::g",
        timing=_timing(),
        label="easy",
        quarantine_reason="x",
    )
    with pytest.raises(ManifestFormatError):
        dumps_manifest(man)


def test_validate_rejects_feature_width_mismatch():
    man = _manifest()
    man.rows[0].feature_values = [0.0] * 5
    with pytest.raises(ManifestFormatError, match="width"):
        dumps_manifest(man)


def test_validate_rejects_unknown_label():
    man = _manifest()
    man.rows[0].label = "medium"
    with pytest.raises(ManifestFormatError):
        dumps_manifest(man)


def test_loads_rejects_garbage():
    with pytest.raises(ManifestFormatError):
        loads_manifest("")
    with pytest.raises(ManifestFormatError):
        loads_manifest('{"kind":"row"}\n')
    with pytest.raises(ManifestFormatError):
        loads_manifest('{"kind":"header","format":"other","format_version":1}\n')



def _manifest_text(header=None, row=None) -> str:
    """The fixture manifest with keys of its header and first row replaced."""
    head, first, *rest = dumps_manifest(_manifest()).splitlines()
    head = json.dumps({**json.loads(head), **(header or {})})
    first = json.dumps({**json.loads(first), **(row or {})})
    return "\n".join([head, first, *rest]) + "\n"


@pytest.mark.parametrize(
    "text, line",
    [
        (_manifest_text(header={"format": "other"}), 1),
        (_manifest_text(header={"format_version": True}), 1),
        (_manifest_text(header={"format_version": 1.0}), 1),
        (_manifest_text(header={"schema": 5}), 1),
        (_manifest_text(header={"schema": {}}), 1),
        (_manifest_text(header={"schema": {"max_depth": "1"}}), 1),
        (_manifest_text(header={"schema": {"max_depth": 1.5}}), 1),
        (_manifest_text(header={"schema": {"max_depth": True}}), 1),
        (_manifest_text(header={"schema": {"max_depth": 0}}), 1),
        (_manifest_text(header={"schema": {"max_depth": 4996}}), 1),
        (_manifest_text(header={"schema": {"max_depth": 10**9}}), 1),
        ("\n\n" + _manifest_text(header={"schema": {"max_depth": 4996}}), 3),
        (_manifest_text(header={"config_hashes": ["sha256:00"]}), 1),
        (_manifest_text(header={"meta": "fixture"}), 1),
        (_manifest_text(row={"feature_values": [float("nan")] * 12}), 2),
        (_manifest_text(row={"feature_values": [0.0] * 11 + [float("-inf")]}), 2),
        (_manifest_text().replace('"feature_values": [0.0', '"feature_values": [1e999'), 2),
        (_manifest_text().splitlines()[0] + "\n[1, 2]\n", 2),
        ("\n".join(_manifest_text().splitlines()[:2]) + "\n\n\n\n[1, 2]\n", 6),
        (_manifest_text().replace('"feature_values": [0.0', '"feature_values": [1' + "0" * 400), 2),
        (_manifest_text(header={"meta": {"note": float("nan")}}), 1),
        (_manifest_text(header={"meta": {"runs": [1.0, float("inf")]}}), 1),
        (_manifest_text(header={"config_hashes": {"generator": float("-inf")}}), 1),
        (_manifest_text().replace('"note": "fixture"', '"note": 1e999'), 1),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "t_aggr": float("nan")}}), 2),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "ratio": float("inf")}}), 2),
        (_manifest_text().replace('"samples_basic": [1.0', '"samples_basic": [1e999'), 2),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "samples_aggr": []}}), 2),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "t_basic": 1.2}}), 2),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "t_aggr": 123}}), 2),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "ratio": 7.5}}), 2),
        (
            _manifest_text(
                row={"timing": {**_timing().to_dict(), "samples_basic": [], "t_aggr": 123,
                                "ratio": 7.5}}
            ),
            2,
        ),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "samples_basic": [0.0] * 3}}), 2),
        # a string or booleans where a list of numbers belongs; each of these
        # rows is otherwise consistent, down to its derived timing values
        (_manifest_text(row={"feature_values": "0" * 12}), 2),
        (_manifest_text(row={"feature_values": [False] * 12}), 2),
        (
            _manifest_text(
                row={"timing": {**_timing().to_dict(), "samples_basic": "1", "t_basic": 1.0,
                                "ratio": 0.5}}
            ),
            2,
        ),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "samples_aggr": ["0.5"]}}), 2),
        (_manifest_text(row={"timing": {**_timing().to_dict(), "t_basic": "1.1"}}), 2),
        # a row's id is a string, and its path, label and reason are strings or null
        (_manifest_text(row={"function_id": 5}), 2),
        (_manifest_text(row={"source_path": 5}), 2),
        (_manifest_text(row={"label": ["hard"]}), 2),
        (_manifest_text(row={"label": None, "timing": None, "quarantine_reason": ["x"]}), 2),
    ],
    ids=[
        "not-a-manifest", "version-true", "version-float",
        "schema-not-object", "schema-no-depth", "depth-string", "depth-float",
        "depth-bool", "depth-zero", "depth-above-bound", "depth-huge",
        "header-behind-blank-lines", "hashes-not-object", "meta-not-object",
        "feature-nan", "feature-inf", "feature-overflow", "row-not-object",
        "row-behind-blank-lines",
        "feature-int-overflow", "meta-nan", "meta-nested-inf", "hashes-inf", "meta-overflow",
        "timing-nan", "timing-inf", "timing-overflow", "timing-no-samples",
        "timing-t-basic-tampered", "timing-t-aggr-tampered", "timing-ratio-tampered",
        "timing-all-tampered", "timing-zero-samples",
        "feature-values-string", "feature-values-booleans", "samples-basic-string",
        "samples-aggr-string-items", "timing-t-basic-string",
        "function-id-number", "source-path-number", "label-list", "quarantine-reason-list",
    ],
)
def test_loads_rejects_malformed_fields_naming_the_line(text, line):
    with pytest.raises(ManifestFormatError, match=f"^line {line}:"):
        loads_manifest(text)
