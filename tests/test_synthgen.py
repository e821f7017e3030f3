"""Generator tests: every emitted function must parse cleanly and the
whole corpus must be a pure function of its config."""

from pathlib import Path

import pytest

from opttriage import SourceUnit, compute_max_depth, parse_unit
from opttriage.features import FeatureSchema, extract
from opttriage.labeler import LabelerConfig, compile_variant, synthesize_driver
from opttriage.synthgen import GenConfig, GenConfigError, generate

from conftest import requires_compiler


def _parse_all(units: list[SourceUnit]):
    out = []
    for unit in units:
        fns, diagnostics = parse_unit(unit, strict=True)
        assert not diagnostics
        assert len(fns) == 1
        assert fns[0].name == Path(unit.path).stem  # what `opttriage gen` relies on
        out.append(fns[0])
    return out


def test_generation_is_deterministic():
    cfg = GenConfig(seed=4, n_functions=12)
    a = generate(cfg)
    b = generate(cfg)
    assert [(u.path, u.text) for u in a] == [(u.path, u.text) for u in b]


def test_each_function_has_its_own_stream():
    # dropping the corpus size must not reshuffle earlier functions
    big = generate(GenConfig(seed=4, n_functions=10))
    small = generate(GenConfig(seed=4, n_functions=3))
    assert [(u.path, u.text) for u in big[:3]] == [(u.path, u.text) for u in small]


def test_seed_changes_corpus():
    a = generate(GenConfig(seed=1, n_functions=5))
    b = generate(GenConfig(seed=2, n_functions=5))
    assert [u.text for u in a] != [u.text for u in b]


def test_all_functions_parse_strictly():
    units = generate(GenConfig(seed=9, n_functions=30))
    fns = _parse_all(units)
    assert len(fns) == 30
    assert [f.name for f in fns] == [f"kernel_{i:04d}" for i in range(30)]


def test_depths_respect_config():
    cfg = GenConfig(seed=3, n_functions=25, depth_range=(2, 3))
    fns = _parse_all(generate(cfg))
    depths = {n.depth for f in fns for n in f.loop_nests}
    assert depths <= {2, 3}
    assert compute_max_depth(fns) == 3


def test_all_symbolic_corpus_has_no_known_trips():
    cfg = GenConfig(seed=5, n_functions=10, p_symbolic=1.0)
    fns = _parse_all(generate(cfg))
    schema = FeatureSchema(compute_max_depth(fns))
    for fn in fns:
        vec = extract(fn, schema)
        assert all(vec[f"niter_known_{i}"] == 0.0 for i in range(schema.max_depth))


def test_no_symbolic_corpus_never_mentions_extent_symbol():
    cfg = GenConfig(seed=5, n_functions=10, p_symbolic=0.0)
    units = generate(cfg)
    for unit in units:
        assert "N" not in unit.text
    fns = _parse_all(units)
    for fn in fns:
        assert fn.bound_symbols == ()


def test_census_sees_variation_in_core_slots():
    fns = _parse_all(generate(GenConfig(seed=8, n_functions=40)))
    schema = FeatureSchema(compute_max_depth(fns))
    for slot in ("loop_num_arith_ops", "loop_num_arrays"):
        j = schema.index(slot)
        assert max(extract(fn, schema).values[j] for fn in fns) > 0, slot


def test_config_validation():
    with pytest.raises(GenConfigError):
        GenConfig(n_functions=0)
    with pytest.raises(GenConfigError):
        GenConfig(depth_range=(0, 2))
    with pytest.raises(GenConfigError):
        GenConfig(depth_range=(3, 2))
    with pytest.raises(GenConfigError):
        GenConfig(p_symbolic=1.5)
    with pytest.raises(GenConfigError):
        GenConfig(n_arrays_range=(0, 0), n_scalars_range=(0, 0))


def test_config_round_trip_and_unknown_keys():
    cfg = GenConfig(seed=2, n_functions=7, p_branch=0.5)
    assert GenConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(GenConfigError, match="unknown"):
        GenConfig.from_dict({"seeds": 2})


def test_branches_appear_when_requested():
    units = generate(GenConfig(seed=6, n_functions=30, p_branch=0.9))
    assert any("?" in u.text for u in units)
    units = generate(GenConfig(seed=6, n_functions=30, p_branch=0.0))
    assert not any("?" in u.text for u in units)


@pytest.mark.integration
@requires_compiler
def test_generated_functions_compile(tmp_path):
    cfg = LabelerConfig(repetitions=1, min_runtime_s=0.0, array_extent=16, timeout_s=120.0)
    units = generate(GenConfig(seed=12, n_functions=8))
    for i, unit in enumerate(units):
        fns, _ = parse_unit(unit, strict=True)
        driver = synthesize_driver(fns[0], cfg)
        compile_variant(driver, ("-O1",), cfg, tmp_path, stem=f"k{i}")
