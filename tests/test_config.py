"""Config parsing, validation, serialization round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from weinstein.config import ConfigError, RunConfig, apply_overrides, parse_config, serialize


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.alpha == 0.5
    assert cfg.d == 1
    assert cfg.n == cfg.m == 64
    assert cfg.a_min == pytest.approx(1 / 16)
    assert cfg.a_max == 16.0
    assert cfg.scales == 48
    assert cfg.seed == 42


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nalpha = 1.5  # trailing\n  n=32\n")
    assert cfg.alpha == 1.5
    assert cfg.n == 32


def test_alpha_constraint_rejected():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha = -0.7")


@pytest.mark.parametrize("alphas", ["nan", "inf", "0,nan", "0.5,0.5", "0.5,0.5000001"])
def test_alphas_rejects_non_finite_and_repeated_tags(alphas):
    # a non-finite entry cannot be run, and two entries with one alpha<a:g>
    # tag would write their rows under the same check ids
    with pytest.raises(ConfigError, match="alphas entries"):
        parse_config(f"alphas = {alphas}")
    assert parse_config("alphas = 0.5,0.50001").alpha_list() == [0.5, 0.50001]


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("alpha = 0.5\nbogus = 3\n")


def test_malformed_value_names_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("n = banana")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just text")


def test_scale_range_validation():
    with pytest.raises(ConfigError):
        parse_config("a_min = 2.0\na_max = 1.0")


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_radial_extent_must_be_finite_and_non_negative(value):
    # a NaN radial extent used to be accepted and gave 106/129 rows at 16/16
    with pytest.raises(ConfigError, match="radial_extent must be finite and >= 0"):
        parse_config(f"radial_extent = {value}")


def test_negative_seed_rejected():
    # numpy's generators take only non-negative seeds
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        parse_config("seed = -1")
    assert parse_config("seed = 0").seed == 0


def test_roundtrip_serialize_parse():
    cfg = parse_config("alpha = 1.5\nn = 32\nseed = 7\nout_dir = results")
    again = parse_config(serialize(cfg))
    assert again == cfg


@given(st.floats(min_value=-0.49, max_value=3, allow_nan=False).map(lambda a: round(a, 6)),
       st.integers(min_value=2, max_value=128),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_roundtrip_property(alpha, n, seed):
    cfg = RunConfig(alpha=alpha, n=n, seed=seed).validate()
    assert parse_config(serialize(cfg)) == cfg


def test_overrides():
    cfg = parse_config("n = 16")
    cfg2 = apply_overrides(cfg, ["m=8", "alpha=0.0"])
    assert cfg2.n == 16 and cfg2.m == 8 and cfg2.alpha == 0.0
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["m=four"])
