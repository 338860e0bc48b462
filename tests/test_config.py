import configparser
import os
import re
from dataclasses import fields, replace

import pytest

from streamuniq import ConfigError, DomainError
from streamuniq.config import (_KEYS, RunConfig, build_control, build_grid, build_model,
                               load_config, parse_float_list)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

FULL_INI = """
[model]
kind = oscillatory
c2 = 0.02
delta = 0.2

[ic]
r0 = 1.5
psi1 = -0.75

[grid]
kind = uniform
n = 129
ratio = auto

[solver]
method = rk
tol = 1e-9
max_iter = 40
rel_tol = 1e-8
abs_tol = 1e-15
h_init = auto
h_max = 0.5

[run]
r_max = 2.5
out = results
sweep_psi1 = 1.0, 1.01
"""


def test_load_full_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FULL_INI, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.model_kind == "oscillatory"
    assert cfg.c2 == 0.02
    assert cfg.c1 is None
    assert cfg.delta == 0.2
    assert (cfg.r0, cfg.psi1) == (1.5, -0.75)
    assert (cfg.grid_kind, cfg.grid_n, cfg.grid_ratio) == ("uniform", 129, None)
    assert cfg.method == "rk"
    assert (cfg.tol, cfg.max_iter) == (1e-9, 40)
    assert (cfg.rel_tol, cfg.abs_tol) == (1e-8, 1e-15)
    assert cfg.h_init is None
    assert cfg.h_max == 0.5
    assert cfg.r_max == 2.5
    assert cfg.out_dir == "results"
    assert cfg.sweep_psi1 == [1.0, 1.01]


def test_defaults():
    cfg = RunConfig()
    assert cfg.model_kind == "classical"
    assert cfg.grid_kind == "geometric"
    assert cfg.grid_n == 2049
    assert cfg.tol == 1e-10
    assert cfg.rel_tol == 1e-10
    assert cfg.abs_tol == 1e-16
    assert cfg.out_dir is None
    assert cfg.sweep_psi1 == [1.0, 1.001, 1.01]


@pytest.mark.parametrize("text,fragment", [
    ("[engine]\nfoo = 1\n", "unknown config section"),
    ("[solver]\nstepper = rk4\n", "unknown key"),
    ("[ic]\nr0 = banana\n", "not a number"),
    ("[grid]\nn = 2.5\n", "not an integer"),
    ("no headers here", "malformed config"),
])
def test_rejects_bad_files(tmp_path, text, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=fragment):
        load_config(str(path))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.ini")


def test_parse_float_list():
    assert parse_float_list("1.0, 2.5,3") == [1.0, 2.5, 3.0]
    with pytest.raises(ConfigError):
        parse_float_list("1.0, zebra")
    with pytest.raises(ConfigError):
        parse_float_list(" , ")


def test_build_model_kinds():
    assert build_model(RunConfig()).kind == "classical"
    cfg = RunConfig(model_kind="oscillatory")
    assert build_model(cfg).kind == "oscillatory"
    cfg = RunConfig(model_kind="custom",
                    custom_path="streamuniq.vorticity:zero_vorticity")
    model = build_model(cfg)
    assert model.kind == "custom"
    assert model.evaluate(0.1) == 0.0
    with pytest.raises(ConfigError, match="path"):
        build_model(RunConfig(model_kind="custom"))
    with pytest.raises(ConfigError):
        build_model(RunConfig(model_kind="mystery"))


@pytest.mark.parametrize("path,fragment", [
    ("streamuniq.vorticity", "must look like"),
    ("nonexistent_module:fn", "cannot import"),
    ("streamuniq.vorticity:missing_fn", "no attribute"),
    ("streamuniq.vorticity:OSCILLATORY_C2_BOUND", "not callable"),
])
def test_import_hook_errors(path, fragment):
    cfg = RunConfig(model_kind="custom", custom_path=path)
    with pytest.raises(ConfigError, match=fragment):
        build_model(cfg)


def test_build_grid_and_control():
    cfg = RunConfig(grid_kind="uniform", grid_n=65)
    assert build_grid(cfg, 1.0, 2.0).n == 65
    cfg = RunConfig(grid_n=65, grid_ratio=0.95)
    grid = build_grid(cfg, 1.0, 2.0)
    assert grid.kind == "geometric"
    with pytest.raises(ConfigError):
        build_grid(RunConfig(grid_kind="chebyshev"), 1.0, 2.0)
    with pytest.raises(DomainError):
        build_grid(RunConfig(grid_n=1), 1.0, 2.0)
    control = build_control(RunConfig(rel_tol=1e-8))
    assert control.rel_tol == 1e-8
    assert control.h_init is None


# the accepted names, as listed section by section before they became one table
SCHEMA = {
    "model": {"kind", "delta", "c1", "c2", "path", "holder_c"},
    "ic": {"r0", "psi1"},
    "grid": {"kind", "n", "ratio"},
    "solver": {"method", "tol", "max_iter", "rel_tol", "abs_tol", "h_init", "h_min", "h_max"},
    "run": {"r_max", "out", "sweep_psi1"},
}


def test_keys_table_accepts_exactly_the_schema():
    assert set(_KEYS) == {(section, key) for section, keys in SCHEMA.items() for key in keys}
    names = {f.name for f in fields(RunConfig)}
    for name, parse in _KEYS.values():
        assert name in names
        assert callable(parse)


# (section, key) -> the value the README example gives it
README_VALUES = {
    ("model", "kind"): "oscillatory",
    ("model", "c2"): 0.02,
    ("model", "delta"): 0.25,
    ("ic", "r0"): 1.0,
    ("ic", "psi1"): 1.0,
    ("grid", "kind"): "geometric",
    ("grid", "n"): 2049,
    ("grid", "ratio"): None,
    ("solver", "method"): "picard",
    ("solver", "tol"): 1e-10,
    ("solver", "max_iter"): 60,
    ("solver", "rel_tol"): 1e-10,
    ("solver", "abs_tol"): 1e-16,
    ("run", "r_max"): 2.0,
    ("run", "out"): "out",
    ("run", "sweep_psi1"): [1.0, 1.001, 1.01],
}


def test_readme_example_config_loads(tmp_path):
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(str(path))
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    entries = [(section, key, raw) for section in parser.sections()
               for key, raw in parser.items(section)]
    assert {(section, key) for section, key, _ in entries} == set(README_VALUES)
    for section, key, raw in entries:
        name, value = _KEYS[section, key][0], README_VALUES[section, key]
        assert getattr(cfg, name) == value
        # alone in a file, the key sets its own field and no other
        path.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
        assert load_config(str(path)) == replace(RunConfig(), **{name: value})
