import pytest

from streamuniq import ConfigError, DomainError
from streamuniq.config import (RunConfig, build_control, build_grid, build_model,
                               load_config, parse_float_list)

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
