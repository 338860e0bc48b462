"""Run configuration: INI files plus command-line overrides.

Sections and keys are closed sets; unknown names are rejected rather than
ignored so a typo cannot silently fall back to a default.  The custom model
hook is a dotted path "package.module:function" resolved at build time.
"""

from __future__ import annotations

import configparser
import importlib
from dataclasses import dataclass, field

from .errors import ConfigError
from .grids import RadialGrid
from .rk import StepControl
from .vorticity import VorticityModel

_SCHEMA = {
    "model": {"kind", "delta", "c1", "c2", "path", "holder_c"},
    "ic": {"r0", "psi1"},
    "grid": {"kind", "n", "ratio"},
    "solver": {"method", "tol", "max_iter", "rel_tol", "abs_tol", "h_init", "h_min", "h_max"},
    "run": {"r_max", "out", "sweep_psi1"},
}


@dataclass
class RunConfig:
    model_kind: str = "classical"
    delta: float = 0.25
    c1: float | None = None
    c2: float | None = None
    custom_path: str | None = None
    holder_c: float | None = None
    r0: float = 1.0
    psi1: float = 1.0
    grid_kind: str = "geometric"
    grid_n: int = 2049
    grid_ratio: float | None = None
    method: str = "picard"
    tol: float = 1.0e-10
    max_iter: int = 60
    rel_tol: float = 1.0e-10
    abs_tol: float = 1.0e-16
    h_init: float | None = None
    h_min: float | None = None
    h_max: float | None = None
    r_max: float | None = None
    out_dir: str | None = None
    sweep_psi1: list[float] = field(default_factory=lambda: [1.0, 1.001, 1.01])


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def load_config(path: str) -> RunConfig:
    """Parse an INI file into a RunConfig, rejecting unknown names."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            _apply_entry(cfg, section, key, raw.strip())
    return cfg


def _apply_entry(cfg: RunConfig, section: str, key: str, raw: str) -> None:
    if section == "model":
        if key == "kind":
            cfg.model_kind = raw
        elif key == "delta":
            cfg.delta = _parse_float(section, key, raw)
        elif key == "c1":
            cfg.c1 = _parse_float(section, key, raw)
        elif key == "c2":
            cfg.c2 = _parse_float(section, key, raw)
        elif key == "path":
            cfg.custom_path = raw
        elif key == "holder_c":
            cfg.holder_c = _parse_float(section, key, raw)
    elif section == "ic":
        setattr(cfg, key, _parse_float(section, key, raw))
    elif section == "grid":
        if key == "kind":
            cfg.grid_kind = raw
        elif key == "n":
            cfg.grid_n = _parse_int(section, key, raw)
        elif key == "ratio":
            cfg.grid_ratio = None if raw == "auto" else _parse_float(section, key, raw)
    elif section == "solver":
        if key == "method":
            cfg.method = raw
        elif key == "max_iter":
            cfg.max_iter = _parse_int(section, key, raw)
        elif key in ("h_init", "h_min", "h_max"):
            setattr(cfg, key, None if raw == "auto" else _parse_float(section, key, raw))
        else:
            setattr(cfg, key, _parse_float(section, key, raw))
    elif section == "run":
        if key == "r_max":
            cfg.r_max = _parse_float(section, key, raw)
        elif key == "out":
            cfg.out_dir = raw
        elif key == "sweep_psi1":
            cfg.sweep_psi1 = parse_float_list(raw)


def parse_float_list(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {raw!r}") from exc
    if not values:
        raise ConfigError(f"empty float list {raw!r}")
    return values


def _import_hook(path: str):
    if ":" not in path:
        raise ConfigError(f"custom model path {path!r} must look like pkg.module:function")
    mod_name, attr = path.split(":", 1)
    try:
        module = importlib.import_module(mod_name)
    except ImportError as exc:
        raise ConfigError(f"cannot import module {mod_name!r}: {exc}") from exc
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise ConfigError(f"module {mod_name!r} has no attribute {attr!r}") from exc
    if not callable(fn):
        raise ConfigError(f"custom model hook {path!r} is not callable")
    return fn


def build_model(cfg: RunConfig) -> VorticityModel:
    kind = cfg.model_kind
    if kind == "classical":
        return VorticityModel.classical(delta=cfg.delta)
    if kind == "oscillatory":
        c2 = 0.02 if cfg.c2 is None else cfg.c2
        return VorticityModel.oscillatory(c2=c2, c1=cfg.c1, delta=cfg.delta)
    if kind == "custom":
        if not cfg.custom_path:
            raise ConfigError("custom models need [model] path = pkg.module:function")
        fn = _import_hook(cfg.custom_path)
        return VorticityModel.custom(fn, delta=cfg.delta, holder_C=cfg.holder_c)
    raise ConfigError(f"unknown model kind {kind!r}")


def build_grid(cfg: RunConfig, r0: float, r_max: float) -> RadialGrid:
    if cfg.grid_kind == "uniform":
        return RadialGrid.uniform(r0, r_max, cfg.grid_n)
    if cfg.grid_kind == "geometric":
        return RadialGrid.geometric(r0, r_max, cfg.grid_n, ratio=cfg.grid_ratio)
    raise ConfigError(f"unknown grid kind {cfg.grid_kind!r}")


def build_control(cfg: RunConfig) -> StepControl:
    return StepControl(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                       h_init=cfg.h_init, h_min=cfg.h_min, h_max=cfg.h_max)
