"""Run configuration: INI files plus command-line overrides.

Sections and keys are the closed set in ``_KEYS``; unknown names are
rejected rather than ignored so a typo cannot silently fall back to a
default.  The custom model hook is a dotted path "package.module:function"
resolved at build time.
"""

from __future__ import annotations

import configparser
import importlib
from dataclasses import dataclass, field

from .errors import ConfigError
from .grids import RadialGrid
from .rk import StepControl
from .vorticity import VorticityModel


@dataclass
class RunConfig:
    model_kind: str = "classical"
    delta: float = 0.25
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


def _parse_float_or_auto(section: str, key: str, raw: str) -> float | None:
    return None if raw == "auto" else _parse_float(section, key, raw)


def _parse_text(section: str, key: str, raw: str) -> str:
    return raw


def parse_float_list(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {raw!r}") from exc
    if not values:
        raise ConfigError(f"empty float list {raw!r}")
    return values


# every accepted (section, key), the RunConfig field it sets and its parser
_KEYS = {
    ("model", "kind"): ("model_kind", _parse_text),
    ("model", "delta"): ("delta", _parse_float),
    ("model", "c2"): ("c2", _parse_float),
    ("model", "path"): ("custom_path", _parse_text),
    ("model", "holder_c"): ("holder_c", _parse_float),
    ("ic", "r0"): ("r0", _parse_float),
    ("ic", "psi1"): ("psi1", _parse_float),
    ("grid", "kind"): ("grid_kind", _parse_text),
    ("grid", "n"): ("grid_n", _parse_int),
    ("grid", "ratio"): ("grid_ratio", _parse_float_or_auto),
    ("solver", "method"): ("method", _parse_text),
    ("solver", "tol"): ("tol", _parse_float),
    ("solver", "max_iter"): ("max_iter", _parse_int),
    ("solver", "rel_tol"): ("rel_tol", _parse_float),
    ("solver", "abs_tol"): ("abs_tol", _parse_float),
    ("run", "r_max"): ("r_max", _parse_float),
    ("run", "out"): ("out_dir", _parse_text),
    ("run", "sweep_psi1"): ("sweep_psi1", lambda section, key, raw: parse_float_list(raw)),
}
_SECTIONS = frozenset(section for section, _ in _KEYS)


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

    # configparser hands [DEFAULT] keys to every section, past the schema
    if parser.defaults():
        raise ConfigError("unknown config section [DEFAULT]")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, parse = _KEYS[section, key]
            setattr(cfg, name, parse(section, key, raw.strip()))
    return cfg


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
        if cfg.c2 is None:
            return VorticityModel.oscillatory(delta=cfg.delta)
        return VorticityModel.oscillatory(c2=cfg.c2, delta=cfg.delta)
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
    return StepControl(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
