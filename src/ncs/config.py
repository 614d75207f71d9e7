"""Run configuration: a flat INI-style key-value file with sections.

`_KEYS` maps each (section, key) to the `RunConfig`, `ArchConfig` or `TrainSchedule`
field it sets and its parser. An omitted key keeps the dataclass default, the
reference setup. Unknown sections or keys are errors so misspellings cannot silently
fall back to defaults. Each dataclass range-checks its fields; every unparsable or
out-of-range value raises ConfigError (exit code 2).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .model import ArchConfig
from .training import TrainSchedule


@dataclass
class RunConfig:
    mesh_path: str
    radius_frac: float = 0.04
    forbid_prob: float = 0.5
    patch_seed: int = 0
    arch: ArchConfig = field(default_factory=ArchConfig)
    schedule: TrainSchedule = field(default_factory=TrainSchedule)
    batch_size: int = 2048
    fit_seed: int = 0
    log_every: int = 100
    checkpoint_every: int = 10_000
    out_dir: str = "ncs_out"
    raw_text: str = ""

    def __post_init__(self):
        if not self.radius_frac > 0:  # NaN fails too
            raise ValueError(f"[patches] radius must be positive, got {self.radius_frac}")
        if not 0.0 <= self.forbid_prob <= 1.0:
            raise ValueError(f"[patches] forbid must be in [0, 1], got {self.forbid_prob}")
        if self.batch_size < 1:
            raise ValueError(f"[train] batch must be >= 1, got {self.batch_size}")
        for name, value in (("[patches] seed", self.patch_seed), ("[train] seed", self.fit_seed),
                            ("[train] log_every", self.log_every),
                            ("[train] checkpoint_every", self.checkpoint_every)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


def _int_tuple(text: str, sep: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(sep) if p != "")
    except ValueError:
        raise ConfigError(f"expected {sep!r}-separated integers, got {text!r}") from None


def _code(text: str) -> tuple[int, int, int]:
    code = _int_tuple(text, "x")
    if len(code) != 3:
        raise ConfigError(f"[arch] code must be DxHxW, got {text!r}")
    return code


# (section, key) -> (dataclass, field, parser of the text)
_KEYS = {
    ("mesh", "path"): (RunConfig, "mesh_path", str),
    ("patches", "radius"): (RunConfig, "radius_frac", float),
    ("patches", "forbid"): (RunConfig, "forbid_prob", float),
    ("patches", "seed"): (RunConfig, "patch_seed", int),
    ("arch", "coarse"): (ArchConfig, "coarse_widths", lambda t: _int_tuple(t, ",")),
    ("arch", "code"): (ArchConfig, "code_shape", _code),
    ("arch", "channels"): (ArchConfig, "cnn_channels", int),
    ("arch", "blocks"): (ArchConfig, "cnn_blocks", int),
    ("arch", "fine"): (ArchConfig, "fine_widths", lambda t: _int_tuple(t, ",")),
    ("arch", "mode"): (ArchConfig, "mode", str),
    ("train", "base_lr"): (TrainSchedule, "base_lr", float),
    ("train", "coarse_floor_lr"): (TrainSchedule, "coarse_floor_lr", float),
    ("train", "warmup"): (TrainSchedule, "warmup_iters", int),
    ("train", "total"): (TrainSchedule, "total_iters", int),
    ("train", "batch"): (RunConfig, "batch_size", int),
    ("train", "seed"): (RunConfig, "fit_seed", int),
    ("train", "log_every"): (RunConfig, "log_every", int),
    ("train", "checkpoint_every"): (RunConfig, "checkpoint_every", int),
    ("output", "dir"): (RunConfig, "out_dir", str),
}


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse config: {e}") from None

    values = {RunConfig: {}, ArchConfig: {}, TrainSchedule: {}}
    for section in cp.sections():
        if section not in {s for s, _ in _KEYS}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp[section].items():
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            owner, name, parse = _KEYS[section, key]
            try:
                values[owner][name] = parse(raw)
            except ValueError:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None

    if not values[RunConfig].get("mesh_path"):
        raise ConfigError("config needs [mesh] path")
    try:
        return RunConfig(arch=ArchConfig(**values[ArchConfig]),
                         schedule=TrainSchedule(**values[TrainSchedule]),
                         raw_text=text, **values[RunConfig])
    except ValueError as e:
        raise ConfigError(str(e)) from None


def parse_config(path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(p.read_text(encoding="utf-8"))
