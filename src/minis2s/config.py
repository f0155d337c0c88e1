"""Plain-text configuration: UTF-8 lines of `key = value`, full or
trailing `#` comments, and named presets that later keys override.
Unknown keys are errors, never warnings."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

from .data import ToySpec, read_text
from .decoding import BeamConfig
from .errors import ConfigError
from .models import ModelConfig
from .training import TrainConfig


def parse_config_text(text: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected `key = value`, "
                              f"got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def _bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _int_pair(s: str) -> Tuple[int, int]:
    sep = ":" if ":" in s else ","
    parts = s.split(sep)
    if len(parts) != 2:
        raise ConfigError(f"expected `lo:hi`, got {s!r}")
    return (int(parts[0]), int(parts[1]))


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    beam: BeamConfig = field(default_factory=BeamConfig)


def preset_transformer_toy() -> ExperimentConfig:
    # small batches and a low noam peak: the cross-attention alignment
    # on the toy task collapses to garbage above lr ~3e-3
    model = ModelConfig(task="asr", body="transformer", e=2, d=2, d_att=64,
                        d_ff=256, d_head=2, dropout_rate=0.1, alpha=0.7,
                        seed=0)
    train = TrainConfig(epochs=15, batch_size=4, optimizer="adam",
                        warmup_steps=100, noam_k=0.2, keep_last=5, seed=0)
    beam = BeamConfig(beam_size=8, lam=0.5, max_len_ratio=1.5)
    return ExperimentConfig(model=model, train=train, beam=beam)


def preset_rnn_toy() -> ExperimentConfig:
    # the hot schedule leaves the tail oscillating; decoding from the
    # averaged checkpoint is what makes this recipe reliable
    model = ModelConfig(task="asr", body="rnn", e=2, d=1, d_att=64, d_ff=256,
                        d_head=2, dropout_rate=0.1, alpha=0.7, seed=0)
    train = TrainConfig(epochs=15, batch_size=4, optimizer="adam",
                        warmup_steps=50, noam_k=0.3, keep_last=5, seed=0)
    beam = BeamConfig(beam_size=8, lam=0.5, max_len_ratio=1.5)
    return ExperimentConfig(model=model, train=train, beam=beam)


def preset_tts_toy() -> ExperimentConfig:
    model = ModelConfig(task="tts", body="transformer", e=2, d=2, d_att=64,
                        d_ff=256, d_head=2, dropout_rate=0.1, alpha=1.0,
                        reduction_factor=2, prenet_units=64, postnet_layers=3,
                        prenet_dropout_rate=0.5, seed=0)
    train = TrainConfig(epochs=20, batch_size=8, optimizer="adam",
                        warmup_steps=100, noam_k=0.2, keep_last=5, seed=0)
    return ExperimentConfig(model=model, train=train, beam=BeamConfig())


PRESETS: Dict[str, Callable[[], ExperimentConfig]] = {
    "transformer-toy": preset_transformer_toy,
    "rnn-toy": preset_rnn_toy,
    "tts-toy": preset_tts_toy,
}

# key -> (section attr, field name, caster); `lambda` aliases the beam
# weight because `lam` reads poorly in a config file
_EXPERIMENT_KEYS: Dict[str, Tuple[str, str, Callable]] = {}


def _register_section(section: str, cfg_fields, casts=None):
    casts = casts or {}
    for f in cfg_fields:
        caster = casts.get(f.name)
        if caster is None:
            if f.type in ("int",) or f.type is int:
                caster = int
            elif f.type in ("float",) or f.type is float:
                caster = float
            elif f.type in ("bool",) or f.type is bool:
                caster = _bool
            else:
                caster = str
        _EXPERIMENT_KEYS[f.name] = (section, f.name, caster)


_register_section("model", fields(ModelConfig))
_register_section("train", fields(TrainConfig))
_register_section("beam", fields(BeamConfig))
_EXPERIMENT_KEYS["lambda"] = ("beam", "lam", float)
# `seed` and `epochs` style keys overlap across sections on purpose:
# the model seed also seeds training unless train_seed is given
_EXPERIMENT_KEYS["seed"] = ("*seed", "seed", int)
_EXPERIMENT_KEYS["train_seed"] = ("train", "seed", int)


def experiment_from_items(items: Dict[str, str]) -> ExperimentConfig:
    preset = items.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; "
                              f"have {sorted(PRESETS)}")
        cfg = PRESETS[preset]()
    else:
        cfg = ExperimentConfig()
    for key, value in items.items():
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, caster = _EXPERIMENT_KEYS[key]
        try:
            typed = caster(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: cannot parse {value!r} ({exc})")
        if section == "*seed":
            cfg.model.seed = typed
            cfg.train.seed = typed
        else:
            setattr(getattr(cfg, section), name, typed)
    return cfg


def load_experiment_config(path: str) -> ExperimentConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"no such config file: {path}")
    items = parse_config_text(read_text(path, ConfigError))
    cfg = experiment_from_items(items)
    seed = env_seed()
    if seed is not None:
        cfg.model.seed = seed
        cfg.train.seed = seed
    return cfg


def env_seed() -> Optional[int]:
    """The S2S_SEED override from the environment, or None when unset."""
    raw = os.environ.get("S2S_SEED")
    if raw is None:
        return None
    if not raw.strip().isdecimal():
        raise ConfigError(f"S2S_SEED must be a non-negative integer, got "
                          f"{raw!r}")
    return int(raw)


def dump_experiment_config(cfg: ExperimentConfig) -> str:
    """Serialize in a form load_experiment_config parses back."""
    lines = []
    for f in fields(ModelConfig):
        lines.append(f"{f.name} = {getattr(cfg.model, f.name)}")
    for f in fields(TrainConfig):
        if f.name == "seed":
            lines.append(f"train_seed = {cfg.train.seed}")
        else:
            lines.append(f"{f.name} = {getattr(cfg.train, f.name)}")
    for f in fields(BeamConfig):
        lines.append(f"{f.name} = {getattr(cfg.beam, f.name)}")
    return "\n".join(lines) + "\n"


_TOY_KEYS: Dict[str, Callable] = {
    "task": str,
    "vocab_size": int,
    "proto_len_range": _int_pair,
    "feat_dim": int,
    "noise_std": float,
    "utt_len_range": _int_pair,
    "n_train": int,
    "n_dev": int,
    "n_test": int,
    "seed": int,
}


def load_toy_spec(path: str) -> ToySpec:
    if not os.path.isfile(path):
        raise ConfigError(f"no such spec file: {path}")
    items = parse_config_text(read_text(path, ConfigError))
    kwargs = {}
    for key, value in items.items():
        if key not in _TOY_KEYS:
            raise ConfigError(f"unknown toy-spec key {key!r}")
        try:
            kwargs[key] = _TOY_KEYS[key](value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: cannot parse {value!r} ({exc})")
    seed = env_seed()
    if seed is not None:
        kwargs["seed"] = seed
    return ToySpec(**kwargs).validate()
