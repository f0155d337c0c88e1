"""Plain-text configuration: UTF-8 lines of `key = value`, full or
trailing `#` comments, and named presets that later keys override.
Unknown keys are errors, never warnings."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

from .data import ToySpec, read_text
from .decoding import BeamConfig
from .errors import ConfigError, file_key
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

# a field's caster, by its annotation
_CASTS: Dict[str, Callable] = {"int": int, "float": float, "bool": _bool,
                               "str": str, "Tuple[int, int]": _int_pair}


def _key_table(*sections: Tuple[Optional[str], type]) -> Dict[str, tuple]:
    """Config-file key -> (caster, the (section, field) pairs it sets), for
    each field of each (section attribute, dataclass); a None section is
    the loaded object itself."""
    return {file_key(f): (_CASTS[f.type], ((section, f.name),))
            for section, cls in sections for f in fields(cls)}


EXPERIMENT_KEYS = _key_table(("model", ModelConfig), ("train", TrainConfig),
                             ("beam", BeamConfig))
# `lambda` aliases the beam weight because `lam` reads poorly in a config
# file; the model seed also seeds training unless train_seed is given
EXPERIMENT_KEYS["lambda"] = EXPERIMENT_KEYS["lam"]
EXPERIMENT_KEYS["seed"] = (int, (("model", "seed"), ("train", "seed")))
_TOY_KEYS = _key_table((None, ToySpec))


def _set_items(target, items: Dict[str, str], table: Dict[str, tuple],
               what: str) -> None:
    """Cast each value by its key's caster and set the fields it names."""
    for key, value in items.items():
        if key not in table:
            raise ConfigError(f"unknown {what} key {key!r}")
        caster, dests = table[key]
        try:
            typed = caster(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: cannot parse {value!r} ({exc})")
        for section, name in dests:
            setattr(getattr(target, section) if section else target, name,
                    typed)


def _read_items(path: str, what: str) -> Dict[str, str]:
    if not os.path.isfile(path):
        raise ConfigError(f"no such {what} file: {path}")
    return parse_config_text(read_text(path, ConfigError))


def experiment_from_items(items: Dict[str, str]) -> ExperimentConfig:
    preset = items.pop("preset", None)
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    cfg = ExperimentConfig() if preset is None else PRESETS[preset]()
    _set_items(cfg, items, EXPERIMENT_KEYS, "config")
    return cfg


def load_experiment_config(path: str) -> ExperimentConfig:
    cfg = experiment_from_items(_read_items(path, "config"))
    seed = env_seed()
    if seed is not None:
        cfg.model.seed = cfg.train.seed = seed
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
    return "".join(f"{file_key(f)} = {getattr(section, f.name)}\n"
                   for section in (cfg.model, cfg.train, cfg.beam)
                   for f in fields(section))


def load_toy_spec(path: str) -> ToySpec:
    spec = ToySpec()
    _set_items(spec, _read_items(path, "spec"), _TOY_KEYS, "toy-spec")
    seed = env_seed()
    if seed is not None:
        spec.seed = seed
    return spec.validate()
