import math
from dataclasses import fields

import pytest

from minis2s.config import (PRESETS, ExperimentConfig, dump_experiment_config,
                            experiment_from_items, load_experiment_config,
                            load_toy_spec, parse_config_text)
from minis2s.data import ToySpec
from minis2s.decoding import BeamConfig
from minis2s.errors import ConfigError, file_key
from minis2s.models import ModelConfig
from minis2s.training import TrainConfig


def test_parse_basic_pairs():
    items = parse_config_text("a = 1\nbb = two words\n")
    assert items == {"a": "1", "bb": "two words"}


def test_parse_strips_comments_and_blanks():
    text = """
    # full line comment
    alpha = 0.5   # trailing comment

    beta = 3
    """
    assert parse_config_text(text) == {"alpha": "0.5", "beta": "3"}


def test_parse_value_may_contain_equals():
    assert parse_config_text("k = a=b")["k"] == "a=b"


@pytest.mark.parametrize("bad", [
    "just some words",
    "key =",
    "= value",
    "a = 1\na = 2",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_config_text(bad)


def test_defaults_without_preset():
    cfg = experiment_from_items({})
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.model.task == "asr"
    assert cfg.beam.beam_size == 20


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        experiment_from_items({"nonsense": "1"})


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        experiment_from_items({"preset": "huge"})


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="epochs"):
        experiment_from_items({"epochs": "banana"})


def test_bool_spellings():
    for word, want in [("true", True), ("YES", True), ("1", True),
                       ("false", False), ("No", False), ("0", False)]:
        cfg = experiment_from_items({"early_stop": word})
        assert cfg.train.early_stop is want
    with pytest.raises(ConfigError):
        experiment_from_items({"early_stop": "maybe"})


def test_transformer_toy_preset():
    cfg = experiment_from_items({"preset": "transformer-toy"})
    m = cfg.model
    assert (m.body, m.e, m.d, m.d_att, m.d_ff, m.d_head) == \
        ("transformer", 2, 2, 64, 256, 2)
    assert m.dropout_rate == 0.1 and m.alpha == 0.7
    assert cfg.train.optimizer == "adam"


def test_rnn_toy_preset():
    cfg = experiment_from_items({"preset": "rnn-toy"})
    assert cfg.model.body == "rnn"
    assert (cfg.model.e, cfg.model.d) == (2, 1)
    assert cfg.model.alpha == 0.7
    assert cfg.beam.lam == 0.5


def test_tts_toy_preset():
    cfg = experiment_from_items({"preset": "tts-toy"})
    assert cfg.model.task == "tts"
    assert cfg.model.reduction_factor == 2
    assert cfg.model.alpha == 1.0


def test_keys_override_preset():
    cfg = experiment_from_items({"preset": "transformer-toy",
                                 "d_att": "32", "epochs": "3"})
    assert cfg.model.d_att == 32
    assert cfg.model.d_ff == 256
    assert cfg.train.epochs == 3


def test_lambda_alias_sets_beam_weight():
    cfg = experiment_from_items({"lambda": "0.4", "gamma": "0.2"})
    assert cfg.beam.lam == 0.4
    assert cfg.beam.gamma == 0.2


def test_shared_seed_reaches_model_and_train():
    cfg = experiment_from_items({"seed": "17"})
    assert cfg.model.seed == 17
    assert cfg.train.seed == 17


def test_train_seed_only_touches_training():
    cfg = experiment_from_items({"seed": "3", "train_seed": "9"})
    assert cfg.model.seed == 3
    assert cfg.train.seed == 9


def test_every_preset_builds():
    for name in PRESETS:
        cfg = experiment_from_items({"preset": name})
        assert isinstance(cfg, ExperimentConfig)


def test_dump_round_trips(tmp_path):
    cfg = experiment_from_items({"preset": "rnn-toy", "vocab_size": "11",
                                 "feat_dim": "7", "lambda": "0.55",
                                 "seed": "4", "train_seed": "8"})
    path = tmp_path / "m.cfg"
    path.write_text(dump_experiment_config(cfg), encoding="utf-8")
    back = load_experiment_config(str(path))
    assert back.model.__dict__ == cfg.model.__dict__
    assert back.train.__dict__ == cfg.train.__dict__
    assert back.beam.__dict__ == cfg.beam.__dict__


def test_load_missing_file():
    with pytest.raises(ConfigError, match="no such config"):
        load_experiment_config("/nonexistent/x.cfg")


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    path = tmp_path / "e.cfg"
    path.write_text("seed = 5\n", encoding="utf-8")
    monkeypatch.setenv("S2S_SEED", "42")
    cfg = load_experiment_config(str(path))
    assert cfg.model.seed == 42 and cfg.train.seed == 42


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    path = tmp_path / "e.cfg"
    path.write_text("seed = 5\n", encoding="utf-8")
    monkeypatch.setenv("S2S_SEED", "lots")
    with pytest.raises(ConfigError, match="S2S_SEED"):
        load_experiment_config(str(path))


def test_toy_spec_loading(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text("task = st\nvocab_size = 6\nproto_len_range = 5:9\n"
                    "utt_len_range = 2,4\nn_train = 30\nnoise_std = 0.2\n",
                    encoding="utf-8")
    spec = load_toy_spec(str(path))
    assert spec.task == "st"
    assert spec.vocab_size == 6
    assert spec.proto_len_range == (5, 9)
    assert spec.utt_len_range == (2, 4)
    assert spec.n_train == 30
    assert spec.noise_std == 0.2


def test_toy_spec_rejects_unknown_key(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text("frobnicate = 9\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown toy-spec key"):
        load_toy_spec(str(path))


def test_toy_spec_rejects_bad_pair(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text("proto_len_range = 5:6:7\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_toy_spec(str(path))


def test_toy_spec_validates_contents(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text("vocab_size = 0\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_toy_spec(str(path))


def test_toy_spec_env_seed(tmp_path, monkeypatch):
    path = tmp_path / "toy.cfg"
    path.write_text("seed = 2\n", encoding="utf-8")
    monkeypatch.setenv("S2S_SEED", "77")
    assert load_toy_spec(str(path)).seed == 77


SECTIONS = {"model": ModelConfig, "train": TrainConfig, "beam": BeamConfig,
            "toy": ToySpec}


def test_every_setting_declares_its_rule():
    for cls in SECTIONS.values():
        for f in fields(cls):
            if f.type in ("int", "float", "Tuple[int, int]"):
                assert f.metadata.get("span"), (cls.__name__, f.name)
            elif f.type == "str":
                choices = f.metadata.get("choices")
                assert choices and f.default == choices[0], f.name
            else:
                assert f.type == "bool", f.name
    spans = {f.name: f.metadata.get("span") for f in fields(ModelConfig)}
    assert spans["feat_dim"] == "[1, inf)"
    assert [file_key(f) for f in fields(TrainConfig)
            if f.name == "seed"] == ["train_seed"]


def _ends():
    """(section, field, value, accepted) at each declared end: the end
    itself when closed, and the value just past it."""
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            span = f.metadata.get("span")
            if not span:
                continue
            lo, hi = (float(end) for end in span[1:-1].split(","))
            for end, closed, out in ((lo, span[0] == "[", -1),
                                     (hi, span[-1] == "]", 1)):
                if not closed:
                    yield section, f, end, False
                elif "int" in f.type:
                    yield section, f, int(end), True
                    yield section, f, int(end) + out, False
                else:
                    yield section, f, end, True
                    yield section, f, math.nextafter(end, out * math.inf), \
                        False


def _setting_text(f, value) -> str:
    text = repr(value)
    return f"{text}:{text}" if f.type.startswith("Tuple") else text


@pytest.mark.parametrize("section,f,value,accepted", [
    pytest.param(*end, id=f"{end[0]}-{file_key(end[1])}={end[2]!r}")
    for end in _ends()])
def test_each_declared_end_is_refused_just_past_it(tmp_path, section, f,
                                                   value, accepted):
    # set through the config-file key, so TrainConfig.seed is train_seed;
    # a refusal names that key
    key, text = file_key(f), _setting_text(f, value)
    try:
        if section == "toy":
            path = tmp_path / "toy.cfg"
            path.write_text(f"{key} = {text}\n", encoding="utf-8")
            load_toy_spec(str(path))
        else:
            cfg = experiment_from_items({"vocab_size": "8", key: text})
            getattr(cfg, section).validate()
    except ConfigError as exc:
        assert not accepted, exc
        assert str(exc).startswith(key), exc
    else:
        assert accepted
