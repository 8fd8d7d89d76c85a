"""Configuration dataclasses and the key-value config file schema.

Config files are flat JSON objects whose keys are the union of the model and
training fields below; unknown keys are rejected before any work starts.
Command-line flags override file values.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass


class SchemaError(ValueError):
    """A config key is unknown or has an invalid value."""


@dataclass(frozen=True)
class ModelConfig:
    """Geometry + network hyperparameters (defaults: the full-size recipe)."""

    n: int = 1024                  # points per cloud after ingestion
    g: int = 64                    # patch centers
    k: int = 32                    # neighbours per patch
    r: float = 0.6                 # masking ratio
    k_n: int = 16                  # neighbours for normal estimation
    bins: int = 11                 # histogram bins per angle
    pair_feature_variant: str = "standard"   # or "paper-literal" (audit)
    d: int = 384                   # token width
    heads: int = 6
    mlp_ratio: int = 4
    enc_depth: int = 12            # external-attention blocks
    dec_depth: int = 4             # self-attention blocks
    s_mem: int = 64                # external memory slots per head
    ea_query_projection: bool = True
    c_p: int = 128                 # patch feature channels
    c_d: int = 128                 # descriptor feature channels
    embed_hidden: int = 128        # hidden width of the embedding MLPs

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise SchemaError("d must be divisible by heads")
        if self.mlp_ratio < 1:
            raise SchemaError("mlp_ratio must be >= 1")
        if not (0.0 < self.r < 1.0):
            raise SchemaError("r must lie strictly between 0 and 1")
        if self.pair_feature_variant not in ("standard", "paper-literal"):
            raise SchemaError("pair_feature_variant must be 'standard' or 'paper-literal'")

    @property
    def masked_count(self) -> int:
        return int(self.r * self.g)

    @property
    def visible_count(self) -> int:
        return self.g - self.masked_count

    @property
    def feature_dim(self) -> int:
        return 2 * self.d

    def encoder_blocks(self) -> "BlockConfig":
        return BlockConfig(self.d, self.heads, self.mlp_ratio, self.enc_depth, self.s_mem)

    def decoder_blocks(self) -> "BlockConfig":
        return BlockConfig(self.d, self.heads, self.mlp_ratio, self.dec_depth, self.s_mem)


@dataclass(frozen=True)
class BlockConfig:
    """Shape of one transformer stack."""

    d: int
    heads: int
    mlp_ratio: int
    depth: int
    s_mem: int

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise SchemaError("d must be divisible by heads")
        if self.s_mem < 1:
            raise SchemaError("s_mem must be >= 1")

    @property
    def d_head(self) -> int:
        return self.d // self.heads


@dataclass(frozen=True)
class TrainConfig:
    lr_max: float = 0.001
    lr_min: float = 1e-6
    weight_decay: float = 0.05
    epochs: int = 300
    batch_size: int = 128
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    label_smoothing: float = 0.0
    augment: bool = True
    checkpoint_epochs: tuple = (100, 200, 300)

    def __post_init__(self):
        if self.lr_min > self.lr_max:
            raise SchemaError("lr_min must not exceed lr_max")
        if self.epochs < 1:
            raise SchemaError("epochs must be >= 1")
        if self.batch_size < 1:
            raise SchemaError("batch_size must be >= 1")


@dataclass(frozen=True)
class FinetuneProtocol:
    scope: str = "local"     # "global" trains everything, "local" freezes the backbone
    head: str = "linear"     # "linear" or "nonlinear"
    num_classes: int = 2

    def __post_init__(self):
        if self.scope not in ("global", "local"):
            raise SchemaError("scope must be 'global' or 'local'")
        if self.head not in ("linear", "nonlinear"):
            raise SchemaError("head must be 'linear' or 'nonlinear'")


_MODEL_FIELDS = {f.name: f for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}

_BOOL_STRINGS = {"on": True, "off": False, "true": True, "false": False,
                 "1": True, "0": False, "yes": True, "no": False}


def _coerce(name: str, value, target_type):
    if target_type is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in _BOOL_STRINGS:
            return _BOOL_STRINGS[value.lower()]
        raise SchemaError(f"config key {name!r}: expected a boolean, got {value!r}")
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise SchemaError(f"config key {name!r}: expected an integer, got {value!r}")
        try:
            return int(value)
        except ValueError:
            raise SchemaError(f"config key {name!r}: expected an integer, got {value!r}") from None
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise SchemaError(f"config key {name!r}: expected a number, got {value!r}")
        try:
            return float(value)
        except ValueError:
            raise SchemaError(f"config key {name!r}: expected a number, got {value!r}") from None
    if target_type is str:
        if not isinstance(value, str):
            raise SchemaError(f"config key {name!r}: expected a string, got {value!r}")
        return value
    if target_type is tuple:
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"config key {name!r}: expected a list, got {value!r}")
        return tuple(_coerce(name, v, int) for v in value)
    return value


def split_config_dict(raw: dict) -> tuple[ModelConfig, TrainConfig]:
    """Validate a flat key-value mapping and split it into config objects.

    Unknown keys raise SchemaError naming the offending key.
    """
    model_kwargs: dict = {}
    train_kwargs: dict = {}
    for key, value in raw.items():
        norm = key.replace("-", "_")
        if norm in _MODEL_FIELDS:
            model_kwargs[norm] = _coerce(norm, value, type(getattr(ModelConfig, norm)))
        elif norm in _TRAIN_FIELDS:
            train_kwargs[norm] = _coerce(norm, value, type(getattr(TrainConfig, norm)))
        else:
            raise SchemaError(f"unknown config key: {key!r}")
    return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError("config file must contain a JSON object")
    return raw


def model_config_to_dict(cfg: ModelConfig) -> dict:
    return dataclasses.asdict(cfg)


def train_config_to_dict(cfg: TrainConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["checkpoint_epochs"] = list(d["checkpoint_epochs"])
    return d


def _config_from_dict(cls, fields: dict, d: dict):
    for key in d:
        if key not in fields:
            raise SchemaError(f"unknown config key: {key!r}")
    return cls(**{k: _coerce(k, v, type(getattr(cls, k))) for k, v in d.items()})


def model_config_from_dict(d: dict) -> ModelConfig:
    return _config_from_dict(ModelConfig, _MODEL_FIELDS, d)


def train_config_from_dict(d: dict) -> TrainConfig:
    return _config_from_dict(TrainConfig, _TRAIN_FIELDS, d)
