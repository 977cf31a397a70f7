"""Run configuration: flat dotted-key files, typed schema, validation.

A config file is plain `key = value` lines (# comments allowed). Every
hyperparameter is a named key with a default; unknown keys are rejected.
The section dataclasses below are the schema: each field is the key
`<section>.<field>`, its default is the key's default and its type decides
how the value is parsed. The resolved form written next to run artifacts
echoes every key in sorted order and reproduces the run exactly when fed
back in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

from .data import held_out, require_valid_spread, require_valid_split, require_valid_std
from .model import LossConfig
from .rl import require_valid_algorithm
from .samplers import _check_bins, init_pmf, require_valid_kind

TRANSFER_MODES = ("none", "fixed-policy", "fixed-final-pmf")


class ConfigError(ValueError):
    """Carries every validation failure found, one per line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class DataConfig:
    path: str = ""
    n_classes: int = 8
    per_class: int = 200
    input_dim: int = 20
    center_spread: float = 1.0
    within_std: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class ModelConfig:
    hidden: tuple = (64, 64)
    embedding_dim: int = 32
    lr: float = 1e-3


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "pads"
    clip_lambda: float = 0.0  # 0 means automatic cap
    self_reg: bool = False


@dataclass(frozen=True)
class PMFConfig:
    lambda_min: float = 0.1
    lambda_max: float = 1.4
    k: int = 30
    init: str = "uniform"
    alpha: float = 0.8
    beta: float = 1.25


@dataclass(frozen=True)
class RLConfig:
    algorithm: str = "ppo-a2c"
    lr: float = 1e-4
    ema_decay: float = 0.9
    value_coef: float = 0.5
    hidden: int = 128
    state_recalls: tuple = (1, 2, 4)


@dataclass(frozen=True)
class PPOConfig:
    epsilon: float = 0.2
    old_refresh: int = 5


@dataclass(frozen=True)
class TrainConfig:
    m: int = 30
    total_iterations: int = 4500
    classes_per_batch: int = 4
    samples_per_class: int = 4
    val_fraction: float = 0.15
    split_mode: str = "per-class"
    running_averages: tuple = (2, 8, 16, 32)
    history: int = 20
    log_transitions: bool = True


@dataclass(frozen=True)
class TransferConfig:
    mode: str = "none"
    policy_path: str = ""
    pmf_path: str = ""


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    data: DataConfig = DataConfig()
    model: ModelConfig = ModelConfig()
    loss: LossConfig = LossConfig()
    sampler: SamplerConfig = SamplerConfig()
    pmf: PMFConfig = PMFConfig()
    rl: RLConfig = RLConfig()
    ppo: PPOConfig = PPOConfig()
    train: TrainConfig = TrainConfig()
    transfer: TransferConfig = TransferConfig()

    @property
    def n_episodes(self) -> int:
        return self.train.total_iterations // self.train.m


def _leaves(obj, prefix=""):
    """(flat key, value) for every field, sections walked in declaration order."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


#: flat key -> default; the section dataclasses are the only schema
SCHEMA = dict(_leaves(RunConfig()))


def _parse_value(default, raw: str):
    """Parse raw as the type of default; tuples are comma-separated ints."""
    raw = raw.strip()
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if isinstance(default, tuple):
        return tuple(int(x) for x in raw.split(",")) if raw else ()
    return type(default)(raw)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(x) for x in value)
    return str(value)


def parse_kv_lines(lines, source: str = "<config>") -> dict:
    """key=value lines -> raw string dict; blank lines and # comments skipped."""
    out = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError([f"{source}:{lineno}: expected key=value, got {stripped!r}"])
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_kv_file(path) -> dict:
    with open(path) as fh:
        return parse_kv_lines(fh, source=str(path))


def _raised(check, *args) -> list:
    """The problems check reports through its ValueError, one per line."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc).splitlines()
    return []


def _build(cls, values: dict, prefix: str = ""):
    """Instantiate cls from the flat values, nested sections included."""
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.default):
            kwargs[f.name] = _build(type(f.default), values, f"{prefix}{f.name}.")
        else:
            kwargs[f.name] = values[prefix + f.name]
    return cls(**kwargs)


def _validate(values: dict) -> tuple[list, list]:
    errors, warnings_ = [], []

    def need(cond: bool, msg: str):
        if not cond:
            errors.append(msg)

    # nan fails each key's own range check; inf passes the open-ended ones, so it is refused here.
    # sampler.clip_lambda=inf means "no cap", which no finite cap equals at a large embedding_dim.
    errors += [
        f"{key} must be finite"
        for key, value in values.items()
        if isinstance(value, float) and math.isinf(value) and key != "sampler.clip_lambda"
    ]
    errors += _raised(_build, LossConfig, values, "loss.")
    errors += _raised(require_valid_kind, values["sampler.kind"])
    errors += _raised(require_valid_algorithm, values["rl.algorithm"])
    need(values["sampler.clip_lambda"] >= 0, "sampler.clip_lambda must be nonnegative (0 = auto)")
    bins = (values["pmf.lambda_min"], values["pmf.lambda_max"], values["pmf.k"])
    bin_errors = _raised(_check_bins, *bins)
    errors += bin_errors
    if not bin_errors:
        errors += [f"pmf.init: {e}" for e in _raised(init_pmf, *bins, values["pmf.init"])]
    need(0.0 < values["pmf.alpha"] < 1.0, "pmf.alpha must lie in (0, 1)")
    need(values["pmf.beta"] > 1.0, "pmf.beta must exceed 1")
    # under renormalized multiplicative updates, one decrease and one increase cancel iff alpha*beta = 1
    if (
        0.0 < values["pmf.alpha"] < 1.0
        and values["pmf.beta"] > 1.0
        and abs(math.log(values["pmf.alpha"]) + math.log(values["pmf.beta"])) > 1e-12
    ):
        warnings_.append(
            f"action multipliers multiply to {values['pmf.alpha'] * values['pmf.beta']:g}, not 1; "
            "allowed, but a decrease and an increase of a bin do not cancel"
        )
    need(values["model.embedding_dim"] >= 2, "model.embedding_dim must be >= 2")
    if values["sampler.kind"] in ("distweighted", "curriculum-nonlinear"):
        need(
            values["model.embedding_dim"] >= 3,
            f"sampler.kind={values['sampler.kind']} needs model.embedding_dim >= 3 "
            "(the distance density is undefined below)",
        )
    need(
        len(values["model.hidden"]) >= 1 and all(h >= 1 for h in values["model.hidden"]),
        "model.hidden must list positive layer widths",
    )
    need(values["model.lr"] >= 0, "model.lr must be nonnegative")
    need(values["rl.lr"] >= 0, "rl.lr must be nonnegative")
    need(0.0 <= values["rl.ema_decay"] < 1.0, "rl.ema_decay must lie in [0, 1)")
    need(values["rl.value_coef"] >= 0, "rl.value_coef must be nonnegative")
    need(values["rl.hidden"] >= 1, "rl.hidden must be >= 1")
    need(
        len(values["rl.state_recalls"]) >= 1
        and set(values["rl.state_recalls"]) <= {1, 2, 4}
        and len(set(values["rl.state_recalls"])) == len(values["rl.state_recalls"]),
        "rl.state_recalls must be a nonempty subset of 1,2,4",
    )
    need(values["ppo.epsilon"] > 0, "ppo.epsilon must be positive")
    need(values["ppo.old_refresh"] >= 1, "ppo.old_refresh must be >= 1")
    need(values["train.m"] >= 1, "train.m must be >= 1")
    need(
        values["train.total_iterations"] >= values["train.m"],
        "train.total_iterations must be >= train.m",
    )
    need(values["train.classes_per_batch"] >= 2, "train.classes_per_batch must be >= 2")
    need(values["train.samples_per_class"] >= 2, "train.samples_per_class must be >= 2")
    split_errors = _raised(require_valid_split, values["train.val_fraction"], values["train.split_mode"])
    errors += split_errors
    need(
        len(values["train.running_averages"]) >= 1
        and all(l >= 1 for l in values["train.running_averages"])
        and len(set(values["train.running_averages"])) == len(values["train.running_averages"]),
        "train.running_averages must list distinct positive lengths",
    )
    need(values["train.history"] >= 1, "train.history must be >= 1")
    need(values["seed"] >= 0, "seed must be nonnegative")
    need(values["data.seed"] >= 0, "data.seed must be nonnegative")
    if not values["data.path"]:
        sizes_ok = values["data.n_classes"] >= 2 and values["data.per_class"] >= 2
        need(values["data.n_classes"] >= 2, "data.n_classes must be >= 2 for synthetic data")
        need(values["data.per_class"] >= 2, "data.per_class must be >= 2")
        need(values["data.input_dim"] >= 1, "data.input_dim must be >= 1")
        errors += [f"data.{e}" for e in _raised(require_valid_std, values["data.within_std"])]
        errors += [f"data.{e}" for e in _raised(require_valid_spread, values["data.center_spread"])]
        if sizes_ok and not split_errors:
            # the split of a synthetic dataset is known here; a CSV's waits for split_validation
            mode = values["train.split_mode"]
            key = "data.per_class" if mode == "per-class" else "data.n_classes"
            held = _raised(held_out, values[key], values["train.val_fraction"], mode)
            errors += [f"{key}: {e}" for e in held]
    if values["transfer.mode"] not in TRANSFER_MODES:
        errors.append(f"transfer.mode must be one of: {', '.join(TRANSFER_MODES)}")
    else:
        if values["transfer.mode"] != "none" and values["sampler.kind"] != "pads":
            errors.append("transfer modes require sampler.kind=pads")
        if values["transfer.mode"] == "fixed-policy" and not values["transfer.policy_path"]:
            errors.append("transfer.mode=fixed-policy requires transfer.policy_path")
    return errors, warnings_


def config_from_flat(flat: dict) -> tuple["RunConfig", list]:
    """Build and validate a RunConfig from raw string values.

    Raises ConfigError listing every problem at once; returns the config
    plus non-fatal lint warnings otherwise.
    """
    errors = [f"unknown config key {k!r}" for k in sorted(set(flat) - set(SCHEMA))]
    values = {}
    for key, default in SCHEMA.items():
        try:
            values[key] = _parse_value(default, flat[key]) if key in flat else default
        except ValueError as exc:
            errors.append(f"{key}: {exc}")
    if errors:
        raise ConfigError(errors)
    sem_errors, warnings_ = _validate(values)
    if sem_errors:
        raise ConfigError(sem_errors)
    return _build(RunConfig, values), warnings_


def config_to_flat(cfg: RunConfig) -> dict:
    return {key: _format_value(value) for key, value in _leaves(cfg)}


def resolved_lines(cfg: RunConfig) -> list:
    """Sorted key=value echo of the full effective configuration."""
    flat = config_to_flat(cfg)
    return [f"{k}={flat[k]}" for k in sorted(flat)]


def load_config(path=None, overrides: dict | None = None) -> tuple[RunConfig, list]:
    """File (optional) + override dict -> validated RunConfig."""
    flat = parse_kv_file(path) if path else {}
    flat.update(overrides or {})
    return config_from_flat(flat)
