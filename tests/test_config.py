import math

import numpy as np
import pytest

from tripletlab.config import (
    SCHEMA,
    ConfigError,
    RunConfig,
    _leaves,
    config_from_flat,
    config_to_flat,
    load_config,
    parse_kv_lines,
    resolved_lines,
)
from tripletlab.data import MAX_SCALE, generate_synthetic, require_valid_split, split_validation
from tripletlab.model import LossConfig
from tripletlab.rl import require_valid_algorithm


def build(flat):
    cfg, _ = config_from_flat(flat)
    return cfg


class TestParsing:
    def test_empty_gives_defaults(self):
        cfg = build({})
        assert cfg.seed == 0
        assert cfg.sampler.kind == "pads"
        assert cfg.train.m == 30
        assert cfg.n_episodes == 150

    def test_types(self):
        cfg = build({
            "seed": "7",
            "model.lr": "1e-3",
            "model.hidden": "32,16",
            "loss.learnable_beta": "true",
            "train.log_transitions": "no",
            "rl.state_recalls": "1,4",
        })
        assert cfg.seed == 7
        assert cfg.model.lr == 1e-3
        assert cfg.model.hidden == (32, 16)
        assert cfg.loss.learnable_beta is True
        assert cfg.train.log_transitions is False
        assert cfg.rl.state_recalls == (1, 4)

    def test_bad_values_report_key(self):
        with pytest.raises(ConfigError, match="seed"):
            build({"seed": "1.5"})
        with pytest.raises(ConfigError, match="loss.learnable_beta"):
            build({"loss.learnable_beta": "maybe"})

    def test_unknown_keys_all_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            build({"nope": "1", "also.bad": "2", "seed": "x"})
        text = str(exc.value)
        assert "'nope'" in text and "'also.bad'" in text
        assert "seed:" in text  # parse failures surface in the same pass

    def test_semantic_errors_all_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            build({"pmf.k": "1", "train.m": "0"})
        text = str(exc.value)
        assert "pmf.k must be >= 2" in text
        assert "train.m must be >= 1" in text

    def test_kv_lines_comments_and_blanks(self):
        raw = parse_kv_lines([
            "# a comment",
            "",
            "seed = 4  # trailing comment",
            "pmf.init=uniform:0.3:0.7",
        ])
        assert raw == {"seed": "4", "pmf.init": "uniform:0.3:0.7"}

    def test_kv_lines_value_may_contain_equals(self):
        assert parse_kv_lines(["a=b=c"]) == {"a": "b=c"}

    def test_kv_lines_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="<config>:3"):
            parse_kv_lines(["seed=1", "", "oops"])


class TestValidation:
    def test_sampler_kind_lists_choices(self):
        with pytest.raises(ConfigError, match="valid kinds: random, semihard"):
            build({"sampler.kind": "hardest"})

    @pytest.mark.parametrize("transfer", [{}, {"transfer.mode": "fixed-final-pmf"}, {
        "transfer.mode": "fixed-policy", "transfer.policy_path": "policy.json"}])
    def test_frozen_identity_is_refused_naming_the_algorithms(self, transfer):
        # a frozen initial PMF is spelled transfer.mode=fixed-final-pmf with no pmf_path
        with pytest.raises(ConfigError) as exc:
            build({"rl.algorithm": "frozen-identity", **transfer})
        assert exc.value.errors == [
            "rl.algorithm: unknown rl algorithm 'frozen-identity'; "
            "valid algorithms: reinforce, reinforce-ema, a2c, ppo-ema, ppo-a2c"
        ]

    def test_pmf_interval(self):
        with pytest.raises(ConfigError, match="lambda_min < lambda_max"):
            build({"pmf.lambda_min": "1.4", "pmf.lambda_max": "0.1"})
        with pytest.raises(ConfigError, match="lambda_min < lambda_max"):
            build({"pmf.lambda_max": "2.5"})

    def test_pmf_init_string_checked(self):
        with pytest.raises(ConfigError, match="pmf.init"):
            build({"pmf.init": "triangular"})

    def test_multiplier_bounds(self):
        with pytest.raises(ConfigError, match=r"pmf.alpha must lie in \(0, 1\)"):
            build({"pmf.alpha": "1.5"})
        with pytest.raises(ConfigError, match="pmf.beta must exceed 1"):
            build({"pmf.beta": "0.9"})

    def test_unbalanced_multipliers_only_warn(self):
        _, warns = config_from_flat({})  # the paper's 0.8 and 1.25 multiply to exactly 1
        assert not warns
        _, warns = config_from_flat({"pmf.beta": "1.2"})
        assert any("multiply to 0.96" in w for w in warns)

    def test_density_sampler_needs_dim_three(self):
        with pytest.raises(ConfigError, match="model.embedding_dim >= 3"):
            build({"sampler.kind": "distweighted", "model.embedding_dim": "2"})
        build({"sampler.kind": "random", "model.embedding_dim": "2"})  # fine without density

    def test_iteration_budget(self):
        with pytest.raises(ConfigError, match="total_iterations must be >= train.m"):
            build({"train.m": "30", "train.total_iterations": "10"})

    def test_val_fraction_bounds(self):
        with pytest.raises(ConfigError, match=r"\(0, 0.5\]"):
            build({"train.val_fraction": "0.9"})

    def test_split_mode_choices(self):
        with pytest.raises(ConfigError, match="per-class, by-class"):
            build({"train.split_mode": "stratified"})

    @pytest.mark.parametrize(
        "overrides, check, args",
        [
            ({"train.val_fraction": "0.9"}, require_valid_split, (0.9, "per-class")),
            ({"train.split_mode": "stratified"}, require_valid_split, (0.15, "stratified")),
            (
                {"train.val_fraction": "0.0", "train.split_mode": "stratified"},
                require_valid_split,
                (0.0, "stratified"),
            ),
            ({"rl.algorithm": "qlearning"}, require_valid_algorithm, ("qlearning",)),
        ],
    )
    def test_reports_the_owning_checks_messages(self, overrides, check, args):
        with pytest.raises(ValueError) as owner:
            check(*args)
        with pytest.raises(ConfigError) as exc:
            build(overrides)
        assert str(owner.value).splitlines() == exc.value.errors

    @pytest.mark.parametrize(
        "overrides",
        [
            {"data.per_class": "2"},
            {"data.per_class": "3", "train.val_fraction": "0.5"},
            {"data.n_classes": "2", "train.split_mode": "by-class"},
        ],
    )
    def test_synthetic_split_sizes_refused_as_split_validation_refuses_them(self, overrides):
        with pytest.raises(ConfigError) as exc:
            build(overrides)
        flat = {**{k: str(v) for k, v in SCHEMA.items()}, **overrides}
        dataset = generate_synthetic(int(flat["data.n_classes"]), int(flat["data.per_class"]), 3)
        with pytest.raises(ValueError) as split:
            split_validation(dataset, float(flat["train.val_fraction"]), flat["train.split_mode"], 0)
        [error] = exc.value.errors
        key, rule = error.split(": ", 1)
        assert key == ("data.n_classes" if "by-class" in overrides.values() else "data.per_class")
        assert str(split.value).endswith(rule)

    @pytest.mark.parametrize("value", ["1e300", "9e307", "1e308", "1.7e308", "nan", "0", "-0.0", "-1"])
    def test_center_spread_refused_as_generate_synthetic_refuses_it(self, value):
        with pytest.raises(ConfigError) as exc:
            build({"data.center_spread": value})
        with pytest.raises(ValueError) as owner:
            generate_synthetic(2, 5, 3, center_spread=float(value))
        assert exc.value.errors == [f"data.{owner.value}"]

    def test_center_spread_up_to_its_bound_is_accepted(self):
        assert build({"data.center_spread": repr(MAX_SCALE)}).data.center_spread == MAX_SCALE
        assert build({"data.within_std": repr(MAX_SCALE)}).data.within_std == MAX_SCALE
        # a CSV run generates nothing, so the spread is not its concern
        build({"data.center_spread": "1e308", "data.path": "features.csv"})

    def test_transfer_rules(self):
        with pytest.raises(ConfigError, match="requires transfer.policy_path"):
            build({"transfer.mode": "fixed-policy"})
        with pytest.raises(ConfigError, match="require sampler.kind=pads"):
            build({"transfer.mode": "fixed-final-pmf", "sampler.kind": "random"})
        build({"transfer.mode": "fixed-final-pmf"})  # empty pmf_path freezes the init PMF

    @pytest.mark.parametrize(
        "key, message",
        [
            ("loss.gamma", "loss.gamma must be positive"),
            ("loss.beta_margin", "loss.beta_margin must be positive"),
            ("loss.beta_lr", "loss.beta_lr must be nonnegative"),
        ],
    )
    def test_nan_loss_values_rejected(self, key, message):
        with pytest.raises(ConfigError) as exc:
            build({key: "nan"})
        assert exc.value.errors == [message]

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [k for k, v in SCHEMA.items() if isinstance(v, float) and k != "sampler.clip_lambda"],
    )
    def test_infinite_float_values_rejected(self, key, value):
        flat = {key: value}
        if key in ("data.within_std", "data.center_spread"):
            # synthetic data's own rules report these (next test); a CSV run has only the generic line
            flat["data.path"] = "features.csv"
        with pytest.raises(ConfigError) as exc:
            build(flat)
        assert exc.value.errors[0] == f"{key} must be finite"

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_std_and_spread_reported_once_each(self, value):
        with pytest.raises(ConfigError) as exc:
            build({"data.within_std": value, "data.center_spread": value})
        for key in ("data.within_std", "data.center_spread"):
            assert len([e for e in exc.value.errors if key in e]) == 1

    def test_infinite_clip_lambda_means_no_cap(self):
        assert build({"sampler.clip_lambda": "inf"}).sampler.clip_lambda == float("inf")
        with pytest.raises(ConfigError) as exc:
            build({"sampler.clip_lambda": "-inf"})
        assert exc.value.errors == ["sampler.clip_lambda must be nonnegative (0 = auto)"]

    def test_state_recalls_subset(self):
        with pytest.raises(ConfigError, match="subset of 1,2,4"):
            build({"rl.state_recalls": "1,3"})

    def test_state_recalls_repeated_value(self):
        with pytest.raises(ConfigError, match="subset of 1,2,4"):
            build({"rl.state_recalls": "1,1"})

    def test_running_averages_repeated_length(self):
        # a repeated length would put two identical running-mean columns per metric in the state
        with pytest.raises(ConfigError, match="distinct positive lengths"):
            build({"train.running_averages": "8,8"})
        with pytest.raises(ConfigError, match="distinct positive lengths"):
            build({"train.running_averages": "2,8,16,2"})
        build({"train.running_averages": "16,8"})


#: flat key -> declared interval
RANGES = {key: f.metadata["range"].interval for key, f, _ in _leaves(RunConfig()) if "range" in f.metadata}
#: each declared key's refusal, as the hand-written checks worded it before the ranges were declared
HAND_WRITTEN = {
    "seed": "seed must be nonnegative",
    "data.seed": "data.seed must be nonnegative",
    "model.embedding_dim": "model.embedding_dim must be >= 2",
    "model.lr": "model.lr must be nonnegative",
    "loss.gamma": "loss.gamma must be positive",
    "loss.beta_margin": "loss.beta_margin must be positive",
    "loss.beta_lr": "loss.beta_lr must be nonnegative",
    "sampler.clip_lambda": "sampler.clip_lambda must be nonnegative (0 = auto)",
    "pmf.alpha": "pmf.alpha must lie in (0, 1)",
    "pmf.beta": "pmf.beta must exceed 1",
    "rl.lr": "rl.lr must be nonnegative",
    "rl.ema_decay": "rl.ema_decay must lie in [0, 1)",
    "rl.value_coef": "rl.value_coef must be nonnegative",
    "rl.hidden": "rl.hidden must be >= 1",
    "ppo.epsilon": "ppo.epsilon must be positive",
    "ppo.old_refresh": "ppo.old_refresh must be >= 1",
    "train.m": "train.m must be >= 1",
    "train.classes_per_batch": "train.classes_per_batch must be >= 2",
    "train.samples_per_class": "train.samples_per_class must be >= 2",
    "train.history": "train.history must be >= 1",
}
#: the keys that gained an upper bound, so that a value which overflowed in training is refused; each
#: now names its interval on either side
NEWLY_BOUNDED = {
    "model.lr": "model.lr must lie in [0, 1e6]",
    "rl.value_coef": "rl.value_coef must lie in [0, 1e6]",
}


def just_outside(key) -> list:
    """The values nearest each finite bound of key's interval that the interval refuses."""
    interval, kind = RANGES[key], type(SCHEMA[key])
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    values = []
    for bound, is_open, away in ((lo, interval[0] == "(", -math.inf), (hi, interval[-1] == ")", math.inf)):
        if math.isfinite(bound):
            values += [bound] if is_open else []
            values.append(bound + (1 if away > 0 else -1) if kind is int else np.nextafter(bound, away))
    return [kind(v) for v in values]


OUTSIDE_CASES = [(key, value) for key in RANGES for value in just_outside(key)]
#: int and float keys whose range code checks instead of a declaration, and why
CODE_CHECKED = (
    ("data.n_classes", "synthetic data only; a CSV run takes its classes from the file"),
    ("data.per_class", "synthetic data only; a CSV run takes its class sizes from the file"),
    ("data.input_dim", "synthetic data only; a CSV run takes its width from the file"),
    ("data.center_spread", "synthetic data only, by data.require_valid_spread, which gen-data shares"),
    ("data.within_std", "synthetic data only, by data.require_valid_std, which also refuses -0.0"),
    ("pmf.k", "samplers._check_bins, which SamplingPMF shares"),
    ("pmf.lambda_min", "samplers._check_bins: lambda_min < lambda_max relates two keys"),
    ("pmf.lambda_max", "samplers._check_bins: lambda_min < lambda_max relates two keys"),
    ("train.total_iterations", "must be >= train.m, which relates two keys"),
    ("train.val_fraction", "data.require_valid_split, which split_validation shares"),
)


class TestDeclaredRanges:
    @pytest.mark.parametrize("key, value", OUTSIDE_CASES, ids=[f"{k}={v!r}" for k, v in OUTSIDE_CASES])
    def test_a_value_just_outside_a_bound_gets_the_hand_written_message(self, key, value):
        expected = NEWLY_BOUNDED.get(key, HAND_WRITTEN[key])
        with pytest.raises(ConfigError) as exc:
            build({key: repr(value)})
        assert exc.value.errors == [expected]
        if key.startswith("loss."):
            with pytest.raises(ValueError) as direct:
                LossConfig(**{key.removeprefix("loss."): value})
            assert str(direct.value) == expected

    def test_every_declared_key_has_a_hand_written_message(self):
        assert set(RANGES) == set(HAND_WRITTEN)
        assert set(NEWLY_BOUNDED) <= set(HAND_WRITTEN)

    def test_every_numeric_key_has_a_declared_range_or_a_reason_for_code(self):
        numeric = {k for k, v in SCHEMA.items() if type(v) in (int, float)}
        in_code = dict(CODE_CHECKED)
        assert len(in_code) == len(CODE_CHECKED) and all(in_code.values())
        assert not set(in_code) & set(RANGES)
        assert set(RANGES) | set(in_code) == numeric

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["gamma", "beta_margin", "beta_lr"])
    def test_loss_config_refuses_an_infinite_value_as_config_does(self, key, value):
        with pytest.raises(ValueError, match=rf"^loss\.{key} must be finite$"):
            LossConfig(**{key: value})
        with pytest.raises(ConfigError) as exc:
            build({f"loss.{key}": repr(value)})
        assert exc.value.errors == [f"loss.{key} must be finite"]


class TestRoundTrip:
    def test_resolved_lines_sorted_and_stable(self):
        cfg = build({"model.lr": "0.0001234", "pmf.alpha": "0.85", "seed": "11"})
        lines = resolved_lines(cfg)
        assert lines == sorted(lines)
        rebuilt = build(parse_kv_lines(lines))
        assert config_to_flat(rebuilt) == config_to_flat(cfg)
        assert resolved_lines(rebuilt) == lines

    def test_float_repr_fidelity(self):
        cfg = build({"model.lr": "0.1"})
        flat = config_to_flat(cfg)
        assert flat["model.lr"] == "0.1"
        assert build(flat).model.lr == 0.1

    def test_n_episodes_truncates(self):
        cfg = build({"train.m": "5", "train.total_iterations": "17"})
        assert cfg.n_episodes == 3

    def test_load_config_overrides_win(self, tmp_path):
        path = tmp_path / "base.cfg"
        path.write_text("seed=3\ntrain.m=10\ntrain.total_iterations=20\n")
        cfg, _ = load_config(path, {"seed": "5"})
        assert cfg.seed == 5
        assert cfg.train.m == 10

    def test_default_equals_dataclass_default(self):
        assert config_to_flat(build({})) == config_to_flat(RunConfig())


# ---- the schema derived from the section dataclasses ----

#: resolved_lines of the default config, written out key by key so that a
#: renamed, dropped, added or retyped key fails here
DEFAULT_RESOLVED = [
    "data.center_spread=1.0",
    "data.input_dim=20",
    "data.n_classes=8",
    "data.path=",
    "data.per_class=200",
    "data.seed=0",
    "data.within_std=1.0",
    "loss.beta_lr=0.0005",
    "loss.beta_margin=1.2",
    "loss.gamma=0.2",
    "loss.kind=triplet",
    "loss.learnable_beta=false",
    "model.embedding_dim=32",
    "model.hidden=64,64",
    "model.lr=0.001",
    "pmf.alpha=0.8",
    "pmf.beta=1.25",
    "pmf.init=uniform",
    "pmf.k=30",
    "pmf.lambda_max=1.4",
    "pmf.lambda_min=0.1",
    "ppo.epsilon=0.2",
    "ppo.old_refresh=5",
    "rl.algorithm=ppo-a2c",
    "rl.ema_decay=0.9",
    "rl.hidden=128",
    "rl.lr=0.0001",
    "rl.state_recalls=1,2,4",
    "rl.value_coef=0.5",
    "sampler.clip_lambda=0.0",
    "sampler.kind=pads",
    "sampler.self_reg=false",
    "seed=0",
    "train.classes_per_batch=4",
    "train.history=20",
    "train.log_transitions=true",
    "train.m=30",
    "train.running_averages=2,8,16,32",
    "train.samples_per_class=4",
    "train.split_mode=per-class",
    "train.total_iterations=4500",
    "train.val_fraction=0.15",
    "transfer.mode=none",
    "transfer.pmf_path=",
    "transfer.policy_path=",
]

#: overrides of the acceptance suite's SMALL config, as raw strings
SMALL = {
    "data.n_classes": "5",
    "data.per_class": "16",
    "data.input_dim": "6",
    "model.hidden": "24",
    "model.embedding_dim": "8",
    "pmf.k": "10",
    "rl.hidden": "16",
    "train.m": "8",
    "train.total_iterations": "40",
    "train.classes_per_batch": "3",
    "train.samples_per_class": "3",
    "train.val_fraction": "0.25",
}

SMALL_RESOLVED = [
    "data.center_spread=1.0",
    "data.input_dim=6",
    "data.n_classes=5",
    "data.path=",
    "data.per_class=16",
    "data.seed=0",
    "data.within_std=1.0",
    "loss.beta_lr=0.0005",
    "loss.beta_margin=1.2",
    "loss.gamma=0.2",
    "loss.kind=triplet",
    "loss.learnable_beta=false",
    "model.embedding_dim=8",
    "model.hidden=24",
    "model.lr=0.001",
    "pmf.alpha=0.8",
    "pmf.beta=1.25",
    "pmf.init=uniform",
    "pmf.k=10",
    "pmf.lambda_max=1.4",
    "pmf.lambda_min=0.1",
    "ppo.epsilon=0.2",
    "ppo.old_refresh=5",
    "rl.algorithm=ppo-a2c",
    "rl.ema_decay=0.9",
    "rl.hidden=16",
    "rl.lr=0.0001",
    "rl.state_recalls=1,2,4",
    "rl.value_coef=0.5",
    "sampler.clip_lambda=0.0",
    "sampler.kind=pads",
    "sampler.self_reg=false",
    "seed=0",
    "train.classes_per_batch=3",
    "train.history=20",
    "train.log_transitions=true",
    "train.m=8",
    "train.running_averages=2,8,16,32",
    "train.samples_per_class=3",
    "train.split_mode=per-class",
    "train.total_iterations=40",
    "train.val_fraction=0.25",
    "transfer.mode=none",
    "transfer.pmf_path=",
    "transfer.policy_path=",
]

#: one valid, non-default value per key, in its resolved (canonical) form
NON_DEFAULT = {
    "seed": "7",
    "data.path": "corpus.csv",
    "data.n_classes": "5",
    "data.per_class": "40",
    "data.input_dim": "6",
    "data.center_spread": "1.5",
    "data.within_std": "0.5",
    "data.seed": "3",
    "model.hidden": "32,16",
    "model.embedding_dim": "8",
    "model.lr": "0.01",
    "loss.kind": "margin",
    "loss.gamma": "0.1",
    "loss.beta_margin": "1.0",
    "loss.learnable_beta": "true",
    "loss.beta_lr": "0.001",
    "sampler.kind": "random",
    "sampler.clip_lambda": "5.0",
    "sampler.self_reg": "true",
    "pmf.lambda_min": "0.2",
    "pmf.lambda_max": "1.8",
    "pmf.k": "12",
    "pmf.init": "gaussian:0.5:0.2",
    "pmf.alpha": "0.75",
    "pmf.beta": "1.5",
    "rl.algorithm": "reinforce",
    "rl.lr": "0.001",
    "rl.ema_decay": "0.5",
    "rl.value_coef": "1.0",
    "rl.hidden": "64",
    "rl.state_recalls": "1,4",
    "ppo.epsilon": "0.1",
    "ppo.old_refresh": "3",
    "train.m": "10",
    "train.total_iterations": "600",
    "train.classes_per_batch": "3",
    "train.samples_per_class": "5",
    "train.val_fraction": "0.25",
    "train.split_mode": "by-class",
    "train.running_averages": "4,8",
    "train.history": "10",
    "train.log_transitions": "false",
    "transfer.mode": "fixed-final-pmf",
    "transfer.policy_path": "policy.json",
    "transfer.pmf_path": "final_pmf.json",
}


class TestSchema:
    def test_default_resolved_lines(self):
        assert resolved_lines(build({})) == DEFAULT_RESOLVED

    def test_small_resolved_lines(self):
        assert resolved_lines(build(SMALL)) == SMALL_RESOLVED

    def test_every_key_has_a_non_default_case(self):
        assert set(NON_DEFAULT) == set(config_to_flat(RunConfig()))

    @pytest.mark.parametrize("key", list(NON_DEFAULT))
    def test_non_default_value_round_trips(self, key):
        default = config_to_flat(RunConfig())
        assert NON_DEFAULT[key] != default[key]
        cfg = build({key: NON_DEFAULT[key]})
        flat = config_to_flat(cfg)
        assert flat == {**default, key: NON_DEFAULT[key]}
        assert build(flat) == cfg

    def test_empty_tuple_value_parses_as_empty(self):
        # parsed to (), then rejected by the range check rather than by the parser
        with pytest.raises(ConfigError, match="model.hidden must list positive layer widths"):
            build({"model.hidden": ""})
