import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import tripletlab.cli as cli
from tripletlab.cli import main
from tripletlab.config import SCHEMA
from tripletlab.data import load_dataset


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(
        "\n".join(
            [
                "data.n_classes=4",
                "data.per_class=12",
                "data.input_dim=6",
                "model.hidden=16",
                "model.embedding_dim=8",
                "pmf.k=8",
                "rl.hidden=16",
                "train.m=5",
                "train.total_iterations=15",
                "train.classes_per_batch=3",
                "train.samples_per_class=3",
                "train.val_fraction=0.25",
            ]
        )
        + "\n"
    )
    return path


class TestRun:
    def test_run_writes_artifacts_and_prints_summary(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(base_cfg), "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["episodes"] == 3
        assert set(summary["final"]) == {"r1", "r2", "r4", "nmi", "intra", "inter"}
        for name in ("metrics.csv", "config.resolved", "pmf.jsonl", "transitions.jsonl",
                     "model.json", "policy.json", "final_pmf.json", "summary.json"):
            assert (out / name).exists(), name

    def test_default_out_dir_encodes_sampler_and_seed(self, base_cfg, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--config", str(base_cfg), "--set", "sampler.kind=random",
                   "--seed", "3"])
        assert rc == 0
        assert (tmp_path / "runs" / "random-s3" / "metrics.csv").exists()

    def test_seed_flag_lands_in_resolved_config(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(base_cfg), "--seed", "7", "--out", str(out)])
        assert rc == 0
        resolved = (out / "config.resolved").read_text().splitlines()
        assert "seed=7" in resolved

    def test_set_overrides_file(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(base_cfg), "--set", "sampler.kind=semihard",
                   "--out", str(out)])
        assert rc == 0
        assert "sampler.kind=semihard" in (out / "config.resolved").read_text().splitlines()
        assert not (out / "pmf.jsonl").exists()

    def test_invalid_sampler_exits_one_listing_kinds(self, base_cfg, tmp_path, capsys):
        rc = main(["run", "--config", str(base_cfg), "--set", "sampler.kind=hardest",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown sampler kind 'hardest'" in err
        for kind in ("random", "semihard", "distweighted", "pads"):
            assert kind in err

    def test_malformed_override_exits_one(self, base_cfg, tmp_path, capsys):
        rc = main(["run", "--config", str(base_cfg), "--set", "justakey",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "not key=value" in capsys.readouterr().err

    def test_runtime_failure_exits_two(self, base_cfg, tmp_path, capsys):
        rc = main(["run", "--config", str(base_cfg),
                   "--set", "transfer.mode=fixed-policy",
                   "--set", f"transfer.policy_path={tmp_path / 'missing.json'}",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_frozen_identity_with_a_transferred_policy_exits_one(self, base_cfg, tmp_path, capsys):
        rc = main(["run", "--config", str(base_cfg),
                   "--set", "rl.algorithm=frozen-identity",
                   "--set", "transfer.mode=fixed-policy",
                   "--set", f"transfer.policy_path={tmp_path / 'missing.json'}",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert ("unknown rl algorithm 'frozen-identity'; valid algorithms: "
                "reinforce, reinforce-ema, a2c, ppo-ema, ppo-a2c") in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "overrides, error",
        [
            (["seed=-1"], "seed must be nonnegative"),
            (["data.seed=-1"], "data.seed must be nonnegative"),
            (["data.within_std=-0.0"], "data.within_std must be nonnegative and not -0.0"),
            (
                ["data.per_class=2", "train.val_fraction=0.15"],
                "data.per_class: holding out 1 of 2 samples at train.val_fraction=0.15 "
                "would leave fewer than 2 for training",
            ),
            (
                ["data.per_class=3", "train.val_fraction=0.5"],
                "data.per_class: holding out 2 of 3 samples at train.val_fraction=0.5 "
                "would leave fewer than 2 for training",
            ),
            (
                ["data.n_classes=2", "train.split_mode=by-class"],
                "data.n_classes: holding out 1 of 2 classes at train.val_fraction=0.25 "
                "would leave fewer than 2 training classes",
            ),
            (
                ["data.center_spread=9e307"],
                "data.center_spread must be finite and at most half the largest float64, got 9e+307",
            ),
            (
                ["data.center_spread=1e308"],
                "data.center_spread must be finite and at most half the largest float64, got 1e+308",
            ),
        ],
        ids=["seed", "data-seed", "negative-zero-std", "per-class-2", "per-class-3-half", "by-class-2",
             "spread-9e307", "spread-1e308"],
    )
    def test_values_the_run_would_refuse_exit_one_naming_the_key(
        self, base_cfg, tmp_path, capsys, overrides, error
    ):
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        rc = main(["run", "--config", str(base_cfg), *sets, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"  - {error}\n" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_diverged_run_exits_two_naming_nonfinite_embeddings(self, base_cfg, tmp_path, capsys):
        # one Adam step moves each parameter by about lr, and the next forward pass overflows
        rc = main(["run", "--config", str(base_cfg), "--set", "sampler.kind=distweighted",
                   "--set", "model.lr=1e300", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error: non-finite embeddings" in capsys.readouterr().err


def assert_printed_medians_match_csv(stdout: str, table, name: str) -> None:
    """The text table printed after the CSV path holds the CSV's median rows, in order."""
    lines = stdout.splitlines()
    start = lines.index(str(table))
    assert lines[start + 1].split() == [name, "final", "R@1", "final", "NMI"]
    printed = [line.split() for line in lines[start + 2 :]]
    medians = [row.split(",") for row in table.read_text().splitlines() if ",median," in row]
    assert printed == [[key, f"{float(r1):.4f}", f"{float(nmi):.4f}"] for key, _, r1, nmi in medians]


class TestCompare:
    def test_two_samplers_two_seeds(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", str(base_cfg), "--samplers", "random,semihard",
                   "--seeds", "2", "--out", str(out)])
        assert rc == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0] == "sampler,seed,final_r1,final_nmi"
        assert len(rows) == 1 + 4 + 2
        assert rows[-2].startswith("random,median,")
        assert rows[-1].startswith("semihard,median,")
        for sampler in ("random", "semihard"):
            for seed in (0, 1):
                assert (out / f"{sampler}-s{seed}" / "metrics.csv").exists()

    def test_prints_the_median_rows(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", str(base_cfg), "--samplers", "random,pads,random",
                   "--seeds", "3", "--out", str(out)])
        assert rc == 0
        assert_printed_medians_match_csv(capsys.readouterr().out, out / "comparison.csv", "sampler")

    def test_same_sampler_twice_gives_identical_medians(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", str(base_cfg), "--samplers", "random,random",
                   "--seeds", "2", "--out", str(out)])
        assert rc == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        medians = [r for r in rows if ",median," in r]
        assert len(medians) == 2 and medians[0] == medians[1]

    def test_sampler_listed_twice_trains_each_run_once(self, base_cfg, tmp_path, monkeypatch,
                                                       capsys):
        calls = []
        real_train = cli.train

        def counting_train(cfg, out):
            calls.append((cfg.sampler.kind, cfg.seed))
            return real_train(cfg, out)

        monkeypatch.setattr(cli, "train", counting_train)
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", str(base_cfg), "--samplers", "random,semihard,random",
                   "--seeds", "2", "--out", str(out)])
        assert rc == 0
        assert calls == [("random", 0), ("random", 1), ("semihard", 0), ("semihard", 1)]
        rows = (out / "comparison.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["random", "0"], ["random", "1"], ["semihard", "0"], ["semihard", "1"],
            ["random", "0"], ["random", "1"],
            ["random", "median"], ["semihard", "median"], ["random", "median"],
        ]
        assert rows[1:3] == rows[5:7] and rows[7] == rows[9]

    def test_shared_data_split_across_samplers(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "cmp"
        main(["compare", "--config", str(base_cfg), "--samplers", "random,pads",
              "--seeds", "1", "--out", str(out)])
        a = (out / "random-s0" / "config.resolved").read_text().splitlines()
        b = (out / "pads-s0" / "config.resolved").read_text().splitlines()
        data_lines = lambda lines: [ln for ln in lines if ln.startswith("data.")]
        assert data_lines(a) == data_lines(b)

    def test_needs_two_samplers(self, base_cfg, tmp_path, capsys):
        rc = main(["compare", "--config", str(base_cfg), "--samplers", "random",
                   "--out", str(tmp_path / "cmp")])
        assert rc == 1
        assert "at least 2 sampler kinds" in capsys.readouterr().err

    def test_unknown_sampler_rejected_before_running(self, base_cfg, tmp_path, capsys):
        rc = main(["compare", "--config", str(base_cfg), "--samplers", "random,hardest",
                   "--out", str(tmp_path / "cmp")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown sampler kind 'hardest'" in err and "valid kinds" in err
        assert not (tmp_path / "cmp" / "comparison.csv").exists()
        assert not list((tmp_path / "cmp").glob("*-s*"))

    def test_invalid_later_config_trains_nothing(self, base_cfg, tmp_path, capsys):
        # pads is valid at dim 2; distweighted is not, and it comes second
        rc = main(["compare", "--config", str(base_cfg), "--samplers", "pads,distweighted",
                   "--set", "model.embedding_dim=2", "--out", str(tmp_path / "cmp")])
        assert rc == 1
        assert "model.embedding_dim >= 3" in capsys.readouterr().err
        assert not list((tmp_path / "cmp").glob("*"))


class TestSweep:
    def test_sweep_table(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(base_cfg), "--param", "pmf.k",
                   "--values", "6,8", "--seeds", "1", "--out", str(out),
                   "--set", "sampler.kind=pads"])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "pmf.k,seed,final_r1,final_nmi"
        assert len(rows) == 1 + 2 + 2
        assert (out / "pmf.k=6-s0" / "metrics.csv").exists()
        assert (out / "pmf.k=8-s0" / "metrics.csv").exists()

    def test_prints_the_median_rows(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(base_cfg), "--param", "pmf.k",
                   "--values", "6,10,6", "--seeds", "3", "--out", str(out),
                   "--set", "sampler.kind=pads"])
        assert rc == 0
        assert_printed_medians_match_csv(capsys.readouterr().out, out / "sweep.csv", "pmf.k")

    def test_value_listed_twice_trains_each_run_once(self, base_cfg, tmp_path, monkeypatch, capsys):
        calls = []
        real_train = cli.train

        def counting_train(cfg, out):
            calls.append((cfg.pmf.k, cfg.seed))
            return real_train(cfg, out)

        monkeypatch.setattr(cli, "train", counting_train)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(base_cfg), "--param", "pmf.k",
                   "--values", "10,6,10", "--seeds", "2", "--out", str(out),
                   "--set", "sampler.kind=pads"])
        assert rc == 0
        assert calls == [(10, 0), (10, 1), (6, 0), (6, 1)]
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["10", "0"], ["10", "1"], ["6", "0"], ["6", "1"], ["10", "0"], ["10", "1"],
            ["10", "median"], ["6", "median"], ["10", "median"],
        ]
        assert rows[1:3] == rows[5:7]
        assert rows[7] == rows[9]

    def test_sweep_bad_param_exits_one(self, base_cfg, tmp_path, capsys):
        rc = main(["sweep", "--config", str(base_cfg), "--param", "bogus.key",
                   "--values", "1,2", "--out", str(tmp_path / "sweep")])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_sweeping_the_seed_exits_one(self, base_cfg, tmp_path, capsys):
        rc = main(["sweep", "--config", str(base_cfg), "--param", "seed",
                   "--values", "5,9", "--out", str(tmp_path / "sweep")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "--seeds" in err
        assert not (tmp_path / "sweep").exists()

    def test_invalid_later_value_trains_nothing(self, base_cfg, tmp_path, capsys):
        rc = main(["sweep", "--config", str(base_cfg), "--param", "pmf.k",
                   "--values", "30,1", "--out", str(tmp_path / "sweep")])
        assert rc == 1
        assert "pmf.k must be >= 2" in capsys.readouterr().err
        assert not list((tmp_path / "sweep").glob("*"))


class TestTransfer:
    VARIANTS = ("fixed-policy", "fixed-final-pmf", "pads", "random")

    def test_teacher_and_students_two_seeds(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "transfer"
        rc = main(["transfer", "--config", str(base_cfg), "--seeds", "2", "--out", str(out)])
        assert rc == 0
        assert (out / "teacher" / "policy.json").exists()
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(
            ["teacher"] + [f"{v}-s{seed}" for v in self.VARIANTS for seed in (0, 1)]
        )
        table = out / "transfer.csv"
        rows = table.read_text().splitlines()
        assert rows[0] == "variant,seed,final_r1,final_nmi"
        assert [r.split(",")[:2] for r in rows[1:]] == [
            [v, str(seed)] for v in self.VARIANTS for seed in (0, 1)
        ] + [[v, "median"] for v in self.VARIANTS]
        assert_printed_medians_match_csv(capsys.readouterr().out, table, "variant")
        for seed in (0, 1):
            resolved = (out / f"fixed-policy-s{seed}" / "config.resolved").read_text().splitlines()
            assert f"transfer.policy_path={out / 'teacher' / 'policy.json'}" in resolved
            assert "data.seed=1" in resolved

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--set", "sampler.kind=random", "teacher must write policy.json"),
            ("--set", "pmf.k=1", "pmf.k must be >= 2"),
            ("--set", "rl.algorithm=frozen-identity", "unknown rl algorithm 'frozen-identity'"),
            ("--set", "transfer.mode=fixed-final-pmf", "teacher must write policy.json"),
            ("--seeds", "0", "--seeds must be at least 1"),
        ],
        ids=["random-teacher", "pmf-k", "frozen-identity", "transfer-mode", "no-seeds"],
    )
    def test_invalid_config_trains_nothing(self, base_cfg, tmp_path, capsys, flag, value,
                                           message):
        rc = main(["transfer", "--config", str(base_cfg), flag, value,
                   "--out", str(tmp_path / "transfer")])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not list((tmp_path / "transfer").glob("*"))


@pytest.mark.parametrize(
    "command", [["compare", "--samplers", "random,pads"], ["sweep", "--param", "pmf.k",
                                                           "--values", "6,8"]],
    ids=["compare", "sweep"],
)
def test_zero_seeds_trains_nothing(base_cfg, tmp_path, capsys, command):
    rc = main([*command, "--config", str(base_cfg), "--seeds", "0", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "--seeds must be at least 1" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*"))


def readme_commands() -> list:
    """Every `tripletlab ...` line of the README's code blocks, with `\\` continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    joined = "\n".join(blocks).replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("tripletlab ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert any(c.startswith("tripletlab transfer ") for c in commands)
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"the parser rejects the README command {command!r}")


def test_every_public_name_resolves():
    import tripletlab

    assert tripletlab.__all__
    assert [name for name in tripletlab.__all__ if not hasattr(tripletlab, name)] == []


class TestGenData:
    def test_round_trip(self, tmp_path, capsys):
        out = tmp_path / "ds.csv"
        rc = main(["gen-data", "--out", str(out), "--classes", "3", "--per-class", "5",
                   "--dim", "4", "--seed", "2"])
        assert rc == 0
        assert "15 rows, 3 classes, dim 4" in capsys.readouterr().out
        ds = load_dataset(out)
        assert ds.n == 15 and ds.n_classes == 3 and ds.input_dim == 4

    @pytest.mark.parametrize(
        "flag,value",
        [("--classes", "0"), ("--per-class", "0"), ("--dim", "0"), ("--std", "-1")],
        ids=["classes", "per-class", "dim", "std"],
    )
    def test_invalid_args_exit_one(self, tmp_path, capsys, flag, value):
        rc = main(["gen-data", "--out", str(tmp_path / "ds.csv"), flag, value])
        assert rc == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "ds.csv").exists()


    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--std", "1e300", "not finite at float32 precision"),
            ("--spread", "1e39", "not finite at float32 precision"),
            ("--spread", "inf", "center_spread must be finite"),
            ("--spread", "nan", "center_spread must be finite"),
        ],
        ids=["std-1e300", "spread-1e39", "spread-inf", "spread-nan"],
    )
    def test_values_a_float32_file_cannot_hold_exit_one(self, tmp_path, capsys, flag, value, message):
        rc = main(["gen-data", "--out", str(tmp_path / "ds.csv"), flag, value])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ds.csv").exists()


class TestPlotData:
    def run_small(self, base_cfg, tmp_path, *extra):
        out = tmp_path / "run"
        rc = main(["run", "--config", str(base_cfg), "--out", str(out), *extra])
        assert rc == 0
        return out

    def test_long_format_rows(self, base_cfg, tmp_path, capsys):
        out = self.run_small(base_cfg, tmp_path)
        capsys.readouterr()
        rc = main(["plot-data", "--run", str(out)])
        assert rc == 0
        rows = (out / "pmf_long.csv").read_text().splitlines()
        assert rows[0] == "episode,bin_center,probability"
        assert len(rows) == 1 + 3 * 8  # episodes x bins
        by_episode: dict = {}
        for row in rows[1:]:
            ep, center, p = row.split(",")
            by_episode.setdefault(ep, []).append(float(p))
            assert 0.1 <= float(center) <= 1.4
        for probs in by_episode.values():
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_explicit_out_path(self, base_cfg, tmp_path, capsys):
        out = self.run_small(base_cfg, tmp_path)
        dest = tmp_path / "flat.csv"
        assert main(["plot-data", "--run", str(out), "--out", str(dest)]) == 0
        assert dest.exists()

    def test_static_run_message(self, base_cfg, tmp_path, capsys):
        out = self.run_small(base_cfg, tmp_path, "--set", "sampler.kind=random")
        capsys.readouterr()
        rc = main(["plot-data", "--run", str(out)])
        assert rc == 0
        assert "(static sampler run)" in capsys.readouterr().out
        assert not (out / "pmf_long.csv").exists()

    def test_corrupt_stream_exits_two(self, base_cfg, tmp_path, capsys):
        out = self.run_small(base_cfg, tmp_path)
        src = out / "pmf.jsonl"
        lines = src.read_text().splitlines()
        lines[1] = "{not json"
        src.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["plot-data", "--run", str(out)])
        assert rc == 2
        assert "pmf.jsonl:2: corrupt PMF snapshot" in capsys.readouterr().err

    def test_inconsistent_snapshot_exits_two(self, base_cfg, tmp_path, capsys):
        out = self.run_small(base_cfg, tmp_path)
        src = out / "pmf.jsonl"
        lines = src.read_text().splitlines()
        snap = json.loads(lines[0])
        snap["edges"] = snap["edges"][:-2]
        lines[0] = json.dumps(snap)
        src.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["plot-data", "--run", str(out)])
        assert rc == 2
        assert "edges for" in capsys.readouterr().err


#: edge values per schema type; no large ints, since the size keys would allocate that much
EDGE_VALUES = {
    bool: ("false", "true"),
    int: ("-1", "0", "1", "2"),
    float: ("0", "-0.0", "-1", "nan", "1e-300", "1e300", "1.7e308"),
    str: ("", "x"),
    tuple: ("", "0", "1,1"),
}
SWEEP_CASES = [(key, value) for key, default in SCHEMA.items() for value in EDGE_VALUES[type(default)]]
OVERFLOW = "overflow: the features, the weights or the loss leave float64 while training"
#: the only cases that may pass validation and then fail at run time, with the reason
RUNTIME_FAILURES = {
    ("data.center_spread", "1e300"): OVERFLOW,
    ("data.within_std", "1e300"): OVERFLOW,
    ("data.within_std", "1.7e308"): OVERFLOW,
    ("model.lr", "1e300"): OVERFLOW,
    ("model.lr", "1.7e308"): OVERFLOW,
    ("rl.value_coef", "1.7e308"): OVERFLOW,
    ("data.path", "x"): "a missing file: validation never reads the filesystem, and transfer "
    "validates its students before the teacher writes their files",
}
#: a token a non-finite float leaves in JSON (NaN, Infinity) or in a CSV or config line (nan, inf)
NON_FINITE = re.compile(r"(?<![A-Za-z_])(NaN|Infinity|nan|inf)(?![A-Za-z_])")


@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
@pytest.mark.parametrize("key, value", SWEEP_CASES, ids=[f"{k}={v}" for k, v in SWEEP_CASES])
def test_schema_sweep_exits_one_naming_the_key_or_trains_finite(tmp_path, monkeypatch, capsys, key, value):
    """Every key at the edge values of its type on a 2-episode run: refused naming the key with no
    run directory, or trained with finite artifacts; a run-time failure only where listed."""
    monkeypatch.chdir(tmp_path)  # a relative data.path names nothing
    tiny = {
        "data.n_classes": "4", "data.per_class": "12", "data.input_dim": "6", "model.hidden": "16",
        "model.embedding_dim": "8", "pmf.k": "8", "rl.hidden": "16", "train.m": "2",
        "train.total_iterations": "4", "train.classes_per_batch": "3",
        "train.samples_per_class": "3", "train.val_fraction": "0.25", key: value,
    }
    out = tmp_path / "run"
    rc = main(["run", *(arg for k, v in tiny.items() for arg in ("--set", f"{k}={v}")), "--out", str(out)])
    err = capsys.readouterr().err
    if (key, value) in RUNTIME_FAILURES:
        assert rc == 2, "listed as a run-time failure, but it no longer fails at run time"
    elif rc == 1:
        assert re.search(rf"(?<![\w.]){re.escape(key)}\b", err), err  # "seed" is not "data.seed"
        assert not out.exists()
    else:
        assert rc == 0, err
        for path in out.iterdir():
            assert not NON_FINITE.search(path.read_text()), path.name


def test_console_entry_point_importable():
    from tripletlab.cli import main as entry
    assert callable(entry)


def test_module_invocation(base_cfg, tmp_path):
    import os
    import subprocess
    import sys

    # the child imports the package this process imports, whether or not PYTHONPATH names it
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "tripletlab", "run", "--config", str(base_cfg),
         "--set", "sampler.kind=random", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").exists()
    summary = json.loads(proc.stdout)
    assert summary["episodes"] == 3
