import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import tripletlab.metrics as metrics
import tripletlab.trainer as trainer
from tripletlab.config import config_from_flat, config_to_flat, parse_kv_lines
from tripletlab.data import LabeledDataset, generate_synthetic, save_dataset
from tripletlab.rl import RL_ALGORITHMS
from tripletlab.samplers import SAMPLER_KINDS, triplet_masks
from tripletlab.trainer import CSV_HEADER, TrainLoop, split_validation, train


def small_flat(**overrides):
    """Config for fast runs: 48 samples, 3 episodes of 5 iterations."""
    flat = {
        "data.n_classes": "4",
        "data.per_class": "12",
        "data.input_dim": "6",
        "model.hidden": "16",
        "model.embedding_dim": "8",
        "pmf.k": "8",
        "rl.hidden": "16",
        "train.m": "5",
        "train.total_iterations": "15",
        "train.classes_per_batch": "3",
        "train.samples_per_class": "3",
        "train.val_fraction": "0.25",
    }
    flat.update({k: str(v) for k, v in overrides.items()})
    cfg, _ = config_from_flat(flat)
    return cfg


def planning_loop(tmp_path, sizes, **overrides):
    """TrainLoop over a CSV whose class c has sizes[c] rows; the split keeps
    6 of 8 rows and 2 of 3 for training (small_flat: p = s = 3)."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    features = np.random.default_rng(0).normal(size=(labels.size, 3))
    save_dataset(LabeledDataset(features, labels), tmp_path / "ds.csv")
    cfg = small_flat(**{"data.path": tmp_path / "ds.csv", **overrides})
    return TrainLoop(cfg, tmp_path / "run")


def train_rows_of(loop, label):
    return loop.train_idx[loop.dataset.labels[loop.train_idx] == label]


class TestSplitValidation:
    def test_per_class_fraction_example(self):
        ds = generate_synthetic(8, 200, 5, seed=0)
        train_idx, val_idx = split_validation(ds, 0.15, "per-class", 0)
        val_counts = np.bincount(ds.labels[val_idx], minlength=8)
        assert np.all(val_counts == 30)
        assert np.all(np.bincount(ds.labels[train_idx], minlength=8) == 170)

    def test_disjoint_and_covering(self):
        ds = generate_synthetic(5, 13, 4, seed=1)
        train_idx, val_idx = split_validation(ds, 0.2, "per-class", 7)
        assert np.intersect1d(train_idx, val_idx).size == 0
        assert np.array_equal(np.sort(np.concatenate([train_idx, val_idx])), np.arange(ds.n))

    def test_deterministic_per_seed(self):
        ds = generate_synthetic(4, 10, 3, seed=2)
        a = split_validation(ds, 0.2, "per-class", 5)
        b = split_validation(ds, 0.2, "per-class", 5)
        c = split_validation(ds, 0.2, "per-class", 6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_small_class_keeps_one_val(self):
        ds = generate_synthetic(3, 4, 3, seed=3)
        _, val_idx = split_validation(ds, 0.1, "per-class", 0)
        # max(1, round(0.4)) = 1 held-out sample per class
        assert np.all(np.bincount(ds.labels[val_idx], minlength=3) == 1)

    def test_by_class_holds_out_whole_classes(self):
        ds = generate_synthetic(6, 8, 4, seed=4)
        train_idx, val_idx = split_validation(ds, 0.34, "by-class", 11)
        train_classes = set(ds.labels[train_idx].tolist())
        val_classes = set(ds.labels[val_idx].tolist())
        assert train_classes.isdisjoint(val_classes)
        assert len(val_classes) == 2  # round(0.34 * 6)
        assert val_idx.size == 16

    def test_fraction_bounds(self):
        ds = generate_synthetic(3, 10, 3, seed=5)
        for bad in (0.0, 0.6, -0.1):
            with pytest.raises(ValueError, match=r"\(0, 0.5\]"):
                split_validation(ds, bad, "per-class", 0)

    def test_per_class_too_small(self):
        ds = generate_synthetic(3, 2, 3, seed=6)
        with pytest.raises(ValueError, match="fewer than 2 for training"):
            split_validation(ds, 0.5, "per-class", 0)

    def test_by_class_needs_two_training_classes(self):
        ds = generate_synthetic(2, 10, 3, seed=7)
        with pytest.raises(ValueError, match="fewer than 2 training classes"):
            split_validation(ds, 0.5, "by-class", 0)

    def test_unknown_mode(self):
        ds = generate_synthetic(3, 10, 3, seed=8)
        with pytest.raises(ValueError, match="valid modes: per-class, by-class"):
            split_validation(ds, 0.2, "stratified", 0)


class TestEpisodeMechanics:
    def test_single_iteration_takes_one_optimizer_step(self, tmp_path):
        cfg = small_flat(**{"sampler.kind": "random", "train.m": 1, "train.total_iterations": 1})
        loop = TrainLoop(cfg, tmp_path / "run")
        assert loop.opt.t == 0
        loop.run()
        assert loop.opt.t == 1

    def test_train_step_updates_the_buffer_in_place(self, tmp_path):
        loop = TrainLoop(small_flat(**{"sampler.kind": "random"}), tmp_path / "run")
        model = loop.model
        buffer, before = model.params, model.get_params()
        x = loop.dataset.features[:4]
        _, cache = model.forward(x)
        rows, pos = loop._plan_episode(1)
        loop._train_step(rows[0], pos[0])
        assert model.params is buffer
        assert all(np.shares_memory(layer, buffer) for layer in [*model.weights, *model.biases])
        assert not np.array_equal(buffer, before)
        # the in-place update still bumps the version: the earlier cache is stale
        with pytest.raises(ValueError, match="stale cache"):
            model.backward_from_embedding_grads(cache, np.zeros((4, model.embedding_dim)))

    def test_run_builds_its_evaluation_plan_once_and_not_in_setup(self, tmp_path, monkeypatch):
        built = []
        real_init = metrics.EvalPlan.__init__

        def counting_init(plan, labels):
            built.append(np.array(labels))
            real_init(plan, labels)

        monkeypatch.setattr(metrics.EvalPlan, "__init__", counting_init)
        loop = TrainLoop(small_flat(), tmp_path / "run")
        assert built == []
        loop.run()
        assert len(built) == 1 and loop.cfg.n_episodes == 3
        assert np.array_equal(built[0], loop.dataset.labels[loop.val_idx])

    def test_zero_learning_rate_gives_zero_rewards(self, tmp_path):
        cfg = small_flat(**{"sampler.kind": "random", "model.lr": 0.0})
        train(cfg, tmp_path / "run")
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER
        assert [r.split(",")[-1] for r in rows[1:]] == ["0", "0", "0"]

    def test_three_episodes_three_rows_three_snapshots(self, tmp_path):
        cfg = small_flat()
        assert cfg.n_episodes == 3
        summary = train(cfg, tmp_path / "run")
        assert summary["episodes"] == 3
        rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(rows) == 4
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3"]
        snaps = (tmp_path / "run" / "pmf.jsonl").read_text().splitlines()
        assert [json.loads(s)["episode"] for s in snaps] == [1, 2, 3]
        for s in snaps:
            payload = json.loads(s)
            assert len(payload["edges"]) == cfg.pmf.k + 1
            assert sum(payload["p"]) == pytest.approx(1.0, abs=1e-9)

    def test_static_sampler_writes_no_pmf_stream(self, tmp_path):
        cfg = small_flat(**{"sampler.kind": "distweighted"})
        train(cfg, tmp_path / "run")
        produced = {p.name for p in (tmp_path / "run").iterdir()}
        assert "pmf.jsonl" not in produced
        assert "policy.json" not in produced
        assert "transitions.jsonl" not in produced
        assert {"metrics.csv", "config.resolved", "model.json", "summary.json"} <= produced

    def test_adaptive_run_logs_transitions_from_second_episode(self, tmp_path):
        cfg = small_flat(**{"train.total_iterations": 25})  # 5 episodes
        train(cfg, tmp_path / "run")
        lines = (tmp_path / "run" / "transitions.jsonl").read_text().splitlines()
        payloads = [json.loads(ln) for ln in lines]
        # the first adjustment is rewarded one episode later
        assert [p["episode"] for p in payloads] == [2, 3, 4, 5]
        for p in payloads:
            assert p["reward"] in (-1, 0, 1)
            assert len(p["action"]) == cfg.pmf.k
            assert p["logprob"] <= 0.0

    def test_leftover_iterations_warn(self, tmp_path):
        cfg = small_flat(**{"train.total_iterations": 17, "sampler.kind": "random"})
        with pytest.warns(UserWarning, match="dropping the last 2 iterations"):
            train(cfg, tmp_path / "run")

    def test_non_multiple_still_runs_full_episodes(self, tmp_path):
        cfg = small_flat(**{"train.total_iterations": 17, "sampler.kind": "random"})
        with pytest.warns(UserWarning):
            summary = train(cfg, tmp_path / "run")
        assert summary["episodes"] == 3


class TestBatchPlan:
    STEPS = 6000

    def test_classes_are_uniform_p_subsets(self, tmp_path):
        loop = planning_loop(tmp_path, [8] * 5)
        rows, _ = loop._plan_episode(self.STEPS)
        assert rows.shape == (self.STEPS, 9)
        blocks = loop.dataset.labels[rows].reshape(self.STEPS, 3, 3)
        assert (blocks == blocks[:, :, :1]).all()  # blocks of s rows of one class
        classes = np.sort(blocks[:, :, 0], axis=1)
        assert (np.diff(classes, axis=1) > 0).all()  # p distinct classes
        subsets = {c: i for i, c in enumerate(itertools.combinations(range(5), 3))}
        counts = np.bincount([subsets[tuple(c)] for c in classes.tolist()], minlength=10)
        assert stats.chisquare(counts).pvalue > 1e-3
        # each class is included with probability p/C
        for included in np.bincount(classes.ravel(), minlength=5):
            observed = [included, self.STEPS - included]
            expected = [self.STEPS * 3 / 5, self.STEPS * 2 / 5]
            assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_within_class_subsets_are_uniform(self, tmp_path):
        loop = planning_loop(tmp_path, [8] * 5)
        members = train_rows_of(loop, 0)
        assert members.size == 6
        rows, _ = loop._plan_episode(self.STEPS)
        blocks = np.sort(rows.reshape(-1, 3), axis=1)
        mine = blocks[np.isin(blocks[:, 0], members)]
        assert np.isin(mine, members).all()
        assert (np.diff(mine, axis=1) > 0).all()  # without replacement
        combos = {c: i for i, c in enumerate(itertools.combinations(members.tolist(), 3))}
        counts = np.bincount([combos[tuple(b)] for b in mine.tolist()], minlength=20)
        assert counts.size == 20
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_small_class_picks_with_replacement_uniformly(self, tmp_path):
        loop = planning_loop(tmp_path, [8, 8, 8, 8, 3])
        members = train_rows_of(loop, 4)
        assert members.size == 2  # fewer than s = 3
        rows, _ = loop._plan_episode(self.STEPS)
        blocks = rows.reshape(-1, 3)
        small = np.isin(blocks[:, 0], members)
        assert np.isin(blocks[small], members).all()
        assert (np.diff(np.sort(blocks[~small], axis=1), axis=1) > 0).all()
        # the s ordered picks are independent and uniform: 2**3 equally likely tuples
        codes = (blocks[small] == members[1]) @ np.array([4, 2, 1])
        counts = np.bincount(codes, minlength=8)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_positives_are_uniform_block_mates_never_the_anchor(self, tmp_path):
        s = 4
        loop = planning_loop(tmp_path, [8] * 5, **{"train.samples_per_class": s})
        _, pos = loop._plan_episode(2000)
        anchors = np.arange(pos.shape[1])
        assert (pos != anchors).all()
        assert (pos // s == anchors // s).all()
        offsets = (pos - anchors) % s
        for slot in range(s):
            counts = np.bincount(offsets[:, anchors % s == slot].ravel(), minlength=s)
            assert counts[0] == 0
            assert stats.chisquare(counts[1:]).pvalue > 1e-3

    @pytest.mark.parametrize("self_reg", [False, True])
    @pytest.mark.parametrize(
        "sizes, classes_per_batch",
        [([8] * 5, 3), ([8] * 3, 7), ([8, 8, 8, 8, 3], 3)],
        ids=["plain", "more-classes-per-batch-than-classes", "class-smaller-than-s"],
    )
    def test_run_constant_masks_match_every_planned_step(
        self, tmp_path, self_reg, sizes, classes_per_batch
    ):
        loop = planning_loop(tmp_path, sizes, **{
            "sampler.self_reg": str(self_reg).lower(),
            "train.classes_per_batch": classes_per_batch,
        })
        rows, _ = loop._plan_episode(300)
        assert rows.shape == (300, 3 * min(classes_per_batch, len(sizes)))
        for step in rows:
            same, cand = triplet_masks(loop.dataset.labels[step], self_reg)
            assert np.array_equal(same, loop.same)
            assert np.array_equal(cand, loop.cand)

    @pytest.mark.parametrize("plan_keys", [1, 2 * 3 * 6 + 1], ids=["runs-of-1", "runs-of-2"])
    def test_keys_drawn_in_runs_of_steps_give_the_same_plan(self, tmp_path, monkeypatch, plan_keys):
        sizes = [8, 8, 8, 5, 3]  # 6, 6, 6, 4 and 2 train rows: padding matters for class 3
        (tmp_path / "whole").mkdir()
        (tmp_path / "runs").mkdir()
        whole = planning_loop(tmp_path / "whole", sizes)
        want = whole._plan_episode(50)
        monkeypatch.setattr(trainer, "PLAN_KEYS", plan_keys)
        loop = planning_loop(tmp_path / "runs", sizes)
        assert loop.key_width == 6  # p * key_width = 18 keys per step
        got = loop._plan_episode(50)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert loop.rng_batch.random() == whole.rng_batch.random()  # the stream is left alike


class TestDeterminismAndReduction:
    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_rerun_is_byte_identical(self, tmp_path, kind):
        cfg = small_flat(**{"sampler.kind": kind})
        train(cfg, tmp_path / "a")
        train(cfg, tmp_path / "b")
        for name in ("metrics.csv", "pmf.jsonl", "transitions.jsonl", "model.json", "config.resolved"):
            assert (tmp_path / "a" / name).exists() == (tmp_path / "b" / name).exists()
            if (tmp_path / "a" / name).exists():
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        train(small_flat(), tmp_path / "a")
        train(small_flat(seed=1), tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_text() != (
            tmp_path / "b" / "metrics.csv"
        ).read_text()

    def test_identity_policy_reduces_to_frozen_pmf(self, tmp_path):
        frozen = small_flat(**{"rl.algorithm": "frozen-identity"})
        control = small_flat(**{"transfer.mode": "fixed-final-pmf"})
        train(frozen, tmp_path / "frozen")
        train(control, tmp_path / "control")
        for name in ("metrics.csv", "pmf.jsonl"):
            assert (tmp_path / "frozen" / name).read_bytes() == (
                tmp_path / "control" / name
            ).read_bytes()

    def test_config_resolved_reproduces_run(self, tmp_path):
        cfg = small_flat()
        train(cfg, tmp_path / "a")
        text = (tmp_path / "a" / "config.resolved").read_text()
        reloaded, _ = config_from_flat(parse_kv_lines(text.splitlines()))
        assert config_to_flat(reloaded) == config_to_flat(cfg)
        train(reloaded, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_run_seeds_share_dataset_and_split(self, tmp_path):
        a = TrainLoop(small_flat(), tmp_path / "a")
        b = TrainLoop(small_flat(seed=123), tmp_path / "b")
        assert np.array_equal(a.dataset.features, b.dataset.features)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert np.array_equal(a.val_idx, b.val_idx)
        c = TrainLoop(small_flat(**{"data.seed": 9}), tmp_path / "c")
        assert not np.array_equal(a.dataset.features, c.dataset.features)


class TestVariants:
    def test_all_sampler_kinds_run(self, tmp_path):
        for kind in ("random", "semihard", "distweighted", "curriculum-linear",
                     "curriculum-nonlinear", "pads"):
            summary = train(small_flat(**{"sampler.kind": kind}), tmp_path / kind)
            assert summary["episodes"] == 3
            assert 0.0 <= summary["final"]["r1"] <= 1.0

    def test_curriculum_pmf_moves_over_episodes(self, tmp_path):
        cfg = small_flat(**{"sampler.kind": "curriculum-linear", "train.total_iterations": 15})
        train(cfg, tmp_path / "run")
        snaps = [json.loads(s) for s in (tmp_path / "run" / "pmf.jsonl").read_text().splitlines()]
        assert snaps[0]["p"] != snaps[-1]["p"]

    def test_margin_loss_with_learnable_boundary(self, tmp_path):
        cfg = small_flat(**{"loss.kind": "margin", "loss.learnable_beta": "true",
                            "loss.beta_lr": "0.01", "sampler.kind": "semihard"})
        loop = TrainLoop(cfg, tmp_path / "run")
        loop.run()
        assert loop.beta_class.shape == (4,)
        assert np.all(loop.beta_class >= 1e-3)
        assert not np.allclose(loop.beta_class, 1.2)  # boundaries actually trained

    def test_boundary_step_matches_add_at_reference(self, tmp_path, monkeypatch):
        cfg = small_flat(**{"loss.kind": "margin", "loss.learnable_beta": "true",
                            "loss.beta_lr": "0.01", "sampler.kind": "random"})
        loop = TrainLoop(cfg, tmp_path / "run")
        seen = {}
        boundary_grads = trainer.margin_boundary_grads

        def recording_boundary_grads(*args):
            seen["per_triplet"] = boundary_grads(*args)
            return seen["per_triplet"]

        monkeypatch.setattr(trainer, "margin_boundary_grads", recording_boundary_grads)
        for rows, pos in zip(*loop._plan_episode(20)):
            before = loop.beta_class.copy()
            loop._train_step(rows, pos)
            class_grad = np.zeros_like(before)
            np.add.at(class_grad, loop.dataset.labels[rows], seen["per_triplet"])
            want = np.maximum(before - cfg.loss.beta_lr * class_grad, 1e-3)
            assert loop.beta_class.tobytes() == want.tobytes()

    @pytest.mark.parametrize("algorithm", RL_ALGORITHMS)
    def test_value_head_built_exactly_when_the_updater_uses_one(self, tmp_path, algorithm):
        loop = TrainLoop(small_flat(**{"rl.algorithm": algorithm}), tmp_path / "run")
        assert loop.policy.has_value == loop.updater.uses_value

    def test_fallbacks_count_anchors_not_steps(self, tmp_path):
        # no batch distance reaches a PMF support this close to 0, so every anchor falls back
        cfg = small_flat(**{"pmf.lambda_min": 0.0, "pmf.lambda_max": 1e-6})
        summary = train(cfg, tmp_path / "run")
        anchors = cfg.train.classes_per_batch * cfg.train.samples_per_class
        assert summary["adaptive_fallbacks"] == cfg.train.total_iterations * anchors

    def test_self_reg_includes_same_class_candidates(self, tmp_path):
        summary = train(small_flat(**{"sampler.self_reg": "true"}), tmp_path / "run")
        assert summary["episodes"] == 3

    def test_fixed_policy_transfer(self, tmp_path):
        train(small_flat(), tmp_path / "teacher")
        cfg = small_flat(**{
            "transfer.mode": "fixed-policy",
            "transfer.policy_path": str(tmp_path / "teacher" / "policy.json"),
            "data.seed": 5,
        })
        loop = TrainLoop(cfg, tmp_path / "student")
        assert loop.updater is None  # transferred policy is never updated
        loop.run()
        reloaded = json.loads((tmp_path / "student" / "policy.json").read_text())
        teacher = json.loads((tmp_path / "teacher" / "policy.json").read_text())
        assert reloaded["params"] == teacher["params"]

    def test_fixed_policy_shape_mismatch(self, tmp_path):
        train(small_flat(), tmp_path / "teacher")
        cfg = small_flat(**{
            "transfer.mode": "fixed-policy",
            "transfer.policy_path": str(tmp_path / "teacher" / "policy.json"),
            "pmf.k": 12,
        })
        with pytest.raises(ValueError, match="heads"):
            TrainLoop(cfg, tmp_path / "student")

    def test_fixed_final_pmf_from_file(self, tmp_path):
        train(small_flat(), tmp_path / "teacher")
        cfg = small_flat(**{
            "transfer.mode": "fixed-final-pmf",
            "transfer.pmf_path": str(tmp_path / "teacher" / "final_pmf.json"),
        })
        train(cfg, tmp_path / "student")
        teacher_final = json.loads((tmp_path / "teacher" / "final_pmf.json").read_text())
        snaps = [json.loads(s) for s in
                 (tmp_path / "student" / "pmf.jsonl").read_text().splitlines()]
        # the transferred PMF is frozen: every episode draws from the same one
        for snap in snaps:
            assert snap["p"] == teacher_final["p"]

    def test_fixed_final_pmf_file_with_nan_is_refused(self, tmp_path):
        path = tmp_path / "final_pmf.json"
        path.write_text(json.dumps({"p": [float("nan")] + [1.0 / 7] * 7}))  # pmf.k = 8
        cfg = small_flat(**{"transfer.mode": "fixed-final-pmf", "transfer.pmf_path": str(path)})
        with pytest.raises(ValueError, match="nonnegative"):
            TrainLoop(cfg, tmp_path / "run")

    @pytest.mark.parametrize("kind", ["random", "semihard", "distweighted", "pads"])
    def test_nonfinite_embeddings_abort_the_step(self, tmp_path, kind):
        loop = TrainLoop(small_flat(**{"sampler.kind": kind}), tmp_path / "run")
        rows, pos = loop._plan_episode(1)
        loop.model.set_params(np.full(loop.model.n_params, 1e200))  # overflows in the second layer
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite embeddings"):
                loop._train_step(rows[0], pos[0])

    def test_nonfinite_loss_aborts(self, tmp_path):
        cfg = small_flat(**{"loss.kind": "margin", "loss.learnable_beta": "true",
                            "sampler.kind": "semihard"})
        loop = TrainLoop(cfg, tmp_path / "run")
        loop.beta_class[:] = np.nan  # corrupt boundaries feed straight into the loss
        with pytest.raises(RuntimeError, match="non-finite loss; aborting run"):
            loop.run()


def test_benchmark_tracer_targets_are_defined_on_their_owners():
    """perfbench/tracing.py reads each wrapped name through vars(owner), so none may be inherited."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []
