"""Training orchestration: episodes of M DML iterations, validation-driven
rewards, and the per-episode PMF adjustment loop.

One run = one model trained under one sampler kind, episode by episode
(TrainLoop.step_episode). An adaptive episode trains M iterations under the
current PMF, evaluates, rewards the previous adjustment with the sign of the
validation-score change, updates the policy, and samples and applies the next
adjustment. Static kinds run the identical episode minus the policy, which
makes controlled comparisons and the reduction test possible. All run state
is on the loop, so a copy.deepcopy of it steps on exactly as the original.

RNG discipline: independent child streams (model init, batches, negatives,
policy init, policy actions, metric seed) are spawned from the run seed so
that, e.g., policy sampling does not perturb batch composition between
otherwise identical runs. The batch stream is drawn once per episode: every
step's classes, rows and positives (see TrainLoop._plan_episode); the
negative stream once per step. Every batch has the same block layout, so
its triplet masks are built once per run. Dataset generation and the
validation split derive from data.seed instead, so different run seeds
share data.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import numpy as np

from .config import RunConfig, resolved_lines
from .data import generate_synthetic, group_by_label, load_dataset, split_validation
from .geometry import pairwise_distances
from .metrics import METRIC_FIELDS, EvalPlan, evaluate, eval_score
from .model import (
    Adam,
    EmbeddingModel,
    backward,
    json_text,
    margin_boundary_grads,
    triplet_losses,
)
from .rl import (
    PolicyNetwork,
    PolicyUpdater,
    Transition,
    build_state,
    compute_reward,
    multipliers_from_trits,
    sample_action,
    state_dim,
    uses_value_head,
)
from .samplers import (
    PMF_SAMPLER_KINDS,
    SamplingPMF,
    apply_action,
    curriculum_pmf,
    draw_rows,
    init_pmf,
    require_valid_kind,
    sample_negative_adaptive,
    sample_negative_distweighted,
    sample_negative_random,
    sample_negative_semihard,
    triplet_masks,
)

CSV_HEADER = ",".join(("episode", *METRIC_FIELDS, "reward"))
PLAN_KEYS = 1 << 20  # within-class keys drawn at once by TrainLoop._plan_episode


def learns_policy(cfg: RunConfig) -> bool:
    """Whether a run trains its own policy; another pads run keeps its PMF unless given a policy."""
    return cfg.sampler.kind == "pads" and cfg.transfer.mode == "none"


def _load_pmf_file(path, cfg: RunConfig) -> SamplingPMF:
    payload = json.loads(Path(path).read_text())
    if isinstance(payload, dict) and "p" in payload:
        lo = payload.get("lambda_min", cfg.pmf.lambda_min)
        hi = payload.get("lambda_max", cfg.pmf.lambda_max)
        return SamplingPMF(lo, hi, np.asarray(payload["p"], dtype=np.float64))
    raise ValueError(f"{path}: not a PMF checkpoint (expected an object with a 'p' array)")


class TrainLoop:
    """Mutable state of one training run; see train() for the entry point."""

    def __init__(self, cfg: RunConfig, out_dir):
        require_valid_kind(cfg.sampler.kind)
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        kids = np.random.SeedSequence(cfg.seed).spawn(6)
        self.rng_model = np.random.default_rng(kids[0])
        self.rng_batch = np.random.default_rng(kids[1])
        self.rng_negative = np.random.default_rng(kids[2])
        self.rng_policy_init = np.random.default_rng(kids[3])
        self.rng_policy_act = np.random.default_rng(kids[4])
        self.metric_seed = int(np.random.default_rng(kids[5]).integers(2**31))

        data_kids = np.random.SeedSequence(cfg.data.seed).spawn(2)
        if cfg.data.path:
            self.dataset = load_dataset(cfg.data.path)
        else:
            self.dataset = generate_synthetic(
                cfg.data.n_classes,
                cfg.data.per_class,
                cfg.data.input_dim,
                cfg.data.center_spread,
                cfg.data.within_std,
                seed=data_kids[0],
            )
        self.train_idx, self.val_idx = split_validation(
            self.dataset, cfg.train.val_fraction, cfg.train.split_mode, data_kids[1]
        )
        # train rows grouped by class (ascending within each), class i at class_starts[i]
        order, self.class_starts, self.class_sizes = group_by_label(
            self.dataset.labels[self.train_idx]
        )
        self.class_rows = self.train_idx[order]
        if self.class_sizes.size < 2:
            raise ValueError("training split must contain at least 2 classes")
        # within-class keys per slot: the largest class, at least s for argpartition(kth=s-1)
        s = cfg.train.samples_per_class
        self.key_width = max(int(self.class_sizes.max()), s)
        # every batch is p distinct classes in blocks of s, so its masks are run constants
        self.classes_per_batch = min(cfg.train.classes_per_batch, self.class_sizes.size)
        block_labels = np.repeat(np.arange(self.classes_per_batch), s)
        self_reg = cfg.sampler.kind in PMF_SAMPLER_KINDS and cfg.sampler.self_reg
        self.same, self.cand = triplet_masks(block_labels, self_reg)
        # rows (anchor, positive, negative); each step writes the last two columns in place
        self.triplets = np.repeat(np.arange(block_labels.size)[:, None], 3, axis=1)

        self.model = EmbeddingModel(
            self.dataset.input_dim, cfg.model.hidden, cfg.model.embedding_dim, self.rng_model
        )
        self.opt = Adam(lr=cfg.model.lr)
        self.beta_class = None
        if cfg.loss.kind == "margin" and cfg.loss.learnable_beta:
            self.beta_class = np.full(self.dataset.n_classes, cfg.loss.beta_margin)

        self.kind = cfg.sampler.kind
        self.pmf = None  # curriculum kinds set theirs at the start of every episode
        self.policy = None
        self.updater = None
        # row 0: the evaluation before training; row ep: the evaluation after episode ep
        self.metrics = np.zeros((cfg.n_episodes + 1, len(METRIC_FIELDS)))
        self.episode = 0  # episodes done
        self.eval_plan = None  # built, and row 0 evaluated, by the first step_episode
        self.pmf_lines, self.transition_lines = [], []  # pmf.jsonl and transitions.jsonl so far
        self.pending = None  # the last action's Transition; its episode and reward are set on arrival
        if self.kind == "pads":
            self.pmf = init_pmf(cfg.pmf.lambda_min, cfg.pmf.lambda_max, cfg.pmf.k, cfg.pmf.init)
            self._setup_policy()
        self.fallbacks = 0

    def _setup_policy(self):
        """Load the transferred PMF or policy, or build the policy of a run that learns one."""
        cfg = self.cfg
        if cfg.transfer.mode == "fixed-final-pmf" and cfg.transfer.pmf_path:
            self.pmf = _load_pmf_file(cfg.transfer.pmf_path, cfg)
        sdim = state_dim(cfg.pmf.k, cfg.train.running_averages, cfg.train.history, cfg.rl.state_recalls)
        if cfg.transfer.mode == "fixed-policy":
            payload = json.loads(Path(cfg.transfer.policy_path).read_text())
            self.policy = PolicyNetwork.from_dict(payload)
            if self.policy.k_bins != cfg.pmf.k:
                raise ValueError(
                    f"transferred policy has {self.policy.k_bins} heads, config wants {cfg.pmf.k}"
                )
            if self.policy.state_dim != sdim:
                raise ValueError(
                    f"transferred policy expects state dim {self.policy.state_dim}, "
                    f"this config builds {sdim}"
                )
        elif learns_policy(cfg):
            has_value = uses_value_head(cfg.rl.algorithm)
            self.policy = PolicyNetwork(
                sdim, cfg.pmf.k, has_value, self.rng_policy_init, hidden=cfg.rl.hidden
            )
            self.updater = PolicyUpdater(
                self.policy,
                cfg.rl.algorithm,
                lr=cfg.rl.lr,
                epsilon=cfg.ppo.epsilon,
                old_refresh=cfg.ppo.old_refresh,
                ema_decay=cfg.rl.ema_decay,
                value_coef=cfg.rl.value_coef,
            )

    # ---- one DML iteration ----

    def _plan_episode(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(rows, positives), each (m, B): every batch and positive of m steps in one pass.

        Classes are the first p of a random key order per step; rows are the
        s smallest of key_width keys per class slot (keys past the class size
        are set to 2.0 and never win), or uniform picks with replacement for a
        class smaller than s; each anchor's positive is a uniform block mate.
        The keys cost m*p*key_width floats per episode, so one large train
        class makes every slot pay for its size in time; they are drawn in
        runs of steps of at most PLAN_KEYS floats, which bounds the memory and
        leaves the stream as one draw would consume it.
        """
        rng, p, s = self.rng_batch, self.classes_per_batch, self.cfg.train.samples_per_class
        classes = np.argsort(rng.random((m, self.class_sizes.size)), axis=1)[:, :p]
        n = self.class_sizes[classes][:, :, None]
        run = max(1, PLAN_KEYS // (p * self.key_width))
        picks = np.empty((m, p, s), np.int64)
        for lo in range(0, m, run):
            keys = rng.random((min(run, m - lo), p, self.key_width))
            keys[np.arange(self.key_width) >= n[lo : lo + run]] = 2.0
            picks[lo : lo + run] = np.argpartition(keys, s - 1, axis=2)[:, :, :s]
        if (n < s).any():
            picks = np.where(n < s, (rng.random((m, p, s)) * n).astype(np.int64), picks)
        rows = self.class_rows[self.class_starts[classes][:, :, None] + picks].reshape(m, -1)
        pos = draw_rows(np.tile(self.same, (m, 1)), rng).reshape(m, -1)
        return rows, pos

    def _train_step(self, batch_rows: np.ndarray, pos: np.ndarray):
        cfg, triplets = self.cfg, self.triplets
        emb, cache = self.model.forward(self.dataset.features[batch_rows])
        dist = None if self.kind == "random" else pairwise_distances(emb)  # random draws without it
        cand = self.cand
        if self.kind == "random":
            neg = sample_negative_random(cand, self.rng_negative)
        elif self.kind == "semihard":
            neg = sample_negative_semihard(dist[triplets[:, 0], pos], cand, dist)
        elif self.kind == "distweighted":
            clip = cfg.sampler.clip_lambda if cfg.sampler.clip_lambda > 0 else None
            neg = sample_negative_distweighted(
                cand, dist, cfg.model.embedding_dim, self.rng_negative, clip
            )
        else:
            neg, n_fallbacks = sample_negative_adaptive(self.pmf, cand, dist, self.rng_negative)
            self.fallbacks += n_fallbacks
        triplets[:, 1], triplets[:, 2] = pos, neg
        labels = None if self.beta_class is None else self.dataset.labels[batch_rows]
        boundaries = None if labels is None else self.beta_class[labels]
        losses = triplet_losses(emb, triplets, cfg.loss, boundaries)
        if not np.logical_and.reduce(np.isfinite(losses)):
            raise RuntimeError("non-finite loss; aborting run")
        grad = backward(self.model, cache, triplets, cfg.loss, boundaries)
        self.model.step(self.opt, grad)
        if self.beta_class is not None:
            per_triplet = margin_boundary_grads(emb, triplets, cfg.loss, boundaries)
            class_grad = np.bincount(labels, weights=per_triplet, minlength=self.beta_class.size)
            self.beta_class = np.maximum(self.beta_class - cfg.loss.beta_lr * class_grad, 1e-3)

    # ---- evaluation ----

    def _evaluate(self, ep: int) -> None:
        # only the embeddings are kept: the activations are freed before the distances
        emb = self.model.forward(self.dataset.features[self.val_idx])[0]
        self.metrics[ep] = evaluate(emb, self.eval_plan, kmeans_seed=self.metric_seed)

    def _reward(self, ep: int) -> int:
        return compute_reward(eval_score(self.metrics[ep]), eval_score(self.metrics[ep - 1]))

    # ---- one episode ----

    def step_episode(self) -> None:
        """Train episode self.episode + 1 under the current PMF and evaluate it. A run with a
        policy then rewards, updates on and logs its pending action and draws the next one. The
        first call also builds the evaluation plan and evaluates row 0."""
        cfg, ep = self.cfg, self.episode + 1
        if ep > cfg.n_episodes:
            raise RuntimeError(f"all {cfg.n_episodes} episodes of the run are done")
        if self.eval_plan is None:
            # the validation labels are fixed, so their class groups and codes are built once
            self.eval_plan = EvalPlan(self.dataset.labels[self.val_idx])
            self._evaluate(0)
        if self.kind in ("curriculum-linear", "curriculum-nonlinear"):
            progress = (ep - 1) * cfg.train.m / cfg.train.total_iterations
            self.pmf = curriculum_pmf(
                progress, self.kind.removeprefix("curriculum-"), cfg.pmf.lambda_min, cfg.pmf.lambda_max,
                cfg.pmf.k, dim=cfg.model.embedding_dim,
            )
        if self.pmf is not None:
            self.pmf_lines.append(json.dumps(self.pmf.snapshot(ep)))
        for rows, pos in zip(*self._plan_episode(cfg.train.m)):
            self._train_step(rows, pos)
        self._evaluate(ep)
        self.episode = ep
        if self.policy is None:
            return
        if self.pending is not None:
            self.pending.episode, self.pending.reward = ep, self._reward(ep)
            if self.updater is not None:
                self.updater.update(self.pending)
            if cfg.train.log_transitions:
                self.transition_lines.append(self.pending.to_json())
        progress = min(ep * cfg.train.m / cfg.train.total_iterations, 1.0)
        averages, history, recalls = cfg.train.running_averages, cfg.train.history, cfg.rl.state_recalls
        state = build_state(self.metrics[: ep + 1], averages, history, self.pmf.p, progress, recalls)
        cache = self.policy.forward(state)
        trits, logprob = sample_action(cache.logits, self.rng_policy_act)
        self.pending = Transition(0, state, trits, logprob, 0, cache.value)
        self.pmf = apply_action(self.pmf, multipliers_from_trits(trits, cfg.pmf.alpha, cfg.pmf.beta))

    # ---- full run ----

    def run(self) -> dict:
        """Train the episodes not yet done and write the artifacts; returns the summary."""
        cfg = self.cfg
        started = time.perf_counter()
        leftover = cfg.train.total_iterations - cfg.n_episodes * cfg.train.m
        if leftover:
            warnings.warn(
                f"total_iterations not a multiple of m; dropping the last {leftover} iterations",
                stacklevel=2,
            )
        while self.episode < cfg.n_episodes:
            self.step_episode()
        return self._write_artifacts(started)

    def _write_artifacts(self, started: float) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        csv_rows = [CSV_HEADER] + [
            ",".join([str(ep), *map(repr, self.metrics[ep].tolist()), str(self._reward(ep))])
            for ep in range(1, self.episode + 1)
        ]
        (self.out_dir / "metrics.csv").write_text("\n".join(csv_rows) + "\n")
        (self.out_dir / "config.resolved").write_text("\n".join(resolved_lines(self.cfg)) + "\n")
        if self.pmf_lines:
            (self.out_dir / "pmf.jsonl").write_text("\n".join(self.pmf_lines) + "\n")
        if self.transition_lines:
            (self.out_dir / "transitions.jsonl").write_text("\n".join(self.transition_lines) + "\n")
        # each checkpoint is made text in one piece and written in one call (see README, Run artifacts)
        (self.out_dir / "model.json").write_text(json_text(self.model.to_dict()))
        if self.policy is not None:
            (self.out_dir / "policy.json").write_text(json_text(self.policy.to_dict()))
        if self.pmf is not None:
            payload = dict(lambda_min=self.pmf.lambda_min, lambda_max=self.pmf.lambda_max, p=self.pmf.p)
            (self.out_dir / "final_pmf.json").write_text(json_text(payload))
        summary = {
            "run_dir": str(self.out_dir),
            "episodes": self.cfg.n_episodes,
            "final": dict(zip(METRIC_FIELDS, self.metrics[-1].tolist())),
            "adaptive_fallbacks": self.fallbacks,
            "seconds": round(time.perf_counter() - started, 3),
        }
        (self.out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
        return summary


def train(cfg: RunConfig, out_dir) -> dict:
    """Run one full training; returns the summary dict (artifacts on disk)."""
    return TrainLoop(cfg, out_dir).run()
