"""Policy-gradient teacher that adjusts the negative-sampling PMF.

The policy maps a training-state vector to K independent 3-way categorical
heads (decrease / maintain / increase one bin each) plus an optional scalar
value estimate. Episodes are single-step: one state, one action, one sign
reward per block of DML iterations. Update rules: plain REINFORCE, an EMA
baseline variant, advantage actor-critic, and PPO's clipped surrogate with
a lagged reference policy.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .metrics import METRIC_FIELDS
from .model import Adam, FlatParams

RL_ALGORITHMS = ("reinforce", "reinforce-ema", "a2c", "ppo-ema", "ppo-a2c")

#: per-metric scale applied when metric values enter the state vector;
#: distances live in [0, 2], everything else already in [0, 1]
_STATE_SCALES = {"r1": 1.0, "r2": 1.0, "r4": 1.0, "nmi": 1.0, "intra": 0.5, "inter": 0.5}


def uses_value_head(algorithm: str) -> bool:
    """Whether the algorithm learns a value baseline, so its policy needs a value head."""
    return algorithm in ("a2c", "ppo-a2c")


def require_valid_algorithm(kind: str) -> str:
    """kind, if it is one of RL_ALGORITHMS."""
    if kind not in RL_ALGORITHMS:
        raise ValueError(
            f"rl.algorithm: unknown rl algorithm {kind!r}; valid algorithms: {', '.join(RL_ALGORITHMS)}"
        )
    return kind


# -------------------------
# Training state
# -------------------------

def state_metric_fields(recall_ks=(1, 2, 4)) -> tuple:
    """Metric columns entering the state, in layout order."""
    return tuple(f"r{k}" for k in recall_ks) + ("nmi", "intra", "inter")


def state_dim(k_bins: int, lengths, history: int, recall_ks=(1, 2, 4)) -> int:
    """Size of the state build_state assembles for these running-average lengths and history."""
    n_metrics = len(state_metric_fields(recall_ks))
    return n_metrics * len(lengths) + history * n_metrics + k_bins + 1


def build_state(
    rows: np.ndarray,
    lengths,
    history: int,
    prev_pmf_probs: np.ndarray,
    progress: float,
    recall_ks=(1, 2, 4),
) -> np.ndarray:
    """Assemble the policy input from the evaluation rows so far, oldest first, fixed layout:

    [running averages per metric (all lengths, metric-major) |
     raw history (oldest episode first, metrics within episode) |
     previous PMF probabilities | normalized training progress]

    `rows` is (n, len(METRIC_FIELDS)), n >= 1. The average of length l is
    the mean of the last min(l, n) rows; the history is the last `history`
    rows, zero-padded in front when fewer exist.
    """
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must lie in [0, 1], got {progress}")
    fields = state_metric_fields(recall_ks)
    cols = np.array([METRIC_FIELDS.index(f) for f in fields])
    scales = np.array([_STATE_SCALES[f] for f in fields])
    n = len(rows)
    means = np.stack([rows[max(0, n - l):].mean(axis=0) for l in lengths], axis=1)
    tail = np.zeros((history, len(METRIC_FIELDS)))
    tail[history - min(n, history):] = rows[max(0, n - history):]
    avg = means[cols] * scales[:, None]
    hist = tail[:, cols] * scales[None, :]
    state = np.concatenate(
        [avg.ravel(), hist.ravel(), np.asarray(prev_pmf_probs, dtype=np.float64), [progress]]
    )
    if not np.all(np.isfinite(state)):
        raise ValueError("non-finite value in training state")
    return state


# -------------------------
# Policy network
# -------------------------

@dataclass
class PolicyCache:
    inputs: np.ndarray  # the state as one row
    acts: list
    logits: np.ndarray
    value: float | None
    version: int


class PolicyNetwork(FlatParams):
    """state -> 128 -> 128 (ReLU) -> K*3 logits, plus optional value scalar.

    FlatParams runs the layers on the state as one row; the network splits
    the output row into the K 3-way heads and the value.
    """

    KIND = "policy-3way-heads"
    SHAPE = ("state_dim", "k_bins", "has_value", "hidden")

    def __init__(
        self,
        state_dim: int,
        k_bins: int,
        has_value: bool,
        rng: np.random.Generator,
        hidden: int = 128,
    ):
        self.state_dim = self._width("state_dim", state_dim)
        self.k_bins = self._width("k_bins", k_bins)
        self.has_value = bool(has_value)
        self.hidden = self._width("hidden", hidden)
        n_out = 3 * self.k_bins + (1 if self.has_value else 0)
        self._allocate((self.state_dim, self.hidden, self.hidden, n_out))
        w1, w2, w3 = self.weights
        w1[...] = rng.normal(0.0, np.sqrt(2.0 / self.state_dim), size=w1.shape)
        w2[...] = rng.normal(0.0, np.sqrt(2.0 / self.hidden), size=w2.shape)
        w3[...] = rng.normal(0.0, 0.01 * np.sqrt(1.0 / self.hidden), size=w3.shape)

    @property
    def n_out(self) -> int:
        return self.biases[-1].size

    def forward(self, state: np.ndarray) -> PolicyCache:
        """Logits and value at state."""
        s = np.asarray(state, dtype=np.float64)
        if s.shape != (self.state_dim,):
            raise ValueError(f"state dimension mismatch: expected {self.state_dim}, got {s.shape}")
        x = s[None, :]
        out, acts = self._forward_layers(x)
        logits = out[0, : 3 * self.k_bins].reshape(self.k_bins, 3)
        value = float(out[0, -1]) if self.has_value else None
        return PolicyCache(x, acts, logits, value, self._version)

    def backward(self, cache: PolicyCache, d_logits: np.ndarray, d_value: float = 0.0) -> np.ndarray:
        """Flat parameter gradient given output-side gradients (see FlatParams._backward_layers)."""
        if d_value != 0.0 and not self.has_value:
            raise ValueError("value gradient supplied but the network has no value head")
        d_out = np.empty((1, self.n_out))
        d_out[0, : 3 * self.k_bins] = np.asarray(d_logits, dtype=np.float64).ravel()
        if self.has_value:
            d_out[0, -1] = d_value
        return self._backward_layers(cache, d_out)

    # ---- probability helpers ----

    @staticmethod
    def log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


# -------------------------
# Actions and reward
# -------------------------

def log_prob_and_score(logits: np.ndarray, trits: np.ndarray) -> tuple[float, np.ndarray]:
    """(log pi(a|s), onehot(a) - softmax(logits)) for the K heads' logits and chosen trits.

    The second item is the gradient of the joint log-prob w.r.t. the logits.
    """
    logsm = PolicyNetwork.log_softmax(logits)
    heads = np.arange(logsm.shape[0])
    score = -np.exp(logsm)
    score[heads, trits] += 1.0
    return float(logsm[heads, trits].sum()), score


def sample_action(logits: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Draw each bin's trit from its softmax; returns (trits, joint log-prob).

    Trit meaning: 0 decrease, 1 maintain, 2 increase.
    """
    logsm = PolicyNetwork.log_softmax(np.asarray(logits, dtype=np.float64))
    cum = np.cumsum(np.exp(logsm), axis=1)
    u = rng.random(logsm.shape[0])
    trits = np.minimum((u[:, None] >= cum).sum(axis=1), 2).astype(np.int64)
    return trits, float(logsm[np.arange(logsm.shape[0]), trits].sum())


def multipliers_from_trits(trits: np.ndarray, alpha: float, beta_up: float) -> np.ndarray:
    """trit -> multiplier map {0 -> alpha, 1 -> 1, 2 -> beta_up}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if beta_up <= 1.0:
        raise ValueError(f"beta_up must exceed 1, got {beta_up}")
    trits = np.asarray(trits)
    if not np.all((trits >= 0) & (trits <= 2)):
        raise ValueError("trits must be 0, 1 or 2")
    table = np.array([alpha, 1.0, beta_up])
    return table[trits]


def compute_reward(e_new: float, e_old: float) -> int:
    """sign(e_new - e_old) with exact ties giving 0; e = recall@1 + NMI."""
    return int(np.sign(e_new - e_old))


@dataclass
class Transition:
    """One single-step episode as seen by the policy."""

    episode: int
    state: np.ndarray
    trits: np.ndarray
    logprob: float
    reward: int
    value: float | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "episode": self.episode,
                "reward": self.reward,
                "logprob": self.logprob,
                "value": self.value,
                "action": [int(t) for t in self.trits],
            }
        )


# -------------------------
# Update rules
# -------------------------

@dataclass
class PolicyUpdater:
    """Owns the optimizer state and algorithm-specific baselines.

    All algorithms share the pattern: compute the transition's scalar
    coefficient, descend -coef * grad(log pi) plus (where enabled) the
    value-regression gradient. PPO recomputes the reference log-prob with
    old_policy, a lagged copy of the policy network, and zeroes the
    coefficient when the clipped branch of the surrogate is active.
    """

    policy: PolicyNetwork
    algorithm: str
    lr: float = 1e-4
    epsilon: float = 0.2
    old_refresh: int = 5
    ema_decay: float = 0.9
    value_coef: float = 0.5
    adam: Adam = field(init=False)
    old_policy: PolicyNetwork | None = field(init=False, default=None)
    ema_baseline: float = field(init=False, default=0.0)
    n_updates: int = field(init=False, default=0)

    def __post_init__(self):
        require_valid_algorithm(self.algorithm)
        if self.uses_value and not self.policy.has_value:
            raise ValueError(f"algorithm {self.algorithm!r} requires a value head")
        self.adam = Adam(lr=self.lr)
        if self.uses_ppo:
            self.old_policy = copy.deepcopy(self.policy)

    @property
    def uses_ppo(self) -> bool:
        return self.algorithm in ("ppo-ema", "ppo-a2c")

    @property
    def uses_value(self) -> bool:
        return uses_value_head(self.algorithm)

    @property
    def uses_ema(self) -> bool:
        return self.algorithm in ("reinforce-ema", "ppo-ema")

    def update(self, tr: Transition) -> dict:
        """One optimizer step on one transition; returns its coef, ratio and advantage."""
        cache = self.policy.forward(tr.state)
        lp_new, d_logits = log_prob_and_score(cache.logits, tr.trits)
        if self.uses_value:
            advantage = tr.reward - cache.value
        elif self.uses_ema:
            advantage = tr.reward - self.ema_baseline
        else:
            advantage = float(tr.reward)
        if self.uses_ppo:
            lp_old = log_prob_and_score(self.old_policy.forward(tr.state).logits, tr.trits)[0]
            ratio = float(np.exp(lp_new - lp_old))
            clipped = min(max(ratio, 1.0 - self.epsilon), 1.0 + self.epsilon)
            if ratio * advantage <= clipped * advantage:
                coef = advantage * ratio
            else:
                coef = 0.0  # clipped branch active: constant in theta
        else:
            ratio = 1.0
            coef = advantage
        d_logits *= -coef
        d_value = 0.0
        if self.uses_value:
            d_value = 2.0 * self.value_coef * (cache.value - tr.reward)
        self.policy.step(self.adam, self.policy.backward(cache, d_logits, d_value))
        if self.uses_ema:
            self.ema_baseline = self.ema_decay * self.ema_baseline + (1.0 - self.ema_decay) * tr.reward
        self.n_updates += 1
        if self.uses_ppo and self.n_updates % self.old_refresh == 0:
            self.old_policy.set_params(self.policy.params)
        return {"coef": coef, "ratio": ratio, "advantage": float(advantage)}
