import importlib.util
import os
import threading
from pathlib import Path

# pin BLAS to one thread before numpy is first imported, as README "Testing" prescribes;
# a caller's explicit setting still wins
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tripletlab.rl import PolicyNetwork, log_prob_and_score, state_dim  # noqa: E402
from tripletlab.samplers import distweighted_weights  # noqa: E402


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Random points on the unit sphere, rejection-free."""
    v = rng.normal(size=(n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # a zero row has probability 0; regenerate defensively anyway
    while np.any(norms == 0.0):
        v = rng.normal(size=(n, dim))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def row_weights(distances, dim: int, clip_lambda: float | None = None) -> np.ndarray:
    """distweighted_weights of one row whose every column is a candidate, normalized to sum 1."""
    d = np.asarray(distances, dtype=np.float64)
    w = distweighted_weights(np.ones((1, d.size), dtype=bool), d[None, :], dim, clip_lambda)[0]
    return w / w.sum()


def random_labels(rng: np.random.Generator, n: int, n_classes: int) -> np.ndarray:
    """Labels with every class in 0..n_classes-1 present (needs n >= n_classes)."""
    labels = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, size=n - n_classes)])
    return labels[rng.permutation(n)]


def log_prob_grad(policy, state, trits) -> tuple[float, np.ndarray]:
    """(log pi(trits | state), its gradient w.r.t. the policy's flat parameters)."""
    cache = policy.forward(state)
    lp, score = log_prob_and_score(cache.logits, trits)
    return lp, policy.backward(cache, score)


def value_grad(policy, state) -> tuple[float, np.ndarray]:
    """(V(state), its gradient w.r.t. the policy's flat parameters); needs a value head."""
    cache = policy.forward(state)
    return cache.value, policy.backward(cache, np.zeros((policy.k_bins, 3)), d_value=1.0)


def pre_activations(cache, weights, biases) -> list:
    """z_l = a_{l-1} W_l + b_l of each hidden layer, recomputed from a forward cache's inputs and
    activations and the weights it was taken with (the caches keep only relu(z_l))."""
    prev = [cache.inputs, *cache.acts[:-1]]
    return [a @ w + b for a, w, b in zip(prev, weights, biases)]


def maintain_policy(cfg, has_value: bool) -> PolicyNetwork:
    """A policy for cfg's state whose every draw is "maintain": with zero last-layer weights each
    head's logits are its bias [-1e3, 0, -1e3], and exp(-1e3) underflows to exactly 0."""
    sdim = state_dim(cfg.pmf.k, cfg.train.running_averages, cfg.train.history, cfg.rl.state_recalls)
    policy = PolicyNetwork(sdim, cfg.pmf.k, has_value, np.random.default_rng(0), cfg.rl.hidden)
    policy.weights[-1][...] = 0.0
    policy.biases[-1][: 3 * cfg.pmf.k] = np.tile([-1e3, 0.0, -1e3], cfg.pmf.k)
    return policy


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def benchmark_tracer_targets() -> list:
    """perfbench/tracing.py's targets(), read from the file without importing perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.targets()


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs, in start order."""
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.fixture
def overlap(monkeypatch):
    """overlap(on): force `metrics.evaluate` onto its worker-thread path or off it, as on a 2-CPU host."""
    import tripletlab.metrics as metrics

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def force(on: bool) -> None:
        monkeypatch.setattr(metrics, "OVERLAP_MIN_ROWS", 0 if on else 1 << 62)

    return force
