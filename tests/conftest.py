import os

# pin BLAS to one thread before numpy is first imported, as README "Testing" prescribes;
# a caller's explicit setting still wins
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """Random points on the unit sphere, rejection-free."""
    v = rng.normal(size=(n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # a zero row has probability 0; regenerate defensively anyway
    while np.any(norms == 0.0):
        v = rng.normal(size=(n, dim))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return v / norms


def random_labels(rng: np.random.Generator, n: int, n_classes: int) -> np.ndarray:
    """Labels with every class in 0..n_classes-1 present (needs n >= n_classes)."""
    labels = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, size=n - n_classes)])
    return labels[rng.permutation(n)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
