"""Negative-selection strategies for triplet construction.

Static strategies (random, semihard, distance-weighted) pick negatives
directly from batch distances. The adaptive strategy draws from a
discretized probability mass function over anchor-negative distance,
which a policy adjusts between episodes through bin-wise multiplicative
updates. Fixed curriculum schedules reuse the same discretized machinery
with a PMF that is a function of training progress instead of a policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import log_analytic_density

SAMPLER_KINDS = (
    "random",
    "semihard",
    "distweighted",
    "curriculum-linear",
    "curriculum-nonlinear",
    "pads",
)

#: samplers that draw negatives from a discretized distance PMF
PMF_SAMPLER_KINDS = ("curriculum-linear", "curriculum-nonlinear", "pads")


def require_valid_kind(kind: str) -> str:
    if kind not in SAMPLER_KINDS:
        raise ValueError(
            f"sampler.kind: unknown sampler kind {kind!r}; valid kinds: {', '.join(SAMPLER_KINDS)}"
        )
    return kind


# -------------------------
# Discretized distance PMF
# -------------------------

def _check_bins(lambda_min: float, lambda_max: float, k: int) -> None:
    """Raise one ValueError listing every problem of a K-bin interval, one per line."""
    problems = []
    if k < 2:
        problems.append(f"pmf.k must be >= 2, got {k}")
    if not (0.0 <= lambda_min < lambda_max <= 2.0):
        problems.append(
            "pmf.lambda_min and pmf.lambda_max must satisfy 0 <= lambda_min < lambda_max <= 2, "
            f"got [{lambda_min}, {lambda_max}]"
        )
    if problems:
        raise ValueError("\n".join(problems))


@dataclass(frozen=True)
class SamplingPMF:
    """K-bin histogram distribution over anchor-negative distance.

    Bins partition [lambda_min, lambda_max] into equal widths, whose K+1
    edges are computed once; p holds one probability per bin. Instances are
    immutable; updates build new ones.
    """

    lambda_min: float
    lambda_max: float
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError(f"bin probabilities must be one-dimensional, got shape {p.shape}")
        _check_bins(self.lambda_min, self.lambda_max, p.size)
        if not np.all(p >= 0.0):
            raise ValueError("bin probabilities must be nonnegative")
        if not abs(p.sum() - 1.0) <= 1e-9:
            raise ValueError(f"bin probabilities must sum to 1, got {p.sum()!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "edges", np.linspace(self.lambda_min, self.lambda_max, p.size + 1))

    @property
    def k(self) -> int:
        return self.p.size

    @property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    def bin_of(self, d: np.ndarray) -> np.ndarray:
        """Bin index per distance, -1 for out-of-range. The last bin is closed."""
        d = np.asarray(d, dtype=np.float64)
        # edges[-1] is lambda_max exactly, so only d == lambda_max reaches index k in range
        idx = np.minimum(self.edges.searchsorted(d, side="right") - 1, self.k - 1)
        return np.where((d >= self.lambda_min) & (d <= self.lambda_max), idx, -1)

    def snapshot(self, episode: int) -> dict:
        """JSON-line payload: {episode, edges: K+1 floats, p: K floats}."""
        return {"episode": int(episode), "edges": self.edges.tolist(), "p": self.p.tolist()}


def init_pmf(lambda_min: float, lambda_max: float, k: int, init: str = "uniform") -> SamplingPMF:
    """Build the starting PMF.

    init kinds:
      "uniform"                 equal mass everywhere
      "uniform:<a>:<b>"         high mass on bins overlapping [a, b], small
                                epsilon mass elsewhere
      "gaussian:<mu>:<sigma>"   bell curve evaluated at bin centers
    """
    _check_bins(lambda_min, lambda_max, k)
    edges = np.linspace(lambda_min, lambda_max, k + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    parts = init.split(":")
    if parts[0] == "uniform" and len(parts) == 1:
        p = np.full(k, 1.0 / k)
    elif parts[0] == "uniform" and len(parts) == 3:
        a, b = float(parts[1]), float(parts[2])
        if not a < b:
            raise ValueError(f"emphasis interval must satisfy a < b, got [{a}, {b}]")
        inside = (edges[1:] > a) & (edges[:-1] < b)
        if not inside.any():
            raise ValueError(f"emphasis interval [{a}, {b}] overlaps no bin")
        p = np.where(inside, 1.0, 0.01)
        p = p / p.sum()
    elif parts[0] == "gaussian" and len(parts) == 3:
        mu, sigma = float(parts[1]), float(parts[2])
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        p = np.exp(-0.5 * ((centers - mu) / sigma) ** 2)
        total = p.sum()
        if total <= 0.0 or not np.isfinite(total):
            raise ValueError(f"gaussian init ({mu}, {sigma}) puts no mass on any bin")
        p = p / total
    else:
        raise ValueError(
            f"unknown pmf init {init!r}; expected 'uniform', 'uniform:a:b' or 'gaussian:mu:sigma'"
        )
    return SamplingPMF(lambda_min, lambda_max, p)


def apply_action(pmf: SamplingPMF, multipliers: np.ndarray) -> SamplingPMF:
    """Bin-wise reweighting p_k <- p_k * a_k followed by renormalization.

    The identity action (all multipliers 1) returns the input object
    unchanged, so no-op adjustments are exact rather than renormalized.
    """
    multipliers = np.asarray(multipliers, dtype=np.float64)
    if multipliers.shape != (pmf.k,):
        raise ValueError(f"expected {pmf.k} multipliers, got shape {multipliers.shape}")
    if np.any(multipliers <= 0.0):
        raise ValueError("multipliers must be positive")
    if np.all(multipliers == 1.0):
        return pmf
    raw = pmf.p * multipliers
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("action drove all bin probabilities to zero")
    return SamplingPMF(pmf.lambda_min, pmf.lambda_max, raw / total)


# -------------------------
# Batched negative selection
# -------------------------
# Selectors pick one column per row of a candidate mask (row = anchor, column = batch
# member): semihard by masked argmin, the others by draw_rows over weights zero off the mask.

def triplet_masks(labels: np.ndarray, self_reg: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """B x B (positive, negative candidate) masks; self_reg admits same-class negatives."""
    same = labels[:, None] == labels[None, :]
    not_self = ~np.eye(labels.size, dtype=bool)
    return same & not_self, not_self if self_reg else ~same


def draw_rows(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per row, the first column whose running weight sum exceeds u * row total.

    A zero weight leaves the running sum unchanged, so it is never drawn;
    u * total is held below total, which rounding can reach for a subnormal total.
    """
    cdf = np.add.accumulate(weights, axis=1, dtype=np.float64)
    total = cdf[:, -1]
    if not np.logical_and.reduce(total > 0.0):
        raise ValueError("no negative candidates")
    u = np.minimum(rng.random(total.size) * total, np.nextafter(total, 0.0))
    return np.add.reduce(cdf <= u[:, None], axis=1)


def _require_candidates(mask: np.ndarray) -> None:
    if not np.logical_and.reduce(np.logical_or.reduce(mask, axis=1)):
        raise ValueError("no negative candidates")


def distweighted_weights(mask, dist, dim: int, clip_lambda: float | None = None) -> np.ndarray:
    """Per row, unnormalized min(cap, 1/q(d)) over the candidates, zero elsewhere: drawing by them flattens
    drawn distances where the cap is inactive. The automatic cap (None) is 4x the median over the row's
    candidates; an explicit one is in units of 1/q. Distances 0 and 2, where 1/q diverges, move inside."""
    _require_candidates(mask)
    log_inv = -log_analytic_density(np.clip(dist, 1e-9, 2.0 - 1e-9), dim)
    if clip_lambda is None:
        # non-candidates sort last as +inf; the median averages the middle pair
        ordered = np.sort(np.where(mask, log_inv, np.inf), axis=1)
        n, rows = mask.sum(axis=1), np.arange(mask.shape[0])
        median = 0.5 * (ordered[rows, (n - 1) // 2] + ordered[rows, n // 2])
        log_cap = (math.log(4.0) + median)[:, None]
    else:
        if not clip_lambda > 0:
            raise ValueError("clip threshold must be positive")
        log_cap = math.log(clip_lambda)
    log_w = np.where(mask, np.minimum(log_inv, log_cap), -np.inf)
    return np.exp(log_w - log_w.max(axis=1, keepdims=True))


def adaptive_weights(pmf: SamplingPMF, mask, dist) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized p[bin] / count_in_bin over in-range candidates, and fallback rows.

    A row whose occupied bins all have zero mass is uniform over them; a
    fallback row (no in-range candidate) is uniform over its candidates.
    """
    bins = np.where(mask, pmf.bin_of(dist), -1)
    inside = bins >= 0
    rows, k = bins.shape[0], pmf.k
    flat = np.arange(rows)[:, None] * k + bins  # (row, bin) in a row-major table
    counts = np.bincount(flat[inside], minlength=rows * k).reshape(rows, k)
    mass = np.where(counts > 0, pmf.p, 0.0)
    zero_mass = np.add.reduce(mass, axis=1) == 0.0
    if np.logical_or.reduce(zero_mass):
        mass[zero_mass] = counts[zero_mass] > 0
    weights = np.where(inside, (mass / np.maximum(counts, 1)).ravel()[flat], 0.0)
    fallback = ~np.logical_or.reduce(inside, axis=1)
    if np.logical_or.reduce(fallback):
        weights[fallback] = mask[fallback]
    return weights, fallback


def sample_negative_random(mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return draw_rows(mask, rng)


def sample_negative_semihard(d_ap: np.ndarray, mask: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Per row the closest candidate farther than the positive (d_ap), lowest
    index on ties; if none is farther, the farthest candidate."""
    _require_candidates(mask)
    beyond = mask & (dist > np.asarray(d_ap)[:, None])
    closest = np.where(beyond, dist, np.inf).argmin(axis=1)
    farthest = np.where(mask, dist, -np.inf).argmax(axis=1)
    return np.where(np.logical_or.reduce(beyond, axis=1), closest, farthest)


def sample_negative_distweighted(mask, dist, dim: int, rng, clip_lambda=None) -> np.ndarray:
    """Categorical draw by inverse-density weights (flattens drawn distances)."""
    return draw_rows(distweighted_weights(mask, dist, dim, clip_lambda), rng)


def sample_negative_adaptive(pmf: SamplingPMF, mask, dist, rng) -> tuple[np.ndarray, int]:
    """Draw per row by adaptive_weights; returns (columns, number of fallback rows)."""
    weights, fallback = adaptive_weights(pmf, mask, dist)
    return draw_rows(weights, rng), int(np.count_nonzero(fallback))


# -------------------------
# Curriculum schedules
# -------------------------

def curriculum_pmf(
    t: float,
    kind: str,
    lambda_min: float,
    lambda_max: float,
    k: int,
    dim: int = 32,
) -> SamplingPMF:
    """Progress-driven PMF for the fixed curriculum baselines.

    linear: a uniform window one quarter of the interval wide, translating
    from the top of the interval (easy, semihard-like distances) down to
    lambda_min (hard) as t goes 0 -> 1.

    nonlinear: distweighted_weights at the bin centers, exponentially
    tilted toward small distances with strength growing in t; starts as
    the static distance-weighted profile and sharpens onto hard negatives.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"progress must lie in [0, 1], got {t}")
    _check_bins(lambda_min, lambda_max, k)
    edges = np.linspace(lambda_min, lambda_max, k + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    if kind == "linear":
        width = 0.25 * (lambda_max - lambda_min)
        lo = lambda_max - width - t * (lambda_max - width - lambda_min)
        hi = lo + width
        inside = (edges[1:] > lo) & (edges[:-1] < hi)
        p = inside.astype(np.float64)
    elif kind == "nonlinear":
        w = distweighted_weights(np.ones((1, k), bool), centers[None, :], dim)[0]
        p = w / w.sum() * np.exp(-4.0 * t * (centers - lambda_min))
    else:
        raise ValueError(f"unknown curriculum kind {kind!r}; valid kinds: linear, nonlinear")
    return SamplingPMF(lambda_min, lambda_max, p / p.sum())
