"""Embedding-space primitives on the unit hypersphere.

Everything downstream (losses, samplers, metrics) works with points on the
unit sphere in D dimensions, so Euclidean distances live in [0, 2]. Points
are plain (N, D) float arrays: EmbeddingModel.forward makes them unit-norm
and refuses non-finite ones, and nothing here checks them again. This
module provides pairwise distances via the Gram identity and the analytic
density of distances between random points on the sphere, which static
distance-weighted negative sampling inverts to flatten the distance
histogram of drawn negatives.
"""

from __future__ import annotations

import numpy as np


def pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    """All-pairs Euclidean distances between the unit rows of an (N, D) float array.

    Uses d^2 = 2 - 2<v, w> for unit rows v, w. The Gram form is one matmul
    instead of N^2 norms; tiny negative d^2 from rounding is clamped to 0
    before the sqrt, and the diagonal is set to exactly 0. The matrix is
    exactly symmetric without a transposed add: numpy computes V @ V.T as
    one symmetric rank-k update (BLAS syrk) that fills one triangle and
    mirrors it. Every step after the matmul works in place on its buffer,
    with the ufuncs of 2 - 2 * (V @ V.T), so one N x N array is allocated.
    """
    d = vectors @ vectors.T
    d *= 2.0
    np.subtract(2.0, d, out=d)
    np.clip(d, 0.0, 4.0, out=d)
    np.fill_diagonal(d, 0.0)
    return np.sqrt(d, out=d)


def log_analytic_density(d: np.ndarray, dim: int) -> np.ndarray:
    """log of the unnormalized distance density q(d) on the unit sphere.

    For two independent uniform points on the (dim-1)-sphere the distance
    between them has density proportional to

        q(d) = d^(dim-2) * (1 - d^2/4)^((dim-3)/2),  0 < d < 2.

    Evaluated in log space: the dim-2 exponent overflows linear-space
    evaluation long before dim reaches typical embedding sizes. The
    (1 - d^2/4) factor is computed as (1 - d/2)(1 + d/2) to keep precision
    near d = 2.
    """
    d = np.asarray(d, dtype=np.float64)
    if dim < 3:
        raise ValueError(f"density requires dim >= 3, got {dim}")
    if np.any(d <= 0.0) or np.any(d >= 2.0):
        raise ValueError("distances must lie strictly inside (0, 2)")
    return (dim - 2) * np.log(d) + 0.5 * (dim - 3) * (np.log1p(-0.5 * d) + np.log1p(0.5 * d))


def inverse_density_weights(
    distances: np.ndarray, dim: int, clip_lambda: float | None = None
) -> np.ndarray:
    """Sampling weights proportional to min(lambda, 1/q(d)), normalized to sum 1.

    Drawing candidates by these weights undoes the sphere's bias toward
    large distances, so accepted distances come out near-uniform wherever
    the clip is inactive. The clip caps the otherwise exploding weight of
    very small distances. With clip_lambda=None the cap defaults to 4x the
    median unclipped weight; an explicit value is interpreted in units of
    1/q (only meaningful relative to the same dim).

    All arithmetic stays in log space until a final stabilized exp, since
    1/q spans hundreds of orders of magnitude at realistic dim.

    Unlike log_analytic_density this function is total on [0, 2]: the
    endpoints (where 1/q diverges) are nudged into the open interval,
    which the clip dominates anyway.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.size == 0:
        raise ValueError("need at least one distance")
    eps = 1e-9
    log_inv = -log_analytic_density(np.clip(distances, eps, 2.0 - eps), dim)
    if clip_lambda is None:
        log_cap = np.log(4.0) + np.median(log_inv)
    else:
        if clip_lambda <= 0:
            raise ValueError("clip threshold must be positive")
        log_cap = np.log(clip_lambda)
    log_w = np.minimum(log_inv, log_cap)
    w = np.exp(log_w - np.max(log_w))
    return w / np.sum(w)
