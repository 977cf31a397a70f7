"""Embedding-space primitives on the unit hypersphere.

Everything downstream (losses, samplers, metrics) works with points on the
unit sphere in D dimensions, so Euclidean distances live in [0, 2]. Points
are plain (N, D) float arrays: EmbeddingModel.forward makes them unit-norm
and refuses non-finite ones, and nothing here checks them again. This
module provides pairwise distances via the Gram identity and the analytic
density of distances between random points on the sphere, which
samplers.distweighted_weights inverts to flatten the distance histogram of
drawn negatives.
"""

from __future__ import annotations

import numpy as np


def pairwise_distances(vectors: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Euclidean distances from the unit rows `vectors[rows]` to all rows of an (N, D) float array.

    Uses d^2 = 2 - 2<v, w> for unit rows v, w. The Gram form is one matmul
    instead of N^2 norms; tiny negative d^2 from rounding is clamped to 0
    before the sqrt, and each row's distance to itself is set to exactly 0.
    Every step after the matmul works in place on its buffer, with the ufuncs
    of 2 - 2 * (V[rows] @ V.T), so one array of the block's shape is
    allocated. The default, all rows, is the full N x N matrix; it is
    exactly symmetric without a transposed add: numpy computes V @ V.T as
    one symmetric rank-k update (BLAS syrk) that fills one triangle and
    mirrors it. A proper row block is a general product (gemm), whose values
    can differ from the mirrored triangle's in the last bit.
    """
    d = vectors[rows] @ vectors.T
    d *= 2.0
    np.subtract(2.0, d, out=d)
    np.clip(d, 0.0, 4.0, out=d)
    np.fill_diagonal(d[:, rows.start or 0 :], 0.0)  # block row r is row start + r
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

