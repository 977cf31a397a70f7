"""Retrieval and clustering quality measures on embedding batches.

A batch is a plain (N, D) array of unit rows plus an `EvalPlan`, the one
holder of its labels and of what depends on them alone (class groups,
per-row class codes); a training run builds the plan once for its fixed
validation labels. Every function that takes a plan refuses one whose label
count is not the number of rows. Everything is computed from pairwise
distances; `evaluate` builds the distance matrix once and shares it and
returns one float64 row in METRIC_FIELDS order, the row a training run
keeps per episode. Nearest-neighbor ranking is by (distance, index), so
ties go to the smaller index, and it is computed by counting rather than
sorting.

The distance matrix is the only N x N array an evaluation holds. Recall and
the class distances walk it in blocks of rows, BLOCK_CELLS cells at most;
the class distances build each block's same-class mask from the plan's
class codes and overwrite the matrix, gathering the inter-class values into
its leading cells. So `evaluate` calls `class_distance_stats` last.

k-means reads only the rows, never the distance matrix. So on a batch of at
least OVERLAP_MIN_ROWS rows, when the process may run on two or more CPUs,
`evaluate` submits k-means and NMI to a one-thread executor while the
calling thread computes distances, recall and class distances; numpy
releases the GIL inside the large array operations of both. Below that size
the overlap gains nothing or loses: the worker's many small numpy calls hold
the GIL. The row is the same to the bit either way: the two sides share
only read-only inputs (the rows and the plan), k-means draws from its own
generator seeded by `kmeans_seed`, and every call computes what it would
compute alone. The worker calls `_cluster_agreement`, never
`clustering_nmi`: a profiler that keeps one span stack and wraps the public
names here would otherwise see a span open on the worker thread inside the
caller's spans. On an overlapped evaluation the caller's wait for k-means
is therefore part of `evaluate`'s own time.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import group_by_label
from .geometry import pairwise_distances


#: column order of the per-episode metric vector used throughout
METRIC_FIELDS = ("r1", "r2", "r4", "nmi", "intra", "inter")
#: batches of at least this many rows overlap k-means with the distance work: in interleaved
#: timings of `evaluate` the overlap lost below 320 rows, was even at 320 and won from 400
OVERLAP_MIN_ROWS = 400
#: recall and the class distances scan the distance matrix in blocks of at most this many cells
#: (at least one row each), so their masks and gathers stay a small fraction of the matrix
BLOCK_CELLS = 1 << 17


class EvalPlan:
    """The labels of an evaluation and what depends on them alone, built once per label vector.

    labels: one integer class id per row of the evaluated batch.
    groups: each class's row indices in ascending order, classes in label order.
    codes: each row's position in `groups`, in the smallest unsigned dtype that holds it.
    """

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        order, starts, sizes = group_by_label(self.labels)
        self.groups = tuple(np.split(order, starts[1:]))
        self.codes = np.empty(self.labels.size, np.min_scalar_type(max(sizes.size - 1, 0)))
        self.codes[order] = np.repeat(np.arange(sizes.size), sizes)

    def check_rows(self, n: int) -> None:
        """Refuse a batch of n rows unless the plan has one label per row."""
        if n != self.labels.size:
            raise ValueError(f"evaluation plan has {self.labels.size} labels for {n} rows")


def _row_blocks(n: int) -> list[slice]:
    """Consecutive row slices covering range(n), each of at most BLOCK_CELLS cells of an n-column matrix."""
    step = max(1, BLOCK_CELLS // max(n, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _count(mask: np.ndarray) -> np.ndarray:
    """True entries per row of a 2-D boolean mask, in the narrowest unsigned dtype holding a row's length."""
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.min_scalar_type(mask.shape[1]))


def recall_at_k(dist: np.ndarray, plan: EvalPlan, ks=(1, 2, 4)) -> dict:
    """Fraction of points whose k nearest others contain a same-label point.

    Others rank by (distance, index), computed without a sort: the nearest
    same-label j* (first index among ties, found by argmin over the row's
    class block, whose columns ascend) has rank #{d < d*} + #{d == d*,
    index < j*} less the row's own diagonal entry, and a row hits at k iff j*
    exists and rank < min(k, n-1). The counts go one block of rows at a
    time. j* itself is one of the #{d <= d*} - #{d < d*} ties, so the
    lower-index ties are counted only on rows with more than one. `dist` is
    the (N, N) distance matrix of the plan's rows; it is not modified.
    """
    ks = tuple(int(k) for k in ks)
    if any(k < 1 for k in ks):
        raise ValueError("recall cutoffs must be >= 1")
    n = dist.shape[0]
    plan.check_rows(n)
    rows = np.arange(n)
    nearest = rows.copy()  # a row without a same-label mate keeps itself
    for group in plan.groups:
        if group.size > 1:
            block = dist[group[:, None], group]
            np.fill_diagonal(block, np.inf)
            nearest[group] = group[block.argmin(axis=1)]
    found = nearest != rows
    d_star = dist[rows, nearest]
    diag = dist[rows, rows]
    # the row's own entry is counted below whenever it ranks ahead of j*
    rank = -((diag < d_star) | ((diag == d_star) & (rows < nearest))).astype(np.intp)
    for block in _row_blocks(n):
        d, d_block = dist[block], d_star[block, None]
        n_lt = _count(d < d_block)
        rank[block] += n_lt
        tied = np.flatnonzero(_count(d <= d_block) - n_lt > 1)
        if tied.size:
            at = tied + block.start
            rank[at] += _count((d[tied] == d_block[tied]) & (rows < nearest[at, None]))
    return {k: float(np.count_nonzero(found & (rank < min(k, n - 1))) / n) for k in ks}


def class_distance_stats(dist: np.ndarray, plan: EvalPlan) -> tuple[float, float]:
    """(mean intra-class distance, mean inter-class distance) over unordered pairs.

    The pairs i < j are gathered in row-major order, one block of rows at a
    time: the intra-class values into an array of their own, the
    inter-class values into the leading cells of `dist`'s buffer (of a
    row-major copy when `dist` is not C-contiguous). Rows 0..r-1 hold fewer
    than r * N pairs, so a block's values, written once the block is read,
    end before the next block starts. `dist` is therefore overwritten; pass
    it last. A side with no pairs (all-singleton classes, or a single
    class) is reported as 0.0 with a warning rather than NaN.
    """
    n = dist.shape[0]
    plan.check_rows(n)
    sizes = np.array([group.size for group in plan.groups])
    intra = np.empty(int(np.add.reduce(sizes * (sizes - 1) // 2)))
    flat = dist.reshape(-1)  # a view when dist is C-contiguous
    cols = np.arange(n, dtype=np.min_scalar_type(n))  # a narrow dtype compares several times faster
    n_intra = n_inter = 0
    for block in _row_blocks(n):
        lo = block.start  # columns left of the block's first row hold no pair i < j
        upper = cols[lo:] > cols[block, None]
        same = plan.codes[block, None] == plan.codes[lo:]
        d = flat[lo * n : block.stop * n].reshape(-1, n)[:, lo:]
        vals = d[upper & same]
        intra[n_intra : n_intra + vals.size] = vals
        n_intra += vals.size
        vals = d[upper & ~same]  # a copy, taken before the write that may reach into this block
        flat[n_inter : n_inter + vals.size] = vals
        n_inter += vals.size
    out = []
    for side, vals in (("intra", intra), ("inter", flat[:n_inter])):
        if vals.size == 0:
            warnings.warn(f"no {side}-class pairs; reporting {side} distance as 0.0", stacklevel=2)
        out.append(float(vals.mean()) if vals.size else 0.0)
    return out[0], out[1]


# -------------------------
# Clustering agreement
# -------------------------

def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: sample centers proportional to squared distance to the nearest chosen one."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    diff = x - centers[0]
    d2 = np.add.reduce(diff * diff, axis=1)
    for i in range(1, k):
        total = np.add.reduce(d2)
        if total <= 0.0:
            centers[i:] = x[int(rng.integers(n))]
            break
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[i] = x[idx]
        np.subtract(x, centers[i], out=diff)
        np.minimum(d2, np.add.reduce(diff * diff, axis=1), out=d2)
    return centers


def kmeans(x: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 300) -> np.ndarray:
    """Lloyd iterations on Gram-form distances from a k-means++ start; returns hard assignments."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    centers = _kmeans_pp_init(x, k, rng)
    x_sq = np.einsum("ij,ij->i", x, x)[:, None]
    coords = np.arange(x.shape[1])
    assign = np.zeros(n, dtype=np.int64)
    for iteration in range(max_iter):
        d2 = x_sq - 2.0 * (x @ centers.T) + np.einsum("ij,ij->i", centers, centers)
        new_assign = d2.argmin(axis=1)
        if iteration > 0 and np.logical_and.reduce(new_assign == assign):
            break
        assign = new_assign
        # every (cluster, coordinate) member sum from one bincount pass in point order
        bins = (assign[:, None] * x.shape[1] + coords).ravel()
        sums = np.bincount(bins, weights=x.ravel(), minlength=centers.size).reshape(centers.shape)
        counts = np.bincount(assign, minlength=k)
        # an empty cluster's quotient 0/1 is overwritten by its re-seed below
        np.divide(sums, np.maximum(counts, 1)[:, None], out=centers)
        empty = counts == 0
        if np.logical_or.reduce(empty):
            # re-seed an empty cluster at the point farthest from its center
            centers[empty] = x[int(d2.min(axis=1).argmax())]
    return assign


def _entropy(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def nmi(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Normalized mutual information with arithmetic-mean normalization.

    NMI = I(A;B) / ((H(A) + H(B)) / 2). If either side has a single
    block the score is defined as 0.0 (no information to share).
    """
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise ValueError("label arrays must have equal length")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na, nb = ai.max() + 1, bi.max() + 1
    contingency = np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb).astype(np.float64)
    h_a = _entropy(contingency.sum(axis=1))
    h_b = _entropy(contingency.sum(axis=0))
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    n = contingency.sum()
    pij = contingency / n
    pa = pij.sum(axis=1, keepdims=True)
    pb = pij.sum(axis=0, keepdims=True)
    mask = pij > 0
    mi = float(np.sum(pij[mask] * (np.log(pij[mask]) - np.log((pa @ pb))[mask])))
    return mi / (0.5 * (h_a + h_b))


def _cluster_agreement(vectors: np.ndarray, plan: EvalPlan, seed: int) -> float:
    k = len(plan.groups)
    if k == 1:
        return 0.0
    assign = kmeans(vectors, k, np.random.default_rng(seed))
    return nmi(plan.labels, assign)


def clustering_nmi(vectors: np.ndarray, plan: EvalPlan, seed: int) -> float:
    """NMI between the plan's labels and k-means clusters of the rows, k = #classes.

    The k-means seed is passed in explicitly: evaluations inside one
    training run share a fixed seed so the metric is a deterministic
    function of the embeddings.
    """
    plan.check_rows(vectors.shape[0])
    return _cluster_agreement(vectors, plan, seed)


def _overlaps(n_rows: int) -> bool:
    """Whether `evaluate` runs k-means on a worker thread: a large batch and a second usable CPU."""
    if n_rows < OVERLAP_MIN_ROWS:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


def evaluate(vectors: np.ndarray, plan: EvalPlan, kmeans_seed: int = 0) -> np.ndarray:
    """Full evaluation after every training episode, one float64 row in METRIC_FIELDS order.

    All of it comes from one distance matrix, which the class distances,
    computed last, overwrite. Inputs are checked before any work starts. On
    a batch of at least OVERLAP_MIN_ROWS rows, with a second usable CPU,
    k-means and NMI are submitted to a one-thread executor while this thread
    does the distance work; leaving the executor waits for them, also when
    this thread raises, and an error of theirs is raised again here.
    """
    n = vectors.shape[0]
    plan.check_rows(n)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tripletlab-kmeans") as pool:
        # _cluster_agreement, not clustering_nmi: see the module docstring
        clustering = pool.submit(_cluster_agreement, vectors, plan, kmeans_seed) if _overlaps(n) else None
        dist = pairwise_distances(vectors)
        rec = recall_at_k(dist, plan)  # its default cutoffs are the r1, r2, r4 columns
        intra, inter = class_distance_stats(dist, plan)  # last: it overwrites dist
    score_nmi = clustering_nmi(vectors, plan, kmeans_seed) if clustering is None else clustering.result()
    return np.array([*rec.values(), score_nmi, intra, inter])


def eval_score(row: np.ndarray) -> float:
    """Scalar progress signal of one evaluation row: recall@1 (r1) plus clustering agreement (nmi)."""
    return row[0] + row[3]
