"""Retrieval and clustering quality measures on embedding batches.

A batch is a plain (N, D) array of unit rows plus an `EvalPlan`, the one
holder of its labels and of what depends on them alone (class groups,
per-row class codes); a training run builds the plan once for its fixed
validation labels. Every function that takes a plan refuses one whose label
count is not the number of rows. Everything is computed from pairwise
distances; `evaluate` returns one float64 row in METRIC_FIELDS order, the
row a training run keeps per episode. Nearest-neighbor ranking is by
(distance, index), so ties go to the smaller index, and it is computed by
counting rather than sorting.

No N x N array is held. The distances are computed (`evaluate`) or sliced
(`recall_at_k`, `class_distance_stats`, which leave their matrix as it was)
one block of rows at a time, and each block is read by two kernels:
`_RecallScan.add` ranks each row's nearest same-class mate from the block's
own values, and `_PairScan.add` gathers the pairs i < j into an intra-class
and an inter-class array, each preallocated at its exact size from the
plan's class sizes. Blocks hold at most BLOCK_CELLS cells, so a batch of up
to 362 rows is one block and one `v @ v.T`, and at least BLOCK_MIN_ROWS
rows (see there why). At N = 1200 with 16 classes an evaluation peaks, by
tracemalloc, at about 0.7-0.75 of one N x N float64 matrix, most of it the
inter-class values.

k-means reads only the rows, never the distance matrix. So on a batch of at
least OVERLAP_MIN_ROWS rows, when the process may run on two or more CPUs,
`evaluate` submits k-means and NMI to a one-thread executor while the
calling thread computes the distance blocks, recall and class distances; numpy
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
#: distances are computed and scanned in row blocks of at most this many cells
BLOCK_CELLS = 1 << 17
#: and at least this many rows, a shorter tail joining the block before it: BLAS rounds a one-row
#: product (gemv) and short ones of small batches (OpenBLAS's small-matrix kernels) differently in
#: the last bit from the full product; blocks of 1-3 rows did at 368-568 rows and 32-256 dimensions
BLOCK_MIN_ROWS = 8


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
    """Consecutive row slices covering range(n), each of at most BLOCK_CELLS cells of an n-column
    matrix but at least BLOCK_MIN_ROWS rows; a shorter tail joins the slice before it."""
    step = max(BLOCK_MIN_ROWS, BLOCK_CELLS // max(n, 1))
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] < BLOCK_MIN_ROWS:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def _count(mask: np.ndarray) -> np.ndarray:
    """True entries per row of a 2-D boolean mask, in the narrowest unsigned dtype holding a row's length."""
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.min_scalar_type(mask.shape[1]))


class _RecallScan:
    """Recall hits counted one block of rows at a time (`add`), read as fractions at the end (`result`).

    Others rank by (distance, index), computed without a sort: the nearest
    same-label j* (first index among ties, found by argmin over the row's
    class columns, which ascend, with the row's own entry masked) has rank
    #{d < d*} + #{d == d*, index < j*} less the row's own entry, and a row
    hits at k iff j* exists and rank < min(k, n-1). j* itself is one of the
    #{d <= d*} - #{d < d*} ties, so the lower-index ties are counted only on
    rows with more than one.
    """

    def __init__(self, plan: EvalPlan, n: int, ks):
        ks = tuple(int(k) for k in ks)
        if any(k < 1 for k in ks):
            raise ValueError("recall cutoffs must be >= 1")
        plan.check_rows(n)
        self.codes, self.cols, self.hits = plan.codes, np.arange(n), dict.fromkeys(ks, 0)
        # each class's rows, ascending, padded to the largest class with copies of its last row
        width = max(map(len, plan.groups), default=0)
        self.mates = np.array([np.pad(g, (0, width - g.size), "edge") for g in plan.groups])

    def add(self, rows: slice, d: np.ndarray) -> None:
        """Count the hits of `rows`, whose distances to all n rows are `d`; `d` is not modified."""
        cols = self.cols
        own = cols[rows]
        at = np.arange(own.size)
        cand = self.mates[self.codes[rows]]  # a padded copy ties with its original and loses to it
        to_cand = d[at[:, None], cand]
        to_cand[cand == own[:, None]] = np.inf  # so a row without a mate gets itself
        nearest = cand[at, to_cand.argmin(axis=1)]
        found = nearest != own
        d_star, diag = d[at, nearest], d[at, own]
        # the row's own entry is counted below whenever it ranks ahead of j*
        rank = -((diag < d_star) | ((diag == d_star) & (own < nearest))).astype(np.intp)
        d_star = d_star[:, None]
        n_lt = _count(d < d_star)
        rank += n_lt
        tied = np.flatnonzero(_count(d <= d_star) - n_lt > 1)
        if tied.size:
            rank[tied] += _count((d[tied] == d_star[tied]) & (cols < nearest[tied, None]))
        for k in self.hits:
            self.hits[k] += np.count_nonzero(found & (rank < min(k, cols.size - 1)))

    def result(self) -> dict:
        return {k: float(hits / self.cols.size) for k, hits in self.hits.items()}


class _PairScan:
    """Mean intra- and inter-class distance over the pairs i < j, gathered one block of rows at a time.

    The values go in row-major order, so both means are those of a
    whole-matrix masked gather to the bit. A side with no pairs
    (all-singleton classes, or a single class) is reported as 0.0 with a
    warning rather than NaN.
    """

    def __init__(self, plan: EvalPlan, n: int):
        plan.check_rows(n)
        sizes = np.array([group.size for group in plan.groups])
        n_intra = int(np.add.reduce(sizes * (sizes - 1) // 2))
        self.plan = plan
        self.cols = np.arange(n, dtype=np.min_scalar_type(n))  # a narrow dtype compares several times faster
        self.values = {"intra": np.empty(n_intra), "inter": np.empty(n * (n - 1) // 2 - n_intra)}
        self.filled = dict.fromkeys(self.values, 0)

    def add(self, rows: slice, d: np.ndarray) -> None:
        """Gather the pairs of `rows`, whose distances to all n rows are `d`; `d` is not modified."""
        lo = rows.start  # columns left of the block's first row hold no pair i < j
        upper = self.cols[lo:] > self.cols[rows, None]
        same = self.plan.codes[rows, None] == self.plan.codes[lo:]
        d = d[:, lo:]
        intra = d[upper & same]
        np.greater(upper, same, out=upper)  # upper and not same, in place: the inter-class pairs
        for side, vals in (("intra", intra), ("inter", d[upper])):
            at = self.filled[side]
            self.values[side][at : at + vals.size] = vals
            self.filled[side] += vals.size

    def result(self) -> tuple[float, float]:
        """(mean intra-class distance, mean inter-class distance)."""
        out = []
        for side, vals in self.values.items():
            if vals.size == 0:
                warnings.warn(f"no {side}-class pairs; reporting {side} distance as 0.0", stacklevel=3)
            out.append(float(vals.mean()) if vals.size else 0.0)
        return out[0], out[1]


def _scan_matrix(dist: np.ndarray, scan):
    """`scan`'s result over the row blocks of the (N, N) distance matrix of the plan's rows."""
    for rows in _row_blocks(dist.shape[0]):
        scan.add(rows, dist[rows])
    return scan.result()


def recall_at_k(dist: np.ndarray, plan: EvalPlan, ks=(1, 2, 4)) -> dict:
    """Fraction of points whose k nearest others contain a same-label point (see `_RecallScan`)."""
    return _scan_matrix(dist, _RecallScan(plan, dist.shape[0], ks))


def class_distance_stats(dist: np.ndarray, plan: EvalPlan) -> tuple[float, float]:
    """(mean intra-class distance, mean inter-class distance) over unordered pairs (see `_PairScan`)."""
    return _scan_matrix(dist, _PairScan(plan, dist.shape[0]))


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

    Each block of distances is computed once and read for recall and the
    class distances before the next. Inputs are checked before any work
    starts. On a batch of at least OVERLAP_MIN_ROWS rows, with a second
    usable CPU, k-means and NMI are submitted to a one-thread executor while
    this thread does the distance work; leaving the executor waits for them,
    also when this thread raises, and an error of theirs is raised again here.
    """
    n = vectors.shape[0]
    plan.check_rows(n)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tripletlab-kmeans") as pool:
        # _cluster_agreement, not clustering_nmi: see the module docstring
        clustering = pool.submit(_cluster_agreement, vectors, plan, kmeans_seed) if _overlaps(n) else None
        recall, pairs = _RecallScan(plan, n, (1, 2, 4)), _PairScan(plan, n)  # the r1, r2, r4 columns
        for rows in _row_blocks(n):
            block = pairwise_distances(vectors, rows)
            recall.add(rows, block)
            pairs.add(rows, block)
            del block  # freed before the next block is computed
        rec, (intra, inter) = recall.result(), pairs.result()
    score_nmi = clustering_nmi(vectors, plan, kmeans_seed) if clustering is None else clustering.result()
    return np.array([*rec.values(), score_nmi, intra, inter])


def eval_score(row: np.ndarray) -> float:
    """Scalar progress signal of one evaluation row: recall@1 (r1) plus clustering agreement (nmi)."""
    return row[0] + row[3]
