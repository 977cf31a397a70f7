"""Retrieval and clustering quality measures on embedding batches.

A batch is a plain (N, D) array of unit rows plus an `EvalPlan`, the one
holder of its labels and of what depends on them alone (class groups, pair
masks); a training run builds the plan once for its fixed validation
labels. Every function that takes a plan refuses one whose label count is
not the number of rows. Everything is computed from pairwise distances;
`evaluate` builds the distance matrix once and shares it. Nearest-neighbor
ranking is by (distance, index), so ties go to the smaller index, and it is
computed by counting rather than sorting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import pairwise_distances


#: column order of the per-episode metric vector used throughout
METRIC_FIELDS = ("r1", "r2", "r4", "nmi", "intra", "inter")


@dataclass(frozen=True)
class EvalReport:
    recall_at: dict
    nmi: float
    intra: float
    inter: float

    def as_row(self) -> dict:
        row = {f"r{k}": v for k, v in sorted(self.recall_at.items())}
        row.update(nmi=self.nmi, intra=self.intra, inter=self.inter)
        return row

    def as_vector(self) -> np.ndarray:
        row = self.as_row()
        return np.array([row[f] for f in METRIC_FIELDS])


class RunningTracks:
    """Ring buffers of recent metric vectors feeding the policy state.

    Keeps enough history for running averages at several lengths plus a
    raw tail of the last `history` snapshots. Averages over fewer than
    `length` entries use whatever is available.
    """

    def __init__(self, lengths=(2, 8, 16, 32), history: int = 20, n_metrics: int = len(METRIC_FIELDS)):
        self.lengths = tuple(int(x) for x in lengths)
        self.history = int(history)
        self.n_metrics = int(n_metrics)
        if min(self.lengths) < 1 or self.history < 1:
            raise ValueError("average lengths and history must be >= 1")
        self._capacity = max(max(self.lengths), self.history)
        self._buf: list = []

    def __len__(self) -> int:
        return len(self._buf)

    def append(self, values: np.ndarray) -> "RunningTracks":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_metrics,):
            raise ValueError(f"expected {self.n_metrics} metric values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("metric values must be finite")
        self._buf.append(values.copy())
        if len(self._buf) > self._capacity:
            self._buf.pop(0)
        return self

    def averages(self) -> np.ndarray:
        """(n_metrics, n_lengths) running means, most recent entries first."""
        if not self._buf:
            raise ValueError("no snapshots recorded yet")
        stack = np.stack(self._buf)
        cols = [stack[-min(l, len(self._buf)):].mean(axis=0) for l in self.lengths]
        return np.stack(cols, axis=1)

    def history_matrix(self) -> np.ndarray:
        """(history, n_metrics) raw tail, oldest row first, zero-padded when short."""
        out = np.zeros((self.history, self.n_metrics))
        tail = self._buf[-self.history:]
        if tail:
            out[-len(tail):] = np.stack(tail)
        return out


def update_tracks(tracks: RunningTracks, report: EvalReport) -> RunningTracks:
    """Record one evaluation; returns the same (mutated) tracks object."""
    return tracks.append(report.as_vector())


class EvalPlan:
    """The labels of an evaluation and what depends on them alone, built once per label vector.

    labels: one integer class id per row of the evaluated batch.
    groups: each class's row indices in ascending order, classes in label order.
    intra / inter: strict-upper-triangle masks of the same-class and the
    different-class pairs.
    """

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        order = np.argsort(self.labels, kind="stable")
        _, starts = np.unique(self.labels[order], return_index=True)
        self.groups = tuple(np.split(order, starts[1:]))
        upper = ~np.tri(self.labels.size, dtype=bool)
        same = self.labels[:, None] == self.labels[None, :]
        self.intra = upper & same
        self.inter = upper & ~same

    def check_rows(self, n: int) -> None:
        """Refuse a batch of n rows unless the plan has one label per row."""
        if n != self.labels.size:
            raise ValueError(f"evaluation plan has {self.labels.size} labels for {n} rows")


def recall_at_k(dist: np.ndarray, plan: EvalPlan, ks=(1, 2, 4)) -> dict:
    """Fraction of points whose k nearest others contain a same-label point.

    Others rank by (distance, index), computed without a sort: the nearest
    same-label j* (first index among ties, found by argmin over the row's
    class block, whose columns ascend) has rank #{d < d*} + #{d == d*,
    index < j*} less the row's own diagonal entry, and a row hits at k iff j*
    exists and rank < min(k, n-1). `dist` is the (N, N) distance matrix of
    the plan's rows; it is not modified.
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
            block = dist[np.ix_(group, group)]
            np.fill_diagonal(block, np.inf)
            nearest[group] = group[block.argmin(axis=1)]
    found = nearest != rows
    d_star = dist[rows, nearest][:, None]
    ahead = (dist < d_star) | ((dist == d_star) & (rows < nearest[:, None]))
    rank = np.count_nonzero(ahead, axis=1) - ahead[rows, rows]
    return {k: float(np.mean(found & (rank < min(k, n - 1)))) for k in ks}


def class_distance_stats(dist: np.ndarray, plan: EvalPlan) -> tuple[float, float]:
    """(mean intra-class distance, mean inter-class distance) over unordered pairs.

    `dist` is not modified. A side with no pairs (all-singleton classes, or
    a single class) is reported as 0.0 with a warning rather than NaN.
    """
    plan.check_rows(dist.shape[0])
    out = []
    for side, vals in (("intra", dist[plan.intra]), ("inter", dist[plan.inter])):
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
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i:] = x[int(rng.integers(n))]
            break
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[i] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))
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
        new_assign = np.argmin(d2, axis=1)
        if iteration > 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # every (cluster, coordinate) member sum from one bincount pass in point order
        bins = (assign[:, None] * x.shape[1] + coords).ravel()
        sums = np.bincount(bins, weights=x.ravel(), minlength=centers.size).reshape(centers.shape)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        if not filled.all():
            # re-seed an empty cluster at the point farthest from its center
            centers[~filled] = x[int(np.argmax(np.min(d2, axis=1)))]
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


def clustering_nmi(vectors: np.ndarray, plan: EvalPlan, seed: int, max_iter: int = 300) -> float:
    """NMI between the plan's labels and k-means clusters of the rows, k = #classes.

    The k-means seed is passed in explicitly: evaluations inside one
    training run share a fixed seed so the metric is a deterministic
    function of the embeddings.
    """
    plan.check_rows(vectors.shape[0])
    k = len(plan.groups)
    if k == 1:
        return 0.0
    rng = np.random.default_rng(seed)
    assign = kmeans(vectors, k, rng, max_iter=max_iter)
    return nmi(plan.labels, assign)


def evaluate(vectors: np.ndarray, plan: EvalPlan, ks=(1, 2, 4), kmeans_seed: int = 0) -> EvalReport:
    """Full evaluation bundle used after every training episode, on one distance matrix."""
    dist = pairwise_distances(vectors)
    rec = recall_at_k(dist, plan, ks)
    score_nmi = clustering_nmi(vectors, plan, seed=kmeans_seed)
    intra, inter = class_distance_stats(dist, plan)
    return EvalReport(recall_at=rec, nmi=score_nmi, intra=intra, inter=inter)


def eval_score(report: EvalReport) -> float:
    """Scalar progress signal: recall@1 plus clustering agreement."""
    return report.recall_at[1] + report.nmi
