import math
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tripletlab.metrics as metrics
from tripletlab.geometry import pairwise_distances
from tripletlab.metrics import (
    METRIC_FIELDS,
    EvalPlan,
    class_distance_stats,
    clustering_nmi,
    eval_score,
    evaluate,
    kmeans,
    nmi,
    recall_at_k,
)

from conftest import benchmark_tracer_targets, random_labels, unit_rows


def unit_norm_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def blob_batch(rng, n_per_class=8, n_classes=3, dim=6, spread=0.05):
    """(vectors, labels) of well-separated unit-vector blobs: one tight cluster per class."""
    centers = unit_rows(rng, n_classes, dim)
    rows, labels = [], []
    for c in range(n_classes):
        pts = centers[c] + spread * rng.standard_normal((n_per_class, dim))
        rows.append(pts)
        labels.extend([c] * n_per_class)
    return unit_norm_rows(np.vstack(rows)), np.array(labels)


def recall_of(vectors, labels, ks=(1, 2, 4)):
    return recall_at_k(pairwise_distances(vectors), EvalPlan(labels), ks)


def class_stats_of(vectors, labels):
    return class_distance_stats(pairwise_distances(vectors), EvalPlan(labels))


def recall_oracle(vectors, labels, ks):
    """Exhaustive per-point scan with explicit (distance, index) ordering."""
    dist = pairwise_distances(vectors)
    n = labels.size
    out = {}
    for k in ks:
        hits = 0
        for i in range(n):
            order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[i, j], j))
            if any(labels[j] == labels[i] for j in order[:k]):
                hits += 1
        out[k] = hits / n
    return out


def tie_heavy_batch(rng):
    """Rows drawn from a small unit-vector codebook, so zero and equal distances
    occur within and across classes; the labels include some singleton classes."""
    n = int(rng.integers(8, 41))
    codebook = unit_rows(rng, int(rng.integers(2, 5)), 4)
    vectors = codebook[rng.integers(0, codebook.shape[0], size=n)]
    labels = random_labels(rng, n, 3)
    singletons = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    labels[singletons] = 100 + np.arange(singletons.size)
    return vectors, labels


def reference_recall_at_k(labels, ks, dist):
    """recall_at_k with the masked copy np.where(same, dist, inf), kept as the bit-level reference."""
    rows = np.arange(labels.size)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    nearest = np.where(same, dist, np.inf).argmin(axis=1)
    d_star = dist[rows, nearest][:, None]
    ahead = (dist < d_star) | ((dist == d_star) & (rows < nearest[:, None]))
    rank = np.count_nonzero(ahead, axis=1) - ahead[rows, rows]
    found = same[rows, nearest]
    return {k: float(np.mean(found & (rank < min(k, labels.size - 1)))) for k in ks}


def reference_class_distance_stats(labels, dist):
    """class_distance_stats building its masks per call, kept as the bit-level reference."""
    upper = ~np.tri(labels.size, dtype=bool)
    same = labels[:, None] == labels[None, :]
    out = []
    for vals in (dist[upper & same], dist[upper & ~same]):
        out.append(float(vals.mean()) if vals.size else 0.0)
    return out[0], out[1]


def reference_kmeans(x, k, rng, max_iter=300, empties=None):
    """kmeans re-seeding on every Lloyd iteration, kept as the bit-level reference.

    Appends the number of empty clusters of each iteration to `empties`.
    """
    x = np.asarray(x, dtype=np.float64)
    centers = metrics._kmeans_pp_init(x, k, rng)
    x_sq = np.einsum("ij,ij->i", x, x)[:, None]
    coords = np.arange(x.shape[1])
    assign = np.zeros(x.shape[0], dtype=np.int64)
    for iteration in range(max_iter):
        d2 = x_sq - 2.0 * (x @ centers.T) + np.einsum("ij,ij->i", centers, centers)
        new_assign = np.argmin(d2, axis=1)
        if iteration > 0 and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        bins = (assign[:, None] * x.shape[1] + coords).ravel()
        sums = np.bincount(bins, weights=x.ravel(), minlength=centers.size).reshape(centers.shape)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        centers[~filled] = x[int(np.argmax(np.min(d2, axis=1)))]
        if empties is not None:
            empties.append(int(np.count_nonzero(~filled)))
    return assign


def random_batch(rng, n):
    """(vectors, labels): n unit rows near a few class centers, labels in shuffled order, some singleton classes."""
    n_classes = int(rng.integers(2, 17))
    labels = rng.integers(0, n_classes, size=n)
    labels[rng.choice(n, size=min(n, 3), replace=False)] = 100 + np.arange(min(n, 3))
    centers = unit_rows(rng, 103, 16)
    vectors = unit_norm_rows(centers[labels] + 0.7 * rng.standard_normal((n, 16)))
    return vectors, labels


def reference_batches():
    """(vectors, labels) of tie-heavy batches, then of random batches of up to 1200 rows."""
    rng = np.random.default_rng(99)
    batches = [tie_heavy_batch(rng) for _ in range(40)]
    batches += [random_batch(rng, n) for n in (2, 3, 9, 31, 120, 240, 600, 1200)]
    return batches


class TestRecall:
    def test_matches_oracle(self, rng):
        for trial in range(60):
            if trial < 30:
                n = int(rng.integers(5, 25))
                vectors, labels = unit_rows(rng, n, 5), random_labels(rng, n, 3)
            else:
                vectors, labels = tie_heavy_batch(rng)
            got = recall_of(vectors, labels)
            want = recall_oracle(vectors, labels, (1, 2, 4))
            for k in (1, 2, 4):
                assert got[k] == pytest.approx(want[k], abs=1e-12)

    def test_matches_masked_copy_reference_bit_for_bit(self):
        for vectors, labels in reference_batches():
            dist = pairwise_distances(vectors)
            want = reference_recall_at_k(labels, (1, 2, 4), dist)
            got = recall_at_k(dist, EvalPlan(labels))
            assert list(got) == list(want)
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("tied", [False, True], ids=["closer", "tied"])
    def test_counts_past_256_per_row_stay_exact(self, tied):
        """Row 0's mate ranks behind 256 others (nearer, or tied at a lower index): a count held
        in a dtype that wraps at 256 would rank it first."""
        n = 258
        dist = np.ones((n, n))
        np.fill_diagonal(dist, 0.0)
        labels = np.arange(n)
        mate = n - 1 if tied else 1
        labels[mate] = 0
        if not tied:
            dist[0, mate] = dist[mate, 0] = 1.5
        want = {k: 1 / n if tied else 0.0 for k in (1, 2, 4)}
        assert recall_at_k(dist, EvalPlan(labels)) == reference_recall_at_k(labels, (1, 2, 4), dist) == want

    def test_tie_breaks_by_lower_index(self):
        # three identical points: every neighbor list is a pure tie, so the
        # ranking is decided entirely by index order
        v = np.tile(unit_norm_rows(np.array([[1.0, 1.0, 0.0]])), (3, 1))
        # point 0 -> nearest is 1 (miss), 1 -> nearest is 0 (miss), 2 -> nearest is 0 (hit)
        assert recall_of(v, np.array([0, 1, 0]), ks=(1,))[1] == pytest.approx(1 / 3)

    def test_perfect_and_zero(self, rng):
        assert recall_of(*blob_batch(rng), ks=(1,))[1] == 1.0
        assert recall_of(unit_rows(rng, 6, 4), np.arange(6))[4] == 0.0

    def test_rotation_invariant(self, rng):
        n, dim = 40, 8
        vecs = unit_rows(rng, n, dim)
        labels = random_labels(rng, n, 4)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a = recall_of(vecs, labels)
        b = recall_of(unit_norm_rows(vecs @ q), labels)
        assert a == b

    def test_k_larger_than_batch(self, rng):
        out = recall_of(unit_rows(rng, 3, 4), np.array([0, 0, 1]), ks=(50,))
        # cutoff saturates at n-1: both label-0 points find each other
        assert out[50] == pytest.approx(2 / 3)

    def test_invalid_cutoff(self, rng):
        with pytest.raises(ValueError, match=">= 1"):
            recall_of(unit_rows(rng, 4, 4), np.array([0, 0, 1, 1]), ks=(0,))
        with pytest.raises(ValueError, match=">= 1"):
            recall_of(unit_rows(rng, 4, 4), np.array([0, 0, 1, 1]), ks=(1, 0))


class TestClassDistanceStats:
    def test_matches_pair_enumeration(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 20))
            vectors, labels = unit_rows(rng, n, 5), random_labels(rng, n, 3)
            dist = pairwise_distances(vectors)
            intra_pairs, inter_pairs = [], []
            for i in range(n):
                for j in range(i + 1, n):
                    (intra_pairs if labels[i] == labels[j] else inter_pairs).append(dist[i, j])
            intra, inter = class_distance_stats(dist, EvalPlan(labels))
            assert intra == pytest.approx(np.mean(intra_pairs), abs=1e-12)
            assert inter == pytest.approx(np.mean(inter_pairs), abs=1e-12)

    def test_all_singletons_warns(self, rng):
        with pytest.warns(UserWarning, match="no intra-class pairs"):
            intra, inter = class_stats_of(unit_rows(rng, 5, 4), np.arange(5))
        assert intra == 0.0 and inter > 0.0

    def test_single_class_warns(self, rng):
        with pytest.warns(UserWarning, match="no inter-class pairs"):
            intra, inter = class_stats_of(unit_rows(rng, 5, 4), np.zeros(5, dtype=int))
        assert inter == 0.0 and intra > 0.0

    def test_separated_blobs(self, rng):
        intra, inter = class_stats_of(*blob_batch(rng))
        assert 0.0 < intra < 0.3 < inter

    def test_matches_mask_building_reference_bit_for_bit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # singleton-only or one-class batches
            for vectors, labels in reference_batches():
                dist = pairwise_distances(vectors)
                want = np.array(reference_class_distance_stats(labels, dist))
                got = np.array(class_distance_stats(dist, EvalPlan(labels)))
                assert got.tobytes() == want.tobytes()


def reference_bytes(vectors, labels):
    """Recall and class distances of the bit-level references, as bytes."""
    dist = pairwise_distances(vectors)
    recall = reference_recall_at_k(labels, (1, 2, 4), dist)
    return np.array([*recall.values(), *reference_class_distance_stats(labels, dist)]).tobytes()


def blocked_bytes(dist, labels):
    """Recall and class distances of a given matrix, as bytes."""
    plan = EvalPlan(labels)
    recall = recall_at_k(dist, plan)
    return np.array([*recall.values(), *class_distance_stats(dist, plan)]).tobytes()


def has_lower_index_ties(dist, labels):
    """Whether some row's nearest same-label distance is shared by another column."""
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    d_star = np.where(same, dist, np.inf).min(axis=1)
    return bool(np.any(np.count_nonzero(dist == d_star[:, None], axis=1) > 1))


class TestBlockedEvaluation:
    """Recall and class distances scan the matrix in row blocks; the bytes may not tell."""

    @pytest.mark.parametrize("n", [1, 2, 3, 512, 1141], ids=lambda n: f"n{n}")
    def test_matches_the_references_bit_for_bit(self, n):
        step = metrics.BLOCK_CELLS // n
        if n > step:  # 512 ends on a full block, 1141 on a one-row tail, which joins the block before it
            assert n % step in (0, 1)
            assert [r.stop - r.start for r in metrics._row_blocks(n)][-1] == step + n % step
        vectors, labels = random_batch(np.random.default_rng(n), n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no pairs on one side at n = 1, 2
            assert blocked_bytes(pairwise_distances(vectors), labels) == reference_bytes(vectors, labels)

    @pytest.mark.parametrize("block_cells", [1, 7, 40, 1 << 17])
    def test_tie_heavy_batches_in_any_block_size(self, monkeypatch, block_cells):
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        monkeypatch.setattr(metrics, "BLOCK_MIN_ROWS", 1)  # slices of a given matrix round nothing
        rng = np.random.default_rng(21)
        tied = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for _ in range(30):
                vectors, labels = tie_heavy_batch(rng)
                dist = pairwise_distances(vectors)
                tied += has_lower_index_ties(dist, labels)
                assert blocked_bytes(dist, labels) == reference_bytes(vectors, labels)
        assert tied >= 20

    def test_layout_of_the_matrix_does_not_matter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for vectors, labels in reference_batches():
                want = reference_bytes(vectors, labels)
                dist = pairwise_distances(vectors)
                n = dist.shape[0]
                assert blocked_bytes(np.asfortranarray(dist), labels) == want
                wide = np.full((2 * n, 3 * n), np.nan)
                wide[::2, ::3] = dist
                assert blocked_bytes(wide[::2, ::3], labels) == want

    def test_recall_leaves_the_matrix_as_it_was(self):
        vectors, labels = random_batch(np.random.default_rng(5), 300)
        dist = pairwise_distances(vectors)
        recall_at_k(dist, EvalPlan(labels))
        assert dist.tobytes() == pairwise_distances(vectors).tobytes()

    def test_class_distances_leave_the_matrix_as_they_found_it(self):
        vectors, labels = random_batch(np.random.default_rng(5), 300)
        dist = pairwise_distances(vectors)
        class_distance_stats(dist, EvalPlan(labels))
        assert dist.tobytes() == pairwise_distances(vectors).tobytes()

    @pytest.mark.parametrize(
        "n, heights",
        [
            (0, []),
            (1, [1]),
            (362, [362]),  # 362 * 362 cells fit BLOCK_CELLS
            (365, [365]),  # blocks of 359 rows leave a tail of 6, under the floor: it joins the block
            (366, [358, 8]),
            (1200, [109] * 10 + [110]),
            (20000, [8] * 2500),  # 6 rows of 20000 columns fit BLOCK_CELLS, but the floor is 8
        ],
        ids=lambda v: str(v) if isinstance(v, int) else None,
    )
    def test_row_blocks_keep_the_cell_budget_above_the_floor(self, n, heights):
        stops = np.cumsum(heights).tolist()
        assert metrics._row_blocks(n) == [slice(lo, hi) for lo, hi in zip([0, *stops], stops)]


class TestEvalPlan:
    def test_groups_and_codes(self):
        labels = np.array([5, 2, 5, 9, 2, 5, 7])
        plan = EvalPlan(labels)
        assert [g.tolist() for g in plan.groups] == [[1, 4], [0, 2, 5], [6], [3]]
        assert plan.codes.dtype == np.uint8
        assert plan.codes.tolist() == [1, 0, 1, 3, 0, 1, 2]
        assert vars(plan).keys() == {"labels", "groups", "codes"}  # nothing N x N

    def test_rejects_a_batch_with_another_row_count(self, rng):
        vectors = unit_rows(rng, 6, 4)
        dist = pairwise_distances(vectors)
        for n_labels in (5, 7):
            plan = EvalPlan(np.arange(n_labels) % 3)
            for call in (
                lambda: recall_at_k(dist, plan),
                lambda: class_distance_stats(dist, plan),
                lambda: clustering_nmi(vectors, plan, seed=0),
                lambda: evaluate(vectors, plan),
            ):
                with pytest.raises(ValueError, match=f"{n_labels} labels for 6 rows"):
                    call()


class TestNMI:
    def test_hand_computed_refinement(self):
        # B refines A: MI = H(A) = log 2, H(B) = 1.5 log 2  ->  NMI = 0.8
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 0, 1, 2])
        assert nmi(a, b) == pytest.approx(0.8, abs=1e-12)

    def test_identical_and_independent(self):
        a = np.array([0, 0, 1, 1])
        assert nmi(a, a) == pytest.approx(1.0, abs=1e-12)
        assert nmi(a, np.array([0, 1, 0, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_single_block_is_zero(self):
        assert nmi(np.zeros(6, dtype=int), np.array([0, 1, 2, 0, 1, 2])) == 0.0
        assert nmi(np.array([0, 1, 2, 0, 1, 2]), np.zeros(6, dtype=int)) == 0.0

    def test_matches_loop_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(6, 40))
            a = random_labels(rng, n, int(rng.integers(2, 5)))
            b = random_labels(rng, n, int(rng.integers(2, 5)))
            joint: dict = {}
            for x, y in zip(a, b):
                joint[(int(x), int(y))] = joint.get((int(x), int(y)), 0) + 1
            pa: dict = {}
            pb: dict = {}
            for (x, y), c in joint.items():
                pa[x] = pa.get(x, 0) + c
                pb[y] = pb.get(y, 0) + c
            mi = sum(
                (c / n) * math.log((c / n) / ((pa[x] / n) * (pb[y] / n)))
                for (x, y), c in joint.items()
            )
            ha = -sum((c / n) * math.log(c / n) for c in pa.values())
            hb = -sum((c / n) * math.log(c / n) for c in pb.values())
            want = 0.0 if ha == 0.0 or hb == 0.0 else mi / (0.5 * (ha + hb))
            assert nmi(a, b) == pytest.approx(want, abs=1e-10)

    def test_label_values_do_not_matter(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 9, 9, 7, 7])
        assert nmi(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            nmi(np.array([0, 1]), np.array([0, 1, 2]))


def reference_nmi(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """nmi with its contingency table counted by np.add.at, kept as the bit-level reference."""
    _, ai = np.unique(np.asarray(labels_a).ravel(), return_inverse=True)
    _, bi = np.unique(np.asarray(labels_b).ravel(), return_inverse=True)
    contingency = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(contingency, (ai, bi), 1.0)
    h_a = metrics._entropy(contingency.sum(axis=1))
    h_b = metrics._entropy(contingency.sum(axis=0))
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    pij = contingency / contingency.sum()
    pa = pij.sum(axis=1, keepdims=True)
    pb = pij.sum(axis=0, keepdims=True)
    mask = pij > 0
    mi = float(np.sum(pij[mask] * (np.log(pij[mask]) - np.log((pa @ pb))[mask])))
    return mi / (0.5 * (h_a + h_b))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 60),
    ca=st.integers(1, 9),
    cb=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
)
def test_nmi_matches_add_at_reference_bit_for_bit(n, ca, cb, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, ca, size=n) * 7
    b = rng.integers(0, cb, size=n)
    assert np.float64(nmi(a, b)).tobytes() == np.float64(reference_nmi(a, b)).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(4, 30),
    ca=st.integers(1, 4),
    cb=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
)
def test_nmi_symmetry_and_range(n, ca, cb, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, ca, size=n)
    b = rng.integers(0, cb, size=n)
    v = nmi(a, b)
    assert v == pytest.approx(nmi(b, a), abs=1e-12)
    assert -1e-12 <= v <= 1.0 + 1e-12
    perm = rng.permutation(ca)
    assert nmi(perm[a], b) == pytest.approx(v, abs=1e-12)


class TestKMeans:
    def test_recovers_separated_blobs(self, rng):
        vectors, labels = blob_batch(rng, n_per_class=10, n_classes=3)
        assign = kmeans(vectors, 3, np.random.default_rng(0))
        assert nmi(assign, labels) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self, rng):
        x = rng.standard_normal((40, 5))
        a = kmeans(x, 4, np.random.default_rng(7))
        b = kmeans(x, 4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_k_equals_one(self, rng):
        x = rng.standard_normal((10, 3))
        assert np.array_equal(kmeans(x, 1, np.random.default_rng(0)), np.zeros(10))

    def test_k_bounds(self, rng):
        x = rng.standard_normal((5, 3))
        with pytest.raises(ValueError, match="1 <= k <= n"):
            kmeans(x, 6, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("unit_norm", [True, False])
    def test_converged_assignment_is_lloyd_fixed_point(self, seed, unit_norm):
        # at convergence every point's own cluster mean is its nearest one, by
        # explicit squared differences rather than the Gram form kmeans uses
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 5))
        if unit_norm:
            x = unit_norm_rows(x)
        assign = kmeans(x, 4, np.random.default_rng(seed + 10))
        used = np.unique(assign)
        centers = np.stack([x[assign == j].mean(axis=0) for j in used])
        d2 = np.stack([np.sum((x - c) ** 2, axis=1) for c in centers], axis=1)
        own = d2[np.arange(len(x)), np.searchsorted(used, assign)]
        assert np.all(own <= d2.min(axis=1) + 1e-9)

    def test_empty_clusters_match_every_iteration_reseed_reference_bit_for_bit(self):
        # a few distinct points, each repeated: k-means++ never picks a point at
        # distance 0, so with k above the number of distinct points it seeds
        # duplicate centers, and heavy repeats make Lloyd steps empty clusters
        empty_steps = filled_steps = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            distinct = rng.standard_normal((int(rng.integers(3, 7)), 2))
            x = np.repeat(distinct, rng.integers(1, 15, size=distinct.shape[0]), axis=0)
            k = min(int(rng.integers(2, distinct.shape[0] + 3)), x.shape[0])
            empties = []
            want = reference_kmeans(x, k, np.random.default_rng(seed), empties=empties)
            empty_steps += sum(empties)
            filled_steps += empties.count(0)
            assert kmeans(x, k, np.random.default_rng(seed)).tobytes() == want.tobytes()
        # both kinds of Lloyd step: every cluster filled, and some cluster re-seeded
        assert empty_steps > 0 and filled_steps > 0

    def test_matches_reference_on_evaluation_batches(self):
        for vectors, labels in reference_batches():
            k = int(np.unique(labels).size)
            want = reference_kmeans(vectors, k, np.random.default_rng(k))
            assert kmeans(vectors, k, np.random.default_rng(k)).tobytes() == want.tobytes()

    def test_clustering_nmi_on_blobs(self, rng):
        vectors, labels = blob_batch(rng, n_per_class=10)
        assert clustering_nmi(vectors, EvalPlan(labels), seed=3) == pytest.approx(1.0, abs=1e-9)

    def test_clustering_nmi_single_class(self, rng):
        plan = EvalPlan(np.zeros(6, dtype=int))
        assert clustering_nmi(unit_rows(rng, 6, 4), plan, seed=3) == 0.0


class TestEvaluate:
    def test_row_is_in_metric_fields_order(self, rng):
        vectors, labels = tie_heavy_batch(rng)
        plan = EvalPlan(labels)
        row = evaluate(vectors, plan, kmeans_seed=5)
        dist = pairwise_distances(vectors)
        recall = recall_at_k(dist, plan)
        named = {"r1": recall[1], "r2": recall[2], "r4": recall[4]}
        named["nmi"] = clustering_nmi(vectors, plan, seed=5)
        named["intra"], named["inter"] = class_distance_stats(dist, plan)
        assert row.dtype == np.float64 and row.shape == (len(METRIC_FIELDS),)
        assert row.tolist() == [named[f] for f in METRIC_FIELDS]

    def test_evaluate_bundle_on_blobs(self, rng):
        vectors, labels = blob_batch(rng, n_per_class=10)
        row = evaluate(vectors, EvalPlan(labels), kmeans_seed=5)
        r1, _, _, score_nmi, intra, inter = row
        assert r1 == 1.0
        assert score_nmi == pytest.approx(1.0, abs=1e-9)
        assert inter > intra
        assert eval_score(row) == pytest.approx(r1 + score_nmi)

    @pytest.mark.parametrize(
        "n, block_cells, n_blocks", [(30, 1 << 17, 1), (30, 40, 3), (1141, 1 << 17, 10)], ids=str
    )
    def test_evaluate_computes_each_row_block_once(self, monkeypatch, n, block_cells, n_blocks):
        """The row is recall, NMI and class distances of the blocks evaluate computed, stacked."""
        monkeypatch.setattr(metrics, "BLOCK_CELLS", block_cells)
        vectors, labels = random_batch(np.random.default_rng(n), n)
        plan = EvalPlan(labels)
        handed_out = []

        def counted(v, rows=slice(None)):
            block = pairwise_distances(v, rows)
            handed_out.append((rows, block.copy()))  # as computed, whatever evaluate does with it
            return block

        monkeypatch.setattr(metrics, "pairwise_distances", counted)
        row = evaluate(vectors, plan, kmeans_seed=5)
        planned = metrics._row_blocks(n)
        monkeypatch.undo()
        blocks = [rows for rows, _ in handed_out]
        assert blocks == planned and len(blocks) == n_blocks
        dist = np.vstack([block for _, block in handed_out])
        if len(blocks) == 1:
            assert blocks == [slice(0, n)] and dist.tobytes() == pairwise_distances(vectors).tobytes()
        assert row[:3].tolist() == list(recall_at_k(dist, plan).values())
        assert row[3] == clustering_nmi(vectors, plan, seed=5)
        assert tuple(row[4:].tolist()) == class_distance_stats(dist, plan)

    def test_peak_memory_is_below_one_distance_matrix(self):
        n = 1200
        rng = np.random.default_rng(8)
        labels = rng.permutation(np.arange(n) % 16)
        vectors = unit_norm_rows(unit_rows(rng, 16, 32)[labels] + 0.5 * rng.standard_normal((n, 32)))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            evaluate(vectors, EvalPlan(labels))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * n * n * 8  # no N x N array: the inter-class values are most of it


class TestOverlappedEvaluation:
    """`evaluate` runs k-means on a worker thread on large batches; the row may not tell."""

    def test_matches_the_serial_report_bit_for_bit(self, overlap, thread_starts):
        batches = reference_batches()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # singleton-only or one-class batches
            for vectors, labels in batches:
                plan = EvalPlan(labels)
                overlap(False)
                serial = evaluate(vectors, plan, kmeans_seed=5)
                overlap(True)
                overlapped = evaluate(vectors, plan, kmeans_seed=5)
                assert overlapped.tobytes() == serial.tobytes()
        assert len(thread_starts) == len(batches)

    @pytest.mark.parametrize(
        "extra_rows, cpus, on_worker",
        [(-1, {0, 1}, False), (0, {0}, False), (0, {0, 1}, True)],
        ids=["below-the-gate", "one-cpu", "gate-and-two-cpus"],
    )
    def test_worker_only_from_the_gate_with_two_cpus(
        self, monkeypatch, thread_starts, extra_rows, cpus, on_worker
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        kmeans_threads = []

        def recording_kmeans(*args, **kwargs):
            kmeans_threads.append(threading.current_thread())
            return kmeans(*args, **kwargs)

        monkeypatch.setattr(metrics, "kmeans", recording_kmeans)
        vectors, labels = random_batch(np.random.default_rng(7), metrics.OVERLAP_MIN_ROWS + extra_rows)
        evaluate(vectors, EvalPlan(labels))
        assert len(thread_starts) == int(on_worker)
        assert len(kmeans_threads) == 1
        assert (kmeans_threads[0] is not threading.main_thread()) == on_worker

    def test_worker_error_surfaces_with_its_type_and_message(self, monkeypatch, overlap, thread_starts):
        def failing_kmeans(*args, **kwargs):
            raise ArithmeticError("k-means diverged on the worker")

        monkeypatch.setattr(metrics, "kmeans", failing_kmeans)
        overlap(True)
        vectors, labels = random_batch(np.random.default_rng(3), 50)
        with pytest.raises(ArithmeticError, match="^k-means diverged on the worker$"):
            evaluate(vectors, EvalPlan(labels))
        assert len(thread_starts) == 1

    def test_inputs_are_checked_before_any_thread_starts(self, overlap, thread_starts):
        overlap(True)
        vectors, labels = random_batch(np.random.default_rng(3), 50)
        with pytest.raises(ValueError, match="51 labels for 50 rows"):
            evaluate(vectors, EvalPlan(np.append(labels, 0)))
        assert thread_starts == []

    def test_no_k_means_outlives_a_raising_evaluation(self, monkeypatch, overlap):
        finished = []

        def slow_kmeans(*args, **kwargs):
            time.sleep(0.2)
            finished.append(kmeans(*args, **kwargs))
            return finished[-1]

        def failing_distances(*args, **kwargs):
            raise RuntimeError("distances failed")

        monkeypatch.setattr(metrics, "kmeans", slow_kmeans)
        monkeypatch.setattr(metrics, "pairwise_distances", failing_distances)
        overlap(True)
        alive = threading.active_count()
        vectors, labels = random_batch(np.random.default_rng(3), 50)
        with pytest.raises(RuntimeError, match="distances failed"):
            evaluate(vectors, EvalPlan(labels))
        assert len(finished) == 1
        assert threading.active_count() == alive

    def test_worker_calls_no_name_the_benchmark_traces(self, monkeypatch, overlap, thread_starts):
        """perfbench's tracer keeps one span stack, so a span opened on the worker would corrupt it."""
        callers = []
        for owner, attr, _, _ in benchmark_tracer_targets():
            if owner is metrics:
                def recording(*args, _original=getattr(metrics, attr), **kwargs):
                    callers.append(threading.current_thread())
                    return _original(*args, **kwargs)

                monkeypatch.setattr(metrics, attr, recording)
        overlap(True)
        vectors, labels = random_batch(np.random.default_rng(3), 50)
        evaluate(vectors, EvalPlan(labels))
        assert len(thread_starts) == 1
        assert len(callers) == 1  # the one block of distances; recall and class distances scan it
        assert all(caller is threading.main_thread() for caller in callers)
