import math
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
    EvalReport,
    RunningTracks,
    class_distance_stats,
    clustering_nmi,
    eval_score,
    evaluate,
    kmeans,
    nmi,
    recall_at_k,
    update_tracks,
)

from conftest import random_labels, unit_rows


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


class TestEvalPlan:
    def test_groups_and_masks(self):
        labels = np.array([5, 2, 5, 9, 2, 5, 7])
        plan = EvalPlan(labels)
        assert [g.tolist() for g in plan.groups] == [[1, 4], [0, 2, 5], [6], [3]]
        upper = ~np.tri(labels.size, dtype=bool)
        same = labels[:, None] == labels[None, :]
        assert np.array_equal(plan.intra, upper & same)
        assert np.array_equal(plan.inter, upper & ~same)

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
        empty_steps = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            distinct = rng.standard_normal((int(rng.integers(3, 7)), 2))
            x = np.repeat(distinct, rng.integers(1, 15, size=distinct.shape[0]), axis=0)
            k = min(int(rng.integers(2, distinct.shape[0] + 3)), x.shape[0])
            empties = []
            want = reference_kmeans(x, k, np.random.default_rng(seed), empties=empties)
            empty_steps += sum(empties)
            assert kmeans(x, k, np.random.default_rng(seed)).tobytes() == want.tobytes()
        assert empty_steps > 0

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


class TestRunningTracks:
    def test_averages_hand_example(self):
        tracks = RunningTracks(lengths=(2, 4), history=3, n_metrics=1)
        for v in (1.0, 2.0, 3.0, 4.0):
            tracks.append(np.array([v]))
        avg = tracks.averages()
        assert avg.shape == (1, 2)
        assert avg[0, 0] == pytest.approx(3.5)   # mean of last 2
        assert avg[0, 1] == pytest.approx(2.5)   # mean of last 4

    def test_alternating_sequence_averages_to_half(self):
        tracks = RunningTracks(lengths=(2, 8, 16, 32), history=20, n_metrics=1)
        for i in range(32):
            tracks.append(np.array([float(i % 2)]))
        assert np.allclose(tracks.averages(), 0.5)

    def test_short_buffer_uses_available(self):
        tracks = RunningTracks(lengths=(8,), history=4, n_metrics=1)
        tracks.append(np.array([2.0])).append(np.array([4.0]))
        assert tracks.averages()[0, 0] == pytest.approx(3.0)

    def test_history_zero_padded_oldest_first(self):
        tracks = RunningTracks(lengths=(2,), history=5, n_metrics=2)
        tracks.append(np.array([1.0, 10.0])).append(np.array([2.0, 20.0]))
        mat = tracks.history_matrix()
        assert mat.shape == (5, 2)
        assert np.array_equal(mat[:3], np.zeros((3, 2)))
        assert np.array_equal(mat[3], [1.0, 10.0])
        assert np.array_equal(mat[4], [2.0, 20.0])

    def test_capacity_covers_longest_consumer(self):
        tracks = RunningTracks(lengths=(2,), history=2, n_metrics=1)
        for v in (1.0, 2.0, 3.0):
            tracks.append(np.array([v]))
        assert len(tracks) == 2
        assert tracks.averages()[0, 0] == pytest.approx(2.5)
        assert np.array_equal(tracks.history_matrix().ravel(), [2.0, 3.0])

    def test_validation(self):
        tracks = RunningTracks(n_metrics=2)
        with pytest.raises(ValueError, match="expected 2 metric values"):
            tracks.append(np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            tracks.append(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="no snapshots"):
            RunningTracks().averages()
        with pytest.raises(ValueError, match=">= 1"):
            RunningTracks(lengths=(0,))

    def test_update_tracks_appends_report_vector(self):
        report = EvalReport(recall_at={1: 0.5, 2: 0.6, 4: 0.7}, nmi=0.4, intra=0.3, inter=1.1)
        tracks = update_tracks(RunningTracks(), report)
        assert np.array_equal(tracks.history_matrix()[-1], report.as_vector())


class TestEvalReport:
    def test_row_and_vector_ordering(self):
        report = EvalReport(recall_at={4: 0.9, 1: 0.5, 2: 0.7}, nmi=0.4, intra=0.2, inter=1.0)
        row = report.as_row()
        assert list(row) == list(METRIC_FIELDS)
        assert np.array_equal(report.as_vector(), [0.5, 0.7, 0.9, 0.4, 0.2, 1.0])

    def test_evaluate_bundle_on_blobs(self, rng):
        vectors, labels = blob_batch(rng, n_per_class=10)
        report = evaluate(vectors, EvalPlan(labels), kmeans_seed=5)
        assert report.recall_at[1] == 1.0
        assert report.nmi == pytest.approx(1.0, abs=1e-9)
        assert report.inter > report.intra
        assert eval_score(report) == pytest.approx(report.recall_at[1] + report.nmi)

    def test_evaluate_shares_one_distance_matrix(self, rng, monkeypatch):
        vectors, labels = tie_heavy_batch(rng)
        plan = EvalPlan(labels)
        handed_out = []

        def counted(v):
            handed_out.append(pairwise_distances(v))
            return handed_out[-1]

        monkeypatch.setattr(metrics, "pairwise_distances", counted)
        report = evaluate(vectors, plan, kmeans_seed=5)
        monkeypatch.undo()
        assert len(handed_out) == 1
        dist = pairwise_distances(vectors)
        assert np.array_equal(handed_out[0], dist)
        assert report.recall_at == recall_at_k(dist, plan)
        assert report.nmi == clustering_nmi(vectors, plan, seed=5)
        assert (report.intra, report.inter) == class_distance_stats(dist, plan)
