import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab.geometry import inverse_density_weights, log_analytic_density, pairwise_distances

from conftest import unit_rows


class TestPairwiseDistances:
    def test_matches_bruteforce(self, rng):
        # independent route: direct norm of differences per pair
        for _ in range(20):
            n, d = int(rng.integers(2, 24)), int(rng.integers(2, 16))
            v = unit_rows(rng, n, d)
            dist = pairwise_distances(v)
            brute = np.array([[np.linalg.norm(v[i] - v[j]) for j in range(n)] for i in range(n)])
            assert np.max(np.abs(dist - brute)) < 1e-9

    def test_symmetric_zero_diagonal_in_range(self, rng):
        # exact symmetry comes from numpy's v @ v.T alone (no transposed add), so
        # check it at evaluation size and for every memory layout a batch can hold
        for n in (30, 1200):
            v = unit_rows(rng, n, 12)
            wide = np.zeros((n, 24))
            wide[:, ::2] = v
            for rows in (v, np.asfortranarray(v), wide[:, ::2]):
                dist = pairwise_distances(rows)
                assert np.array_equal(dist, dist.T)
                assert np.all(np.diag(dist) == 0.0)
                assert dist.min() >= 0.0 and dist.max() <= 2.0

    def test_antipodal_pair(self):
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        dist = pairwise_distances(v)
        assert dist[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_rotation_invariance(self, rng):
        v = unit_rows(rng, 16, 8)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        d1 = pairwise_distances(v)
        d2 = pairwise_distances(v @ q.T)
        assert np.max(np.abs(d1 - d2)) < 1e-9


class TestAnalyticDensity:
    def test_log_matches_linear_form_small_dim(self):
        # independent route: the power formula evaluated directly
        d = np.linspace(0.05, 1.95, 50)
        for dim in (3, 4, 8, 16, 30):
            direct = d ** (dim - 2) * (1.0 - 0.25 * d**2) ** (0.5 * (dim - 3))
            assert np.allclose(np.exp(log_analytic_density(d, dim)), direct, rtol=1e-11)

    def test_dim3_is_linear_in_d(self):
        d = np.array([0.2, 0.4, 1.0, 1.6])
        q = np.exp(log_analytic_density(d, 3))
        assert np.allclose(q / q[0], d / d[0], rtol=1e-12)

    def test_large_dim_stays_finite(self):
        d = np.linspace(1e-6, 2.0 - 1e-6, 100)
        out = log_analytic_density(d, 512)
        assert np.all(np.isfinite(out))

    def test_peak_near_sqrt2_for_large_dim(self):
        d = np.linspace(0.01, 1.99, 2000)
        peak = d[np.argmax(log_analytic_density(d, 128))]
        assert abs(peak - np.sqrt(2.0)) < 0.02

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="dim >= 3"):
            log_analytic_density(np.array([1.0]), 2)
        with pytest.raises(ValueError, match=r"inside \(0, 2\)"):
            log_analytic_density(np.array([0.0]), 8)
        with pytest.raises(ValueError, match=r"inside \(0, 2\)"):
            log_analytic_density(np.array([2.0]), 8)


class TestInverseDensityWeights:
    def test_normalized_and_nonnegative(self, rng):
        d = rng.uniform(0.2, 1.8, size=64)
        w = inverse_density_weights(d, 128)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0.0)

    def test_unclipped_ratio_matches_density(self, rng):
        # with a huge cap the weights are exactly proportional to 1/q
        d = rng.uniform(0.5, 1.5, size=10)
        w = inverse_density_weights(d, 6, clip_lambda=1e30)
        q = np.exp(log_analytic_density(d, 6))
        ratio = w * q
        assert np.allclose(ratio, ratio[0], rtol=1e-9)

    def test_tiny_clip_gives_uniform(self, rng):
        d = rng.uniform(0.5, 1.5, size=12)
        w = inverse_density_weights(d, 6, clip_lambda=1e-30)
        assert np.allclose(w, 1.0 / 12, rtol=1e-12)

    def test_total_on_closed_interval(self):
        # endpoints are legal inputs even though the density diverges there
        w = inverse_density_weights(np.array([0.0, 1.0, 2.0]), 32)
        assert np.isfinite(w).all() and w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_and_bad_clip(self):
        with pytest.raises(ValueError, match="at least one distance"):
            inverse_density_weights(np.array([]), 8)
        with pytest.raises(ValueError, match="positive"):
            inverse_density_weights(np.array([1.0]), 8, clip_lambda=0.0)

    def test_flattens_sphere_distances(self, rng):
        # drawing by these weights should undo the sphere's distance bias:
        # reweighted histogram of distances approaches uniform where unclipped
        dim = 64
        v = unit_rows(rng, 400, dim)
        d = pairwise_distances(v)
        iu = np.triu_indices(400, k=1)
        dvals = d[iu]
        w = inverse_density_weights(dvals, dim, clip_lambda=1e300)
        lo, hi = 1.2, 1.6  # well-populated, far from clip effects
        bins = np.linspace(lo, hi, 9)
        mass = np.array(
            [w[(dvals >= a) & (dvals < b)].sum() for a, b in zip(bins[:-1], bins[1:])]
        )
        sel = mass.sum()
        assert sel > 0
        rel = mass / sel
        assert np.max(np.abs(rel - 1.0 / 8)) < 0.03


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 20),
    dim=st.integers(2, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_pairwise_distance_properties(n, dim, seed):
    rng = np.random.default_rng(seed)
    dist = pairwise_distances(unit_rows(rng, n, dim))
    assert dist.shape == (n, n)
    assert np.array_equal(dist, dist.T)
    assert np.all(dist >= 0.0) and np.all(dist <= 2.0)
    assert np.all(np.diag(dist) == 0.0)


def reference_pairwise_distances(v: np.ndarray) -> np.ndarray:
    """pairwise_distances in expression form (a new array per step), kept as the bit-level reference."""
    d2 = 2.0 - 2.0 * (v @ v.T)
    np.clip(d2, 0.0, 4.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def row_layouts(v: np.ndarray) -> dict:
    """The same rows as a C-order array, an F-order array and a strided view."""
    padded = np.zeros((2 * v.shape[0], v.shape[1] + 3))
    padded[::2, 1 : 1 + v.shape[1]] = v
    return {"C": np.ascontiguousarray(v), "F": np.asfortranarray(v), "strided": padded[::2, 1:-2]}


@pytest.mark.parametrize("n", [1, 2, 17, 240, 1200])
def test_pairwise_distances_match_expression_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    v = unit_rows(rng, n, 32)
    v[n // 2 :: 7] = v[0]  # repeated rows give exact zero distances off the diagonal
    for layout, rows in row_layouts(v).items():
        got = pairwise_distances(rows)
        assert got.tobytes() == reference_pairwise_distances(rows).tobytes(), layout


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(3, 256), seed=st.integers(0, 2**31 - 1))
def test_density_log_finite_everywhere(dim, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(1e-6, 2.0 - 1e-6, size=32)
    assert np.all(np.isfinite(log_analytic_density(d, dim)))
    w = inverse_density_weights(d, dim)
    assert np.isfinite(w).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
