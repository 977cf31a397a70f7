import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tripletlab.geometry import inverse_density_weights, pairwise_distances
from tripletlab.samplers import (
    SAMPLER_KINDS,
    SamplingPMF,
    adaptive_weights,
    apply_action,
    curriculum_pmf,
    distweighted_weights,
    draw_rows,
    init_pmf,
    require_valid_kind,
    sample_negative_adaptive,
    sample_negative_distweighted,
    sample_negative_random,
    sample_negative_semihard,
    triplet_masks,
)


class TestSamplingPMF:
    def test_valid_construction(self):
        pmf = SamplingPMF(0.1, 1.4, np.full(30, 1.0 / 30))
        assert pmf.k == 30
        assert pmf.edges[0] == 0.1 and pmf.edges[-1] == 1.4
        assert np.allclose(np.diff(pmf.edges), (1.4 - 0.1) / 30)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="lambda_min < lambda_max"):
            SamplingPMF(1.4, 0.1, np.full(4, 0.25))
        with pytest.raises(ValueError, match="lambda_min < lambda_max"):
            SamplingPMF(0.0, 2.5, np.full(4, 0.25))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SamplingPMF(0.1, 1.4, np.full(4, 0.3))
        with pytest.raises(ValueError, match="sum to 1"):
            SamplingPMF(0.1, 1.4, np.array([np.inf, 0.0, 0.0]))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SamplingPMF(0.1, 1.4, np.array([0.6, 0.6, -0.2]))
        with pytest.raises(ValueError, match="nonnegative"):
            SamplingPMF(0.1, 1.4, np.array([np.nan, 0.5, 0.5]))

    def test_bin_of_edges(self):
        pmf = SamplingPMF(0.0, 1.0, np.full(4, 0.25))
        d = np.array([-0.01, 0.0, 0.24, 0.25, 0.999, 1.0, 1.01])
        assert pmf.bin_of(d).tolist() == [-1, 0, 0, 1, 3, 3, -1]

    def test_snapshot_shape(self):
        pmf = init_pmf(0.1, 1.4, 30)
        snap = pmf.snapshot(7)
        assert snap["episode"] == 7
        assert len(snap["edges"]) == 31 and len(snap["p"]) == 30


class TestInitPMF:
    def test_uniform(self):
        pmf = init_pmf(0.0, 1.0, 4, "uniform")
        assert np.array_equal(pmf.p, np.full(4, 0.25))

    def test_uniform_emphasis_concentrates(self):
        pmf = init_pmf(0.1, 1.4, 30, "uniform:0.3:0.7")
        inside = (pmf.edges[1:] > 0.3) & (pmf.edges[:-1] < 0.7)
        assert pmf.p.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf.p[inside].sum() > 0.8
        assert np.all(pmf.p[~inside] > 0.0)  # small epsilon mass, not zero

    def test_gaussian_peak_contains_mean(self):
        pmf = init_pmf(0.1, 1.4, 30, "gaussian:0.5:0.05")
        peak = int(np.argmax(pmf.p))
        assert pmf.edges[peak] <= 0.5 <= pmf.edges[peak + 1]
        # unimodal: nonincreasing away from the peak
        assert np.all(np.diff(pmf.p[: peak + 1]) >= 0)
        assert np.all(np.diff(pmf.p[peak:]) <= 0)

    def test_errors(self):
        with pytest.raises(ValueError, match="pmf.k must be >= 2"):
            init_pmf(0.1, 1.4, 1)
        with pytest.raises(ValueError, match="unknown pmf init"):
            init_pmf(0.1, 1.4, 8, "triangular")
        with pytest.raises(ValueError, match="a < b"):
            init_pmf(0.1, 1.4, 8, "uniform:0.9:0.3")
        with pytest.raises(ValueError, match="sigma"):
            init_pmf(0.1, 1.4, 8, "gaussian:0.5:0")


class TestApplyAction:
    def test_worked_example(self):
        pmf = SamplingPMF(0.1, 1.4, np.full(3, 1.0 / 3.0))
        out = apply_action(pmf, np.array([1.25, 1.0, 0.8]))
        assert np.max(np.abs(out.p - np.array([0.4098, 0.3279, 0.2623]))) < 1e-4
        assert np.allclose(out.p, np.array([1.25, 1.0, 0.8]) / 3.05, atol=1e-12)

    def test_identity_returns_same_object(self):
        pmf = init_pmf(0.1, 1.4, 30)
        assert apply_action(pmf, np.ones(30)) is pmf

    def test_zero_bin_stays_zero(self):
        pmf = SamplingPMF(0.1, 1.4, np.array([0.0, 0.5, 0.5]))
        out = apply_action(pmf, np.array([1.25, 0.8, 0.8]))
        assert out.p[0] == 0.0

    def test_thousand_steps_stay_normalized(self):
        rng = np.random.default_rng(99)
        pmf = init_pmf(0.1, 1.4, 30)
        for _ in range(1000):
            mult = rng.choice([0.8, 1.0, 1.25], size=30)
            pmf = apply_action(pmf, mult)
            assert abs(pmf.p.sum() - 1.0) <= 1e-9
            assert np.all(pmf.p >= 0.0)

    def test_shape_and_sign_errors(self):
        pmf = init_pmf(0.1, 1.4, 4)
        with pytest.raises(ValueError, match="expected 4 multipliers"):
            apply_action(pmf, np.ones(3))
        with pytest.raises(ValueError, match="positive"):
            apply_action(pmf, np.array([1.0, 1.0, 0.0, 1.0]))


def one_row(cand, d_an, width=None):
    """(mask, dist) of a single anchor row whose candidates are the given columns."""
    cand = np.asarray(cand, dtype=np.int64)
    width = int(cand.max()) + 1 if width is None else width
    mask = np.zeros((1, width), dtype=bool)
    dist = np.zeros((1, width))
    mask[0, cand] = True
    dist[0, cand] = d_an
    return mask, dist


def repeated_rows(d_an, n):
    """n identical anchor rows, every column a candidate at the given distances."""
    d_an = np.asarray(d_an, dtype=np.float64)
    return np.ones((n, d_an.size), dtype=bool), np.tile(d_an, (n, 1))


def sphere_batch(seed, n_classes=4, per_class=4, dim=8):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_classes * per_class, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    labels = np.repeat(np.arange(n_classes), per_class)
    return labels, pairwise_distances(v)


class TestSemihard:
    def test_spec_example(self):
        mask, dist = one_row([3, 5, 9], [0.4, 0.6, 0.9])
        assert sample_negative_semihard(np.array([0.5]), mask, dist).tolist() == [5]

    def test_fallback_to_farthest(self):
        mask, dist = one_row([3, 5, 9], [0.4, 0.2, 0.3])
        assert sample_negative_semihard(np.array([0.5]), mask, dist).tolist() == [3]

    def test_tie_break_lowest_index(self):
        mask, dist = one_row([7, 2, 5], [0.8, 0.8, 0.8])
        assert sample_negative_semihard(np.array([0.5]), mask, dist).tolist() == [2]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(42)
        rows = []
        for _ in range(200):
            m = int(rng.integers(1, 20))
            cand = rng.permutation(100)[:m]
            d_an = rng.uniform(0.0, 2.0, size=m)
            d_ap = float(rng.uniform(0.0, 2.0))
            rows.append((cand, d_an, d_ap))
        mask = np.zeros((200, 100), dtype=bool)
        dist = np.zeros((200, 100))
        for i, (cand, d_an, _) in enumerate(rows):
            mask[i, cand] = True
            dist[i, cand] = d_an
        got = sample_negative_semihard(np.array([r[2] for r in rows]), mask, dist)
        for i, (cand, d_an, d_ap) in enumerate(rows):
            # oracle: exhaustive scan with explicit tie-breaking
            beyond = [(d, c) for c, d in zip(cand, d_an) if d > d_ap]
            if beyond:
                best = min(beyond, key=lambda t: (t[0], t[1]))
            else:
                best = max(zip(d_an, cand), key=lambda t: (t[0], -t[1]))
            assert got[i] == best[1]

    def test_empty_candidates(self):
        with pytest.raises(ValueError, match="no negative candidates"):
            sample_negative_semihard(
                np.array([0.5]), np.zeros((1, 3), dtype=bool), np.zeros((1, 3))
            )


class TestAdaptive:
    def test_single_in_range_candidate(self, rng):
        pmf = init_pmf(0.1, 1.4, 10)
        mask, dist = one_row([42], [0.7])
        idx, fallbacks = sample_negative_adaptive(pmf, mask, dist, rng)
        assert idx.tolist() == [42] and fallbacks == 0

    def test_point_mass_restricts_to_bin(self, rng):
        p = np.zeros(10)
        p[3] = 1.0
        pmf = SamplingPMF(0.0, 1.0, p)
        d_an = np.linspace(0.01, 0.99, 50)
        idx, fallbacks = sample_negative_adaptive(pmf, *repeated_rows(d_an, 100), rng)
        assert fallbacks == 0
        assert np.all((0.3 <= d_an[idx]) & (d_an[idx] < 0.4))

    def test_never_out_of_range_when_in_range_exists(self, rng):
        pmf = init_pmf(0.5, 1.0, 5)
        d_an = np.array([0.1, 0.3, 0.6, 0.8, 1.3, 1.9])
        idx, fallbacks = sample_negative_adaptive(pmf, *repeated_rows(d_an, 200), rng)
        assert fallbacks == 0
        assert set(idx.tolist()) <= {2, 3}

    def test_fallback_when_nothing_in_range(self, rng):
        pmf = init_pmf(0.5, 1.0, 5)
        mask, dist = one_row([4, 9], [0.1, 1.9])
        idx, fallbacks = sample_negative_adaptive(
            pmf, np.repeat(mask, 100, axis=0), np.repeat(dist, 100, axis=0), rng
        )
        assert fallbacks == 100  # one per anchor row
        assert set(idx.tolist()) == {4, 9}

    def test_frequencies_match_renormalized_pmf(self):
        # some bins empty for this anchor: law = pmf renormalized over
        # occupied bins, uniform within each bin
        rng = np.random.default_rng(7)
        pmf = init_pmf(0.0, 1.0, 5, "gaussian:0.4:0.2")
        d_an = np.array([0.05, 0.15, 0.25, 0.45, 0.55, 0.65, 0.95])
        bins = pmf.bin_of(d_an)
        occupied = np.unique(bins)
        mass = pmf.p[occupied] / pmf.p[occupied].sum()
        expected = np.zeros(d_an.size)
        for b, m in zip(occupied, mass):
            members = np.where(bins == b)[0]
            expected[members] = m / members.size
        n = 100_000
        idx, _ = sample_negative_adaptive(pmf, *repeated_rows(d_an, n), rng)
        counts = np.bincount(idx, minlength=d_an.size)
        result = stats.chisquare(counts, expected * n)
        assert result.pvalue > 0.01

    def test_empty_candidates(self, rng):
        with pytest.raises(ValueError, match="no negative candidates"):
            sample_negative_adaptive(
                init_pmf(0.1, 1.4, 5), np.zeros((1, 3), dtype=bool), np.zeros((1, 3)), rng
            )


class TestDistweighted:
    def test_single_candidate(self, rng):
        mask, dist = one_row([13], [0.9])
        assert sample_negative_distweighted(mask, dist, 32, rng).tolist() == [13]

    def test_equal_distances_symmetric(self):
        rng = np.random.default_rng(11)
        mask, dist = one_row([4, 7], [0.8, 0.8])
        idx = sample_negative_distweighted(
            np.repeat(mask, 10_000, axis=0), np.repeat(dist, 10_000, axis=0), 32, rng
        )
        assert abs(np.mean(idx == 4) - 0.5) < 0.02

    def test_frequencies_match_weight_oracle(self):
        rng = np.random.default_rng(5)
        d_an = np.array([0.4, 0.7, 1.0, 1.3, 1.6])
        expected = inverse_density_weights(d_an, 16)
        n = 50_000
        idx = sample_negative_distweighted(*repeated_rows(d_an, n), 16, rng)
        counts = np.bincount(idx, minlength=5)
        result = stats.chisquare(counts, expected * n)
        assert result.pvalue > 0.01

    def test_empty_candidates(self, rng):
        with pytest.raises(ValueError, match="no negative candidates"):
            sample_negative_distweighted(np.zeros((1, 3), dtype=bool), np.zeros((1, 3)), 32, rng)


class TestRandomSampler:
    def test_uniform_over_candidates(self):
        rng = np.random.default_rng(3)
        cand = np.array([2, 5, 11])
        mask, dist = one_row(cand, [0.5, 0.5, 0.5])
        idx = sample_negative_random(np.repeat(mask, 30_000, axis=0), rng)
        for c in cand:
            assert abs(np.mean(idx == c) - 1 / 3) < 0.02

    def test_empty_candidates(self, rng):
        with pytest.raises(ValueError, match="no negative candidates"):
            sample_negative_random(np.zeros((1, 3), dtype=bool), rng)


class TestBatchedRowLaws:
    """Each row of a batched weight matrix against the per-anchor law."""

    @pytest.mark.parametrize("clip", [None, 5.0])
    def test_distweighted_rows_match_inverse_density_weights(self, clip):
        labels, dist = sphere_batch(0)
        _, cand = triplet_masks(labels)
        weights = distweighted_weights(cand, dist, 8, clip)
        capped_rows = 0
        for i in range(labels.size):
            cols = np.flatnonzero(cand[i])
            want = inverse_density_weights(dist[i, cols], 8, clip)
            got = weights[i] / weights[i].sum()
            assert np.all(got[~cand[i]] == 0.0)
            assert np.max(np.abs(got[cols] - want)) <= 1e-12
            capped_rows += np.count_nonzero(want == want.max()) > 1
        # the cap binds somewhere, so a cap from the wrong median or clip would show
        assert capped_rows > 0

    def test_pads_rows_match_renormalized_pmf(self):
        pmf = SamplingPMF(0.2, 1.0, np.array([0.0, 0.4, 0.0, 0.6]))
        rng = np.random.default_rng(8)
        dist = rng.uniform(0.0, 1.3, size=(6, 10))
        mask = rng.random((6, 10)) < 0.7
        mask[:, 0] = True
        dist[0] = 0.3  # only the zero-mass bin 0 is occupied
        dist[0, 1] = 0.7  # ... and the zero-mass bin 2
        dist[1] = 1.2  # nothing in range
        weights, fallback = adaptive_weights(pmf, mask, dist)
        assert fallback.tolist() == [False, True, False, False, False, False]
        for i in range(6):
            cols = np.flatnonzero(mask[i])
            bins = pmf.bin_of(dist[i, cols])
            occupied = np.unique(bins[bins >= 0])
            want = np.zeros(cols.size)
            if occupied.size == 0:
                want[:] = 1.0 / cols.size
            else:
                mass = pmf.p[occupied]
                if mass.sum() > 0:
                    mass = mass / mass.sum()
                else:  # all occupied bins carry zero probability: uniform over them
                    mass = np.full(occupied.size, 1.0 / occupied.size)
                for b, m in zip(occupied, mass):
                    want[bins == b] = m / np.count_nonzero(bins == b)
            got = weights[i] / weights[i].sum()
            assert np.all(got[~mask[i]] == 0.0)
            assert np.max(np.abs(got[cols] - want)) <= 1e-12

    def test_self_reg_makes_same_class_columns_candidates(self):
        labels, dist = sphere_batch(1)
        same, cand = triplet_masks(labels, self_reg=True)
        assert np.array_equal(cand, ~np.eye(labels.size, dtype=bool))
        assert np.all(cand[same])
        weights, _ = adaptive_weights(init_pmf(0.0, 2.0, 8), cand, dist)
        assert np.all(weights[same] > 0.0)
        _, plain = triplet_masks(labels)
        assert not np.any(plain[same])


def test_kind_validation_lists_all_kinds():
    with pytest.raises(ValueError) as exc:
        require_valid_kind("hardest")
    for kind in SAMPLER_KINDS:
        assert kind in str(exc.value)


class AlmostOne:
    """Generator stand-in whose uniforms are the largest double below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
    zero_tail=st.integers(0, 11),
    scale=st.sampled_from([1.0, 0.37, 1e-310, 5e-324]),
)
def test_draw_rows_never_returns_zero_weight_column(rows, cols, seed, zero_tail, scale):
    # small integer multiples of scale; subnormal scales make u * total round up to total
    rng = np.random.default_rng(seed)
    live = cols - min(zero_tail, cols - 1)
    weights = rng.integers(0, 4, size=(rows, cols)).astype(np.float64)
    weights[:, live:] = 0.0  # trailing zero-weight columns
    weights[np.arange(rows), rng.integers(0, live, size=rows)] += 1.0
    weights *= scale
    for draw in (rng, AlmostOne()):
        idx = draw_rows(weights, draw)
        assert np.all(weights[np.arange(rows), idx] > 0.0)
    empty = weights.copy()
    empty[rng.integers(rows)] = 0.0
    with pytest.raises(ValueError, match="no negative candidates"):
        draw_rows(empty, rng)


def test_draw_rows_rounding_at_the_top_of_a_row():
    tiny = 5e-324  # smallest subnormal: (1 - 2**-53) * 3 * tiny rounds up to 3 * tiny
    weights = np.array([[0.0, 2 * tiny, tiny, 0.0, 0.0]])
    total = np.cumsum(weights)[-1]
    assert np.nextafter(1.0, 0.0) * total == total
    assert draw_rows(weights, AlmostOne()).tolist() == [2]


@settings(max_examples=60, deadline=None)
@given(
    n_classes=st.integers(2, 6),
    per_class=st.integers(2, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_drawn_positives_are_same_class_non_anchors(n_classes, per_class, seed):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(n_classes), per_class))
    same, _ = triplet_masks(labels)
    pos = draw_rows(same, rng)
    assert np.all(labels[pos] == labels)
    assert np.all(pos != np.arange(labels.size))


class TestCurriculum:
    def test_linear_boundaries(self):
        start = curriculum_pmf(0.0, "linear", 0.1, 1.4, 30)
        end = curriculum_pmf(1.0, "linear", 0.1, 1.4, 30)
        centers = start.centers
        # at t=0 the window sits at the top of the interval, at t=1 at the bottom
        assert centers[start.p > 0].min() > centers[end.p > 0].max()
        assert end.edges[np.flatnonzero(end.p > 0)[0]] == pytest.approx(0.1)
        assert start.edges[np.flatnonzero(start.p > 0)[-1] + 1] == pytest.approx(1.4)

    def test_nonlinear_starts_as_static_profile(self):
        pmf = curriculum_pmf(0.0, "nonlinear", 0.1, 1.4, 30, dim=32)
        expected = inverse_density_weights(pmf.centers, 32)
        assert np.allclose(pmf.p, expected, atol=1e-12)

    def test_nonlinear_shifts_toward_hard(self):
        means = [
            float(np.sum(curriculum_pmf(t, "nonlinear", 0.1, 1.4, 30, dim=32).centers
                         * curriculum_pmf(t, "nonlinear", 0.1, 1.4, 30, dim=32).p))
            for t in (0.0, 0.5, 1.0)
        ]
        assert means[0] > means[1] > means[2]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown curriculum kind"):
            curriculum_pmf(0.5, "cosine", 0.1, 1.4, 10)

    def test_progress_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            curriculum_pmf(1.5, "linear", 0.1, 1.4, 10)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 40),
    seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.1, 10.0),
)
def test_apply_action_scale_invariance(k, seed, scale):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k))
    pmf = SamplingPMF(0.1, 1.4, p / p.sum())
    mult = rng.choice([0.8, 1.0, 1.25], size=k)
    a = apply_action(pmf, mult)
    b = apply_action(pmf, mult * scale)
    assert np.allclose(a.p, b.p, atol=1e-12)
    assert abs(a.p.sum() - 1.0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(t=st.floats(0.0, 1.0), kind=st.sampled_from(["linear", "nonlinear"]))
def test_curriculum_always_valid(t, kind):
    pmf = curriculum_pmf(t, kind, 0.1, 1.4, 30, dim=32)
    assert abs(pmf.p.sum() - 1.0) <= 1e-9
    assert np.all(pmf.p >= 0.0)
