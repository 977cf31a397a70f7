import json

import numpy as np
import pytest

from tripletlab.metrics import METRIC_FIELDS
from tripletlab.model import Adam, layer_views
from tripletlab.rl import (
    RL_ALGORITHMS,
    PolicyNetwork,
    PolicyUpdater,
    Transition,
    build_state,
    compute_reward,
    log_prob_and_score,
    multipliers_from_trits,
    require_valid_algorithm,
    sample_action,
    state_dim,
    state_metric_fields,
)

from conftest import log_prob_grad, value_grad


def make_policy(seed=0, state_dim_=7, k_bins=3, has_value=False, hidden=12):
    return PolicyNetwork(state_dim_, k_bins, has_value, np.random.default_rng(seed), hidden=hidden)


def safe_state(policy, seed=0, margin=1e-3, tries=60):
    """State whose hidden pre-activations sit away from the ReLU kinks."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        s = rng.standard_normal(policy.state_dim)
        cache = policy.forward(s)
        if min(np.abs(z).min() for z in cache.pre_acts) > margin:
            return s
    raise AssertionError("could not find a kink-free probe state")


def fd_grad(f, x0, h=1e-5):
    g = np.zeros_like(x0)
    for i in range(x0.size):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-7)


def reference_policy_forward(policy, state, params=None):
    """The hand-unrolled three-layer forward the policy had before it ran on FlatParams' layer loop.

    Returns (z1, a1, z2, a2, logits, value) for a 1-D state.
    """
    flat = policy.params if params is None else params
    (w1, w2, w3), (b1, b2, b3) = layer_views(flat, policy.dims)
    z1 = state @ w1 + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ w2 + b2
    a2 = np.maximum(z2, 0.0)
    out = a2 @ w3 + b3
    logits = out[: 3 * policy.k_bins].reshape(policy.k_bins, 3)
    value = float(out[-1]) if policy.has_value else None
    return z1, a1, z2, a2, logits, value


def reference_policy_backward(policy, state, d_logits, d_value=0.0):
    """The hand-unrolled backward that went with reference_policy_forward, by outer products."""
    z1, a1, z2, a2, _, _ = reference_policy_forward(policy, state)
    grad = np.empty(policy.n_params)
    (g_w1, g_w2, g_w3), (g_b1, g_b2, g_b3) = layer_views(grad, policy.dims)
    d_out = g_b3
    d_out[: 3 * policy.k_bins] = np.asarray(d_logits, dtype=np.float64).ravel()
    if policy.has_value:
        d_out[-1] = d_value
    np.outer(a2, d_out, out=g_w3)
    np.multiply(policy.weights[2] @ d_out, z2 > 0.0, out=g_b2)
    np.outer(a1, g_b2, out=g_w2)
    np.multiply(policy.weights[1] @ g_b2, z1 > 0.0, out=g_b1)
    np.outer(state, g_b1, out=g_w1)
    return grad


def metric_rows(*values) -> np.ndarray:
    """One evaluation row per value, every metric column holding that value."""
    return np.repeat(np.array(values, dtype=np.float64)[:, None], len(METRIC_FIELDS), axis=1)


def averages_and_history(rows, lengths, history):
    """build_state's running averages (metric, length) and history (row, metric), scales undone."""
    n = len(METRIC_FIELDS)
    state = build_state(rows, lengths, history, np.array([1.0]), 0.0)
    scales = np.array([1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
    avg = state[: n * len(lengths)].reshape(n, len(lengths)) / scales[:, None]
    hist = state[n * len(lengths) : n * len(lengths) + history * n].reshape(history, n) / scales
    return avg, hist


class TestStateVector:
    def test_layout_hand_example(self):
        v1 = np.array([0.1, 0.2, 0.3, 0.4, 1.0, 2.0])
        v2 = np.array([0.5, 0.6, 0.7, 0.8, 1.2, 1.6])
        pmf = np.array([0.25, 0.75])
        state = build_state(np.stack([v1, v2]), (2,), 2, pmf, progress=0.5)
        # averages first (distances halved), then raw history oldest-first,
        # then the PMF, then progress
        want = np.concatenate(
            [
                [0.3, 0.4, 0.5, 0.6, 0.55, 0.9],
                [0.1, 0.2, 0.3, 0.4, 0.5, 1.0],
                [0.5, 0.6, 0.7, 0.8, 0.6, 0.8],
                [0.25, 0.75],
                [0.5],
            ]
        )
        assert np.allclose(state, want, atol=1e-12)
        assert state.size == state_dim(2, (2,), 2)

    def test_state_dim_default_shape(self):
        # 6 metrics * 4 lengths + 20 * 6 history + K bins + progress
        assert state_dim(30, (2, 8, 16, 32), 20) == 24 + 120 + 30 + 1

    def test_recall_subset(self):
        assert state_metric_fields((1,)) == ("r1", "nmi", "intra", "inter")
        rows = np.array([[0.1, 0.2, 0.3, 0.4, 1.0, 2.0]])
        state = build_state(rows, (2,), 2, np.array([1.0]), 0.0, recall_ks=(1,))
        assert state.size == state_dim(1, (2,), 2, recall_ks=(1,))
        assert np.allclose(state[:4], [0.1, 0.4, 0.5, 1.0], atol=1e-12)

    def test_progress_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            build_state(np.zeros((1, 6)), (2, 8, 16, 32), 20, np.array([1.0]), 1.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_state(np.zeros((1, 6)), (2, 8, 16, 32), 20, np.array([np.nan]), 0.5)

    def test_averages_over_the_last_rows(self):
        avg, _ = averages_and_history(metric_rows(1.0, 2.0, 3.0, 4.0), (2, 4), 3)
        assert avg.shape == (6, 2)
        assert np.allclose(avg[:, 0], 3.5)  # mean of the last 2
        assert np.allclose(avg[:, 1], 2.5)  # mean of the last 4

    def test_alternating_rows_average_to_half(self):
        avg, _ = averages_and_history(metric_rows(*(i % 2 for i in range(32))), (2, 8, 16, 32), 20)
        assert np.allclose(avg, 0.5)

    def test_short_run_uses_the_rows_it_has(self):
        avg, _ = averages_and_history(metric_rows(2.0, 4.0), (8,), 4)
        assert np.allclose(avg, 3.0)

    def test_history_zero_padded_oldest_first(self):
        rows = np.outer([1.0, 2.0], [1.0, 10.0, 1.0, 1.0, 1.0, 1.0])
        _, hist = averages_and_history(rows, (2,), 5)
        assert hist.shape == (5, 6)
        assert np.array_equal(hist[:3], np.zeros((3, 6)))
        assert np.array_equal(hist[3], rows[0])
        assert np.array_equal(hist[4], rows[1])

    def test_rows_older_than_the_longest_consumer_are_ignored(self):
        rows = metric_rows(1.0, 2.0, 3.0)
        avg, hist = averages_and_history(rows, (2,), 2)
        assert np.allclose(avg, 2.5)
        assert np.array_equal(hist[:, 0], [2.0, 3.0])
        full = build_state(rows, (2,), 2, np.array([1.0]), 0.0)
        assert full.tobytes() == build_state(rows[1:], (2,), 2, np.array([1.0]), 0.0).tobytes()
        changed = rows.copy()
        changed[0] = np.nan
        assert build_state(changed, (2,), 2, np.array([1.0]), 0.0).tobytes() == full.tobytes()

    def test_non_finite_rows_are_refused(self):
        rows = metric_rows(1.0, 2.0)
        rows[-1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            build_state(rows, (8,), 1, np.array([1.0]), 0.5)
        rows[-1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            build_state(rows, (8,), 1, np.array([1.0]), 0.5)


class TestPolicyNetwork:
    def test_zero_params_give_uniform_heads(self):
        policy = make_policy(k_bins=4)
        policy.set_params(np.zeros(policy.n_params))
        cache = policy.forward(np.ones(policy.state_dim))
        probs = np.exp(policy.log_softmax(cache.logits))
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)

    def test_log_prob_matches_manual_softmax(self, rng):
        policy = make_policy(seed=3)
        cache = policy.forward(rng.standard_normal(policy.state_dim))
        trits = np.array([0, 2, 1])
        want = 0.0
        for k in range(3):
            row = cache.logits[k]
            want += row[trits[k]] - np.log(np.sum(np.exp(row)))
        assert log_prob_and_score(cache.logits, trits)[0] == pytest.approx(want, abs=1e-9)

    def test_log_prob_grad_matches_fd(self):
        for seed in range(4):
            policy = make_policy(seed=seed, state_dim_=5, k_bins=2, hidden=8)
            s = safe_state(policy, seed=seed + 100)
            trits = np.array([seed % 3, (seed + 1) % 3])
            _, grad = log_prob_grad(policy, s, trits)
            theta0 = policy.get_params()
            probe = make_policy(seed=seed, state_dim_=5, k_bins=2, hidden=8)

            def f(theta):
                probe.set_params(theta)
                cache = probe.forward(s)
                return log_prob_and_score(cache.logits, trits)[0]

            fd = fd_grad(f, theta0)
            assert np.max(rel_err(grad, fd)) < 1e-4

    def test_value_grad_matches_fd(self):
        policy = make_policy(seed=9, state_dim_=5, k_bins=2, has_value=True, hidden=8)
        s = safe_state(policy, seed=42)
        v, grad = value_grad(policy, s)
        probe = make_policy(seed=9, state_dim_=5, k_bins=2, has_value=True, hidden=8)

        def f(theta):
            probe.set_params(theta)
            return probe.forward(s).value

        assert v == pytest.approx(f(policy.get_params()))
        fd = fd_grad(f, policy.get_params())
        assert np.max(rel_err(grad, fd)) < 1e-4

    def test_stale_cache_rejected(self, rng):
        policy = make_policy()
        cache = policy.forward(rng.standard_normal(policy.state_dim))
        policy.set_params(policy.get_params() * 0.5)
        with pytest.raises(ValueError, match="stale cache"):
            policy.backward(cache, np.zeros((3, 3)))

    def test_value_grad_requires_head(self, rng):
        policy = make_policy(has_value=False)
        cache = policy.forward(rng.standard_normal(policy.state_dim))
        with pytest.raises(ValueError, match="no value head"):
            policy.backward(cache, np.zeros((3, 3)), d_value=1.0)

    def test_head_count(self):
        assert make_policy(k_bins=5, has_value=False).n_out == 15
        assert make_policy(k_bins=5, has_value=True).n_out == 16

    def test_checkpoint_roundtrip(self, rng):
        policy = make_policy(seed=11, has_value=True)
        clone = PolicyNetwork.from_dict(policy.to_dict())
        assert np.array_equal(clone.get_params(), policy.get_params())
        s = rng.standard_normal(policy.state_dim)
        assert np.array_equal(clone.forward(s).logits, policy.forward(s).logits)

    def test_layers_are_views_of_the_buffer(self, rng):
        policy = make_policy(seed=12, has_value=True)

        def bound(net):
            layers = [layer for pair in zip(net.weights, net.biases) for layer in pair]
            flat = np.concatenate([layer.ravel() for layer in layers])
            return all(np.shares_memory(layer, net.params) for layer in layers) and np.array_equal(
                flat, net.params
            )

        assert bound(policy)
        policy.set_params(rng.normal(size=policy.n_params))
        assert bound(policy)
        assert bound(PolicyNetwork.from_dict(policy.to_dict()))
        updater = PolicyUpdater(policy, "a2c", lr=1e-3)
        buffer = policy.params
        updater.update(make_transition(policy, rng.standard_normal(policy.state_dim), rng, reward=1))
        assert policy.params is buffer
        assert bound(policy)

    def test_get_params_is_a_copy(self, rng):
        policy = make_policy(seed=13)
        s = rng.standard_normal(policy.state_dim)
        logits = policy.forward(s).logits
        theta = policy.get_params()
        theta += 1.0
        assert np.array_equal(policy.forward(s).logits, logits)

    def test_forward_with_explicit_params(self, rng):
        policy = make_policy(seed=14, has_value=True)
        s = rng.standard_normal(policy.state_dim)
        theta = rng.normal(size=policy.n_params) * 0.1
        before = policy.get_params()
        live = policy.forward(s)
        other = policy.forward(s, theta)
        probe = make_policy(seed=14, has_value=True)
        probe.set_params(theta)
        want = probe.forward(s)
        assert np.array_equal(other.logits, want.logits)
        assert other.value == want.value
        # the live parameters are untouched and a cache taken before stays valid
        assert np.array_equal(policy.get_params(), before)
        policy.backward(live, np.zeros((policy.k_bins, 3)))
        with pytest.raises(ValueError, match="stale cache"):
            policy.backward(other, np.zeros((policy.k_bins, 3)))
        with pytest.raises(ValueError, match="parameters"):
            policy.forward(s, theta[:-1])

    def test_checkpoint_kind_rejected(self):
        with pytest.raises(ValueError, match="unsupported checkpoint kind"):
            PolicyNetwork.from_dict({"kind": "mlp-unit-norm"})


def zero_signs_cleared(a):
    """a with every -0.0 turned into +0.0 (adding +0.0 changes nothing else)."""
    return np.asarray(a) + 0.0


class TestPolicyMatchesHandUnrolledReference:
    """The shared layer loop against the policy's former three-layer code, compared by bytes.

    The gradients are compared with signed zeros cleared on both sides: the
    loop's weight gradient is a one-row matmul, which writes +0.0 where the
    reference's np.outer writes -0.0 (a dead ReLU unit times a negative
    upstream gradient). PolicyUpdater sums the gradient into a zeroed buffer
    before Adam, which clears them in the same way.
    """

    SHAPES = [(5, 1, 4), (7, 3, 12), (9, 4, 8), (31, 30, 128), (6, 2, 1)]

    @pytest.mark.parametrize("has_value", [False, True])
    @pytest.mark.parametrize("state_dim_,k_bins,hidden", SHAPES)
    def test_forward_and_backward_bytes(self, state_dim_, k_bins, hidden, has_value):
        rng = np.random.default_rng(state_dim_ * 100 + k_bins * 10 + hidden + has_value)
        policy = make_policy(
            seed=hidden, state_dim_=state_dim_, k_bins=k_bins, has_value=has_value, hidden=hidden
        )
        for _ in range(6):
            s = rng.standard_normal(state_dim_)
            cache = policy.forward(s)
            z1, a1, z2, a2, logits, value = reference_policy_forward(policy, s)
            for got, want in zip([*cache.pre_acts, *cache.acts], [z1, z2, a1, a2]):
                assert got[0].tobytes() == want.tobytes()
            assert cache.logits.tobytes() == logits.tobytes()
            assert repr(cache.value) == repr(value)

            d_logits = rng.standard_normal((k_bins, 3))
            d_value = float(rng.standard_normal()) if has_value else 0.0
            want = reference_policy_backward(policy, s, d_logits, d_value)
            got = policy.backward(cache, d_logits, d_value)
            assert zero_signs_cleared(got).tobytes() == zero_signs_cleared(want).tobytes()

            trits = rng.integers(0, 3, size=k_bins)
            score = -np.exp(policy.log_softmax(logits))
            score[np.arange(k_bins), trits] += 1.0
            lp, grad = log_prob_grad(policy, s, trits)
            assert lp == float(policy.log_softmax(logits)[np.arange(k_bins), trits].sum())
            want = reference_policy_backward(policy, s, score)
            assert zero_signs_cleared(grad).tobytes() == zero_signs_cleared(want).tobytes()
            policy.set_params(policy.params + 0.05 * rng.standard_normal(policy.n_params))

    @pytest.mark.parametrize("has_value", [False, True])
    @pytest.mark.parametrize("state_dim_,k_bins,hidden", SHAPES)
    def test_explicit_params_forward_bytes(self, state_dim_, k_bins, hidden, has_value):
        rng = np.random.default_rng(hidden * 7 + k_bins + has_value)
        policy = make_policy(
            seed=k_bins, state_dim_=state_dim_, k_bins=k_bins, has_value=has_value, hidden=hidden
        )
        for _ in range(4):
            s = rng.standard_normal(state_dim_)
            theta = rng.standard_normal(policy.n_params) * 0.2
            cache = policy.forward(s, theta)
            z1, a1, z2, a2, logits, value = reference_policy_forward(policy, s, theta)
            for got, want in zip([*cache.pre_acts, *cache.acts], [z1, z2, a1, a2]):
                assert got[0].tobytes() == want.tobytes()
            assert cache.logits.tobytes() == logits.tobytes()
            assert repr(cache.value) == repr(value)

    def test_gradient_sign_of_zero_never_reaches_adam(self, rng):
        """The former a2c update, which summed the reference gradient (holding -0.0 where a hidden
        unit is dead) into zeros, moves the parameters to the same bytes as PolicyUpdater, which
        steps on the gradient itself: Adam's moments cannot tell 0 + g from g."""
        policy = make_policy(seed=21, state_dim_=6, k_bins=3, has_value=True, hidden=16)
        reference = make_policy(seed=21, state_dim_=6, k_bins=3, has_value=True, hidden=16)
        updater = PolicyUpdater(policy, "a2c", lr=1e-2)
        adam = Adam(lr=1e-2)
        saw_negative_zero = False
        for step in range(5):
            s = rng.standard_normal(6)
            tr = make_transition(policy, s, np.random.default_rng(step), reward=(-1) ** step)
            *_, logits, value = reference_policy_forward(reference, s)
            score = -np.exp(reference.log_softmax(logits))
            score[np.arange(3), tr.trits] += 1.0
            score *= -(tr.reward - value)
            want = reference_policy_backward(
                reference, s, score, 2.0 * updater.value_coef * (value - tr.reward)
            )
            saw_negative_zero |= bool(np.any((want == 0.0) & np.signbit(want)))
            grad = np.zeros(reference.n_params)
            grad += want
            grad /= 1
            reference.step(adam, grad)
            updater.update(tr)
            assert policy.params.tobytes() == reference.params.tobytes()
        assert saw_negative_zero


class TestActions:
    def test_joint_frequencies_uniform(self):
        rng = np.random.default_rng(17)
        logits = np.zeros((2, 3))
        counts: dict = {}
        n = 100_000
        for _ in range(n):
            trits, lp = sample_action(logits, rng)
            assert lp == pytest.approx(2 * np.log(1.0 / 3.0), abs=1e-12)
            key = tuple(trits.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 9
        for c in counts.values():
            assert abs(c / n - 1.0 / 9.0) < 0.01

    def test_logprob_matches_action(self, rng):
        logits = rng.standard_normal((4, 3))
        logsm = PolicyNetwork.log_softmax(logits)
        trits, lp = sample_action(logits, np.random.default_rng(5))
        assert trits.dtype == np.int64
        assert lp == pytest.approx(float(logsm[np.arange(4), trits].sum()), abs=1e-12)

    def test_skewed_logits(self):
        rng = np.random.default_rng(2)
        logits = np.array([[12.0, 0.0, -12.0]])
        for _ in range(50):
            trits, _ = sample_action(logits, rng)
            assert trits[0] == 0

    def test_identity_trits_and_multipliers(self):
        trits = np.ones(4, dtype=np.int64)
        assert np.array_equal(trits, np.ones(4))
        mult = multipliers_from_trits(np.array([0, 1, 2]), 0.8, 1.25)
        assert np.allclose(mult, [0.8, 1.0, 1.25])
        assert np.all(multipliers_from_trits(trits, 0.8, 1.25) == 1.0)

    def test_multiplier_validation(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            multipliers_from_trits(np.array([1]), 1.2, 1.25)
        with pytest.raises(ValueError, match="beta_up must exceed 1"):
            multipliers_from_trits(np.array([1]), 0.8, 0.9)
        with pytest.raises(ValueError, match="trits"):
            multipliers_from_trits(np.array([3]), 0.8, 1.25)

    def test_reward_sign(self):
        assert compute_reward(1.3, 0.9) == 1
        assert compute_reward(0.9, 1.3) == -1
        assert compute_reward(0.7, 0.7) == 0
        assert {compute_reward(a, b) for a in (0.0, 0.5) for b in (0.0, 0.5)} == {-1, 0, 1}

    def test_transition_json(self):
        tr = Transition(
            episode=4,
            state=np.zeros(3),
            trits=np.array([0, 2]),
            logprob=-1.5,
            reward=1,
            value=0.25,
        )
        payload = json.loads(tr.to_json())
        assert payload == {
            "episode": 4,
            "reward": 1,
            "logprob": -1.5,
            "value": 0.25,
            "action": [0, 2],
        }


def make_transition(policy, state, rng, reward):
    cache = policy.forward(state)
    trits, lp = sample_action(cache.logits, rng)
    return Transition(
        episode=1, state=state, trits=trits, logprob=lp, reward=reward, value=cache.value
    )


class TestPolicyUpdater:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError) as exc:
            require_valid_algorithm("qlearning")
        for name in RL_ALGORITHMS:
            assert name in str(exc.value)

    def test_frozen_identity_is_not_an_algorithm(self):
        for check in (require_valid_algorithm, lambda kind: PolicyUpdater(make_policy(), kind)):
            with pytest.raises(ValueError) as exc:
                check("frozen-identity")
            assert str(exc.value) == (
                "rl.algorithm: unknown rl algorithm 'frozen-identity'; "
                "valid algorithms: reinforce, reinforce-ema, a2c, ppo-ema, ppo-a2c"
            )

    def test_value_algorithms_need_value_head(self):
        with pytest.raises(ValueError, match="requires a value head"):
            PolicyUpdater(make_policy(has_value=False), "a2c")

    def test_zero_reward_reinforce_is_noop(self, rng):
        policy = make_policy(seed=1)
        updater = PolicyUpdater(policy, "reinforce", lr=1e-3)
        before = policy.get_params()
        tr = make_transition(policy, rng.standard_normal(policy.state_dim), rng, reward=0)
        diag = updater.update(tr)
        assert diag["coef"] == 0.0
        assert np.array_equal(policy.get_params(), before)

    def test_a2c_zero_advantage_zero_value_error_is_noop(self, rng):
        policy = make_policy(seed=2, has_value=True)
        # zero the output layer: V(s) = 0 for every s, heads uniform
        theta = policy.get_params()
        theta[-policy.n_out * (policy.hidden + 1):] = 0.0
        policy.set_params(theta)
        updater = PolicyUpdater(policy, "a2c", lr=1e-3)
        before = policy.get_params()
        tr = make_transition(policy, rng.standard_normal(policy.state_dim), rng, reward=0)
        updater.update(tr)
        assert np.array_equal(policy.get_params(), before)

    def test_reinforce_moves_logprob_with_reward_sign(self, rng):
        for reward, direction in ((1, 1.0), (-1, -1.0)):
            policy = make_policy(seed=4)
            updater = PolicyUpdater(policy, "reinforce", lr=1e-3)
            s = rng.standard_normal(policy.state_dim)
            tr = make_transition(policy, s, rng, reward=reward)
            lp_before = tr.logprob
            updater.update(tr)
            lp_after = log_prob_and_score(policy.forward(s).logits, tr.trits)[0]
            assert (lp_after - lp_before) * direction > 0.0

    def test_ema_baseline_updates_after_step(self, rng):
        policy = make_policy(seed=5)
        updater = PolicyUpdater(policy, "reinforce-ema", lr=1e-4, ema_decay=0.9)
        s = rng.standard_normal(policy.state_dim)
        diag = updater.update(make_transition(policy, s, rng, reward=1))
        # advantage uses the baseline from before this update
        assert diag["advantage"] == 1.0
        assert updater.ema_baseline == pytest.approx(0.1)
        updater.update(make_transition(policy, s, rng, reward=-1))
        assert updater.ema_baseline == pytest.approx(0.9 * 0.1 - 0.1)

    def test_ppo_clipped_branch_freezes_policy(self, rng):
        policy = make_policy(seed=6)
        updater = PolicyUpdater(policy, "ppo-ema", lr=1e-3, epsilon=0.2)
        s = rng.standard_normal(policy.state_dim)
        cache = policy.forward(s)
        trits = np.argmax(cache.logits, axis=1)
        lp = log_prob_and_score(cache.logits, trits)[0]
        # lagged reference that assigns the chosen trits much lower odds:
        # ratio = exp(lp_new - lp_old) >> 1 + epsilon, advantage = +1
        old = policy.get_params().copy()
        for k in range(policy.k_bins):
            old[-policy.n_out + 3 * k + trits[k]] -= 2.0
        updater.old_params = old
        before = policy.get_params()
        tr = Transition(episode=1, state=s, trits=trits, logprob=lp, reward=1)
        diag = updater.update(tr)
        assert diag["ratio"] > 1.2
        assert diag["coef"] == 0.0
        assert np.array_equal(policy.get_params(), before)

    def test_ppo_with_synced_reference_and_huge_clip_equals_a2c(self, rng):
        pol_a = make_policy(seed=7, has_value=True)
        pol_b = make_policy(seed=7, has_value=True)
        assert np.array_equal(pol_a.get_params(), pol_b.get_params())
        upd_a = PolicyUpdater(pol_a, "a2c", lr=1e-3)
        upd_b = PolicyUpdater(pol_b, "ppo-a2c", lr=1e-3, epsilon=1e9, old_refresh=1)
        for step in range(3):
            s = rng.standard_normal(pol_a.state_dim)
            tr = make_transition(pol_a, s, np.random.default_rng(step), reward=(-1) ** step)
            diag_a = upd_a.update(tr)
            diag_b = upd_b.update(tr)
            assert diag_b["ratio"] == 1.0
            assert diag_a["coef"] == diag_b["coef"]
            assert np.array_equal(pol_a.get_params(), pol_b.get_params())

    def test_old_refresh_cadence(self, rng):
        policy = make_policy(seed=8, has_value=True)
        updater = PolicyUpdater(policy, "ppo-a2c", lr=1e-3, old_refresh=2)
        s = rng.standard_normal(policy.state_dim)
        updater.update(make_transition(policy, s, rng, reward=1))
        assert not np.array_equal(updater.old_params, policy.get_params())
        updater.update(make_transition(policy, s, rng, reward=1))
        assert np.array_equal(updater.old_params, policy.get_params())
