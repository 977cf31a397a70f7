from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletlab.model import (
    Adam,
    EmbeddingModel,
    LossConfig,
    backward,
    embedding_grads,
    margin_boundary_grads,
    margin_loss,
    triplet_loss,
    triplet_losses,
)


def fd_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a time."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-7)))


def assert_bound_to_buffer(model: EmbeddingModel) -> None:
    """Every layer array is a view of the flat buffer, and together they tile it."""
    assert all(np.shares_memory(layer, model.params) for layer in [*model.weights, *model.biases])
    assert np.array_equal(
        np.concatenate([np.concatenate([w.ravel(), b]) for w, b in zip(model.weights, model.biases)]),
        model.params,
    )


def make_setup(seed: int, loss_kind: str = "triplet"):
    """Model + batch + triplets resampled until no hinge or ReLU sits on a kink."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        model = EmbeddingModel(5, (8, 6), 4, rng)
        x = rng.normal(size=(6, 5))
        labels = np.array([0, 0, 0, 1, 1, 1])
        loss = LossConfig(
            kind=loss_kind,
            gamma=float(rng.uniform(0.1, 0.4)),
            beta_margin=float(rng.uniform(0.8, 1.3)),
        )
        triplets = []
        for a in range(6):
            same = [j for j in range(6) if labels[j] == labels[a] and j != a]
            diff = [j for j in range(6) if labels[j] != labels[a]]
            triplets.append((a, same[int(rng.integers(len(same)))], diff[int(rng.integers(len(diff)))]))
        triplets = np.asarray(triplets)
        emb, cache = model.forward(x)
        a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
        d_ap = np.linalg.norm(emb[a] - emb[p], axis=1)
        d_an = np.linalg.norm(emb[a] - emb[n], axis=1)
        if loss_kind == "triplet":
            margins = d_ap**2 - d_an**2 + loss.gamma
        else:
            margins = np.concatenate(
                [loss.gamma + d_ap - loss.beta_margin, loss.gamma - d_an + loss.beta_margin]
            )
        pre_ok = all(np.min(np.abs(z)) > 1e-3 for z in cache.pre_acts)
        if np.min(np.abs(margins)) > 1e-3 and pre_ok:
            return model, x, triplets, loss
    raise AssertionError("could not build a kink-free configuration")


class TestLossValues:
    def test_triplet_inactive(self):
        assert triplet_loss(0.5, 0.9, 0.2) == 0.0

    def test_triplet_active(self):
        assert triplet_loss(0.9, 0.5, 0.2) == pytest.approx(0.81 - 0.25 + 0.2)

    def test_margin_both_hinges(self):
        assert margin_loss(1.05, 0.8, 0.1, 1.0) == pytest.approx(0.15 + 0.3)

    def test_margin_inactive(self):
        assert margin_loss(0.5, 1.8, 0.1, 1.0) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            LossConfig(kind="contrastive")
        with pytest.raises(ValueError, match="gamma"):
            LossConfig(gamma=0.0)
        nan = float("nan")  # every comparison with nan is false, so each check must state what holds
        with pytest.raises(ValueError) as exc:
            LossConfig(gamma=nan, beta_margin=nan, beta_lr=nan)
        assert str(exc.value).splitlines() == [
            "loss.gamma must be positive",
            "loss.beta_margin must be positive",
            "loss.beta_lr must be nonnegative",
        ]


class TestForward:
    def test_unit_rows(self, rng):
        model = EmbeddingModel(7, (16,), 5, rng)
        emb, _ = model.forward(rng.normal(size=(11, 7)))
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)

    def test_non_finite_embeddings_rejected(self, rng):
        model = EmbeddingModel(7, (16,), 5, rng)
        x = rng.normal(size=(4, 7))
        x[2, 3] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite embeddings"):
            model.forward(x)
        model.set_params(np.full(model.n_params, 1e200))  # overflows in the second layer
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite embeddings"):
                model.forward(rng.normal(size=(4, 7)))

    def test_dimension_mismatch(self, rng):
        model = EmbeddingModel(7, (16,), 5, rng)
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.forward(rng.normal(size=(3, 6)))

    def test_stale_cache_rejected(self, rng):
        model = EmbeddingModel(4, (8,), 3, rng)
        _, cache = model.forward(rng.normal(size=(2, 4)))
        model.set_params(model.get_params())
        with pytest.raises(ValueError, match="stale cache"):
            model.backward_from_embedding_grads(cache, np.zeros((2, 3)))

    def test_param_roundtrip(self, rng):
        model = EmbeddingModel(4, (8, 8), 3, rng)
        flat = model.get_params()
        model.set_params(flat)
        assert np.array_equal(model.get_params(), flat)

    def test_checkpoint_roundtrip(self, rng):
        model = EmbeddingModel(6, (12, 10), 4, rng)
        clone = EmbeddingModel.from_dict(model.to_dict())
        x = rng.normal(size=(5, 6))
        assert np.array_equal(model.forward(x)[0], clone.forward(x)[0])


class TestFlatBuffer:
    def test_layers_are_views_of_the_buffer(self, rng):
        model = EmbeddingModel(6, (12, 10), 4, rng)
        assert_bound_to_buffer(model)
        model.set_params(rng.normal(size=model.n_params))
        assert_bound_to_buffer(model)
        clone = EmbeddingModel.from_dict(model.to_dict())
        assert_bound_to_buffer(clone)
        assert np.array_equal(clone.params, model.params)

    def test_step_updates_the_buffer_in_place_and_bumps_the_version(self, rng):
        model = EmbeddingModel(6, (12,), 4, rng)
        buffer, before = model.params, model.get_params()
        _, cache = model.forward(rng.normal(size=(3, 6)))
        model.step(Adam(lr=0.01), rng.normal(size=model.n_params))
        assert model.params is buffer
        assert_bound_to_buffer(model)
        assert not np.array_equal(model.params, before)
        with pytest.raises(ValueError, match="stale cache"):
            model.backward_from_embedding_grads(cache, np.zeros((3, 4)))

    def test_get_params_is_a_copy(self, rng):
        model = EmbeddingModel(5, (8,), 3, rng)
        x = rng.normal(size=(4, 5))
        emb_before = model.forward(x)[0]
        flat = model.get_params()
        assert not np.shares_memory(flat, model.params)
        flat += 1.0
        assert np.array_equal(model.forward(x)[0], emb_before)

    def test_set_params_rejects_wrong_size(self, rng):
        model = EmbeddingModel(5, (8,), 3, rng)
        with pytest.raises(ValueError, match="parameters"):
            model.set_params(np.zeros(model.n_params + 1))
        with pytest.raises(ValueError, match="parameters"):
            model.set_params(np.zeros((1, model.n_params)))

    def test_backward_writes_its_gradient_buffer(self, rng):
        model, x, triplets, loss = make_setup(3)
        _, cache = model.forward(x)
        first = backward(model, cache, triplets, loss)
        kept = first.copy()
        assert not np.shares_memory(first, model.params)
        again = backward(model, cache, triplets, loss)
        assert again is first
        assert np.array_equal(again, kept)


#: (edit of the checkpoint's layer list, expected error) for layers that do not fit the dimensions
MALFORMED_LAYERS = [
    (lambda layers: layers.pop(), "2 layers"),
    (lambda layers: layers.append(layers[-1]), "4 layers"),
    (lambda layers: layers[1].update(w=layers[1]["w"][:1]), "layer 1 'w'"),
    (lambda layers: layers[1].update(w=np.asarray(layers[1]["w"]).T.tolist()), "layer 1 'w'"),
    (lambda layers: layers[0].update(b=layers[0]["b"][:1]), "layer 0 'b'"),
    (lambda layers: layers[2].update(b=0.5), "layer 2 'b'"),
    (lambda layers: layers[2].update(b=[layers[2]["b"]]), "layer 2 'b'"),
]


class TestCheckpointShapes:
    @pytest.mark.parametrize("edit,message", MALFORMED_LAYERS)
    def test_malformed_layers_rejected_by_name(self, rng, edit, message):
        payload = EmbeddingModel(6, (12, 10), 4, rng).to_dict()
        layers = [dict(layer) for layer in payload["layers"]]
        edit(layers)
        with pytest.raises(ValueError, match=message):
            EmbeddingModel.from_dict({**payload, "layers": layers})

    def test_dimension_fields_must_match_layers(self, rng):
        payload = EmbeddingModel(6, (12, 10), 4, rng).to_dict()
        with pytest.raises(ValueError, match="layer 0 'w'"):
            EmbeddingModel.from_dict({**payload, "input_dim": 5})
        with pytest.raises(ValueError, match="layers"):
            EmbeddingModel.from_dict({**payload, "hidden": [12]})


class TestGradients:
    @pytest.mark.parametrize("loss_kind", ["triplet", "margin"])
    def test_matches_finite_differences(self, loss_kind):
        for seed in range(8):
            model, x, triplets, loss = make_setup(100 + seed, loss_kind)
            _, cache = model.forward(x)
            grad = backward(model, cache, triplets, loss)

            def objective(flat):
                probe = EmbeddingModel.from_dict(model.to_dict())
                probe.set_params(flat)
                emb, _ = probe.forward(x)
                return float(np.mean(triplet_losses(emb, triplets, loss)))

            fd = fd_grad(objective, model.get_params())
            assert rel_err(grad, fd) < 1e-4

    def test_inactive_hinges_give_zero_gradient(self, rng):
        model = EmbeddingModel(5, (8,), 4, rng)
        x = rng.normal(size=(4, 5))
        emb, cache = model.forward(x)
        # a negative far beyond the positive with a tiny gamma: hinge off
        d = np.linalg.norm(emb[:, None] - emb[None, :], axis=2)
        pairs = [(a, p, n) for a in range(4) for p in range(4) for n in range(4)
                 if len({a, p, n}) == 3 and d[a, p] ** 2 - d[a, n] ** 2 + 1e-4 < 0]
        if not pairs:
            pytest.skip("no inactive triplet in this draw")
        triplets = np.asarray(pairs[:2])
        loss = LossConfig(kind="triplet", gamma=1e-4)
        assert np.all(backward(model, cache, triplets, loss) == 0.0)

    def test_empty_triplets(self, rng):
        model = EmbeddingModel(5, (8,), 4, rng)
        _, cache = model.forward(rng.normal(size=(3, 5)))
        assert np.all(backward(model, cache, np.zeros((0, 3), dtype=int), LossConfig()) == 0.0)

    def test_boundary_gradient_matches_fd(self):
        model, x, triplets, loss = make_setup(7, "margin")
        emb, _ = model.forward(x)
        anchors = triplets[:, 0]
        labels = np.array([0, 0, 0, 1, 1, 1])
        beta = np.full(2, loss.beta_margin)

        def objective(b):
            return float(np.mean(triplet_losses(emb, triplets, loss, b[labels[anchors]])))

        per_triplet = margin_boundary_grads(emb, triplets, loss, beta[labels[anchors]])
        grad = np.zeros(2)
        np.add.at(grad, labels[anchors], per_triplet)
        assert rel_err(grad, fd_grad(objective, beta)) < 1e-4


@dataclass
class ExpressionAdam:
    """Adam written as whole-array expressions: the reference for the in-place step."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grads**2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_embedding_grads(emb, triplets, loss: LossConfig, boundaries=None) -> np.ndarray:
    """Embedding gradient scattered by three sequential np.add.at calls (anchor, positive, negative)."""
    a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    diff_ap = emb[a] - emb[p]
    diff_an = emb[a] - emb[n]
    d_emb = np.zeros_like(emb)
    t = triplets.shape[0]
    if loss.kind == "triplet":
        d_ap2 = np.sum(diff_ap**2, axis=1)
        d_an2 = np.sum(diff_an**2, axis=1)
        active = (d_ap2 - d_an2 + loss.gamma) > 0.0
        scale = np.where(active, 2.0 / t, 0.0)[:, None]
        np.add.at(d_emb, a, scale * (diff_ap - diff_an))
        np.add.at(d_emb, p, -scale * diff_ap)
        np.add.at(d_emb, n, scale * diff_an)
    else:
        beta = np.broadcast_to(loss.beta_margin if boundaries is None else boundaries, (t,))
        d_ap = np.maximum(np.linalg.norm(diff_ap, axis=1), 1e-30)
        d_an = np.maximum(np.linalg.norm(diff_an, axis=1), 1e-30)
        pos_active = (loss.gamma + d_ap - beta) > 0.0
        neg_active = (loss.gamma - d_an + beta) > 0.0
        unit_ap = diff_ap / d_ap[:, None]
        unit_an = diff_an / d_an[:, None]
        pos_scale = np.where(pos_active, 1.0 / t, 0.0)[:, None]
        neg_scale = np.where(neg_active, 1.0 / t, 0.0)[:, None]
        np.add.at(d_emb, a, pos_scale * unit_ap - neg_scale * unit_an)
        np.add.at(d_emb, p, -pos_scale * unit_ap)
        np.add.at(d_emb, n, neg_scale * unit_an)
    return d_emb


@pytest.mark.parametrize("loss_kind", ["triplet", "margin"])
@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(1, 9),
    dim=st.integers(2, 5),
    index_seed=st.integers(0, 2**32 - 1),
    n_triplets=st.integers(1, 30),
    gamma=st.floats(0.05, 1.0),
    beta=st.floats(0.5, 1.5),
    per_triplet_beta=st.booleans(),
)
def test_embedding_grads_match_add_at_reference(
    loss_kind, n_rows, dim, index_seed, n_triplets, gamma, beta, per_triplet_beta
):
    rng = np.random.default_rng(index_seed)
    emb = rng.normal(size=(n_rows, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    # few rows and many triplets: every index repeats, within and across the three columns
    triplets = rng.integers(0, n_rows, size=(n_triplets, 3))
    loss = LossConfig(kind=loss_kind, gamma=gamma, beta_margin=beta)
    boundaries = None
    if loss_kind == "margin" and per_triplet_beta:
        boundaries = rng.uniform(0.5, 1.5, size=n_triplets)
    want = reference_embedding_grads(emb, triplets, loss, boundaries)
    got = embedding_grads(emb, triplets, loss, boundaries)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestAdam:
    @pytest.mark.parametrize("lr", [1e-3, 0.05, 0.0])
    def test_in_place_step_is_bit_identical_to_expressions(self, lr):
        rng = np.random.default_rng(17)
        opt, ref = Adam(lr=lr), ExpressionAdam(lr=lr)
        params = rng.normal(size=257)
        want = params.copy()
        for _ in range(250):
            grads = rng.normal(size=params.size) * 10.0 ** rng.uniform(-8, 3, size=params.size)
            grads[rng.random(params.size) < 0.05] = 0.0
            grads_before = grads.copy()
            out = opt.step(params, grads)
            want = ref.step(want, grads)
            assert out is params
            assert grads.tobytes() == grads_before.tobytes()
            assert params.tobytes() == want.tobytes()
            assert opt.m.tobytes() == ref.m.tobytes()
            assert opt.v.tobytes() == ref.v.tobytes()
        assert opt.t == ref.t == 250


    def test_first_step_magnitude_is_lr(self):
        opt = Adam(lr=0.01)
        params = np.zeros(3)
        new = opt.step(params, np.array([5.0, -2.0, 0.5]))
        assert np.allclose(np.abs(new), 0.01, rtol=1e-6)
        assert np.all(np.sign(new) == [-1.0, 1.0, -1.0])

    def test_state_carries_over(self):
        opt = Adam(lr=0.1)
        p = np.array([1.0])
        for _ in range(50):
            p = opt.step(p, np.array([2.0 * p[0]]))  # d/dp of p^2
        assert abs(p[0]) < 1.0

    def test_rejects_nonfinite(self):
        opt = Adam()
        with pytest.raises(FloatingPointError, match="non-finite"):
            opt.step(np.zeros(2), np.array([np.nan, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            Adam().step(np.zeros(2), np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(
    d_ap=st.floats(0.0, 2.0),
    d_an=st.floats(0.0, 2.0),
    gamma=st.floats(0.01, 1.0),
)
def test_triplet_loss_nonnegative_and_monotone(d_ap, d_an, gamma):
    value = triplet_loss(d_ap, d_an, gamma)
    assert value >= 0.0
    # moving the negative farther never increases the loss
    assert triplet_loss(d_ap, min(d_an + 0.1, 2.0), gamma) <= value + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    d_ap=st.floats(0.0, 2.0),
    d_an=st.floats(0.0, 2.0),
    gamma=st.floats(0.01, 0.5),
    beta=st.floats(0.5, 1.5),
)
def test_margin_loss_nonnegative(d_ap, d_an, gamma, beta):
    assert margin_loss(d_ap, d_an, gamma, beta) >= 0.0
