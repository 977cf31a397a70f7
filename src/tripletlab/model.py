"""Embedding network, ranking losses, and the Adam optimizer.

The learner is a small ReLU MLP whose final layer projects onto the unit
sphere. Gradients are derived by hand (including the tangent-space
projection through the normalization) so the whole training path is plain
numpy and checkable against finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


# -------------------------
# Losses
# -------------------------

@dataclass(frozen=True)
class LossConfig:
    """Ranking-loss selection.

    kind "triplet": hinge on squared distances, max(0, d_ap^2 - d_an^2 + gamma).
    kind "margin": two independent hinges around a boundary beta_margin,
        max(0, gamma + d_ap - beta_margin) + max(0, gamma - d_an + beta_margin).
    beta_margin may optionally be learned per anchor class (see trainer);
    the loss functions here take the effective boundary as an argument and
    beta_lr is the plain gradient step applied to it.

    Construction raises one ValueError that lists every invalid field, one
    per line, named by its flat config key.
    """

    kind: str = "triplet"
    gamma: float = 0.2
    beta_margin: float = 1.2
    learnable_beta: bool = False
    beta_lr: float = 5e-4

    def __post_init__(self):
        problems = []
        if self.kind not in ("triplet", "margin"):
            problems.append(f"unknown loss kind {self.kind!r}; loss.kind must be triplet or margin")
        if not self.gamma > 0:
            problems.append("loss.gamma must be positive")
        if not self.beta_margin > 0:
            problems.append("loss.beta_margin must be positive")
        if not self.beta_lr >= 0:
            problems.append("loss.beta_lr must be nonnegative")
        if problems:
            raise ValueError("\n".join(problems))


def triplet_loss(d_ap, d_an, gamma: float):
    """Hinge on the squared-distance ordering of a triplet."""
    return np.maximum(0.0, np.square(d_ap) - np.square(d_an) + gamma)


def margin_loss(d_ap, d_an, gamma: float, beta_margin):
    """Two-hinge pair loss: pull positives inside the boundary, push negatives out."""
    return np.maximum(0.0, gamma + d_ap - beta_margin) + np.maximum(
        0.0, gamma - d_an + beta_margin
    )


# -------------------------
# Embedding MLP
# -------------------------

_NORM_FLOOR = 1e-30  # smallest pre-norm row norm that forward normalizes; floors margin distances


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: np.linalg.norm(x, axis=1)'s arithmetic for real x, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


@dataclass
class ForwardCache:
    """Intermediate activations retained for exact backprop."""

    inputs: np.ndarray
    acts: list            # relu(a_{l-1} W_l + b_l) per hidden layer, > 0 exactly where its argument is
    norms: np.ndarray     # row norms of the output layer's y, (N, 1), finite and >= _NORM_FLOOR
    embeddings: np.ndarray
    version: int


def layer_views(flat: np.ndarray, dims) -> tuple[list, list]:
    """(weights, biases) of an MLP with layer widths dims, as views into flat.

    The layout is w_0, b_0, w_1, b_1, ... with each w_l of shape
    (dims[l], dims[l+1]) in row-major order; flat must hold exactly that many
    values. Writing a view writes flat, and the other way round.
    """
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    if offset != flat.size:
        raise ValueError(f"expected {offset} parameters, got {flat.size}")
    return weights, biases


class FlatParams:
    """A ReLU MLP held in one flat float64 buffer, `params`, and run by one layer loop.

    `weights`/`biases` are views of the buffer (see layer_views), so no step
    copies parameters between layouts; backprop writes the same views of a
    second buffer. Every write through set_params or step bumps a version,
    so caches taken before it are rejected. Subclasses add what follows the
    last linear layer: the embedding's normalization, the policy's heads.
    A copy made by copy.deepcopy or pickle gets views of its own buffers.

    A subclass names its checkpoint KIND and, in SHAPE, the constructor
    arguments that fix its layer widths; a checkpoint is those plus params.
    """

    KIND: str
    SHAPE: tuple
    dims: tuple
    params: np.ndarray
    _version: int

    def _allocate(self, dims) -> None:
        """Zeroed parameter and gradient buffers for layer widths dims, and their per-layer views."""
        self.dims = tuple(dims)
        widths = zip(self.dims[:-1], self.dims[1:])
        self.params = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in widths))
        self._grad = np.zeros_like(self.params)
        self._bind_views()
        self._version = 0

    @staticmethod
    def _width(name: str, value, least: int = 1) -> int:
        """value as a layer width; ValueError naming name unless it is an integer (not a bool) >= least."""
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"need an integer {name} >= {least}, got {value!r}")
        return int(value)

    def _bind_views(self) -> None:
        self.weights, self.biases = layer_views(self.params, self.dims)
        self._grad_w, self._grad_b = layer_views(self._grad, self.dims)

    def __getstate__(self) -> dict:
        # a copy holds the buffers alone and binds its own views; copied views would copy their data again
        return {k: v for k, v in vars(self).items() if k not in ("weights", "biases", "_grad_w", "_grad_b")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

    @property
    def n_params(self) -> int:
        return self.params.size

    def get_params(self) -> np.ndarray:
        """A copy of the flat parameter vector."""
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.params.shape:
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self.params[...] = flat
        self._version += 1

    def step(self, opt: "Adam", grads: np.ndarray) -> None:
        """One optimizer step, applied in place to the parameter buffer."""
        opt.step(self.params, grads)
        self._version += 1

    def to_dict(self) -> dict:
        """The checkpoint: kind, the SHAPE arguments and a copy of params; json_text writes it."""
        shape = {name: getattr(self, name) for name in self.SHAPE}
        return {"kind": self.KIND, **shape, "params": self.get_params()}

    @classmethod
    def from_dict(cls, payload: dict):
        """The network a to_dict payload describes, built through __init__ and loaded by set_params."""
        if not isinstance(payload, dict):
            raise ValueError(f"{cls.KIND} checkpoint must be a JSON object, got {type(payload).__name__}")
        if payload.get("kind") != cls.KIND:
            raise ValueError(f"unsupported checkpoint kind {payload.get('kind')!r}")
        missing = [name for name in (*cls.SHAPE, "params") if name not in payload]
        if missing:
            raise ValueError(f"checkpoint lacks {', '.join(map(repr, missing))}")
        net = cls(**{name: payload[name] for name in cls.SHAPE}, rng=np.random.default_rng(0))
        net.set_params(payload["params"])
        if not np.isfinite(net.params).all():
            raise ValueError(f"{cls.KIND} checkpoint params must be finite")
        return net

    def _forward_layers(self, x: np.ndarray):
        """(output, acts) of rows x."""
        acts = []
        a = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = a @ w
            a += b
            np.maximum(a, 0.0, out=a)
            acts.append(a)
        out = a @ self.weights[-1]
        out += self.biases[-1]
        return out, acts

    def _backward_layers(self, cache, dz: np.ndarray) -> np.ndarray:
        """Backprop dz, the gradient w.r.t. the output rows, to the flat parameter gradient.

        The result is the gradient buffer, which the next call overwrites.
        """
        if cache.version != self._version:
            raise ValueError("stale cache: parameters changed since the forward pass")
        for layer in range(len(self.weights) - 1, -1, -1):
            a_prev = cache.acts[layer - 1] if layer > 0 else cache.inputs
            np.matmul(a_prev.T, dz, out=self._grad_w[layer])
            np.add.reduce(dz, axis=0, out=self._grad_b[layer])
            if layer > 0:
                dz = (dz @ self.weights[layer].T) * (cache.acts[layer - 1] > 0.0)
        return self._grad


class EmbeddingModel(FlatParams):
    """MLP input_dim -> hidden... -> embedding_dim with unit-norm output rows."""

    KIND = "mlp-unit-norm"
    SHAPE = ("input_dim", "hidden", "embedding_dim")

    def __init__(self, input_dim: int, hidden, embedding_dim: int, rng: np.random.Generator):
        self.input_dim = self._width("input_dim", input_dim)
        self.hidden = tuple(self._width(f"hidden[{i}]", h) for i, h in enumerate(hidden))
        self.embedding_dim = self._width("embedding_dim", embedding_dim, least=2)
        self._allocate((self.input_dim, *self.hidden, self.embedding_dim))
        for i, w in enumerate(self.weights):
            fan_in = w.shape[0]
            scale = np.sqrt(2.0 / fan_in) if i < len(self.weights) - 1 else np.sqrt(1.0 / fan_in)
            w[...] = rng.normal(0.0, scale, size=w.shape)
        # tiny random output bias keeps the pre-norm row away from exact 0
        self.biases[-1][...] = rng.uniform(-0.01, 0.01, size=self.embedding_dim)

    def forward(self, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
        """Embed a batch of raw feature rows; returns (embeddings, cache).

        Raises FloatingPointError if a row's norm before normalization is not
        finite (an inf or nan output, or one too large to normalize) or is
        below _NORM_FLOOR (a row with no direction), so nothing downstream
        sees an embedding that is not a unit row.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise ValueError(f"dimension mismatch: model expects {self.input_dim}, got {x.shape[1]}")
        y, acts = self._forward_layers(x)
        norms = row_norms(y)[:, None]
        if not np.logical_and.reduce(np.isfinite(norms) & (norms >= _NORM_FLOOR), axis=None):
            raise FloatingPointError(
                "non-finite embeddings from the model's forward pass "
                f"(a row norm is not finite or below {_NORM_FLOOR})"
            )
        emb = y / norms
        cache = ForwardCache(x, acts, norms, emb, self._version)
        return emb, cache

    def backward_from_embedding_grads(self, cache: ForwardCache, d_emb: np.ndarray) -> np.ndarray:
        """Backprop upstream gradients w.r.t. the embeddings (see _backward_layers)."""
        emb = cache.embeddings
        # normalization: emb = y / |y|, so the output layer's dz = dy = (I - emb emb^T) d_emb / |y| rowwise
        dz = (d_emb - np.add.reduce(d_emb * emb, axis=1, keepdims=True) * emb) / cache.norms
        return self._backward_layers(cache, dz)


# -------------------------
# Checkpoint text
# -------------------------

JSON_CHUNK = 4096  # values of a 1-D array that json_text turns into Python numbers at once


def json_text(payload) -> str:
    """json.dumps(payload) with every array in payload taken as its tolist().

    A 1-D array is encoded JSON_CHUNK values at a time, so the Python
    numbers of only one piece are alive at once; the pieces are joined once,
    and the peak is about twice the text plus the arrays.
    """
    return "".join(_json_pieces(payload))


def _json_pieces(value):
    if isinstance(value, np.ndarray) and value.ndim == 1:
        yield "["
        for lo in range(0, value.size, JSON_CHUNK):
            yield (", " if lo else "") + json.dumps(value[lo : lo + JSON_CHUNK].tolist())[1:-1]
        yield "]"
    elif isinstance(value, (list, tuple)):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _json_pieces(item)
        yield "]"
    elif isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            # json.dumps's own text for the key: a string, or a number, bool or None made one
            yield (", " if i else "") + json.dumps({key: 0})[1:-1].removesuffix("0")
            yield from _json_pieces(item)
        yield "}"
    else:
        yield json.dumps(value.tolist() if isinstance(value, np.ndarray) else value)


# -------------------------
# Batch loss and gradients
# -------------------------

def triplet_losses(
    emb: np.ndarray, triplets: np.ndarray, loss: LossConfig, boundaries: np.ndarray | None = None
) -> np.ndarray:
    """Per-triplet loss values for rows (anchor, positive, negative) of indices."""
    triplets = np.asarray(triplets)
    a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    d_ap = row_norms(emb[a] - emb[p])
    d_an = row_norms(emb[a] - emb[n])
    if loss.kind == "triplet":
        return triplet_loss(d_ap, d_an, loss.gamma)
    beta = loss.beta_margin if boundaries is None else boundaries
    return margin_loss(d_ap, d_an, loss.gamma, beta)


def embedding_grads(
    emb: np.ndarray, triplets: np.ndarray, loss: LossConfig, boundaries: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of the mean loss over non-empty triplets w.r.t. the embedding rows.

    Inactive hinges contribute exactly zero; hinge boundaries use the
    inactive branch. boundaries optionally overrides the margin-loss beta
    per triplet. The anchor, positive and negative blocks are summed into
    their rows by one bincount over the indices (a, p, n), which adds in the
    same order as three sequential np.add.at calls from zero.
    """
    a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    diff_ap = emb[a] - emb[p]
    diff_an = emb[a] - emb[n]
    t = triplets.shape[0]
    if loss.kind == "triplet":
        d_ap2 = np.add.reduce(diff_ap * diff_ap, axis=1)
        d_an2 = np.add.reduce(diff_an * diff_an, axis=1)
        active = (d_ap2 - d_an2 + loss.gamma) > 0.0
        scale = np.where(active, 2.0 / t, 0.0)[:, None]
        blocks = (scale * (diff_ap - diff_an), -scale * diff_ap, scale * diff_an)
    else:
        beta = loss.beta_margin if boundaries is None else boundaries
        d_ap = np.maximum(row_norms(diff_ap), _NORM_FLOOR)
        d_an = np.maximum(row_norms(diff_an), _NORM_FLOOR)
        pos_active = (loss.gamma + d_ap - beta) > 0.0
        neg_active = (loss.gamma - d_an + beta) > 0.0
        unit_ap = diff_ap / d_ap[:, None]
        unit_an = diff_an / d_an[:, None]
        pos_scale = np.where(pos_active, 1.0 / t, 0.0)[:, None]
        neg_scale = np.where(neg_active, 1.0 / t, 0.0)[:, None]
        blocks = (pos_scale * unit_ap - neg_scale * unit_an, -pos_scale * unit_ap, neg_scale * unit_an)
    dim = emb.shape[1]
    cells = (triplets.T.ravel()[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, weights=np.concatenate(blocks).ravel(), minlength=emb.size)
    return sums.reshape(emb.shape)


def backward(
    model: EmbeddingModel,
    cache: ForwardCache,
    triplets: np.ndarray,
    loss: LossConfig,
    boundaries: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient over the flattened parameters of the mean loss over triplets.

    See embedding_grads for the loss side; an empty triplet set gives a
    zero gradient.
    """
    triplets = np.asarray(triplets)
    if triplets.size == 0:
        return np.zeros(model.n_params)
    d_emb = embedding_grads(cache.embeddings, triplets, loss, boundaries)
    return model.backward_from_embedding_grads(cache, d_emb)


def margin_boundary_grads(
    emb: np.ndarray, triplets: np.ndarray, loss: LossConfig, boundaries: np.ndarray
) -> np.ndarray:
    """d(mean loss)/d(beta) per triplet for the margin loss: -1[pos hinge] + 1[neg hinge]."""
    triplets = np.asarray(triplets)
    a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    d_ap = row_norms(emb[a] - emb[p])
    d_an = row_norms(emb[a] - emb[n])
    t = triplets.shape[0]
    pos_active = (loss.gamma + d_ap - boundaries) > 0.0
    neg_active = (loss.gamma - d_an + boundaries) > 0.0
    return (neg_active.astype(np.float64) - pos_active.astype(np.float64)) / t


# -------------------------
# Optimizer
# -------------------------

@dataclass
class Adam:
    """Adam with bias correction; state is carried across step() calls."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    _scratch: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # pickles and deep copies leave the two scratch vectors out; the next step rebuilds them
        return {**vars(self), "_scratch": None}

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Update params in place and return it; grads is left unchanged.

        Each ufunc runs in the order of the expressions
        m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g**2 and
        params - (lr*m_hat) / (sqrt(v_hat) + eps), so the result is
        bit-identical to evaluating them with temporaries.
        """
        grads = np.asarray(grads, dtype=np.float64)
        if params.shape != grads.shape:
            raise ValueError("parameter/gradient shape mismatch")
        if not np.logical_and.reduce(np.isfinite(grads), axis=None):
            raise FloatingPointError("non-finite gradient passed to optimizer")
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        if self._scratch is None:
            self._scratch = np.empty((2, *params.shape))
        self.t += 1
        s, u = self._scratch
        np.multiply(1.0 - self.beta1, grads, out=s)
        np.multiply(self.beta1, self.m, out=self.m)
        np.add(self.m, s, out=self.m)
        np.square(grads, out=s)
        np.multiply(1.0 - self.beta2, s, out=s)
        np.multiply(self.beta2, self.v, out=self.v)
        np.add(self.v, s, out=self.v)
        np.divide(self.m, 1.0 - self.beta1**self.t, out=s)  # m_hat
        np.multiply(self.lr, s, out=s)
        np.divide(self.v, 1.0 - self.beta2**self.t, out=u)  # v_hat
        np.sqrt(u, out=u)
        np.add(u, self.eps, out=u)
        np.divide(s, u, out=s)
        np.subtract(params, s, out=params)
        return params
