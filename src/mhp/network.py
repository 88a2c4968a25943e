"""Dense feed-forward network with hand-written forward and backward passes.

One trunk feeds a wide final layer that is sliced into contiguous blocks, so
a single model emits several output vectors per input. There is no autodiff
graph: the forward pass can hand back every layer's activations, and the
backward pass applies the chain rule to them layer by layer against
caller-supplied upstream vectors.

The parameters are one float64 vector, ``MlpModel.params`` of length P, laid
out by :func:`param_views` alone: per layer, W (out, in) row-major, then b.
The layers' arrays are views into it; each layer's activation is named once,
in ``MlpModel.activations``. :func:`backward_batch` returns a (P,)
gradient, :func:`step` takes one, and ``OptimizerState.buffer`` is (P,) too.
Optimizers (SGD with momentum, RMSProp) update the model in place; the
training loop owns the model exclusively between steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .io_utils import (naming, read_field, read_int, read_json, read_list, read_number,
                       read_seed, read_str, write_json_atomic)

ACTIVATIONS = ("relu", "identity")
HEAD_INIT_STD = 0.01
RMSPROP_EPS = 1e-8
CHECKPOINT_SCHEMA_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Non-finite values appeared on the training path."""

    def __init__(self, message: str, *, layer_index: int | None = None):
        super().__init__(message)
        self.layer_index = layer_index
        # where in a ``training.train`` run it happened; the training loop sets both
        self.epoch: int | None = None
        self.batch_index: int | None = None


def param_views(shapes, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) views into ``flat``: per (out, in) shape, W row-major, then b."""
    views, pos = [], 0
    for out, ind in shapes:
        end = pos + out * ind
        views.append((flat[pos:end].reshape(out, ind), flat[end:end + out]))
        pos = end + out
    if flat.shape != (pos,):
        raise ValueError(f"values of shape {flat.shape} for {pos} parameters")
    return views


class Layer(NamedTuple):
    """One layer's (weights, biases) views into its model's ``params``; the layer's activation
    is read from the model's ``activations``."""

    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)


@dataclass(eq=False)
class MlpModel:
    """Weights of the shared-trunk, multi-headed predictor.

    ``params`` is copied, in the layout :func:`param_views` gives ``shapes``, the (out, in) of
    each layer's weights. The final layer has ``num_hypotheses * output_dim`` units with identity
    activation; adjacent layer dimensions must chain. ``layers`` are the (weights, biases) views
    into ``params``, one per layer; ``activations`` names each layer's activation.
    """

    params: np.ndarray
    shapes: tuple[tuple[int, int], ...]
    activations: tuple[str, ...]
    output_dim: int
    num_hypotheses: int
    seed: int | None = None
    extras: dict = field(default_factory=dict)
    layers: tuple[Layer, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.params = np.array(self.params, dtype=np.float64)
        self.shapes, self.activations = tuple(map(tuple, self.shapes)), tuple(self.activations)
        self.validate()
        self.layers = tuple(Layer(w, b) for w, b in param_views(self.shapes, self.params))

    @property
    def input_dim(self) -> int:
        return self.shapes[0][1]

    def validate(self) -> None:
        if not self.shapes:
            raise ValueError("model needs at least one layer")
        if len(self.activations) != len(self.shapes):
            raise ValueError(f"{len(self.activations)} activations for {len(self.shapes)} layers")
        if self.output_dim < 1 or self.num_hypotheses < 1:
            raise ValueError("output_dim and num_hypotheses must be positive")
        prev = None
        for k, ((out, ind), act) in enumerate(zip(self.shapes, self.activations)):
            if min(out, ind) < 1:
                raise ValueError(f"layer {k}: shape {(out, ind)} has a negative or zero dimension")
            if prev is not None and ind != prev:
                raise ValueError(f"layer {k}: in-dim {ind} != previous out-dim {prev}")
            if act not in ACTIVATIONS:
                raise ValueError(f"layer {k}: unknown activation {act!r}")
            prev = out
        if prev != self.num_hypotheses * self.output_dim:
            raise ValueError(
                f"final layer width {prev} != num_hypotheses*output_dim "
                f"{self.num_hypotheses * self.output_dim}")
        if self.activations[-1] != "identity":
            raise ValueError("final layer activation must be identity")
        if (k := _first_non_finite_layer(self.shapes, np.isfinite(self.params))) is not None:
            raise ValueError(f"layer {k}: non-finite parameters")
        if not isinstance(self.extras, dict):
            raise ValueError(f"extras must be a JSON object, got {self.extras!r}")


def _first_non_finite_layer(shapes, finite: np.ndarray) -> int | None:
    """The first layer where the (P,) mask ``finite`` is False, or None."""
    return next((k for k, (w, b) in enumerate(param_views(shapes, finite))
                 if not (w.all() and b.all())), None)


def init_mlp(input_dim: int, hidden_dims, output_dim: int, num_hypotheses: int,
             rng: np.random.Generator, seed: int | None = None,
             extras: dict | None = None) -> MlpModel:
    """Seeded He-style initialization with diversified head blocks.

    Hidden weights are N(0, 2/fan_in) with zero biases. The final layer
    replicates one shared output block across all hypothesis heads and adds
    independent N(0, 0.01^2) noise to weights and biases, so heads start
    near-identical but break symmetry under the winner-takes-all weighting.
    """
    dims = [int(input_dim), *(int(h) for h in hidden_dims)]
    if dims[0] < 1:
        raise ValueError("input_dim must be positive")
    if any(h < 1 for h in dims[1:]):
        raise ValueError(f"hidden layer widths must be >= 1, got {dims[1:]}")
    shapes = [*zip(dims[1:], dims), (num_hypotheses * output_dim, dims[-1])]
    params = np.zeros(sum(out * (ind + 1) for out, ind in shapes))
    *hidden, (head_w, head_b) = param_views(shapes, params)
    for w, _ in hidden:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    base = rng.normal(0.0, np.sqrt(2.0 / dims[-1]), size=(output_dim, dims[-1]))
    head_w[...] = np.tile(base, (num_hypotheses, 1))
    head_w += rng.normal(0.0, HEAD_INIT_STD, size=head_w.shape)
    head_b[...] = rng.normal(0.0, HEAD_INIT_STD, size=head_b.shape)
    return MlpModel(params, shapes, ["relu"] * len(hidden) + ["identity"], output_dim,
                    num_hypotheses, seed=seed, extras=dict(extras or {}))


def _check_batch_input(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """``X`` as a float64 (n, input_dim) batch; a NaN or infinite value raises ValueError.

    Each value is checked, so finite inputs whose sum would overflow pass. A one-sum check
    would need an ``np.errstate`` per call to keep that overflow from warning, which costs
    more than this check on a training batch.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"expected inputs of shape (n, {model.input_dim}), got {X.shape}")
    if not np.logical_and.reduce(np.isfinite(X), axis=None):
        raise ValueError("non-finite input")
    return X


def forward_batch(model: MlpModel, X, *, return_activations: bool = False):
    """Hypothesis sets for a batch of inputs, shape (n, M, output_dim).

    With ``return_activations`` the result is ``(hypotheses, activations)``,
    where ``activations`` (a_{-1} = X, a_0, ..., a_L) is the list
    :func:`backward_batch` takes for the same model and inputs.
    """
    acts = [_check_batch_input(model, X)]
    for (w, b), act in zip(model.layers, model.activations):
        z = acts[-1] @ w.T
        z += b
        acts.append(np.maximum(z, 0.0, out=z) if act == "relu" else z)
    hyps = acts[-1].reshape(len(acts[0]), model.num_hypotheses, model.output_dim)
    return (hyps, acts) if return_activations else hyps


_ROW_TILE = 2048


def _row_tiles(n: int) -> list[slice]:
    """Consecutive slices covering ``range(n)``, each of at least ``_ROW_TILE`` rows: the
    remainder joins the last slice, so fewer than ``2 * _ROW_TILE`` rows make one slice."""
    ends = [k * _ROW_TILE for k in range(1, n // _ROW_TILE)] + [n]
    return [slice(start, end) for start, end in zip([0] + ends, ends)]


def _one_input(x) -> np.ndarray:
    """One 1-d input vector as a one-row batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d input vector, got shape {x.shape}")
    return x[None]


def forward(model: MlpModel, x) -> np.ndarray:
    """Hypothesis set for one input, shape (M, output_dim).

    Pure: repeated calls with identical inputs are bit-identical.
    """
    return forward_batch(model, _one_input(x))[0]


def backward_batch(model: MlpModel, upstream_grads, activations: list[np.ndarray]) -> np.ndarray:
    """Parameter gradient of sum_i sum_j <upstream[i,j], f_j(x_i)>.

    ``upstream_grads`` has shape (n, M, output_dim); the result is one (P,)
    vector in the layout of ``model.params``, summed over the batch. Linear
    in the upstream vectors. ``activations`` are those that
    ``forward_batch(model, X, return_activations=True)`` returned for the
    same parameters.
    """
    if len(activations) != len(model.shapes) + 1:
        raise ValueError(f"expected {len(model.shapes) + 1} activations, got {len(activations)}")
    u = np.asarray(upstream_grads, dtype=np.float64)
    n = activations[0].shape[0]
    want = (n, model.num_hypotheses, model.output_dim)
    if u.shape != want:
        raise ValueError(f"expected upstream grads of shape {want}, got {u.shape}")
    delta = u.reshape(n, model.num_hypotheses * model.output_dim)
    grad = np.empty(model.params.size)
    for k, (dw, db) in reversed(list(enumerate(param_views(model.shapes, grad)))):
        np.matmul(delta.T, activations[k], out=dw)
        np.add.reduce(delta, axis=0, out=db)
        if k > 0:
            delta = delta @ model.layers[k].weights
            if model.activations[k - 1] == "relu":
                # relu(z) > 0 exactly where z > 0, so the mask needs no z
                delta *= activations[k] > 0.0
    return grad


@dataclass(eq=False)
class OptimizerState:
    """First-order optimizer state; ``buffer`` is (P,), like the parameters."""

    kind: str  # "sgd_momentum" | "rmsprop"
    learning_rate: float
    momentum: float  # the velocity coefficient, or for rmsprop the squared-gradient decay
    buffer: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("sgd_momentum", "rmsprop"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum/decay must lie in [0, 1)")
        if not np.isfinite(self.buffer).all():
            raise ValueError("optimizer buffer must be finite")


def make_optimizer(kind: str, model: MlpModel, learning_rate: float,
                   momentum: float = 0.9) -> OptimizerState:
    return OptimizerState(kind, float(learning_rate), float(momentum), np.zeros_like(model.params))


def step(state: OptimizerState, model: MlpModel, grad) -> None:
    """Apply one update to ``model.params`` in place, or change nothing.

    sgd_momentum: v <- mu*v - lr*g; theta <- theta + v.
    rmsprop: s <- rho*s + (1-rho)*g^2; theta <- theta - lr*g/sqrt(s + 1e-8).
    ``grad`` is (P,); a non-finite gradient or result raises TrainingDivergedError.

    One sum checks the result: the new parameters' under sgd_momentum, where a non-finite
    gradient or buffer makes them non-finite too, as the old parameters are finite; the new
    buffer's and parameters' under rmsprop, whose buffer can overflow while g/sqrt(inf) leaves
    the parameters finite. A finite sum has no non-finite term. Only a non-finite sum runs the
    per-layer checks, of the gradient and then of the result, so a sum that merely overflows
    still steps.
    """
    g = np.asarray(grad, dtype=np.float64)
    if not g.shape == state.buffer.shape == model.params.shape:
        raise ValueError(f"gradient {g.shape} and optimizer buffer {state.buffer.shape} "
                         f"must match the parameters {model.params.shape}")
    lr, mu = state.learning_rate, state.momentum
    buffer, params = new = np.empty((2, g.size))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(state.buffer, mu, out=buffer)
        if state.kind == "sgd_momentum":
            buffer -= np.multiply(g, lr, out=params)
            np.add(model.params, buffer, out=params)
            total = np.add.reduce(params)
        else:
            buffer += (1.0 - mu) * g * g
            np.subtract(model.params, lr * g / np.sqrt(buffer + RMSPROP_EPS), out=params)
            total = np.add.reduce(new, axis=None)
    if not np.isfinite(total):
        for finite, what in ((np.isfinite(g), "gradient"), (np.isfinite(new).all(0), "update")):
            if (k := _first_non_finite_layer(model.shapes, finite)) is not None:
                raise TrainingDivergedError(f"non-finite {what} in layer {k}", layer_index=k)
    state.buffer[...] = buffer
    model.params[...] = params


def _write_pairs(shapes, flat: np.ndarray) -> list[dict]:
    return [{"weights": w.ravel().tolist(), "biases": b.tolist()}
            for w, b in param_views(shapes, flat)]


def _read_pairs(shapes, pairs) -> np.ndarray:
    """The flat vector of one stored weights/biases entry per (out, in) shape. Each list is read
    at its shape's length, so the vector holds only what the file stores."""
    return np.concatenate([
        read_field(pair, name, read_list(read_number, size), where=f"entry {k}")
        for k, (pair, (out, ind)) in enumerate(zip(pairs, shapes, strict=True))
        for name, size in (("weights", out * ind), ("biases", out))])


def save_checkpoint(path, model: MlpModel, optimizer: OptimizerState | None = None):
    """Write the model (and optional optimizer state) as one JSON document."""
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "layer_dims": [[ind, out] for out, ind in model.shapes],
        "activations": list(model.activations),
        "M": model.num_hypotheses,
        "output_dim": model.output_dim,
        "seed": model.seed,
        "parameters": _write_pairs(model.shapes, model.params),
        "optimizer": None if optimizer is None else {
            "kind": optimizer.kind,
            "learning_rate": optimizer.learning_rate,
            "momentum": optimizer.momentum,
            "buffers": _write_pairs(model.shapes, optimizer.buffer),
        },
        "extras": model.extras,
    }
    return write_json_atomic(path, doc, indent=None)


def load_checkpoint(path) -> tuple[MlpModel, OptimizerState | None]:
    """Read a checkpoint back; every field goes through ``read_field``, which names a bad one,
    and every refusal names the file."""
    doc = read_json(path)
    get = functools.partial(read_field, doc, where=None)
    with naming(path):
        if (version := get("schema_version", read_int)) != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(f"unsupported checkpoint schema {version!r}")
        shapes = get("layer_dims", lambda dims: [(read_int(o), read_int(i)) for i, o in dims])
        fields = (get("parameters", lambda v: _read_pairs(shapes, v)), shapes,
                  get("activations", read_list(read_str, len(shapes))),
                  get("output_dim", read_int), get("M", read_int),
                  get("seed", lambda v: v if v is None else read_seed(v), None),
                  get("extras", lambda v: v, {}))
        o = get("optimizer", lambda v: v, None)
        opt_get = functools.partial(read_field, o, where="optimizer")
        opt_fields = None if o is None else (
            opt_get("kind", read_str), opt_get("learning_rate", read_number),
            opt_get("momentum", read_number), opt_get("buffers", lambda v: _read_pairs(shapes, v)))
        return MlpModel(*fields), None if opt_fields is None else OptimizerState(*opt_fields)
