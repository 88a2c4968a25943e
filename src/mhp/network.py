"""Dense feed-forward network with hand-written forward and backward passes.

One trunk feeds a wide final layer that is sliced into contiguous blocks, so
a single model emits several output vectors per input. There is no autodiff
graph: the forward pass can hand back every layer's activations, and the
backward pass applies the chain rule to them layer by layer against
caller-supplied upstream vectors; it runs the forward pass itself only when
not given them.
First-order optimizers (SGD with momentum, RMSProp) mutate the model in
place; the training loop owns the model exclusively between steps.

All arithmetic is float64. Checkpoints are single JSON documents with
parameters flattened row-major, layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .io_utils import write_json_atomic

ACTIVATIONS = ("relu", "identity")
HEAD_INIT_STD = 0.01
RMSPROP_EPS = 1e-8
CHECKPOINT_SCHEMA_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Non-finite values appeared on the training path."""

    def __init__(self, message: str, *, layer_index: int | None = None,
                 epoch: int | None = None, batch_index: int | None = None):
        super().__init__(message)
        self.layer_index = layer_index
        self.epoch = epoch
        self.batch_index = batch_index


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)
    activation: str      # "relu" | "identity"


@dataclass
class MlpModel:
    """Weights of the shared-trunk, multi-headed predictor.

    The final layer has ``num_hypotheses * output_dim`` units with identity
    activation; adjacent layer dimensions must chain.
    """

    layers: list[Layer]
    output_dim: int
    num_hypotheses: int
    seed: int | None = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    def validate(self) -> None:
        if not self.layers:
            raise ValueError("model needs at least one layer")
        if self.output_dim < 1 or self.num_hypotheses < 1:
            raise ValueError("output_dim and num_hypotheses must be positive")
        prev = None
        for k, layer in enumerate(self.layers):
            w, b = np.asarray(layer.weights), np.asarray(layer.biases)
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise ValueError(f"layer {k}: weights (out,in) and biases (out,) required")
            if prev is not None and w.shape[1] != prev:
                raise ValueError(f"layer {k}: in-dim {w.shape[1]} != previous out-dim {prev}")
            if layer.activation not in ACTIVATIONS:
                raise ValueError(f"layer {k}: unknown activation {layer.activation!r}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {k}: non-finite parameters")
            prev = w.shape[0]
        if prev != self.num_hypotheses * self.output_dim:
            raise ValueError(
                f"final layer width {prev} != num_hypotheses*output_dim "
                f"{self.num_hypotheses * self.output_dim}")
        if self.layers[-1].activation != "identity":
            raise ValueError("final layer activation must be identity")

    def num_parameters(self) -> int:
        return sum(l.weights.size + l.biases.size for l in self.layers)


def init_mlp(input_dim: int, hidden_dims, output_dim: int, num_hypotheses: int,
             rng: np.random.Generator, seed: int | None = None,
             extras: dict | None = None) -> MlpModel:
    """Seeded He-style initialization with diversified head blocks.

    Hidden weights are N(0, 2/fan_in) with zero biases. The final layer
    replicates one shared output block across all hypothesis heads and adds
    independent N(0, 0.01^2) noise to weights and biases, so heads start
    near-identical but break symmetry under the winner-takes-all weighting.
    """
    layers: list[Layer] = []
    prev = int(input_dim)
    if prev < 1:
        raise ValueError("input_dim must be positive")
    for h in hidden_dims:
        w = rng.normal(0.0, np.sqrt(2.0 / prev), size=(int(h), prev))
        layers.append(Layer(w, np.zeros(int(h)), "relu"))
        prev = int(h)
    base = rng.normal(0.0, np.sqrt(2.0 / prev), size=(output_dim, prev))
    head_w = np.tile(base, (num_hypotheses, 1))
    head_w = head_w + rng.normal(0.0, HEAD_INIT_STD, size=head_w.shape)
    head_b = rng.normal(0.0, HEAD_INIT_STD, size=num_hypotheses * output_dim)
    layers.append(Layer(head_w, head_b, "identity"))
    return MlpModel(layers, output_dim, num_hypotheses, seed=seed,
                    extras=dict(extras or {}))


def _check_batch_input(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"expected inputs of shape (n, {model.input_dim}), got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite input")
    return X


def _run_layers(model: MlpModel, X) -> list[np.ndarray]:
    """Checks the inputs, then returns activations a_{-1} = X, a_0, ..., a_L.

    The one forward loop: :func:`forward_batch` and a :func:`backward_batch`
    called without activations both run it.
    """
    acts = [_check_batch_input(model, X)]
    for layer in model.layers:
        z = acts[-1] @ layer.weights.T + layer.biases
        acts.append(np.maximum(z, 0.0, out=z) if layer.activation == "relu" else z)
    return acts


def forward_batch(model: MlpModel, X, *, return_activations: bool = False):
    """Hypothesis sets for a batch of inputs, shape (n, M, output_dim).

    With ``return_activations`` the result is ``(hypotheses, activations)``,
    where ``activations`` is the list :func:`backward_batch` accepts for the
    same model and inputs.
    """
    acts = _run_layers(model, X)
    hyps = acts[-1].reshape(len(acts[0]), model.num_hypotheses, model.output_dim)
    return (hyps, acts) if return_activations else hyps


def forward(model: MlpModel, x) -> np.ndarray:
    """Hypothesis set for one input, shape (M, output_dim).

    Pure: repeated calls with identical inputs are bit-identical.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d input vector, got shape {x.shape}")
    return forward_batch(model, x[None, :])[0]


def backward_batch(model: MlpModel, X, upstream_grads,
                   activations: list[np.ndarray] | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients of sum_i sum_j <upstream[i,j], f_j(x_i)>.

    ``upstream_grads`` has shape (n, M, output_dim); the result is one
    (dweights, dbiases) pair per layer, summed over the batch. Linear in the
    upstream vectors. ``activations`` are those that
    ``forward_batch(model, X, return_activations=True)`` returned for the
    same parameters; without them the forward pass runs here first.
    """
    if activations is None:
        activations = _run_layers(model, X)
    elif len(activations) != len(model.layers) + 1:
        raise ValueError(f"expected {len(model.layers) + 1} activations, got {len(activations)}")
    u = np.asarray(upstream_grads, dtype=np.float64)
    n = activations[0].shape[0]
    want = (n, model.num_hypotheses, model.output_dim)
    if u.shape != want:
        raise ValueError(f"expected upstream grads of shape {want}, got {u.shape}")
    delta = u.reshape(n, model.num_hypotheses * model.output_dim)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.layers)  # type: ignore
    for k in range(len(model.layers) - 1, -1, -1):
        grads[k] = (delta.T @ activations[k], delta.sum(axis=0))
        if k > 0:
            delta = delta @ model.layers[k].weights
            if model.layers[k - 1].activation == "relu":
                # relu(z) > 0 exactly where z > 0, so the mask needs no z
                delta *= activations[k] > 0.0
    return grads


def backward(model: MlpModel, x, upstream_grads) -> list[tuple[np.ndarray, np.ndarray]]:
    """Single-input wrapper around :func:`backward_batch`."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d input vector, got shape {x.shape}")
    u = np.asarray(upstream_grads, dtype=np.float64)
    return backward_batch(model, x[None, :], u[None, ...])


@dataclass
class OptimizerState:
    """First-order optimizer state.

    ``momentum`` is the velocity coefficient for sgd_momentum and the
    squared-gradient decay for rmsprop. Buffers mirror parameter shapes.
    """

    kind: str  # "sgd_momentum" | "rmsprop"
    learning_rate: float
    momentum: float
    buffers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self) -> None:
        if self.kind not in ("sgd_momentum", "rmsprop"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum/decay must lie in [0, 1)")
        for k, (bw, bb) in enumerate(self.buffers):
            if bw.ndim != 2 or bb.shape != bw.shape[:1]:
                raise ValueError(f"optimizer buffer {k}: weights (out,in) and biases (out,) required")


def make_optimizer(kind: str, model: MlpModel, learning_rate: float,
                   momentum: float = 0.9) -> OptimizerState:
    buffers = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in model.layers]
    return OptimizerState(kind, float(learning_rate), float(momentum), buffers)


def step(state: OptimizerState, model: MlpModel, grads) -> None:
    """Apply one update in place.

    sgd_momentum: v <- mu*v - lr*g; theta <- theta + v.
    rmsprop: s <- rho*s + (1-rho)*g^2; theta <- theta - lr*g/sqrt(s + 1e-8).
    Raises TrainingDivergedError (with the layer index) on non-finite grads.
    """
    if len(grads) != len(model.layers):
        raise ValueError("gradient list does not match model layers")
    grads = [(np.asarray(dw, dtype=np.float64), np.asarray(db, dtype=np.float64))
             for dw, db in grads]
    # every gradient is checked before any parameter or buffer moves
    for k, (layer, (dw, db)) in enumerate(zip(model.layers, grads)):
        if dw.shape != layer.weights.shape or db.shape != layer.biases.shape:
            raise ValueError(f"layer {k}: gradient shape mismatch")
        if not (np.isfinite(dw).all() and np.isfinite(db).all()):
            raise TrainingDivergedError(f"non-finite gradient in layer {k}", layer_index=k)
    lr, mu = state.learning_rate, state.momentum
    for layer, (dw, db), (bw, bb) in zip(model.layers, grads, state.buffers):
        if state.kind == "sgd_momentum":
            bw *= mu
            bw -= lr * dw
            bb *= mu
            bb -= lr * db
            layer.weights += bw
            layer.biases += bb
        else:
            bw *= mu
            bw += (1.0 - mu) * dw * dw
            bb *= mu
            bb += (1.0 - mu) * db * db
            layer.weights -= lr * dw / np.sqrt(bw + RMSPROP_EPS)
            layer.biases -= lr * db / np.sqrt(bb + RMSPROP_EPS)


def save_checkpoint(path, model: MlpModel, optimizer: OptimizerState | None = None):
    """Write the model (and optional optimizer state) as one JSON document."""
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "layer_dims": [[l.weights.shape[1], l.weights.shape[0]] for l in model.layers],
        "activations": [l.activation for l in model.layers],
        "M": model.num_hypotheses,
        "output_dim": model.output_dim,
        "seed": model.seed,
        "parameters": [
            {"weights": l.weights.ravel().tolist(), "biases": l.biases.tolist()}
            for l in model.layers
        ],
        "optimizer": None if optimizer is None else {
            "kind": optimizer.kind,
            "learning_rate": optimizer.learning_rate,
            "momentum": optimizer.momentum,
            "buffers": [
                {"weights": bw.ravel().tolist(), "biases": bb.tolist()}
                for bw, bb in optimizer.buffers
            ],
        },
        "extras": model.extras,
    }
    return write_json_atomic(path, doc, indent=None)


def load_checkpoint(path) -> tuple[MlpModel, OptimizerState | None]:
    """Read a checkpoint back; a malformed document raises ValueError."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(f"unsupported checkpoint schema {doc.get('schema_version')!r}")
        layers = []
        for (ind, out), act, params in zip(doc["layer_dims"], doc["activations"],
                                           doc["parameters"], strict=True):
            w = np.array(params["weights"], dtype=np.float64).reshape(out, ind)
            b = np.array(params["biases"], dtype=np.float64)
            layers.append(Layer(w, b, act))
        model = MlpModel(layers, int(doc["output_dim"]), int(doc["M"]),
                         seed=doc.get("seed"), extras=doc.get("extras") or {})
        opt = None
        if doc.get("optimizer"):
            o = doc["optimizer"]
            if len(o["buffers"]) != len(layers):
                raise ValueError(f"{len(o['buffers'])} optimizer buffer pairs for {len(layers)} layers")
            buffers = []
            for layer, bufs in zip(layers, o["buffers"]):
                bw = np.array(bufs["weights"], dtype=np.float64).reshape(layer.weights.shape)
                bb = np.array(bufs["biases"], dtype=np.float64)
                buffers.append((bw, bb))
            opt = OptimizerState(o["kind"], float(o["learning_rate"]), float(o["momentum"]), buffers)
    except (KeyError, TypeError, AttributeError) as err:
        raise ValueError(f"malformed checkpoint {path}: {type(err).__name__} {err}") from err
    return model, opt
