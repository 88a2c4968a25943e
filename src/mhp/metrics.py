"""Evaluation metrics: oracle-min loss, hypothesis spread, image sharpness
and multi-label coverage scores.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .losses import LossKind, hypothesis_targets, loss_values
from .network import MlpModel, _check_batch_input, _row_tiles, forward_batch


def _per_row(model: MlpModel, X, per_tile) -> list[np.ndarray]:
    """The (n, ...) arrays of per-row values that ``per_tile(rows, hyps)`` returns for each
    row tile of ``X``, given the tile's hypothesis sets ``hyps``.

    Only one tile's activations are alive at a time. Each row's values equal those of one
    whole-dataset ``forward_batch``, so reductions over the arrays add as they did then.
    """
    X = _check_batch_input(model, X)
    if len(X) == 0:
        raise ValueError("empty dataset")
    whole: list[np.ndarray] = []
    for rows in _row_tiles(len(X)):
        parts = per_tile(rows, forward_batch(model, X[rows]))
        whole = whole or [np.empty((len(X), *part.shape[1:])) for part in parts]
        for array, part in zip(whole, parts):
            array[rows] = part
    return whole


def _per_hypothesis_losses(model: MlpModel, X, Y, kind: LossKind) -> np.ndarray:
    """(n, M) base loss of each hypothesis against its sample's target."""
    targets = hypothesis_targets(kind, Y, len(X), model.output_dim)
    return _per_row(model, X, lambda rows, hyps: [loss_values(kind, hyps, targets[rows])])[0]


def _head_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the head axis of (n, M, d) values, adding the (n, d) slices in head order:
    the order ``np.add.reduce(values, axis=1)`` adds them in while d > 1. On short rows it
    is the faster of the two: on a (2048, 4, 2) tile, :func:`_spread` takes about half the
    time with it, because numpy's reduction runs its inner loop over the d values."""
    total = values[:, 0].copy()
    for head in range(1, values.shape[1]):
        total += values[:, head]
    return total


def _spread(hyps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For (n, M, d) hypothesis sets: each hypothesis's Euclidean distance to
    its set's mean, (n, M), and each set's per-dimension variance, (n, d).

    Bit for bit ``np.linalg.norm(hyps - hyps.mean(1, keepdims=True), axis=2)`` and
    ``hyps.var(axis=1)``. With d = 1 the head axis is the contiguous one, which numpy sums
    pairwise, so that case keeps numpy's reduction.
    """
    m = hyps.shape[1]
    head_sum = functools.partial(np.add.reduce, axis=1) if hyps.shape[2] == 1 else _head_sum
    diff = hyps - (head_sum(hyps) / m)[:, None]
    sq = np.multiply(diff, diff, out=diff)
    return np.sqrt(np.add.reduce(sq, axis=2)), head_sum(sq) / m


def _gradient_energy(hyps: np.ndarray, width: int, height: int, channels: int) -> np.ndarray:
    """Per-row sum of squared forward differences of (n, M, H*W*C) outputs."""
    n, m = hyps.shape[:2]
    if hyps.shape[2:] != (height * width * channels,):
        raise ValueError(
            f"cannot reshape outputs of size {hyps.shape[2:]} to {height}x{width}x{channels}")
    imgs = hyps.reshape(n, m, height, width, channels)
    gx = np.zeros_like(imgs)
    gy = np.zeros_like(imgs)
    gx[:, :, :, :-1] = imgs[:, :, :, 1:] - imgs[:, :, :, :-1]
    gy[:, :, :-1] = imgs[:, :, 1:] - imgs[:, :, :-1]
    return (gx * gx + gy * gy).reshape(n, m * hyps.shape[2]).sum(axis=1)


@dataclass(eq=False)
class DatasetMetrics:
    """The dataset metrics of one :func:`dataset_metrics` pass; one not asked for is None."""
    oracle_min_loss: float | None = None
    hypothesis_spread: float | None = None
    per_dim_variance: np.ndarray | None = None
    sharpness: float | None = None


def dataset_metrics(model: MlpModel, X, Y=None, kind: LossKind | None = None, *,
                    spread: bool = False,
                    image: tuple[int, int, int] | None = None) -> DatasetMetrics:
    """Every asked-for dataset metric from one forward pass per row tile of ``X``.

    With ``kind``, the oracle-min loss: the mean over samples of the best hypothesis's base
    loss against the targets ``Y``. With ``spread``, the mean distance of a hypothesis to its
    set's mean and the mean per-dimension variance of a set. With ``image = (width, height,
    channels)``, the sharpness: the mean squared forward-difference gradient magnitude of the
    outputs read as ``height`` x ``width`` x ``channels`` images, with differences running
    toward larger row/column indices, zero at the far boundary, and the sum averaged over
    channels, pixels, hypotheses and samples.

    Each metric reduces the (n, ...) array of its per-row values whole, so its sums add as
    in one whole-dataset pass that computes it alone. Asked for none, it runs no pass.
    """
    if (Y is None) != (kind is None):
        raise ValueError("the oracle-min loss needs both targets and a base loss")
    if kind is None and not spread and not image:
        return DatasetMetrics()
    if spread and model.num_hypotheses < 2:
        raise ValueError("hypothesis variance needs sets of at least 2 hypotheses")
    if kind is not None:
        targets = hypothesis_targets(kind, Y, len(X), model.output_dim)

    def per_tile(rows, hyps):
        values = []
        if kind is not None:
            values.append(loss_values(kind, hyps, targets[rows]).min(axis=1))
        if spread:
            values.extend(_spread(hyps))
        if image:
            values.append(_gradient_energy(hyps, *image))
        return values

    whole = iter(_per_row(model, X, per_tile))
    result = DatasetMetrics()
    if kind is not None:
        result.oracle_min_loss = float(next(whole).mean())
    if spread:
        result.hypothesis_spread = float(next(whole).mean())
        result.per_dim_variance = next(whole).mean(axis=0)
    if image:
        pixels = image[0] * image[1] * image[2]
        result.sharpness = float(np.mean(next(whole) / (pixels * model.num_hypotheses)))
    return result


def oracle_min_loss(model: MlpModel, X, Y, kind: LossKind) -> float:
    """Mean over samples of the best hypothesis's base loss."""
    return dataset_metrics(model, X, Y, kind).oracle_min_loss


def oracle_min_loss_nested(model: MlpModel, X, Y, kind: LossKind) -> np.ndarray:
    """Oracle-min loss restricted to the first k hypotheses, for k = 1..M.

    Non-increasing in k by construction (the min runs over a growing set).
    """
    losses = _per_hypothesis_losses(model, X, Y, kind)
    running = np.minimum.accumulate(losses, axis=1)
    return running.mean(axis=0)


def dataset_hypothesis_variance(model: MlpModel, X) -> tuple[float, np.ndarray]:
    """Mean hypothesis spread over a dataset plus the mean per-dim variance."""
    result = dataset_metrics(model, X, spread=True)
    return result.hypothesis_spread, result.per_dim_variance


def dataset_sharpness(model: MlpModel, X, width: int, height: int,
                      channels: int = 1) -> float:
    """Sharpness of the model's outputs over a dataset, as :func:`dataset_metrics` defines it.
    Constant images score 0; scaling intensities by a scales the value a^2."""
    return dataset_metrics(model, X, image=(width, height, channels)).sharpness


def multilabel_scores(model: MlpModel, features, label_sets) -> tuple[float, float]:
    """Coverage of true label sets by the per-hypothesis argmax classes.

    The predicted set per input is the deduplicated argmax class of each
    hypothesis. Returns (recall_at_M, precision), both averaged over inputs:
    recall is the fraction of true labels covered, precision the fraction of
    predicted labels that are true.
    """
    X = np.asarray(features, dtype=np.float64)
    if len(X) != len(label_sets):
        raise ValueError("one label set per input required")
    if len(X) == 0:
        raise ValueError("empty dataset")
    hyps = forward_batch(model, X)
    preds = hyps.argmax(axis=2)
    recalls, precisions = [], []
    for i, true_set in enumerate(label_sets):
        true = set(int(c) for c in true_set)
        if not true:
            raise ValueError("empty label set")
        predicted = set(int(c) for c in preds[i])
        hit = len(true & predicted)
        recalls.append(hit / len(true))
        precisions.append(hit / len(predicted))
    return float(np.mean(recalls)), float(np.mean(precisions))
