"""Evaluation metrics: oracle-min loss, hypothesis spread, image sharpness
and multi-label coverage scores.
"""

from __future__ import annotations

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


def oracle_min_loss(model: MlpModel, X, Y, kind: LossKind) -> float:
    """Mean over samples of the best hypothesis's base loss."""
    return float(_per_hypothesis_losses(model, X, Y, kind).min(axis=1).mean())


def oracle_min_loss_nested(model: MlpModel, X, Y, kind: LossKind) -> np.ndarray:
    """Oracle-min loss restricted to the first k hypotheses, for k = 1..M.

    Non-increasing in k by construction (the min runs over a growing set).
    """
    losses = _per_hypothesis_losses(model, X, Y, kind)
    running = np.minimum.accumulate(losses, axis=1)
    return running.mean(axis=0)


def _spread(hyps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For (n, M, d) hypothesis sets: each hypothesis's Euclidean distance to
    its set's mean, (n, M), and each set's per-dimension variance, (n, d)."""
    if hyps.shape[1] < 2:
        raise ValueError("hypothesis variance needs sets of at least 2 hypotheses")
    center = hyps.mean(axis=1, keepdims=True)
    return np.linalg.norm(hyps - center, axis=2), hyps.var(axis=1)


def dataset_hypothesis_variance(model: MlpModel, X) -> tuple[float, np.ndarray]:
    """Mean hypothesis spread over a dataset plus the mean per-dim variance."""
    dist, var = _per_row(model, X, lambda rows, hyps: _spread(hyps))
    return float(dist.mean()), var.mean(axis=0)


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


def dataset_sharpness(model: MlpModel, X, width: int, height: int,
                      channels: int = 1) -> float:
    """Mean squared forward-difference gradient magnitude of the model's outputs, read as
    ``height`` x ``width`` x ``channels`` images, over a dataset.

    Differences run toward larger row/column indices and are zero at the far boundary; the
    sum is averaged over channels, pixels, hypotheses and samples. Constant images score 0;
    scaling intensities by a scales the value a^2.
    """
    totals = _per_row(model, X, lambda rows, hyps: [
        _gradient_energy(hyps, width, height, channels)])[0]
    return float(np.mean(totals / (channels * width * height * model.num_hypotheses)))


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
