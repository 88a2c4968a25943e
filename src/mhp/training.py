"""Training loop: forward, winner-takes-all weighting, backward, update.

Each step forwards a batch, weights the per-hypothesis loss gradients by the
relaxed assignment, backpropagates their batch mean through the activations
the forward pass kept and applies one optimizer update. Each epoch's targets
are shaped once and its dropout masks are drawn once, one row per sample,
before its first step. Runs are deterministic given the schedule seed: the
data stream and the dropout stream are derived from it as independent child
generators.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .losses import hypothesis_targets, loss_grads
from .meta_loss import MetaLossConfig, assign_batch, draw_dropout
from .network import MlpModel, OptimizerState, TrainingDivergedError, backward_batch, forward_batch, step


@dataclass
class TrainSchedule:
    epochs: int
    batch_size: int
    seed: int
    samples_per_epoch: int = 10_000  # only used with callable samplers

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.samples_per_epoch < 1:
            raise ValueError("epochs, batch_size and samples_per_epoch must be positive")


@dataclass
class EpochMetrics:
    epoch: int
    mean_meta_loss: float
    oracle_min_loss: float
    wall_ms: float


def _epoch_data(data, rng: np.random.Generator, schedule: TrainSchedule):
    X, Y = data(rng, schedule.samples_per_epoch) if callable(data) else data
    X, Y = np.asarray(X, dtype=np.float64), np.asarray(Y)
    if X.ndim == 0 or Y.ndim == 0:
        raise ValueError(f"inputs of shape {X.shape} and targets of shape {Y.shape}: "
                         "both need a leading sample axis")
    if len(X) != len(Y):
        raise ValueError(f"{len(X)} inputs but {len(Y)} targets")
    if len(X) == 0:
        raise ValueError("empty dataset")
    if not callable(data):
        order = rng.permutation(len(X))
        X, Y = X[order], Y[order]
    return X, Y


def train(model: MlpModel, data, config: MetaLossConfig,
          optimizer: OptimizerState, schedule: TrainSchedule) -> list[EpochMetrics]:
    """Train ``model`` in place; returns one metrics record per epoch.

    ``data`` is either a fixed ``(X, Y)`` pair, reshuffled every epoch, or a
    callable ``sampler(rng, n)`` drawing a fresh epoch of n samples. Inputs and
    targets of different lengths, a scalar in place of either, or targets of
    the wrong shape for the loss raise ValueError before the epoch's first
    step. Aborts with TrainingDivergedError (carrying epoch and batch index)
    as soon as a non-finite loss or gradient appears. A call either finishes
    or changes nothing: on any exception ``model.params`` and
    ``optimizer.buffer`` are put back to their values at the call before it
    propagates.
    """
    if config.num_hypotheses != model.num_hypotheses:
        raise ValueError("meta-loss config and model disagree on the hypothesis count")
    start = model.params.copy(), optimizer.buffer.copy()
    try:
        return _train_epochs(model, data, config, optimizer, schedule)
    except BaseException:
        model.params[...], optimizer.buffer[...] = start
        raise


def _train_epochs(model: MlpModel, data, config: MetaLossConfig,
                  optimizer: OptimizerState, schedule: TrainSchedule) -> list[EpochMetrics]:
    root = np.random.SeedSequence(schedule.seed)
    data_ss, dropout_ss = root.spawn(2)
    data_rng = np.random.default_rng(data_ss)
    dropout_rng = np.random.default_rng(dropout_ss)

    history: list[EpochMetrics] = []
    for epoch in range(schedule.epochs):
        t0 = time.perf_counter()
        X, Y = _epoch_data(data, data_rng, schedule)
        n = len(X)
        T = hypothesis_targets(config.base_loss, Y, n, model.output_dim)
        dropout = draw_dropout(config, n, dropout_rng)
        meta_sum = 0.0
        oracle_sum = 0.0
        # overflow anywhere in a step is how divergence first shows up; the
        # checks below and in ``step`` turn it into a typed error
        with np.errstate(over="ignore", invalid="ignore"):
            for b, lo in enumerate(range(0, n, schedule.batch_size)):
                hi = lo + schedule.batch_size
                xb, tb = X[lo:hi], T[lo:hi]
                try:
                    hyps, acts = forward_batch(model, xb, return_activations=True)
                    weights, losses, _, _ = assign_batch(config, hyps, tb, dropout.rows(lo, hi))
                    meta = float(np.add.reduce(weights * losses, axis=None))
                    # a finite sum has no non-finite term: 0 * inf is NaN on a dropped head
                    if not math.isfinite(meta) and not np.isfinite(losses).all():
                        raise TrainingDivergedError("non-finite loss")
                    meta_sum += meta
                    oracle_sum += float(np.add.reduce(np.minimum.reduce(losses, axis=1)))
                    upstream = loss_grads(config.base_loss, hyps, tb)
                    upstream *= weights[:, :, None]
                    upstream /= len(xb)
                    step(optimizer, model, backward_batch(model, upstream, acts))
                except TrainingDivergedError as err:
                    err.epoch, err.batch_index = epoch, b
                    err.args = (f"{err} at epoch {epoch}, batch {b}",)
                    raise
        history.append(EpochMetrics(
            epoch=epoch,
            mean_meta_loss=meta_sum / n,
            oracle_min_loss=oracle_sum / n,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        ))
    return history
