"""Winner-takes-all meta-loss over a set of predicted hypotheses.

Per sample, the hypothesis with the lowest base loss receives weight
``1 - epsilon`` and every other active hypothesis shares the remaining
``epsilon`` equally, so losing hypotheses keep receiving a small gradient
instead of starving. Whole hypotheses can additionally drop out of a step
with a low probability, which randomizes the winner selection enough to
revive hypotheses whose cells contain no training labels yet.

Weights over active hypotheses always sum to 1. With a single hypothesis
the meta-loss reduces to the base loss exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import L2, LossKind, _one_row, hypothesis_targets, loss_grads, loss_values


@dataclass(frozen=True)
class MetaLossConfig:
    num_hypotheses: int
    epsilon: float = 0.05
    dropout_prob: float = 0.01
    base_loss: LossKind = L2

    def __post_init__(self) -> None:
        if self.num_hypotheses < 1:
            raise ValueError("num_hypotheses must be >= 1")
        if self.num_hypotheses >= 2 and not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must lie in [0, 1)")


@dataclass(frozen=True)
class AssignmentResult:
    best_index: int
    weights: np.ndarray              # (M,), active weights sum to 1
    per_hypothesis_losses: np.ndarray  # (M,), computed before dropout
    dropped_mask: np.ndarray         # (M,) bool


def assign(config: MetaLossConfig, hypotheses, target,
           rng: np.random.Generator | None = None,
           dropped_mask=None) -> AssignmentResult:
    """Per-hypothesis losses, dropout mask, winner and relaxed weights.

    The winner is the active hypothesis with the lowest base loss (lowest
    index on ties). Pass ``dropped_mask`` to fix the dropout draw; otherwise
    it is sampled from ``rng`` when ``dropout_prob > 0``. A one-row
    :func:`assign_batch`, consuming ``rng`` identically.
    """
    h = np.asarray(hypotheses, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != config.num_hypotheses:
        raise ValueError(f"expected ({config.num_hypotheses}, d) hypotheses, got {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("non-finite hypotheses")
    masks = None if dropped_mask is None else np.asarray(dropped_mask, dtype=bool)[None]
    weights, losses, best, masks = assign_batch(config, h[None], np.asarray(target)[None],
                                                rng, masks)
    return AssignmentResult(int(best[0]), weights[0], losses[0], masks[0])


def meta_loss(config: MetaLossConfig, hypotheses, target,
              assignment: AssignmentResult) -> float:
    """Weighted sum of per-hypothesis base losses under a fixed assignment."""
    losses = loss_values(config.base_loss, *_one_row(config.base_loss, hypotheses, target))
    return float(assignment.weights @ losses[0])


def meta_loss_upstream_grads(config: MetaLossConfig, hypotheses, target,
                             assignment: AssignmentResult) -> np.ndarray:
    """Per-hypothesis gradients weights[j] * dL/df_j, shape (M, d).

    Dropped hypotheses get an exactly zero gradient vector.
    """
    g = loss_grads(config.base_loss, *_one_row(config.base_loss, hypotheses, target))
    return assignment.weights[:, None] * g[0]


def assign_batch(config: MetaLossConfig, hypotheses, targets,
                 rng: np.random.Generator | None = None, dropped_masks=None):
    """Vectorized assignment for a batch.

    ``hypotheses`` is (n, M, d); regression targets are (n, d), class targets
    (n,). Returns (weights (n, M), losses (n, M), best (n,), masks (n, M)).
    Dropout draws consume ``rng`` in the same row-major order as n successive
    single-sample draws, so the batch path matches the sequential one stream
    for stream.
    """
    h = np.asarray(hypotheses, dtype=np.float64)
    n, m = h.shape[0], h.shape[1]
    if m != config.num_hypotheses:
        raise ValueError(f"expected M={config.num_hypotheses} hypotheses, got {m}")
    t = hypothesis_targets(config.base_loss, targets, n, h.shape[2])
    losses = loss_values(config.base_loss, h, t)

    if dropped_masks is not None:
        masks = np.asarray(dropped_masks, dtype=bool).copy()
        if masks.shape != (n, m):
            raise ValueError(f"expected dropout masks of shape {(n, m)}, got {masks.shape}")
    elif config.dropout_prob > 0.0:
        if rng is None:
            raise ValueError("rng required when dropout_prob > 0")
        masks = rng.random((n, m)) < config.dropout_prob
    else:
        masks = np.zeros((n, m), dtype=bool)
    masks[masks.all(axis=1)] = False

    masked = np.where(masks, np.inf, losses)
    best = masked.argmin(axis=1)
    active = m - masks.sum(axis=1)
    if m == 1:
        weights = np.ones((n, 1))
    else:
        share = config.epsilon / np.maximum(active - 1, 1)
        weights = np.where(masks, 0.0, share[:, None])
        rows = np.arange(n)
        weights[rows, best] = 1.0 - config.epsilon
        weights[active == 1] = 0.0
        weights[rows[active == 1], best[active == 1]] = 1.0
    return weights, losses, best, masks
