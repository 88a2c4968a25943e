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

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .losses import L2, LossKind, check_hypothesis_targets, loss_values


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


@functools.lru_cache(maxsize=16)
def _weight_tables(m: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The relaxed weights of M hypotheses, indexed by the number k < M of dropped ones: the
    winner's and each active loser's. A lone active hypothesis takes weight 1."""
    active = m - np.arange(m)
    winner = np.where(active > 1, 1.0 - epsilon, 1.0)
    loser = np.where(active > 1, epsilon / np.maximum(active - 1, 1), 0.0)
    winner.flags.writeable = loser.flags.writeable = False
    return winner, loser


class HeadDropout(NamedTuple):
    """Per row: the dropped heads, the winner's weight, and the row's weights before its
    winner is known (each active loser's share on each active head, 0 on each dropped one)."""

    masks: np.ndarray        # (n, M) bool, True where a head is dropped
    winner: np.ndarray       # (n,)
    loser_rows: np.ndarray   # (n, M)

    def rows(self, start: int, stop: int) -> "HeadDropout":
        return HeadDropout(self.masks[start:stop], self.winner[start:stop],
                           self.loser_rows[start:stop])


def draw_dropout(config: MetaLossConfig, n: int, rng: np.random.Generator | None = None,
                 dropped_masks=None) -> HeadDropout:
    """Dropout of n rows: the given boolean (n, M) ``dropped_masks``, else one
    ``rng.random((n, M)) < dropout_prob`` draw (nothing is drawn when it is 0), so
    consecutive row chunks draw the same stream as one call. A row with every head
    dropped drops none.

    One integer product of the masks with ones counts each row's dropped heads (a
    reduction along the M-long rows costs far more per row); the count indexes the weight
    tables. The loser rows are built here, once for all n rows, so a batch only copies them.
    """
    m = config.num_hypotheses
    if dropped_masks is not None:
        masks = np.asarray(dropped_masks)
        if masks.dtype != bool:
            raise ValueError(f"dropout masks must be boolean, got dtype {masks.dtype}")
        if masks.shape != (n, m):
            raise ValueError(f"expected dropout masks of shape {(n, m)}, got {masks.shape}")
        masks = masks.copy()
    elif config.dropout_prob > 0.0:
        if rng is None:
            raise ValueError("rng required when dropout_prob > 0")
        masks = rng.random((n, m)) < config.dropout_prob
    else:
        masks = np.zeros((n, m), dtype=bool)
    dropped = masks @ np.ones(m, dtype=np.intp)
    all_dropped = dropped == m
    if np.logical_or.reduce(all_dropped):
        masks[all_dropped] = False
        dropped[all_dropped] = 0
    winner, loser = _weight_tables(m, config.epsilon)
    loser_rows = np.repeat(loser[dropped], m).reshape(n, m)
    loser_rows[masks] = 0.0
    return HeadDropout(masks, winner[dropped], loser_rows)


def assign_batch(config: MetaLossConfig, hypotheses, targets, dropout: HeadDropout):
    """Vectorized assignment for a batch.

    ``hypotheses`` is (n, M, d); ``targets`` are shaped as :func:`hypothesis_targets`
    returns them, (n, 1, d) for regression or (n, 1) class indices; ``dropout`` holds n
    rows of :func:`draw_dropout`. Returns (weights (n, M), losses (n, M), best (n,),
    masks (n, M)): the weights are a fresh copy of the dropout's loser rows with each
    row's winner, the active head of least loss, set to the winner's weight.
    """
    h = np.asarray(hypotheses, dtype=np.float64)
    n, m = h.shape[0], h.shape[1]
    if m != config.num_hypotheses:
        raise ValueError(f"expected M={config.num_hypotheses} hypotheses, got {m}")
    check_hypothesis_targets(config.base_loss, targets, n, h.shape[2])
    masks = dropout.masks
    if masks.shape != (n, m):
        raise ValueError(f"expected dropout masks of shape {(n, m)}, got {masks.shape}")
    losses = loss_values(config.base_loss, h, targets)
    best = np.where(masks, np.inf, losses).argmin(axis=1)
    weights = dropout.loser_rows.copy()
    weights[np.arange(n), best] = dropout.winner
    return weights, losses, best, masks
