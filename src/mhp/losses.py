"""Base losses: squared error, cross entropy over logits, and Tukey's
bi-weight. Values are summed over output dimensions, never averaged; batch
averaging is the trainer's job. All functions accept arbitrary leading axes
with the trailing axis as the output (or class) dimension.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .io_utils import read_str

DEFAULT_TUKEY_C = 4.685  # 95% asymptotic efficiency under Gaussian noise

_KNOWN = ("l2", "cross_entropy", "tukey")


@dataclass(frozen=True)
class LossKind:
    """Identifies a base loss; "tukey" carries its cutoff constant."""

    name: str
    tukey_c: float = DEFAULT_TUKEY_C

    def __post_init__(self) -> None:
        if self.name not in _KNOWN:
            raise ValueError(f"unknown loss {self.name!r}, expected one of {_KNOWN}")
        if self.name == "tukey" and not 0.0 < self.tukey_c < np.inf:
            raise ValueError("tukey cutoff must be positive and finite")

    @classmethod
    def parse(cls, spec: str) -> "LossKind":
        """Parse a config string: "l2", "cross_entropy" or "tukey:<c>"."""
        if read_str(spec).startswith("tukey:"):
            return cls("tukey", float(spec.split(":", 1)[1]))
        if spec == "tukey":
            return cls("tukey")
        return cls(spec)

    def spec(self) -> str:
        """Inverse of :meth:`parse`."""
        if self.name == "tukey":
            return f"tukey:{self.tukey_c!r}"
        return self.name


L2 = LossKind("l2")
CROSS_ENTROPY = LossKind("cross_entropy")


@functools.lru_cache(maxsize=16)
def _index_grids(lead: tuple, target_shape: tuple) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """The leading shape that logits of leading shape ``lead`` share with targets of
    ``target_shape``, and its read-only sparse index grids."""
    shape = np.broadcast_shapes(lead, target_shape)
    grids = np.indices(shape, sparse=True)
    for grid in grids:
        grid.flags.writeable = False
    return shape, grids


def _target_logits(p: np.ndarray, targets) -> tuple[np.ndarray, tuple]:
    """Logits broadcast (only where needed) to the leading shape they share with the integer
    targets, and one fancy index of each target's logit, which never copies a broadcast view."""
    t = np.asarray(targets)
    if t.dtype.kind not in "iu":
        raise ValueError("cross_entropy targets must be integer class indices")
    if t.size and (np.minimum.reduce(t, axis=None) < 0
                   or np.maximum.reduce(t, axis=None) >= p.shape[-1]):
        raise ValueError(f"class index out of range for {p.shape[-1]} classes")
    lead, grids = _index_grids(p.shape[:-1], t.shape)
    if p.shape[:-1] != lead:
        p = np.broadcast_to(p, lead + p.shape[-1:])
    return p, (*grids, t)


def hypothesis_targets(kind: LossKind, targets, n: int, output_dim: int) -> np.ndarray:
    """Targets shaped to broadcast against (n, M, ...) hypothesis sets.

    The shape check of raw targets (those of a training epoch or a metric
    pass): class indices must be (n,) and become (n, 1), regression targets
    must be (n, output_dim) and become (n, 1, output_dim); any other shape
    raises ValueError. :func:`check_hypothesis_targets` checks targets already
    shaped, for ``assign_batch``.
    """
    if kind.name == "cross_entropy":
        t, want = np.asarray(targets), (n,)
    else:
        t, want = np.asarray(targets, dtype=np.float64), (n, output_dim)
    if t.shape != want:
        raise ValueError(f"{kind.name} targets must have shape {want}, got {t.shape}")
    return t[:, None]


def check_hypothesis_targets(kind: LossKind, targets, n: int, output_dim: int) -> None:
    """Raise ValueError unless ``targets`` have the shape :func:`hypothesis_targets` gives
    the targets of n samples."""
    want = (n, 1) if kind.name == "cross_entropy" else (n, 1, output_dim)
    got = np.shape(targets)
    if got != want:
        raise ValueError(f"{kind.name} targets shaped for hypotheses must have shape {want}, "
                         f"got {got}")


def loss_values(kind: LossKind, predictions, targets) -> np.ndarray:
    """Loss of each prediction against its target, summed over the last axis.

    Regression targets broadcast against ``predictions``; cross-entropy
    targets are integer class indices broadcasting against the leading axes.
    """
    p = np.asarray(predictions, dtype=np.float64)
    if kind.name == "cross_entropy":
        p, picked = _target_logits(p, targets)
        m = np.maximum.reduce(p, axis=-1, keepdims=True)
        lse = np.log(np.add.reduce(np.exp(p - m), axis=-1)) + m[..., 0]
        return lse - p[picked]
    r = p - np.asarray(targets, dtype=np.float64)
    if kind.name == "l2":
        # in place, bitwise the same as 0.5 * (r * r).sum(axis=-1): two
        # temporaries instead of four on the hot path of voronoi._nearest
        r *= r
        s = np.add.reduce(r, axis=-1)
        s *= 0.5
        return s
    c = kind.tukey_c
    q = np.minimum((r / c) ** 2, 1.0)
    return (c * c / 6.0) * np.add.reduce(1.0 - (1.0 - q) ** 3, axis=-1)


def loss_grads(kind: LossKind, predictions, targets) -> np.ndarray:
    """Gradient of :func:`loss_values`: a fresh, writable array shaped like the predictions."""
    p = np.asarray(predictions, dtype=np.float64)
    if kind.name == "cross_entropy":
        p, picked = _target_logits(p, targets)
        g = softmax(p)
        g[picked] -= 1.0
        return g
    r = p - np.asarray(targets, dtype=np.float64)
    if kind.name == "l2":
        return r
    c = kind.tukey_c
    inside = np.abs(r) <= c
    return np.where(inside, r * (1.0 - (r / c) ** 2) ** 2, 0.0)


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)

