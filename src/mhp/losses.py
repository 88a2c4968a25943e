"""Base losses: squared error, cross entropy over logits, and Tukey's
bi-weight. Values are summed over output dimensions, never averaged; batch
averaging is the trainer's job. All functions accept arbitrary leading axes
with the trailing axis as the output (or class) dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.name == "tukey" and not self.tukey_c > 0:
            raise ValueError("tukey cutoff must be positive")

    @classmethod
    def parse(cls, spec: str) -> "LossKind":
        """Parse a config string: "l2", "cross_entropy" or "tukey:<c>"."""
        if not isinstance(spec, str):
            raise ValueError(f"a loss is named by a string, got {spec!r}")
        if spec.startswith("tukey:"):
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


def _check_classes(targets: np.ndarray, num_classes: int) -> None:
    if targets.size and (targets.min() < 0 or targets.max() >= num_classes):
        raise ValueError(f"class index out of range for {num_classes} classes")


def _broadcast_logits(p: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast logits and integer targets to a common leading shape."""
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError("cross_entropy targets must be integer class indices")
    _check_classes(t, p.shape[-1])
    lead = np.broadcast_shapes(p.shape[:-1], t.shape)
    p = np.broadcast_to(p, lead + p.shape[-1:])
    t = np.broadcast_to(t, lead)
    return p, t


def hypothesis_targets(kind: LossKind, targets, n: int, output_dim: int) -> np.ndarray:
    """Targets shaped to broadcast against (n, M, ...) hypothesis sets.

    Class indices become (n, 1), regression targets (n, 1, output_dim).
    """
    if kind.name == "cross_entropy":
        return np.asarray(targets).reshape(n, 1)
    return np.asarray(targets, dtype=np.float64).reshape(n, 1, output_dim)


def loss_values(kind: LossKind, predictions, targets) -> np.ndarray:
    """Loss of each prediction against its target, summed over the last axis.

    Regression targets broadcast against ``predictions``; cross-entropy
    targets are integer class indices broadcasting against the leading axes.
    """
    p = np.asarray(predictions, dtype=np.float64)
    if kind.name == "cross_entropy":
        p, t = _broadcast_logits(p, targets)
        m = p.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(p - m).sum(axis=-1)) + m[..., 0]
        picked = np.take_along_axis(p, t[..., None], axis=-1)[..., 0]
        return lse - picked
    r = p - np.asarray(targets, dtype=np.float64)
    if kind.name == "l2":
        return 0.5 * (r * r).sum(axis=-1)
    c = kind.tukey_c
    q = np.minimum((r / c) ** 2, 1.0)
    return (c * c / 6.0) * (1.0 - (1.0 - q) ** 3).sum(axis=-1)


def loss_grads(kind: LossKind, predictions, targets) -> np.ndarray:
    """Gradient of :func:`loss_values` w.r.t. the predictions, same shape."""
    p = np.asarray(predictions, dtype=np.float64)
    if kind.name == "cross_entropy":
        p, t = _broadcast_logits(p, targets)
        g = softmax(p)
        idx = t[..., None]
        np.put_along_axis(g, idx, np.take_along_axis(g, idx, axis=-1) - 1.0, axis=-1)
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
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _validate_pair(kind: LossKind, prediction, target):
    p = np.asarray(prediction, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("prediction must be a vector")
    if kind.name == "cross_entropy":
        t = int(target)
        if not 0 <= t < p.shape[0]:
            raise ValueError(f"class index {t} out of range for {p.shape[0]} classes")
        return p, t
    t = np.asarray(target, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"prediction shape {p.shape} != target shape {t.shape}")
    return p, t


def loss(kind: LossKind, prediction, target) -> float:
    """Scalar loss of one prediction against one target."""
    p, t = _validate_pair(kind, prediction, target)
    return float(loss_values(kind, p, t))


def loss_grad(kind: LossKind, prediction, target) -> np.ndarray:
    """Gradient of the scalar loss w.r.t. the prediction."""
    p, t = _validate_pair(kind, prediction, target)
    return loss_grads(kind, p, t)
