"""Base losses: squared error, cross entropy over logits, and Tukey's
bi-weight. Values are summed over output dimensions, never averaged; batch
averaging is the trainer's job. All functions accept arbitrary leading axes
with the trailing axis as the output (or class) dimension.
"""

from __future__ import annotations

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


def _target_logits(p: np.ndarray, targets) -> tuple[np.ndarray, tuple]:
    """Logits broadcast (only where needed) to the leading shape they share with the integer
    targets, and one fancy index of each target's logit, which never copies a broadcast view."""
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ValueError("cross_entropy targets must be integer class indices")
    if t.size and (t.min() < 0 or t.max() >= p.shape[-1]):
        raise ValueError(f"class index out of range for {p.shape[-1]} classes")
    lead = np.broadcast_shapes(p.shape[:-1], t.shape)
    if p.shape[:-1] != lead:
        p = np.broadcast_to(p, lead + p.shape[-1:])
    return p, (*np.indices(lead, sparse=True), t)


def hypothesis_targets(kind: LossKind, targets, n: int, output_dim: int) -> np.ndarray:
    """Targets shaped to broadcast against (n, M, ...) hypothesis sets.

    The one target shape check: class indices must be (n,) and become
    (n, 1), regression targets must be (n, output_dim) and become
    (n, 1, output_dim); any other shape raises ValueError.
    """
    if kind.name == "cross_entropy":
        t, want = np.asarray(targets), (n,)
    else:
        t, want = np.asarray(targets, dtype=np.float64), (n, output_dim)
    if t.shape != want:
        raise ValueError(f"{kind.name} targets must have shape {want}, got {t.shape}")
    return t[:, None]


def loss_values(kind: LossKind, predictions, targets) -> np.ndarray:
    """Loss of each prediction against its target, summed over the last axis.

    Regression targets broadcast against ``predictions``; cross-entropy
    targets are integer class indices broadcasting against the leading axes.
    """
    p = np.asarray(predictions, dtype=np.float64)
    if kind.name == "cross_entropy":
        p, picked = _target_logits(p, targets)
        m = p.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(p - m).sum(axis=-1)) + m[..., 0]
        return lse - p[picked]
    r = p - np.asarray(targets, dtype=np.float64)
    if kind.name == "l2":
        # in place, bitwise the same as 0.5 * (r * r).sum(axis=-1): two
        # temporaries instead of four on the hot path of voronoi._nearest
        r *= r
        s = r.sum(axis=-1)
        s *= 0.5
        return s
    c = kind.tukey_c
    q = np.minimum((r / c) ** 2, 1.0)
    return (c * c / 6.0) * (1.0 - (1.0 - q) ** 3).sum(axis=-1)


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
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)

