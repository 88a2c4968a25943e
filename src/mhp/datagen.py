"""Seeded synthetic data generators and the CSV/JSON dataset format.

Every generator takes an explicit numpy Generator and is bit-reproducible
given it. Tasks:

* ``temporal2d`` - a 2D distribution over four unit quadrants whose mass
  shifts with a time input t: the lower-left and upper-right quadrants each
  carry (1-t)/2, the other two t/2 each, points uniform inside the selected
  quadrant. The conditional mean is (0, 0) for every t.
* ``multilabel`` - a fixed pool of items, each an input vector with a set of
  true classes; every emitted sample draws one class uniformly from its
  item's set, so inputs repeat with fresh label draws.
* ``gridframe`` - a dot on a small grid that jumps from a fixed start cell
  to one of K terminal cells with given probabilities; frames are rasterized
  as a bright pixel smoothed by a fixed 3x3 kernel.
* ``gmm`` - ancestral sampling from a Gaussian mixture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io_utils import write_csv_atomic, write_json_atomic

# Quadrant bounds, ordered: lower-left, upper-left, lower-right, upper-right.
# Lower bounds are inclusive, zero-boundaries exclusive on the negative side.
_QUAD_LO = np.array([[-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
_QUAD_HI = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def region_probabilities(t: float) -> np.ndarray:
    """Quadrant selection probabilities [(1-t)/2, t/2, t/2, (1-t)/2]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return np.array([(1.0 - t) / 2.0, t / 2.0, t / 2.0, (1.0 - t) / 2.0])


def region_index(points) -> np.ndarray:
    """Quadrant index per 2D point (0..3 in the order above), -1 outside."""
    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[..., 0], pts[..., 1]
    idx = 2 * (x >= 0.0).astype(np.int64) + (y >= 0.0).astype(np.int64)
    inside = (x >= -1.0) & (x <= 1.0) & (y >= -1.0) & (y <= 1.0)
    return np.where(inside, idx, -1)


def _sample_quadrant_points(ts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(ts)
    u = rng.random(n)
    c1 = (1.0 - ts) / 2.0
    c2 = c1 + ts / 2.0
    c3 = c2 + ts / 2.0
    region = (u >= c1).astype(np.int64) + (u >= c2) + (u >= c3)
    region = np.minimum(region, 3)
    frac = rng.random((n, 2))
    lo, hi = _QUAD_LO[region], _QUAD_HI[region]
    return lo + frac * (hi - lo)


def sample_temporal2d(t: float, n: int, rng: np.random.Generator):
    """n pairs (input = t, target 2D point); targets stay in [-1, 1]^2."""
    region_probabilities(t)  # validates t
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = np.full(n, float(t))
    return ts[:, None], _sample_quadrant_points(ts, rng)


def temporal2d_dataset(n: int, rng: np.random.Generator, t: float | None = None):
    """Training set over the task: t per sample is Uniform[0,1] unless fixed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t is not None:
        return sample_temporal2d(t, n, rng)
    ts = rng.random(n)
    return ts[:, None], _sample_quadrant_points(ts, rng)


@dataclass(frozen=True)
class MultiLabelItem:
    features: tuple[float, ...]
    labels: tuple[int, ...]


@dataclass(frozen=True)
class MultiLabelSpec:
    num_classes: int
    items: tuple[MultiLabelItem, ...]

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if not self.items:
            raise ValueError("need at least one item")
        for it in self.items:
            if not it.labels:
                raise ValueError("empty label set")
            if any(not 0 <= c < self.num_classes for c in it.labels):
                raise ValueError("label out of range")

    @property
    def feature_dim(self) -> int:
        return len(self.items[0].features)


def class_centers(num_classes: int) -> np.ndarray:
    """Unit-circle anchor point per class."""
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def make_multilabel_spec(num_classes: int, set_size: int = 2,
                         rng: np.random.Generator | None = None,
                         noise_std: float = 0.1) -> MultiLabelSpec:
    """One item per cyclically adjacent label run {k, ..., k+set_size-1}.

    Adjacent runs keep the item inputs (center means plus frozen Gaussian
    noise) pairwise distinct, so the label sets stay learnable from the
    inputs. Pass ``rng`` to freeze the input noise; omit it for noise-free
    inputs.
    """
    if not 1 <= set_size <= num_classes:
        raise ValueError("set_size must lie in [1, num_classes]")
    centers = class_centers(num_classes)
    items = []
    for k in range(num_classes):
        labels = tuple(sorted((k + j) % num_classes for j in range(set_size)))
        feat = centers[list(labels)].mean(axis=0)
        if rng is not None:
            feat = feat + rng.normal(0.0, noise_std, size=2)
        items.append(MultiLabelItem(tuple(float(v) for v in feat), labels))
    return MultiLabelSpec(num_classes, tuple(items))


def sample_multilabel(spec: MultiLabelSpec, n: int, rng: np.random.Generator):
    """n samples (item features, one class drawn uniformly from its set)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    feats = np.array([it.features for it in spec.items])
    idx = rng.integers(0, len(spec.items), size=n)
    labels = np.empty(n, dtype=np.int64)
    for i, j in enumerate(idx):
        cand = spec.items[j].labels
        labels[i] = cand[rng.integers(len(cand))]
    return feats[idx], labels, idx


SMOOTH_KERNEL = np.array([[0.25, 0.5, 0.25],
                          [0.5, 1.0, 0.5],
                          [0.25, 0.5, 0.25]])
KERNEL_MASS = float(SMOOTH_KERNEL.sum())

# Interior cells of the default 8x8 grid, most spread out first; terminal
# defaults take a prefix of this list.
_DEFAULT_TERMINALS = ((1, 1), (1, 3), (1, 5), (3, 1), (3, 3), (3, 5),
                      (5, 1), (5, 3), (5, 5), (6, 6), (1, 6), (6, 1))


@dataclass(frozen=True)
class GridFrameSpec:
    width: int = 8
    height: int = 8
    start: tuple[int, int] = (4, 4)                 # (row, col)
    terminals: tuple[tuple[int, int], ...] = _DEFAULT_TERMINALS[:3]
    probabilities: tuple[float, ...] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self) -> None:
        if self.width < 3 or self.height < 3:
            raise ValueError("grid must be at least 3x3")
        if not self.terminals:
            raise ValueError("need at least one terminal position")
        if len(self.probabilities) != len(self.terminals):
            raise ValueError("one probability per terminal required")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probabilities) - 1.0) > 1e-9:
            raise ValueError("terminal probabilities must sum to 1")
        for pos in (self.start, *self.terminals):
            r, c = pos
            if not (1 <= r <= self.height - 2 and 1 <= c <= self.width - 2):
                raise ValueError(
                    f"position {pos} must keep the 3x3 kernel inside the "
                    f"{self.height}x{self.width} grid")

    @property
    def pixels(self) -> int:
        return self.width * self.height


def default_gridframe_spec(num_terminals: int = 3, width: int = 8,
                           height: int = 8) -> GridFrameSpec:
    if not 1 <= num_terminals <= len(_DEFAULT_TERMINALS):
        raise ValueError(f"num_terminals must lie in [1, {len(_DEFAULT_TERMINALS)}]")
    terminals = _DEFAULT_TERMINALS[:num_terminals]
    probs = tuple(1.0 / num_terminals for _ in terminals)
    return GridFrameSpec(width, height, (4, 4), terminals, probs)


def render_frame(spec: GridFrameSpec, position: tuple[int, int]) -> np.ndarray:
    """Frame with the smoothing kernel stamped at ``position``; peak 1.0."""
    r, c = position
    if not (1 <= r <= spec.height - 2 and 1 <= c <= spec.width - 2):
        raise ValueError(f"position {position} outside the stampable interior")
    frame = np.zeros((spec.height, spec.width))
    frame[r - 1:r + 2, c - 1:c + 2] = SMOOTH_KERNEL
    return frame


def sample_gridframe(spec: GridFrameSpec, n: int, rng: np.random.Generator):
    """n pairs (flattened start frame, flattened terminal frame).

    Also returns the drawn terminal index per sample. Every frame's pixel
    sum equals the kernel mass.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    start = render_frame(spec, spec.start).ravel()
    frames = np.stack([render_frame(spec, pos).ravel() for pos in spec.terminals])
    cum = np.cumsum(spec.probabilities)
    idx = np.minimum(np.searchsorted(cum, rng.random(n), side="right"),
                     len(spec.terminals) - 1)
    X = np.tile(start, (n, 1))
    return X, frames[idx], idx


def sample_gaussian_mixture(means, covs, weights, n: int, rng: np.random.Generator) -> np.ndarray:
    """Ancestral sampling: draw a component, then a Gaussian point from it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mu = np.asarray(means, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if mu.ndim != 2 or len(w) != len(mu):
        raise ValueError("means must be (k, d) with one weight per component")
    if (w < 0).any() or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be nonnegative and sum to 1")
    sig = np.asarray(covs, dtype=np.float64)
    if sig.shape != (len(mu), mu.shape[1], mu.shape[1]):
        raise ValueError("covs must be (k, d, d)")
    try:
        chol = np.linalg.cholesky(sig)
    except np.linalg.LinAlgError as err:
        raise ValueError("covariances must be positive-definite") from err
    comp = np.minimum(np.searchsorted(np.cumsum(w), rng.random(n), side="right"), len(mu) - 1)
    z = rng.standard_normal((n, mu.shape[1]))
    out = np.empty_like(z)
    for k in range(len(mu)):
        mask = comp == k
        out[mask] = mu[k] + z[mask] @ chol[k].T
    return out


# ---------------------------------------------------------------------------
# Dataset files: data.csv (inputs..., targets...) plus a data.json sidecar.

@dataclass
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    task: str
    sidecar: dict


def write_dataset(outdir, X, Y, *, task: str, spec: dict, seed: int,
                  input_names, target_names, int_targets: bool = False):
    """Write data.csv plus its data.json sidecar; returns both paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    Y = np.asarray(Y, dtype=np.int64 if int_targets else np.float64)
    csv_path = write_csv_atomic(outdir / "data.csv", [*input_names, *target_names],
                                np.asarray(X, dtype=np.float64), Y)
    sidecar = {
        "task": task,
        "spec": spec,
        "seed": seed,
        "n": len(Y),
        "input_columns": list(input_names),
        "target_columns": list(target_names),
        "int_targets": bool(int_targets),
    }
    json_path = write_json_atomic(outdir / "data.json", sidecar)
    return csv_path, json_path


def load_dataset(path) -> Dataset:
    """Read a dataset directory (or its data.csv path) back into arrays.

    A sidecar that is not a JSON object, lacks a field or whose column fields
    are not lists of names raises ValueError.
    """
    path = Path(path)
    if path.is_dir():
        csv_path, json_path = path / "data.csv", path / "data.json"
    else:
        csv_path, json_path = path, path.with_name("data.json")
    with open(json_path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict):
        raise ValueError(f"{json_path}: sidecar is not a JSON object")
    missing = [k for k in ("input_columns", "target_columns", "task") if k not in sidecar]
    if missing:
        raise ValueError(f"{json_path}: sidecar lacks {', '.join(missing)}")
    for key in ("input_columns", "target_columns"):
        if not (isinstance(sidecar[key], list) and all(isinstance(c, str) for c in sidecar[key])):
            raise ValueError(f"{json_path}: sidecar field {key!r} is not a list of column names")
    n_in = len(sidecar["input_columns"])
    n_out = len(sidecar["target_columns"])
    raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)
    if raw.shape[1] != n_in + n_out:
        raise ValueError(f"{csv_path}: expected {n_in + n_out} columns, found {raw.shape[1]}")
    X = raw[:, :n_in]
    Y = raw[:, n_in:]
    if sidecar.get("int_targets"):
        Y = Y.astype(np.int64).ravel() if n_out == 1 else Y.astype(np.int64)
    return Dataset(X, Y, sidecar["task"], sidecar)
