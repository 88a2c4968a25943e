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

A dataset directory holds ``data.csv`` (the table a user reads and may edit), its
``data.json`` sidecar, and ``data.npz``, a binary copy of the table that spares
:func:`load_dataset` the text parse. The copy carries the SHA-256 of the ``data.csv`` bytes
it was written beside and is read only while they still match, so ``data.csv`` stays the
file that counts.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .io_utils import (read_bool, read_field, read_int, read_json, read_list, read_number,
                       read_str, write_csv_atomic, write_json_atomic, write_npz_atomic)

# Quadrant bounds, ordered: lower-left, upper-left, lower-right, upper-right.
# Lower bounds are inclusive, zero-boundaries exclusive on the negative side.
_QUAD_LO = np.array([[-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
_QUAD_HI = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def region_probabilities(t) -> np.ndarray:
    """Quadrant selection probabilities [(1-t)/2, t/2, t/2, (1-t)/2], along a last axis of
    length 4 for an array of t."""
    ts = np.asarray(t, dtype=np.float64)
    if not ((0.0 <= ts) & (ts <= 1.0)).all():
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return np.stack([(1.0 - ts) / 2.0, ts / 2.0, ts / 2.0, (1.0 - ts) / 2.0], axis=-1)


def _draw(p, n: int, rng: np.random.Generator) -> np.ndarray:
    """n category indices by inverse CDF on one ``rng.random(n)`` uniform each; ``p`` is (k,)
    or (n, k).

    A uniform u draws the number of entries of the CDF ``cumsum(p)[..., :-1]`` that are <= u.
    The CDF runs as a column sum, one column add and one compare per category, so it takes
    the bits of ``cumsum`` (the same sequential adds) without a reduction along short rows.
    """
    u = rng.random(n)
    p = np.asarray(p)
    cdf, index = np.zeros(n), np.zeros(n, dtype=np.intp)
    for k in range(p.shape[-1] - 1):
        cdf += p[..., k]
        index += u >= cdf
    return index


def region_index(points) -> np.ndarray:
    """Quadrant index per 2D point (0..3 in the order above), -1 outside."""
    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[..., 0], pts[..., 1]
    idx = 2 * (x >= 0.0).astype(np.int64) + (y >= 0.0).astype(np.int64)
    inside = (x >= -1.0) & (x <= 1.0) & (y >= -1.0) & (y <= 1.0)
    return np.where(inside, idx, -1)


def _temporal2d(n: int, rng: np.random.Generator, t: float | None):
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = rng.random(n) if t is None else np.full(n, float(t))
    region = _draw(region_probabilities(ts if t is None else t), n, rng)
    # row gathers use take: a fancy index costs far more per short row
    lo, hi = _QUAD_LO.take(region, axis=0), _QUAD_HI.take(region, axis=0)
    return ts[:, None], lo + rng.random((n, 2)) * (hi - lo)


def sample_temporal2d(t: float, n: int, rng: np.random.Generator):
    """n pairs (input = t, target 2D point); targets stay in [-1, 1]^2."""
    return _temporal2d(n, rng, t)


def temporal2d_dataset(n: int, rng: np.random.Generator, t: float | None = None):
    """Training set over the task: t per sample is Uniform[0,1] unless fixed."""
    return _temporal2d(n, rng, t)


@dataclass(frozen=True)
class MultiLabelItem:
    features: tuple[float, ...]
    labels: tuple[int, ...]


@dataclass(frozen=True)
class MultiLabelSpec:
    num_classes: int
    set_size: int = field(init=False)  # the largest label set's size; recorded, never read
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
        object.__setattr__(self, "set_size", max(len(it.labels) for it in self.items))


ITEM_NOISE_STD = 0.1  # std of the frozen Gaussian noise on multilabel item inputs


def class_centers(num_classes: int) -> np.ndarray:
    """Unit-circle anchor point per class."""
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def make_multilabel_spec(num_classes: int, set_size: int = 2,
                         rng: np.random.Generator | None = None) -> MultiLabelSpec:
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
            feat = feat + rng.normal(0.0, ITEM_NOISE_STD, size=2)
        items.append(MultiLabelItem(tuple(float(v) for v in feat), labels))
    return MultiLabelSpec(num_classes, tuple(items))


def sample_multilabel(spec: MultiLabelSpec, n: int, rng: np.random.Generator):
    """n samples (item features, one class drawn uniformly from its set)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    feats = np.array([it.features for it in spec.items])
    sizes = np.array([len(it.labels) for it in spec.items])
    flat = np.concatenate([it.labels for it in spec.items]).astype(np.int64)
    idx = rng.integers(0, len(spec.items), size=n)
    # one draw, the same stream as one rng.integers(len(labels)) per sample in order
    picks = rng.integers(0, sizes[idx])
    return feats.take(idx, axis=0), flat[(np.cumsum(sizes) - sizes)[idx] + picks], idx


SMOOTH_KERNEL = np.array([[0.25, 0.5, 0.25],
                          [0.5, 1.0, 0.5],
                          [0.25, 0.5, 0.25]])
KERNEL_MASS = float(SMOOTH_KERNEL.sum())

# Interior cells of the default 8x8 grid, most spread out first;
# default_gridframe_spec takes a prefix of this list.
_DEFAULT_TERMINALS = ((1, 1), (1, 3), (1, 5), (3, 1), (3, 3), (3, 5),
                      (5, 1), (5, 3), (5, 5), (6, 6), (1, 6), (6, 1))


@dataclass(frozen=True)
class GridFrameSpec:
    width: int
    height: int
    start: tuple[int, int]                 # (row, col)
    terminals: tuple[tuple[int, int], ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.width < 3 or self.height < 3:
            raise ValueError("grid must be at least 3x3")
        if not self.terminals:
            raise ValueError("need at least one terminal position")
        if len(self.probabilities) != len(self.terminals):
            raise ValueError("one probability per terminal required")
        if any(not p >= 0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        if not abs(sum(self.probabilities) - 1.0) <= 1e-9:
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
    idx = _draw(spec.probabilities, n, rng)
    X = np.tile(start, (n, 1))
    return X, frames.take(idx, axis=0), idx


def sample_gaussian_mixture(means, covs, weights, n: int, rng: np.random.Generator) -> np.ndarray:
    """Ancestral sampling: draw a component, then a Gaussian point from it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mu = np.asarray(means, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if mu.ndim != 2 or len(w) != len(mu):
        raise ValueError("means must be (k, d) with one weight per component")
    if not (w >= 0).all() or not abs(w.sum() - 1.0) <= 1e-9:  # NaN fails both
        raise ValueError("weights must be nonnegative and sum to 1")
    sig = np.asarray(covs, dtype=np.float64)
    if sig.shape != (len(mu), mu.shape[1], mu.shape[1]):
        raise ValueError("covs must be (k, d, d)")
    try:
        chol = np.linalg.cholesky(sig)
    except np.linalg.LinAlgError as err:
        raise ValueError("covariances must be positive-definite") from err
    comp = _draw(w, n, rng)
    z = rng.standard_normal((n, mu.shape[1]))
    out = np.empty_like(z)
    for k in range(len(mu)):
        mask = comp == k
        out[mask] = mu[k] + z[mask] @ chol[k].T
    return out


# ---------------------------------------------------------------------------
# Dataset files: data.csv (inputs..., targets...), its data.npz table cache and a data.json
# sidecar.

@dataclass(eq=False)
class Dataset:
    X: np.ndarray
    Y: np.ndarray
    task: str
    spec: GridFrameSpec | MultiLabelSpec | dict | None


def encode_spec(spec):
    """The JSON form of a task spec, as the sidecar and the ``gen`` manifest record it."""
    return asdict(spec) if is_dataclass(spec) else spec


def _read_spec(task: str, n_out: int, doc):
    """A gridframe or multilabel ``spec`` as its checked dataclass; another task's as stored."""
    get = lambda key, read: read_field(doc, key, read, where=None)
    cell = lambda v: tuple(read_list(read_int, 2)(v))
    if task == "gridframe":
        spec = GridFrameSpec(height=get("height", read_int), width=get("width", read_int),
                             start=get("start", cell),
                             terminals=tuple(get("terminals", read_list(cell))),
                             probabilities=tuple(get("probabilities", read_list(read_number))))
        if spec.pixels != n_out:
            raise ValueError(f"{spec.height}x{spec.width} pixels but {n_out} target columns")
        return spec
    if task == "multilabel":
        item = lambda d: MultiLabelItem(
            tuple(read_field(d, "features", read_list(read_number), where=None)),
            tuple(read_field(d, "labels", read_list(read_int), where=None)))
        return MultiLabelSpec(get("num_classes", read_int), tuple(get("items", read_list(item))))
    return doc


def _sha256(path: Path) -> bytes:
    """The SHA-256 digest of the file at ``path``, read in blocks, not whole."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").digest()


def write_dataset(outdir, X, Y, *, task: str, spec, seed: int, input_names, target_names):
    """Write data.csv, then data.npz, then the data.json sidecar (an integer Y as integer
    targets); returns the three paths in that order.

    data.npz holds ``table``, the CSV's columns (X, then Y) as one C-order float64 (n, k)
    array, and ``csv_sha256``, the 32-byte SHA-256 of the data.csv bytes just written (read
    back from the file), as uint8. The CSV's text round-trips every finite float64, so the
    table holds the bits a parse of the CSV gives.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    X, Y = np.asarray(X, dtype=np.float64), np.asarray(Y)
    csv_path = write_csv_atomic(outdir / "data.csv", [*input_names, *target_names], X, Y)
    table = np.concatenate([b[:, None] if b.ndim == 1 else b for b in (X, Y)], axis=1,
                           dtype=np.float64)
    npz_path = write_npz_atomic(outdir / "data.npz", table=table,
                                csv_sha256=np.frombuffer(_sha256(csv_path), dtype=np.uint8))
    sidecar = {
        "task": task,
        "spec": encode_spec(spec),
        "seed": seed,
        "n": len(Y),
        "input_columns": list(input_names),
        "target_columns": list(target_names),
        "int_targets": Y.dtype.kind in "iu",
    }
    json_path = write_json_atomic(outdir / "data.json", sidecar)
    return csv_path, npz_path, json_path


def _cached_table(npz_path: Path, csv_digest: bytes, shape: tuple[int, int]):
    """The ``table`` of the data.npz at ``npz_path`` if it is a valid cache (the rule in
    :func:`load_dataset`) of a CSV whose digest is ``csv_digest`` and whose table has
    ``shape``; None for any other file, or none."""
    try:  # np.load leaves a path it opened unclosed when the zip does not read
        with open(npz_path, "rb") as fh, np.load(fh, allow_pickle=False) as cache:
            stamp = cache["csv_sha256"]
            if stamp.dtype != np.uint8 or stamp.tobytes() != csv_digest:
                return None
            table = cache["table"]
    # a damaged file raises one of many kinds here (BadZipFile, ValueError, EOFError,
    # KeyError, OSError; TypeError for a plain .npy), and each means: parse the CSV
    except Exception:
        return None
    return table if table.dtype == np.float64 and table.shape == shape else None


def load_dataset(path) -> Dataset:
    """Read a dataset directory (or its data.csv path) back into arrays and its spec.

    The table comes from the data.npz beside data.csv when that cache is valid: it loads
    with ``allow_pickle=False``, holds ``table`` and ``csv_sha256``, its table is a float64
    array of n rows and the sidecar's column count, and its digest is the SHA-256 of the
    data.csv bytes, hashed in blocks. Otherwise data.csv is parsed, so an edited CSV is
    read as edited and a cache never raises. Either way the same checks follow and name
    data.csv, and both give the same bits.

    A sidecar field that is missing or does not read (the spec as its task's), a CSV header
    other than the sidecar's input and target columns, a CSV that has no rows, a row count
    other than the sidecar's ``n``, and a CSV value that does not parse, is non-finite, or is
    fractional in an integer target, raise ValueError.
    """
    path = Path(path)
    if path.is_dir():
        csv_path, json_path = path / "data.csv", path / "data.json"
    else:
        csv_path, json_path = path, path.with_name("data.json")
    sidecar = read_json(json_path)
    get = functools.partial(read_field, sidecar, where=json_path)
    inputs = get("input_columns", read_list(read_str))
    targets = get("target_columns", read_list(read_str))
    n_in, n_out = len(inputs), len(targets)
    task = get("task", read_str)
    spec = get("spec", lambda v: _read_spec(task, n_out, v), None)
    n = get("n", read_int)
    try:
        with open(csv_path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\r\n")
        if header != ",".join(inputs + targets):
            raise ValueError(f"header {header!r} is not the columns "
                             f"{','.join(inputs + targets)!r} of {json_path}")
        raw = _cached_table(csv_path.with_name("data.npz"), _sha256(csv_path),
                            (n, n_in + n_out))
        if raw is None:
            with warnings.catch_warnings():
                # an empty table is refused below, by name, instead of with numpy's warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2,
                                 dtype=np.float64)
    except ValueError as err:  # the header, a cell that does not parse, a row too short
        raise ValueError(f"{csv_path}: {err}") from None
    if len(raw) == 0:
        raise ValueError(f"{csv_path}: no rows")
    if len(raw) != n:
        raise ValueError(f"{csv_path}: {len(raw)} rows, but {json_path} gives n = {n}")
    if raw.shape[1] != n_in + n_out:
        raise ValueError(f"{csv_path}: expected {n_in + n_out} columns, found {raw.shape[1]}")
    if not np.isfinite(raw).all():
        raise ValueError(f"{csv_path}: a value is NaN or infinite")
    X, Y = raw[:, :n_in], raw[:, n_in:]
    if get("int_targets", read_bool, False):
        if (Y != np.trunc(Y)).any():
            raise ValueError(f"{csv_path}: an integer target column holds a fractional value")
        Y = Y.astype(np.int64).ravel() if n_out == 1 else Y.astype(np.int64)
    return Dataset(X, Y, task, spec)
