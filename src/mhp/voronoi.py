"""Loss-induced tessellations of the label space and a classical
alternating-minimization oracle for centroidal configurations.

A set of generator points partitions samples into cells: each sample joins
the generator with the lowest base loss against it (lowest index on ties,
which also resolves measure-zero boundary ties). For the squared-error loss
the optimal generators sit at their cells' empirical means; `lloyd` computes
such a configuration directly and serves as the ground-truth quantizer that
trained hypothesis heads are compared against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .losses import L2, LossKind, hypothesis_targets, loss_values

logger = logging.getLogger(__name__)

_CHUNK = 1 << 17


@dataclass
class Tessellation:
    generators: np.ndarray   # (M, d)
    loss: LossKind
    assignments: np.ndarray  # (N,) int, best cell per sample
    cell_counts: np.ndarray  # (M,) int


@dataclass
class CellStats:
    """Empirical per-cell statistics; NaN entries flag empty cells."""

    means: np.ndarray        # (M, d)
    counts: np.ndarray       # (M,) int
    mean_losses: np.ndarray  # (M,)

    @property
    def nonempty(self) -> np.ndarray:
        return self.counts > 0


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError(f"non-finite {name}")
    return pts


def _nearest(gens: np.ndarray, loss: LossKind, samples) -> tuple[np.ndarray, np.ndarray]:
    """Index of and loss against the loss-minimizing generator per sample.

    Works sample-major, one generator at a time: each chunk's targets are
    laid out with the sample axis contiguous, and each generator's row of
    losses is folded into a running minimum. The elementwise work, and for
    regression losses the sum over the d target dimensions, then run along
    the long sample axis instead of over short per-sample rows of d or M
    values, and the temporaries stay O(chunk * d). That sum adds the
    dimensions in sequence; from d = 8 numpy would sum a contiguous row
    pairwise, so there the last bit can differ from a row-major sum. The
    strict ``<`` keeps ties on the lowest index, as ``argmin`` does.
    """
    n = len(samples)
    index = np.zeros(n, dtype=np.int64)
    best = np.empty(n)
    for lo in range(0, n, _CHUNK):
        block = samples[lo:lo + _CHUNK]
        t = np.asfortranarray(hypothesis_targets(loss, block, len(block), gens.shape[1])[:, 0])
        idx, low = index[lo:lo + _CHUNK], best[lo:lo + _CHUNK]
        low[:] = loss_values(loss, gens[0], t)
        for j in range(1, len(gens)):
            values = loss_values(loss, gens[j], t)
            np.copyto(idx, j, where=values < low)
            np.minimum(low, values, out=low)
    return index, best


def _cell_sums(assignments: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """Per-cell sums of ``values`` ((N,) or (N, d)); empty cells sum to 0.

    ``np.bincount`` adds the weights one sample at a time in sample order,
    as ``np.add.at`` does, so the sums are bitwise the same, only faster.
    """
    if values.ndim == 1:
        return np.bincount(assignments, weights=values, minlength=m)
    return np.stack([np.bincount(assignments, weights=col, minlength=m)
                     for col in values.T], axis=1)


def _distinct_rows(pts: np.ndarray, m: int) -> int:
    """Distinct rows of ``pts``, counted in prefixes that grow 4x until ``m`` show.

    The result is >= m as soon as a prefix holds m distinct rows, and the
    exact count over all rows otherwise, so only samples that (nearly) fail
    the check are sorted in full.
    """
    k = m
    while True:
        distinct = np.unique(pts[:k], axis=0).shape[0]
        if distinct >= m or k >= len(pts):
            return distinct
        k *= 4


def membership(generators, loss: LossKind, samples) -> np.ndarray:
    """Index of the loss-minimizing generator per sample (first on ties)."""
    return _nearest(_as_points(generators, "generators"), loss, samples)[0]


def tessellate(generators, loss: LossKind, samples) -> tuple[Tessellation, CellStats]:
    """Assign every sample to its minimizing generator and summarize cells."""
    gens = _as_points(generators, "generators")
    pts = _as_points(samples, "samples") if loss.name != "cross_entropy" else np.asarray(samples)
    assignments, per_sample = _nearest(gens, loss, pts)
    m = len(gens)
    counts = np.bincount(assignments, minlength=m)

    if loss.name == "cross_entropy":
        means = np.full((m, gens.shape[1]), np.nan)
    else:
        means = _cell_sums(assignments, pts, m)
        with np.errstate(invalid="ignore"):
            means = np.where(counts[:, None] > 0, means / np.maximum(counts, 1)[:, None], np.nan)
    sums = _cell_sums(assignments, per_sample, m)
    with np.errstate(invalid="ignore"):
        mean_losses = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    tess = Tessellation(gens, loss, assignments, counts)
    return tess, CellStats(means, counts, mean_losses)


def centroidal_residual(tess: Tessellation, stats: CellStats) -> tuple[np.ndarray, float]:
    """Distance between each generator and its cell's empirical mean.

    Only defined for the squared-error loss. Empty cells yield NaN residuals
    and are excluded from the returned maximum; all cells empty is an error.
    """
    if tess.loss.name != "l2":
        raise ValueError("centroidal residuals are only defined for the l2 loss")
    if not stats.nonempty.any():
        raise ValueError("all cells are empty")
    residuals = np.linalg.norm(tess.generators - stats.means, axis=1)
    return residuals, float(np.nanmax(residuals))


def quantization_error(generators, loss: LossKind, samples) -> float:
    """Mean over samples of the loss against the best generator."""
    gens = _as_points(generators, "generators")
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    _, best = _nearest(gens, loss, samples)
    # per-chunk sums added in order keep seeded outputs' bytes unchanged
    return sum(float(best[lo:lo + _CHUNK].sum()) for lo in range(0, n, _CHUNK)) / n


@dataclass
class LloydResult:
    generators: np.ndarray
    iterations: int
    converged: bool
    quantization_error: float


def _kmeanspp_init(samples: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    gens = [samples[rng.integers(len(samples))]]
    d2 = ((samples - gens[0]) ** 2).sum(axis=1)
    for _ in range(m - 1):
        total = d2.sum()
        probs = d2 / total
        gens.append(samples[rng.choice(len(samples), p=probs)])
        d2 = np.minimum(d2, ((samples - gens[-1]) ** 2).sum(axis=1))
    return np.array(gens)


def lloyd(samples, m: int, *, init_generators=None, max_iters: int = 100,
          tol: float = 1e-4, rng: np.random.Generator | None = None) -> LloydResult:
    """Alternate assignment and mean moves under the squared-error loss.

    Stops once no generator sits further than ``tol`` from its cell mean, so
    the returned configuration's own centroidal residual is below ``tol``.
    Generators whose cell empties are reseeded at the sample farthest from
    its nearest generator. Without ``init_generators`` the start is a
    distance-weighted draw from the samples (requires ``rng``).
    """
    # sample-major once, so that no _nearest call below copies the points
    pts = np.asfortranarray(_as_points(samples, "samples"))
    if m < 1:
        raise ValueError("m must be >= 1")
    distinct = _distinct_rows(pts, m)
    if m > distinct:
        raise ValueError(f"m={m} exceeds the {distinct} distinct samples")
    if init_generators is not None:
        gens = _as_points(init_generators, "init_generators").copy()
        if gens.shape != (m, pts.shape[1]):
            raise ValueError("init_generators shape mismatch")
    else:
        if rng is None:
            raise ValueError("rng required for seeded initialization")
        gens = _kmeanspp_init(pts, m, rng)

    iterations = 0
    converged = False
    for _ in range(max_iters):
        assignments, near = _nearest(gens, L2, pts)
        counts = np.bincount(assignments, minlength=m)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            for j in empty:
                idx = int(near.argmax())
                logger.info("reseeding empty cell %d at sample %d", j, idx)
                gens[j] = pts[idx]
                near = np.minimum(near, loss_values(L2, pts, gens[j]))
            iterations += 1
            continue
        means = _cell_sums(assignments, pts, m)
        means /= counts[:, None]
        movement = np.linalg.norm(gens - means, axis=1).max()
        if movement < tol:
            converged = True
            break
        gens = means
        iterations += 1
    return LloydResult(gens, iterations, converged, quantization_error(gens, L2, pts))


def lloyd_best_of(samples, m: int, restarts: int, rng: np.random.Generator,
                  **kwargs) -> LloydResult:
    """Best of several seeded runs by quantization error."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best: LloydResult | None = None
    for _ in range(restarts):
        result = lloyd(samples, m, rng=rng, **kwargs)
        if best is None or result.quantization_error < best.quantization_error:
            best = result
    return best
