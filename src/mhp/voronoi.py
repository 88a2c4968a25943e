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

from .losses import L2, LossKind, loss_values

logger = logging.getLogger(__name__)

_CHUNK = 1 << 17  # the summation block of _mean_loss
_SEARCH_TILE = 1 << 14  # the rows of one _search_tile step
# a bounded search skips a sample only while its gap clears these; see _lloyd_pass
_GAP_SLACK = 2.0 ** -20   # relative, a share of the second-nearest distance
_GAP_FLOOR = 2.0 ** -500  # absolute, a distance
_GAP_PASSES = 1 << 16     # lloyd passes a gap is carried at most before every sample is searched


@dataclass(eq=False)
class Tessellation:
    """Each sample's cell, and each cell's count and empirical mean; NaN means flag empty
    cells."""

    generators: np.ndarray   # (M, d)
    loss: LossKind
    assignments: np.ndarray  # (N,) int, best cell per sample
    cell_counts: np.ndarray  # (M,) int
    means: np.ndarray        # (M, d), all NaN under cross-entropy


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"non-finite {name}")
    return pts


def _inputs(generators, loss: LossKind, samples) -> tuple[np.ndarray, np.ndarray]:
    """The checked inputs of a ``membership``, ``tessellate`` or ``quantization_error`` call,
    the one check they get: finite, nonempty float64 (M, d) generators, and finite, nonempty
    float64 (n, d) samples of the same d or, for cross-entropy, nonempty (n,) class indices."""
    gens = _as_points(generators, "generators")
    if loss.name == "cross_entropy":
        pts = np.asarray(samples)
        if pts.ndim != 1 or not len(pts):
            raise ValueError("cross_entropy samples must be nonempty (n,) class indices, "
                             f"got shape {pts.shape}")
    elif (pts := _as_points(samples, "samples")).shape[1] != gens.shape[1]:
        raise ValueError(f"samples of {pts.shape[1]} columns need (M, {pts.shape[1]}) "
                         f"generators, got shape {gens.shape}")
    return gens, pts


def _nearest(gens: np.ndarray, loss: LossKind, samples) -> tuple[np.ndarray, np.ndarray]:
    """Index of and loss against the loss-minimizing generator per sample: the exact
    search, a ``_search`` of every row."""
    n = len(samples)
    index, best = np.empty(n, dtype=np.int64), np.empty(n)
    _search(gens, loss, samples, np.arange(n), index, best)
    return index, best


def _search(gens: np.ndarray, loss: LossKind, samples, rows: np.ndarray, index: np.ndarray,
            low: np.ndarray, second: np.ndarray | None = None) -> None:
    """Search the (M, d) ``gens`` for the ``samples`` at the ascending ``rows``: the
    k = len(rows) winners into ``index``, least losses into ``low`` and, when given,
    second-least losses into ``second``. Each has a slot to spare for the copy beside a
    lone row, which a search of every row never makes. Nothing is checked here: the
    samples are as the call's entry check (``_inputs``, or ``lloyd``'s) gave them.

    Works sample-major, one generator at a time: the rows are gathered ``_SEARCH_TILE``
    at a time with the sample axis contiguous, and each generator's row of losses is
    folded into a running minimum. The elementwise work, and for regression losses the
    sum over the d target dimensions, then run along the sample axis, and the
    temporaries stay O(tile * d). That sum adds the dimensions in sequence, but numpy
    sums a single row pairwise from d = 8; so that any search gives a row the bits of the
    search of every row, a lone row in a chunk is searched beside a copy of itself, and
    the last sample, which that search takes as a tile of its own when
    n % ``_SEARCH_TILE`` is 1, is searched alone. The strict ``<`` keeps ties on the
    lowest index, as ``argmin`` does.
    """
    n, k = len(samples), len(rows)
    # sample-major once, so each take along the transpose reads contiguous rows
    samples = np.asfortranarray(samples)
    alone = n % _SEARCH_TILE == 1 and k > 0 and rows[-1] == n - 1
    # chunks of _SEARCH_TILE rows, then the lone last sample as a chunk of its own
    starts = [*range(0, k - alone, _SEARCH_TILE), *range(k - alone, k)]
    for lo, hi in zip(starts, starts[1:] + [k]):
        chunk = rows[lo:hi]
        if hi - lo == 1 and lo < k - alone:  # the copy takes the next slot
            chunk = chunk.repeat(2)
        # "clip" takes without raise mode's bounds checks and buffer; every row is in range
        block = samples.T.take(chunk, axis=-1, mode="clip").T
        out = slice(lo, lo + len(chunk))
        _search_tile(gens, loss, block, index[out], low[out],
                     None if second is None else second[out])


def _lloyd_pass(gens: np.ndarray, pts: np.ndarray, cells: np.ndarray, gaps: np.ndarray,
                moves: np.ndarray, scratch: np.ndarray, counts: np.ndarray) -> None:
    """One of ``lloyd``'s searches, bounded: ``cells``, ``gaps`` and ``counts`` in place.

    ``cells`` (n,) holds each sample's cell from the previous search and
    ``gaps`` (n,) a lower bound on how much farther, as a distance
    r = sqrt(2 * loss), the sample's second-nearest generator lies than its
    own. ``moves`` (M,) gives the distance each generator moved since. By the
    triangle inequality the distance to the own generator grows by at most
    its move, and the distance to any other shrinks by at most the largest
    move, so every gap first loses both, in one sweep over all n samples
    through ``scratch``, an (n,) float64 array the caller owns. The samples
    whose gap is then not above 0, a NaN gap included (no bound yet), are
    flagged in one ``flatnonzero`` and searched in one ``_search``, a pass
    that flags every sample included; each gets the fresh gap
    ``(1 - _GAP_SLACK) * r2 - r1 - _GAP_FLOOR`` from its least and
    second-least computed losses (r2 is infinite for M = 1). Every other
    sample keeps its cell and is not searched. ``counts`` (M,) int64, each
    cell's number of samples in ``cells``, follows the re-searched samples:
    each leaves its old cell and joins its new one.

    Why a skipped sample's cell is the full search's, bit for bit: for
    d < 2^28 a computed loss, and a computed move, is within (d + 2) ulp of
    the true value, 2^-25 relative, plus at most d steps of 2^-1074 where
    squares are subnormal. The square roots, the slack product and the sums
    and subtractions of the gap add a few ulp of r2 per pass, at most 2^-35 r2
    over the ``_GAP_PASSES`` passes a gap is carried, and the subnormal steps
    at most 2^-505 to a distance. The slack and the floor exceed all of this,
    so the own generator stays nearer than any other by more than
    ``_GAP_SLACK / 2`` of r2 plus ``_GAP_FLOOR / 2``. That is more than twice
    the computed losses' own error, relative and absolute, so the own computed
    loss is the strictly least and the full search's strict ``<`` picks it
    whatever its index. The floor also keeps every sample whose second-nearest
    distance is below 2^-500, where losses may be subnormal, searched on every
    pass. A re-searched sample gets the full search's arithmetic, as every
    ``_search`` gives it.
    """
    # every index is a cell, so "clip" takes without raise mode's bounds checks and buffer
    (moves + moves.max()).take(cells, out=scratch, mode="clip")
    gaps -= scratch
    rows = np.flatnonzero(~(gaps > 0))  # a NaN gap fails the test too
    k = len(rows)
    # one slot to spare, for the copy beside a lone row; the second-least losses go into
    # scratch, whose shrinks are spent
    found, low = np.empty(k + 1, dtype=np.int64), np.empty(k + 1)
    _search(gens, L2, pts, rows, found, low, scratch[:k + 1])
    found, low = found[:k], low[:k]
    _fresh_gaps(low, scratch[:k])
    counts -= np.bincount(cells[rows], minlength=len(gens))
    counts += np.bincount(found, minlength=len(gens))
    cells[rows], gaps[rows] = found, low


def _fresh_gaps(low: np.ndarray, second: np.ndarray) -> None:
    """Each sample's gap from its least and second-least loss, in place in ``low``, which
    ``second`` is spent on: ``(1 - _GAP_SLACK) * r2 - r1 - _GAP_FLOOR``, r = sqrt(2 * loss)."""
    low += low
    np.sqrt(low, out=low)
    second += second
    np.sqrt(second, out=second)
    second *= 1.0 - _GAP_SLACK
    np.subtract(second, low, out=low)
    low -= _GAP_FLOOR


def _search_tile(gens: np.ndarray, loss: LossKind, block, idx: np.ndarray, low: np.ndarray,
                 second: np.ndarray | None = None) -> None:
    """One tile of a search of the (M, d) ``gens``: each sample's least loss into ``low`` and
    its generator into ``idx``, and its second-least loss into ``second`` when given. The
    ``block`` is ``_search``'s sample-major gather of checked samples: (k, d) float64 points,
    or (k,) class indices, used as they are."""
    idx.fill(0)
    low[:] = loss_values(loss, gens[0], block)
    if second is not None:
        second.fill(np.inf)
    for j in range(1, len(gens)):
        values = loss_values(loss, gens[j], block)
        # every index so far is below j, so a maximum sets j where values < low, without
        # the branches of a masked store
        np.maximum(idx, (values < low) * j, out=idx)
        if second is not None:  # min(second, max(low, values)), in place
            np.minimum(second, values, out=second)
            np.maximum(second, low, out=second)
        np.minimum(low, values, out=low)


def _cell_sums(assignments: np.ndarray, points: np.ndarray, m: int) -> np.ndarray:
    """Per-cell sums of the (N, d) ``points``, one column at a time: (m, d); empty cells sum
    to 0.

    ``np.bincount`` adds the weights one sample at a time in sample order,
    as ``np.add.at`` does, so the sums are bitwise the same, only faster.
    """
    return np.stack([np.bincount(assignments, weights=col, minlength=m)
                     for col in points.T], axis=1)


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
    gens, pts = _inputs(generators, loss, samples)
    return _nearest(gens, loss, pts)[0]


def tessellate(generators, loss: LossKind, samples) -> Tessellation:
    """Assign every sample to its minimizing generator and count and average each cell."""
    gens, pts = _inputs(generators, loss, samples)
    assignments = _nearest(gens, loss, pts)[0]
    m = len(gens)
    counts = np.bincount(assignments, minlength=m)
    if loss.name == "cross_entropy":
        means = np.full(gens.shape, np.nan)
    else:
        means = np.where(counts[:, None] > 0,
                         _cell_sums(assignments, pts, m) / np.maximum(counts, 1)[:, None], np.nan)
    return Tessellation(gens, loss, assignments, counts, means)


def centroidal_residual(tess: Tessellation) -> tuple[np.ndarray, float]:
    """Distance between each generator and its cell's empirical mean.

    Only defined for the squared-error loss. Empty cells yield NaN residuals
    and are excluded from the returned maximum; all cells empty is an error.
    """
    if tess.loss.name != "l2":
        raise ValueError("centroidal residuals are only defined for the l2 loss")
    if not tess.cell_counts.any():
        raise ValueError("all cells are empty")
    residuals = np.linalg.norm(tess.generators - tess.means, axis=1)
    return residuals, float(np.nanmax(residuals))


def _mean_loss(best: np.ndarray) -> float:
    """Mean of per-sample losses, summed per chunk in order so seeded outputs keep their bytes."""
    n = len(best)
    return sum(float(best[lo:lo + _CHUNK].sum()) for lo in range(0, n, _CHUNK)) / n


def quantization_error(generators, loss: LossKind, samples) -> float:
    """Mean over samples of the loss against the best generator."""
    gens, pts = _inputs(generators, loss, samples)
    return _mean_loss(_nearest(gens, loss, pts)[1])


@dataclass(eq=False)
class LloydResult:
    generators: np.ndarray
    iterations: int
    converged: bool
    quantization_error: float


def _refuse_underflow(near: np.ndarray) -> None:
    """``lloyd`` holds at least as many distinct samples as generators, so when a draw or a
    reseed finds every sample at loss 0 from its nearest generator, squares underflowed."""
    if not near.any():
        raise ValueError("samples too close together: squared distances underflow to 0")


def _kmeanspp_init(samples: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    gens = [samples[rng.integers(len(samples))]]
    d2 = loss_values(L2, samples, gens[0])
    for _ in range(m - 1):
        _refuse_underflow(d2)
        gens.append(samples[rng.choice(len(samples), p=d2 / d2.sum())])
        d2 = np.minimum(d2, loss_values(L2, samples, gens[-1]))
    return np.array(gens)


def lloyd(samples, m: int, *, init_generators=None, max_iters: int = 100,
          tol: float = 1e-4, rng: np.random.Generator | None = None) -> LloydResult:
    """Alternate assignment and mean moves under the squared-error loss.

    Stops once no generator sits further than ``tol`` from its cell mean, so
    the returned configuration's own centroidal residual is below ``tol``.
    Generators whose cell empties are reseeded at the sample farthest from
    its nearest generator. Without ``init_generators`` the start is a
    distance-weighted draw from the samples (requires ``rng``). Samples whose
    squared distances, or a sum of them, overflow float64 raise ValueError, and
    so do samples whose squared distances underflow to 0 where a draw or a
    reseed needs them. A pass re-searches only the samples whose cell may have
    changed: a sample whose bounds (see ``_lloyd_pass``) prove its cell
    unchanged is not searched, and every result is bitwise what one full
    search per pass gives. The run's last pass searches the returned
    generators, so the reported error is the mean of each sample's loss
    against its own cell's generator: bitwise the least loss an exact search
    of them gives.
    """
    # sample-major, so that the cell sums read contiguous columns and every squared distance
    # adds its dimensions in sequence, as _nearest does
    pts = np.asfortranarray(_as_points(samples, "samples"))
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= tol < np.inf:  # also refuses NaN, which would never stop the loop
        raise ValueError(f"tol must be a finite nonnegative number, got {tol}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    distinct = _distinct_rows(pts, m)
    if m > distinct:
        raise ValueError(f"m={m} exceeds the {distinct} distinct samples")
    if init_generators is not None:
        start = _as_points(init_generators, "init_generators").copy()
        if start.shape != (m, pts.shape[1]):
            raise ValueError("init_generators shape mismatch")
    elif rng is None:
        raise ValueError("rng required for seeded initialization")
    # finite samples can still lie too far apart to square; every overflow refuses them
    try:
        with np.errstate(over="raise"):
            gens = _kmeanspp_init(pts, m, rng) if init_generators is None else start
            return _lloyd_passes(pts, gens, max_iters, tol)
    except FloatingPointError:
        raise ValueError("samples too far apart: squared distances overflow float64") from None


def _lloyd_passes(pts: np.ndarray, gens: np.ndarray, max_iters: int, tol: float) -> LloydResult:
    """The iterations of ``lloyd`` from ``gens``, which they update in place.

    Each pass is one ``_lloyd_pass``, with its sweep's ``scratch`` and the cell
    ``counts`` it keeps allocated once per run; its assignments are bitwise
    those of a full search. ``near`` holds gaps, not losses; before a reseed,
    which reads losses, each sample's loss against its own cell's generator
    fills it, bitwise its least loss. The last pass, at ``max_iters`` or the
    one that converges, searches the returned generators, so their error is
    read from each sample's own cell too.
    """
    n, m = len(pts), len(gens)
    converged = False
    # every pass writes into these: allocated once per run, so a pass does not page in
    # fresh arrays
    assignments, near = np.zeros(n, dtype=np.int64), np.empty(n)
    scratch, counts, moves = np.empty(n), np.zeros(m, dtype=np.int64), np.zeros(m)
    counts[0] = n  # every sample starts in cell 0: the counts are always bincount(assignments)
    for iterations in range(max_iters + 1):
        if iterations % _GAP_PASSES == 0:
            near.fill(np.nan)  # no gap yet, or one carried long enough: search every sample
        _lloyd_pass(gens, pts, assignments, near, moves, scratch, counts)
        if iterations == max_iters:
            break
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            _own_cell_losses(gens, pts, assignments, near)
            for j in empty:
                _refuse_underflow(near)
                idx = int(near.argmax())
                logger.info("reseeding empty cell %d at sample %d", j, idx)
                gens[j] = pts[idx]
                np.minimum(near, loss_values(L2, pts, gens[j]), out=near)
            near.fill(np.nan)  # the next pass searches every sample
            continue
        means = _cell_sums(assignments, pts, m)
        means /= counts[:, None]
        moves = np.linalg.norm(gens - means, axis=1)
        if moves.max() < tol:
            converged = True
            break
        gens = means
    error = _mean_loss(_own_cell_losses(gens, pts, assignments, scratch))
    return LloydResult(gens, iterations, converged, error)


def _own_cell_losses(gens: np.ndarray, pts: np.ndarray, cells: np.ndarray,
                     losses: np.ndarray) -> np.ndarray:
    """Each sample's loss against its own cell's generator, written into ``losses``.

    One ``loss_values`` call per tile of the exact search, on the tile's samples and own
    generators, both laid out sample-major as ``_search_tile`` lays out its targets, so every
    loss adds its dimensions in the exact search's order: where ``cells`` are the exact
    search's, the losses are bitwise its least losses.
    """
    for lo in range(0, len(pts), _SEARCH_TILE):
        hi = lo + _SEARCH_TILE
        own = gens.T.take(cells[lo:hi], axis=1, mode="clip").T
        losses[lo:hi] = loss_values(L2, own, np.asfortranarray(pts[lo:hi]))
    return losses


def lloyd_best_of(samples, m: int, restarts: int, rng: np.random.Generator, *,
                  max_iters: int = 100, tol: float = 1e-4) -> LloydResult:
    """Best of ``restarts`` seeded ``lloyd`` runs by quantization error, the first on ties.

    Only ``restarts`` is checked here; each restart is one
    ``lloyd(samples, m, rng=rng)`` call, which checks its own arguments, in
    order on the calling thread, so each draws its start from ``rng`` just
    before its passes. The first that raises propagates its error, and no
    later restart starts.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    runs = (lloyd(samples, m, rng=rng, max_iters=max_iters, tol=tol) for _ in range(restarts))
    return min(runs, key=lambda run: run.quantization_error)
