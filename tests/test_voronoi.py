"""Cell assignment, centroidal residuals and the alternating quantizer oracle."""

import itertools
import logging

import numpy as np
import pytest

from mhp.losses import CROSS_ENTROPY, L2, LossKind, hypothesis_targets, loss_values
from mhp.voronoi import (_CHUNK, _cell_sums, _nearest, centroidal_residual, lloyd,
                         lloyd_best_of, membership, quantization_error, tessellate)

QUADRANT_CENTERS = np.array([[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]])


def uniform_square(n, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))


class TestTessellate:
    def test_strictly_closer_sample(self):
        gens = np.array([[0.0, 0.0], [2.0, 0.0]])
        tess, _ = tessellate(gens, L2, np.array([[0.9, 0.0]]))
        assert tess.assignments[0] == 0

    def test_single_generator_collects_everything(self):
        pts = uniform_square(500)
        gens = np.array([[3.0, -2.0]])
        tess, stats = tessellate(gens, L2, pts)
        assert tess.cell_counts[0] == 500
        np.testing.assert_allclose(stats.means[0], pts.mean(axis=0), atol=1e-12)

    def test_equidistant_tie_goes_low(self):
        gens = np.array([[0.0, 0.0], [1.0, 0.0]])
        tess, _ = tessellate(gens, L2, np.array([[0.5, 0.3]]))
        assert tess.assignments[0] == 0

    def test_counts_sum_to_samples(self):
        pts = uniform_square(1000, seed=3)
        tess, stats = tessellate(QUADRANT_CENTERS, L2, pts)
        assert tess.cell_counts.sum() == 1000
        assert np.array_equal(stats.counts, tess.cell_counts)

    def test_empty_cell_flagged_nan(self):
        gens = np.array([[0.0, 0.0], [50.0, 50.0]])
        pts = uniform_square(100, seed=4)
        _, stats = tessellate(gens, L2, pts)
        assert stats.counts[1] == 0
        assert np.isnan(stats.means[1]).all()
        assert np.isnan(stats.mean_losses[1])

    def test_assignment_invariant_to_loss_rescaling(self):
        pts = uniform_square(2000, seed=5)
        gens = uniform_square(6, seed=6)
        base = membership(gens, L2, pts)
        scaled = (7.3 * loss_values(L2, gens[None, :, :], pts[:, None, :])).argmin(axis=1)
        assert np.array_equal(base, scaled)

    def test_cross_entropy_membership(self):
        gens = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        classes = np.array([0, 1, 1, 0])
        cells = membership(gens, LossKind("cross_entropy"), classes)
        np.testing.assert_array_equal(cells, classes)


class TestCentroidalResidual:
    def test_fixed_point_has_zero_residual(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
        gens = np.array([[1.0, 0.0], [11.0, 0.0]])
        tess, stats = tessellate(gens, L2, pts)
        residuals, worst = centroidal_residual(tess, stats)
        assert worst == 0.0
        np.testing.assert_array_equal(residuals, [0.0, 0.0])

    def test_quadrant_centers_are_centroidal_for_uniform_square(self):
        pts = uniform_square(100_000, seed=7)
        tess, stats = tessellate(QUADRANT_CENTERS, L2, pts)
        _, worst = centroidal_residual(tess, stats)
        assert worst < 0.02

    def test_single_generator_residual_is_distance_to_mean(self):
        pts = uniform_square(50_000, seed=8)
        g = np.array([[0.4, -0.3]])
        tess, stats = tessellate(g, L2, pts)
        _, worst = centroidal_residual(tess, stats)
        assert worst == pytest.approx(np.linalg.norm(g[0] - pts.mean(axis=0)), rel=1e-12)

    def test_empty_cells_excluded_from_max(self):
        gens = np.array([[0.0, 0.0], [99.0, 99.0]])
        tess, stats = tessellate(gens, L2, uniform_square(100, seed=9))
        residuals, worst = centroidal_residual(tess, stats)
        assert np.isnan(residuals[1])
        assert np.isfinite(worst)

    def test_l2_only(self):
        pts = uniform_square(10, seed=10)
        tess, stats = tessellate(QUADRANT_CENTERS, LossKind("tukey"), pts)
        with pytest.raises(ValueError):
            centroidal_residual(tess, stats)


class TestQuantizationError:
    def test_generators_covering_samples(self):
        pts = uniform_square(50, seed=11)
        assert quantization_error(pts, L2, pts) == 0.0

    def test_single_generator_at_mean_is_half_trace_covariance(self):
        pts = uniform_square(20_000, seed=12)
        mean = pts.mean(axis=0)
        expected = 0.5 * np.trace(np.cov(pts.T, bias=True))
        assert quantization_error(mean[None, :], L2, pts) == pytest.approx(expected, rel=1e-9)

    def test_adding_a_generator_never_hurts(self):
        pts = uniform_square(5000, seed=13)
        rng = np.random.default_rng(14)
        gens = rng.uniform(-1, 1, size=(3, 2))
        extra = np.vstack([gens, rng.uniform(-1, 1, size=(1, 2))])
        assert quantization_error(extra, L2, pts) <= quantization_error(gens, L2, pts)


class TestLloyd:
    def test_two_point_quantizer(self):
        pts = np.array([[-0.5, -0.5], [0.5, 0.5]])
        result = lloyd(pts, 2, rng=np.random.default_rng(0), tol=1e-12)
        assert result.converged
        got = sorted(map(tuple, result.generators))
        np.testing.assert_allclose(got, [(-0.5, -0.5), (0.5, 0.5)], atol=1e-12)
        assert result.quantization_error == 0.0

    def test_uniform_square_recovers_quadrant_centers(self):
        pts = uniform_square(100_000, seed=15)
        result = lloyd_best_of(pts, 4, restarts=5, rng=np.random.default_rng(16), tol=1e-3)
        best = min(
            max(np.abs(result.generators[list(perm)] - QUADRANT_CENTERS).max(axis=1))
            for perm in itertools.permutations(range(4)))
        assert best < 0.05  # per coordinate, up to permutation

    def test_one_generator_per_sample_is_lossless(self):
        pts = uniform_square(40, seed=17)
        result = lloyd(pts, 40, rng=np.random.default_rng(18), tol=1e-10)
        assert result.quantization_error == pytest.approx(0.0, abs=1e-24)

    def test_m_exceeding_distinct_samples_rejected(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError):
            lloyd(pts, 3, rng=np.random.default_rng(0))

    def test_distinct_count_named_when_rejected(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = rows[np.random.default_rng(1).integers(3, size=500)]
        with pytest.raises(ValueError, match="m=4 exceeds the 3 distinct samples"):
            lloyd(pts, 4, rng=np.random.default_rng(0))
        # distinct rows found only at the end of the samples still count
        pts = np.vstack([np.zeros((300, 2)), uniform_square(3, seed=2)])
        assert lloyd(pts, 4, rng=np.random.default_rng(0)).generators.shape == (4, 2)

    def test_more_cells_never_increase_error(self):
        pts = uniform_square(20_000, seed=19)
        rng = np.random.default_rng(20)
        e2 = lloyd_best_of(pts, 2, 3, rng).quantization_error
        e4 = lloyd_best_of(pts, 4, 3, rng).quantization_error
        assert e4 <= e2

    def test_output_is_fixed_point(self):
        pts = uniform_square(30_000, seed=21)
        tol = 1e-3
        result = lloyd(pts, 5, rng=np.random.default_rng(22), tol=tol)
        assert result.converged
        tess, stats = tessellate(result.generators, L2, pts)
        _, worst = centroidal_residual(tess, stats)
        assert worst <= tol

    def test_empty_cell_reseeded(self, caplog):
        pts = uniform_square(2000, seed=23)
        init = np.array([[0.0, 0.0], [500.0, 500.0]])  # second cell starts empty
        with caplog.at_level(logging.INFO, logger="mhp.voronoi"):
            result = lloyd(pts, 2, init_generators=init, tol=1e-6)
        assert any("reseed" in rec.message for rec in caplog.records)
        assert result.converged
        tess, _ = tessellate(result.generators, L2, pts)
        assert (tess.cell_counts > 0).all()

    def test_restarts_pick_best(self):
        pts = uniform_square(5000, seed=24)
        rng = np.random.default_rng(25)
        single = lloyd(pts, 4, rng=np.random.default_rng(25)).quantization_error
        best = lloyd_best_of(pts, 4, 5, rng).quantization_error
        assert best <= single + 1e-12


class TestCellSums:
    @pytest.mark.parametrize("shape", [(1000,), (1000, 1), (1000, 3)])
    def test_bitwise_equal_to_add_at_with_empty_cells(self, shape):
        rng = np.random.default_rng(30)
        m = 9
        # cells 2 and 7 stay empty
        assignments = rng.choice([0, 1, 3, 4, 5, 6, 8], size=shape[0])
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        reference = np.zeros((m,) + shape[1:])
        np.add.at(reference, assignments, values)
        sums = _cell_sums(assignments, values, m)
        assert sums.shape == reference.shape
        assert sums.tobytes() == reference.tobytes()
        assert not sums[[2, 7]].any()


def nearest_reference(gens, loss, samples):
    """The former search: a chunk's (M, chunk) losses at once, then argmin/min over M."""
    n = len(samples)
    index, best = np.empty(n, dtype=np.int64), np.empty(n)
    for lo in range(0, n, _CHUNK):
        block = samples[lo:lo + _CHUNK]
        t = hypothesis_targets(loss, block, len(block), gens.shape[1]).swapaxes(0, 1)
        values = loss_values(loss, gens[:, None, :], t)
        index[lo:lo + _CHUNK] = values.argmin(axis=0)
        best[lo:lo + _CHUNK] = values.min(axis=0)
    return index, best


def nearest_case(loss, d, m, n=600, seed=0):
    """Generators and samples with exact ties: the last generator repeats the
    first, and for regression losses the first m samples sit on the generators."""
    rng = np.random.default_rng(seed)
    gens = rng.normal(size=(m, d))
    gens[-1] = gens[0]
    if loss.name == "cross_entropy":
        return gens, rng.integers(0, d, size=n)
    samples = rng.normal(size=(n, d))
    samples[:m] = gens
    return gens, samples


NEAREST_LOSSES = [L2, LossKind("tukey", 1.5), CROSS_ENTROPY]


class TestNearest:
    @pytest.mark.parametrize("loss", NEAREST_LOSSES, ids=lambda k: k.spec())
    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    @pytest.mark.parametrize("m", [1, 4, 10])
    def test_bitwise_equal_to_the_m_by_chunk_search(self, loss, d, m):
        gens, samples = nearest_case(loss, d, m)
        ref_index, ref_best = nearest_reference(gens, loss, samples)
        for laid_out in (np.ascontiguousarray(samples), np.asfortranarray(samples)):
            index, best = _nearest(gens, loss, laid_out)
            assert index.tobytes() == ref_index.tobytes()
            assert best.tobytes() == ref_best.tobytes()
        if m > 1:
            assert not (index == m - 1).any()  # the repeated generator never wins a tie

    def test_bitwise_equal_across_chunks(self):
        # one chunk slice of the F-ordered samples is not itself sample-major
        gens, samples = nearest_case(L2, 2, 4, n=_CHUNK + 1000, seed=1)
        ref_index, ref_best = nearest_reference(gens, L2, samples)
        for laid_out in (samples, np.asfortranarray(samples)):
            index, best = _nearest(gens, L2, laid_out)
            assert index.tobytes() == ref_index.tobytes()
            assert best.tobytes() == ref_best.tobytes()

    @pytest.mark.parametrize("loss", NEAREST_LOSSES, ids=lambda k: k.spec())
    @pytest.mark.parametrize("d", [8, 64])
    @pytest.mark.parametrize("m", [1, 4, 10])
    def test_wide_targets_agree_to_rounding(self, loss, d, m):
        # from 8 dimensions numpy sums a contiguous row pairwise, while the
        # sample-major search adds the dimensions in sequence
        gens, samples = nearest_case(loss, d, m)
        ref_index, ref_best = nearest_reference(gens, loss, samples)
        for laid_out in (np.ascontiguousarray(samples), np.asfortranarray(samples)):
            index, best = _nearest(gens, loss, laid_out)
            np.testing.assert_array_equal(index, ref_index)
            np.testing.assert_allclose(best, ref_best, rtol=1e-14, atol=0)

    def test_lloyd_same_for_c_and_f_ordered_points(self):
        pts = np.random.default_rng(5).normal(size=(3000, 3))
        runs = [lloyd(laid_out, 5, rng=np.random.default_rng(2))
                for laid_out in (pts, np.asfortranarray(pts))]
        assert runs[0].generators.tobytes() == runs[1].generators.tobytes()
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].quantization_error == runs[1].quantization_error
