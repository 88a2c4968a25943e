"""Cell assignment, centroidal residuals and the alternating quantizer oracle."""

import itertools
import logging
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhp import voronoi
from mhp.losses import CROSS_ENTROPY, L2, LossKind, hypothesis_targets, loss_values
from mhp.voronoi import (_CHUNK, _SEARCH_TILE, _cell_sums, _lloyd_pass, _nearest,
                         centroidal_residual, lloyd, lloyd_best_of, membership, quantization_error,
                         tessellate)

QUADRANT_CENTERS = np.array([[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]])


def uniform_square(n, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))


class TestTessellate:
    def test_strictly_closer_sample(self):
        gens = np.array([[0.0, 0.0], [2.0, 0.0]])
        tess = tessellate(gens, L2, np.array([[0.9, 0.0]]))
        assert tess.assignments[0] == 0

    def test_single_generator_collects_everything(self):
        pts = uniform_square(500)
        gens = np.array([[3.0, -2.0]])
        tess = tessellate(gens, L2, pts)
        assert tess.cell_counts[0] == 500
        np.testing.assert_allclose(tess.means[0], pts.mean(axis=0), atol=1e-12)

    def test_equidistant_tie_goes_low(self):
        gens = np.array([[0.0, 0.0], [1.0, 0.0]])
        tess = tessellate(gens, L2, np.array([[0.5, 0.3]]))
        assert tess.assignments[0] == 0

    def test_counts_sum_to_samples(self):
        pts = uniform_square(1000, seed=3)
        tess = tessellate(QUADRANT_CENTERS, L2, pts)
        assert tess.cell_counts.sum() == 1000

    def test_empty_cell_flagged_nan(self):
        gens = np.array([[0.0, 0.0], [50.0, 50.0]])
        pts = uniform_square(100, seed=4)
        tess = tessellate(gens, L2, pts)
        assert tess.cell_counts[1] == 0
        assert np.isnan(tess.means[1]).all()

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

    @pytest.mark.parametrize("func", [membership, quantization_error])
    def test_non_finite_samples_rejected(self, func):
        with pytest.raises(ValueError, match="non-finite samples"):
            func([[0, 0], [1, 1]], L2, [[np.nan, 1], [1, 1]])


class TestEntryCheck:
    """``membership``, ``tessellate`` and ``quantization_error`` check their inputs once, at
    entry, and a refusal gives the caller's shapes, not a search tile's."""

    @pytest.mark.parametrize("func", [membership, tessellate, quantization_error])
    def test_generators_of_another_width_are_refused_with_their_shape(self, func):
        samples = uniform_square(40_000, seed=60)  # three search tiles
        with pytest.raises(ValueError, match=re.escape("got shape (3, 3)")) as info:
            func(np.zeros((3, 3)), L2, samples)
        assert "16384" not in str(info.value)

    @pytest.mark.parametrize("func", [membership, tessellate, quantization_error])
    @pytest.mark.parametrize("samples", [np.zeros(0, dtype=np.int64),
                                         np.zeros((4, 1), dtype=np.int64)], ids=["empty", "2d"])
    def test_cross_entropy_samples_must_be_class_indices(self, func, samples):
        message = ("cross_entropy samples must be nonempty (n,) class indices, "
                   f"got shape {samples.shape}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            func(np.zeros((2, 3)), CROSS_ENTROPY, samples)

    @pytest.mark.parametrize("func", [membership, tessellate, quantization_error])
    @pytest.mark.parametrize("shape", [(0, 2), (0,)], ids=["no_rows", "one_axis"])
    def test_empty_samples_are_refused(self, func, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            func(np.zeros((2, 2)), L2, np.zeros(shape))


class TestCentroidalResidual:
    def test_fixed_point_has_zero_residual(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
        gens = np.array([[1.0, 0.0], [11.0, 0.0]])
        residuals, worst = centroidal_residual(tessellate(gens, L2, pts))
        assert worst == 0.0
        np.testing.assert_array_equal(residuals, [0.0, 0.0])

    def test_quadrant_centers_are_centroidal_for_uniform_square(self):
        pts = uniform_square(100_000, seed=7)
        _, worst = centroidal_residual(tessellate(QUADRANT_CENTERS, L2, pts))
        assert worst < 0.02

    def test_single_generator_residual_is_distance_to_mean(self):
        pts = uniform_square(50_000, seed=8)
        g = np.array([[0.4, -0.3]])
        _, worst = centroidal_residual(tessellate(g, L2, pts))
        assert worst == pytest.approx(np.linalg.norm(g[0] - pts.mean(axis=0)), rel=1e-12)

    def test_empty_cells_excluded_from_max(self):
        gens = np.array([[0.0, 0.0], [99.0, 99.0]])
        residuals, worst = centroidal_residual(tessellate(gens, L2, uniform_square(100, seed=9)))
        assert np.isnan(residuals[1])
        assert np.isfinite(worst)

    def test_l2_only(self):
        pts = uniform_square(10, seed=10)
        tess = tessellate(QUADRANT_CENTERS, LossKind("tukey"), pts)
        with pytest.raises(ValueError):
            centroidal_residual(tess)


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

    @pytest.mark.parametrize("tol", [np.nan, -1.0, -np.inf, np.inf])
    def test_nan_or_negative_tol_rejected(self, tol):
        # a NaN tol never stops the loop, a negative one can never be met, and an infinite
        # one has no strict JSON form
        pts = uniform_square(100, seed=3)
        with pytest.raises(ValueError, match="tol"):
            lloyd(pts, 2, rng=np.random.default_rng(0), tol=tol)
        with pytest.raises(ValueError, match="tol"):
            lloyd_best_of(pts, 2, 3, np.random.default_rng(0), tol=tol)

    def test_distinct_count_named_when_rejected(self):
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pts = rows[np.random.default_rng(1).integers(3, size=500)]
        with pytest.raises(ValueError, match="m=4 exceeds the 3 distinct samples"):
            lloyd(pts, 4, rng=np.random.default_rng(0))
        # distinct rows found only at the end of the samples still count
        pts = np.vstack([np.zeros((300, 2)), uniform_square(3, seed=2)])
        assert lloyd(pts, 4, rng=np.random.default_rng(0)).generators.shape == (4, 2)

    @pytest.mark.parametrize("start", ["kmeanspp", "init_generators"])
    def test_samples_whose_squared_distances_overflow_rejected(self, start):
        # at 1e150 the squares stay below 1e308; at 1e160 they overflow, which must be
        # refused by name, with no warning (the suite turns warnings into errors)
        def run(scale):
            pts = np.random.default_rng(0).normal(size=(200, 2)) * scale
            if start == "init_generators":
                return lloyd(pts, 3, init_generators=pts[:3])
            return lloyd(pts, 3, rng=np.random.default_rng(1))
        assert run(1e150).converged
        with pytest.raises(ValueError, match="^samples too far apart: squared distances "
                                             "overflow float64$"):
            run(1e160)

    @pytest.mark.parametrize("start", ["kmeanspp", "init_generators"])
    def test_samples_whose_squared_distances_underflow_rejected(self, start):
        # distinct samples at 1e-170 square to 0: the seeded draw would divide by a zero sum
        # and a reseed would find no farthest sample; both are refused by name, with no warning
        pts = np.random.default_rng(0).normal(size=(200, 2)) * 1e-170
        with pytest.raises(ValueError, match="^samples too close together: squared distances "
                                             "underflow to 0$"):
            if start == "init_generators":
                lloyd(pts, 3, init_generators=pts[:3])
            else:
                lloyd(pts, 3, rng=np.random.default_rng(0))
        assert lloyd(pts * 1e10, 3, rng=np.random.default_rng(0)).converged

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
        _, worst = centroidal_residual(tessellate(result.generators, L2, pts))
        assert worst <= tol

    def test_empty_cell_reseeded(self, caplog):
        pts = uniform_square(2000, seed=23)
        init = np.array([[0.0, 0.0], [500.0, 500.0]])  # second cell starts empty
        with caplog.at_level(logging.INFO, logger="mhp.voronoi"):
            result = lloyd(pts, 2, init_generators=init, tol=1e-6)
        assert any("reseed" in rec.message for rec in caplog.records)
        assert result.converged
        assert (tessellate(result.generators, L2, pts).cell_counts > 0).all()

    @pytest.mark.parametrize("kwargs, iterations, converged", [
        ({"tol": 1e-3}, 47, True),
        ({"tol": 1e-3, "max_iters": 4}, 4, False),
        ({"max_iters": 0}, 0, False),
        ({"init_generators": [[0.0, 0.0], [500.0, 500.0], [0.5, 0.5]]}, 32, True),
    ], ids=["converged", "capped", "max_iters_0", "reseeded"])
    def test_reported_error_is_the_returned_generators(self, monkeypatch, kwargs,
                                                        iterations, converged):
        # the run's last search is a bounded pass of the returned generators; the error is
        # read from each sample's own cell, and is bitwise the exact search's
        pts = uniform_square(20_000, seed=26)
        searches = []

        def recorded(search, bounded):
            def spy(gens, *args):
                searches.append((gens.copy(), bounded))
                return search(gens, *args)
            return spy
        monkeypatch.setattr(voronoi, "_nearest", recorded(_nearest, False))
        monkeypatch.setattr(voronoi, "_lloyd_pass", recorded(_lloyd_pass, True))
        result = lloyd(pts, 3, rng=np.random.default_rng(27), **kwargs)
        monkeypatch.undo()
        assert (result.iterations, result.converged) == (iterations, converged)
        last_gens, last_bounded = searches[-1]
        assert last_bounded
        assert last_gens.tobytes() == result.generators.tobytes()
        assert result.quantization_error == quantization_error(result.generators, L2, pts)

    def test_restarts_pick_best(self):
        pts = uniform_square(5000, seed=24)
        rng = np.random.default_rng(25)
        single = lloyd(pts, 4, rng=np.random.default_rng(25)).quantization_error
        best = lloyd_best_of(pts, 4, 5, rng).quantization_error
        assert best <= single + 1e-12


class TestRestartsInOrder:
    """``lloyd_best_of`` runs its restarts in order on the calling thread, each as one
    seeded ``lloyd`` call that draws its start from the shared ``rng``."""

    @pytest.mark.parametrize("d, m", [(2, 4), (64, 3)])
    def test_result_equals_one_lloyd_call_per_restart(self, d, m):
        pts = np.random.default_rng(40).normal(size=(3000, d))
        restarts = 5
        # one plain lloyd call per restart, all drawing from one generator
        rng = np.random.default_rng(41)
        runs = [lloyd(pts, m, rng=rng, tol=1e-6) for _ in range(restarts)]
        want = min(runs, key=lambda r: r.quantization_error)
        got = lloyd_best_of(pts, m, restarts, np.random.default_rng(41), tol=1e-6)
        assert got.generators.tobytes() == want.generators.tobytes()
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert got.quantization_error == want.quantization_error

    def test_every_search_runs_with_overflow_raising(self, monkeypatch):
        # a run computes its losses in a bounded pass's _search_tile calls (given an array for
        # the second-least loss) and in the own-cell losses of its reseeds and its error
        real_search_tile, real_own = voronoi._search_tile, voronoi._own_cell_losses
        searches = []

        def spy(*args):
            kind = "pass" if len(args) > 5 and args[5] is not None else "exact"
            searches.append((kind, np.geterr()["over"]))
            return real_search_tile(*args)

        def own(*args):
            searches.append(("own", np.geterr()["over"]))
            return real_own(*args)
        monkeypatch.setattr(voronoi, "_search_tile", spy)
        monkeypatch.setattr(voronoi, "_own_cell_losses", own)
        lloyd_best_of(uniform_square(5000, seed=42), 4, 4, np.random.default_rng(43))
        assert {kind for kind, _ in searches} == {"pass", "own"}
        assert all(state == "raise" for _, state in searches)

    @pytest.mark.parametrize("run", ["reseeding_lloyd", "lloyd_best_of"])
    def test_every_search_tile_belongs_to_a_bounded_pass(self, monkeypatch, caplog, run):
        # no exact search under lloyd: a reseed and the reported error read each sample's
        # own cell, so every _search_tile call is given an array for the second-least loss
        real_search_tile, seconds = voronoi._search_tile, []

        def spy(gens, loss, block, idx, low, second=None):
            seconds.append(second is not None)
            return real_search_tile(gens, loss, block, idx, low, second)
        monkeypatch.setattr(voronoi, "_search_tile", spy)
        with caplog.at_level(logging.INFO, logger="mhp.voronoi"):
            if run == "reseeding_lloyd":
                pts = np.random.default_rng(53).normal(size=(5000, 2))
                init = np.vstack([pts[:3], np.full((2, 2), 1e3)])  # two cells start empty
                lloyd(pts, 5, init_generators=init)
            else:
                lloyd_best_of(uniform_square(5000, seed=42), 4, 4, np.random.default_rng(43))
        assert seconds and all(seconds)
        if run == "reseeding_lloyd":
            assert any("reseed" in rec.message for rec in caplog.records)

    def test_start_draws_alternate_with_runs(self, monkeypatch):
        real_draw, real_passes, events = voronoi._kmeanspp_init, voronoi._lloyd_passes, []

        def draw(*args):
            events.append("draw")
            return real_draw(*args)

        def passes(*args):
            events.append("passes")
            return real_passes(*args)
        monkeypatch.setattr(voronoi, "_kmeanspp_init", draw)
        monkeypatch.setattr(voronoi, "_lloyd_passes", passes)
        lloyd_best_of(uniform_square(2000, seed=48), 3, 4, np.random.default_rng(49))
        assert events == ["draw", "passes"] * 4

    def test_failed_restart_raises_and_no_later_restart_starts(self, monkeypatch):
        pts, real_lloyd = uniform_square(2000, seed=44), voronoi.lloyd
        rng = np.random.default_rng(45)
        first = lloyd(pts, 3, rng=np.random.default_rng(45))
        calls, raised = [], []

        def second_restart_fails(samples, m, *, rng, **kwargs):
            calls.append(rng)
            if len(calls) == 2:
                raised.append(ValueError("restart failed"))
                raise raised[-1]
            run = real_lloyd(samples, m, rng=rng, **kwargs)
            assert run.generators.tobytes() == first.generators.tobytes()
            return run
        monkeypatch.setattr(voronoi, "lloyd", second_restart_fails)
        with pytest.raises(ValueError, match="^restart failed$") as info:
            lloyd_best_of(pts, 3, 4, rng)
        assert info.value is raised[0]
        assert len(calls) == 2  # restarts 0 and 1; none started after the failure
        assert all(given is rng for given in calls)

    def test_first_failed_restart_raises(self, monkeypatch):
        # every restart fails, each after its own draw from rng; the first one's error is raised
        def fail(samples, m, *, rng, **kwargs):
            raise ValueError(f"restart drew {rng.random()}")
        monkeypatch.setattr(voronoi, "lloyd", fail)
        pts = uniform_square(2000, seed=46)
        first = np.random.default_rng(47).random()
        with pytest.raises(ValueError, match=re.escape(f"restart drew {first}")):
            lloyd_best_of(pts, 3, 4, np.random.default_rng(47))

    def test_every_restart_runs_on_the_calling_thread(self, monkeypatch):
        real_lloyd, threads = voronoi.lloyd, []

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return real_lloyd(*args, **kwargs)
        monkeypatch.setattr(voronoi, "lloyd", spy)
        running = threading.active_count()
        lloyd_best_of(uniform_square(2000, seed=48), 3, 4, np.random.default_rng(49))
        assert threads == [threading.get_ident()] * 4
        assert threading.active_count() == running


def lloyd_passes_reference(pts, gens, max_iters, tol):
    """``lloyd``'s passes with one full search each, as they ran before the bounded
    re-searches: a run through them is what ``lloyd`` must return, bit for bit."""
    m = len(gens)
    converged = False
    for iterations in range(max_iters + 1):
        assignments, near = _nearest(gens, L2, pts)
        if iterations == max_iters:
            break
        counts = np.bincount(assignments, minlength=m)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            for j in empty:
                voronoi._refuse_underflow(near)
                idx = int(near.argmax())
                gens[j] = pts[idx]
                np.minimum(near, loss_values(L2, pts, gens[j]), out=near)
            continue
        means = _cell_sums(assignments, pts, m)
        means /= counts[:, None]
        movement = np.linalg.norm(gens - means, axis=1).max()
        if movement < tol:
            converged = True
            break
        gens = means
    return voronoi.LloydResult(gens, iterations, converged, voronoi._mean_loss(near))


def lloyd_both_ways(monkeypatch, samples, m, seed=0, **kwargs):
    """``lloyd``'s outcome with its own passes and with the reference passes: the result's
    bytes, iterations, convergence and error, or the message of the ValueError raised."""
    outcomes = []
    for passes in (voronoi._lloyd_passes, lloyd_passes_reference):
        monkeypatch.setattr(voronoi, "_lloyd_passes", passes)
        try:
            result = lloyd(samples, m, rng=np.random.default_rng(seed), **kwargs)
            outcomes.append((result.generators.tobytes(), result.iterations, result.converged,
                             result.quantization_error))
        except ValueError as error:
            outcomes.append(str(error))
    monkeypatch.undo()
    return outcomes


class TestBoundedPasses:
    """``lloyd`` re-searches only the samples whose cell may have changed; it must return
    what one full search per pass returns, on data that stresses the bounds."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("m", [1, 2, 4, 10, 40])
    def test_tie_heavy_rounded_data(self, monkeypatch, d, m):
        # coordinates on a 1/8 grid: many samples sit exactly on a cell boundary
        pts = np.round(np.random.default_rng(50 + d).normal(size=(3000, d)) * 8) / 8
        own, reference = lloyd_both_ways(monkeypatch, pts, m, seed=m, tol=1e-8)
        assert own == reference

    @pytest.mark.parametrize("scale", [1e-170, 1e-140, 1e140, 1e160])
    @pytest.mark.parametrize("start", ["kmeanspp", "init_generators"])
    def test_extreme_scales_with_the_same_refusals(self, monkeypatch, scale, start):
        # 1e-140 and 1e140 run; 1e-170 underflows and 1e160 overflows, and both ways refuse
        pts = np.random.default_rng(51).normal(size=(4000, 2)) * scale
        kwargs = {"init_generators": pts[:4]} if start == "init_generators" else {}
        own, reference = lloyd_both_ways(monkeypatch, pts, 4, **kwargs)
        assert own == reference
        assert isinstance(own, str) == (scale in (1e-170, 1e160))

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_subnormal_losses_are_searched(self, monkeypatch, seed):
        # at 1e-162 squared distances are subnormal, their computed losses far from exact:
        # every such sample sits below the floor and is searched on every pass
        pts = np.random.default_rng(seed).normal(size=(3000, 2)) * 1e-162
        own, reference = lloyd_both_ways(monkeypatch, pts, 4, seed=seed, tol=0.0, max_iters=30)
        assert own == reference

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_tiny_cluster_beside_unit_clusters(self, monkeypatch, m):
        rng = np.random.default_rng(52)
        pts = np.vstack([rng.normal(size=(1500, 2)) + [4.0, 0.0],
                         rng.normal(size=(1500, 2)) - [4.0, 0.0],
                         rng.normal(size=(1000, 2)) * 1e-9 + [0.0, 3.0]])
        own, reference = lloyd_both_ways(monkeypatch, pts, m, seed=m, tol=0.0)
        assert own == reference

    @pytest.mark.parametrize("d", [2, 8])
    def test_far_start_reseeds(self, monkeypatch, caplog, d):
        pts = np.random.default_rng(53).normal(size=(5000, d))
        init = np.vstack([pts[:3], np.full((2, d), 1e3)])  # two cells start empty
        with caplog.at_level(logging.INFO, logger="mhp.voronoi"):
            own, reference = lloyd_both_ways(monkeypatch, pts, 5, init_generators=init)
        assert own == reference
        assert any("reseed" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("max_iters", [0, 1, 3, 100])
    @pytest.mark.parametrize("tol", [0.0, 1e-4])
    def test_capped_and_zero_tolerance_runs(self, monkeypatch, max_iters, tol):
        pts = uniform_square(6000, seed=54)
        own, reference = lloyd_both_ways(monkeypatch, pts, 6, max_iters=max_iters, tol=tol)
        assert own == reference

    @pytest.mark.parametrize("n", [_SEARCH_TILE - 1, _SEARCH_TILE + 1, 2 * _SEARCH_TILE + 1])
    @pytest.mark.parametrize("d", [2, 8])
    def test_across_search_tiles(self, monkeypatch, n, d):
        pts = np.random.default_rng(55).normal(size=(n, d))
        own, reference = lloyd_both_ways(monkeypatch, pts, 4, tol=1e-6)
        assert own == reference

    def test_passes_search_a_fraction_of_the_samples(self, monkeypatch):
        pts = uniform_square(20_000, seed=56)
        real_search_tile, rows = voronoi._search_tile, []

        def counted(gens, loss, block, *args):
            rows.append(len(block))
            return real_search_tile(gens, loss, block, *args)
        monkeypatch.setattr(voronoi, "_search_tile", counted)
        result = lloyd(pts, 4, rng=np.random.default_rng(57), tol=1e-6)
        assert result.iterations > 10
        assert sum(rows) < 0.5 * len(pts) * (result.iterations + 1)


def searches(monkeypatch):
    """A list that records, in order, each ``_lloyd_pass`` call, as ("pass", n), each exact
    ``_nearest`` call, as ("exact", n), each ``_own_cell_losses`` call, as ("own", n), and
    each ``_search_tile`` call, as ("rows", rows) for a bounded pass's search and
    ("tile", rows) otherwise."""
    real_search_tile, events = voronoi._search_tile, []

    def recorded(kind, real, samples_at):
        def spy(*args):
            events.append((kind, len(args[samples_at])))
            return real(*args)
        return spy

    def search_tile(gens, loss, block, idx, low, second=None):
        events.append(("tile" if second is None else "rows", len(block)))
        return real_search_tile(gens, loss, block, idx, low, second)
    monkeypatch.setattr(voronoi, "_lloyd_pass", recorded("pass", voronoi._lloyd_pass, 1))
    monkeypatch.setattr(voronoi, "_nearest", recorded("exact", voronoi._nearest, 2))
    monkeypatch.setattr(voronoi, "_own_cell_losses", recorded("own", voronoi._own_cell_losses, 1))
    monkeypatch.setattr(voronoi, "_search_tile", search_tile)
    return events


class TestOneSweepPasses:
    """A bounded pass takes every gap's shrink in one sweep, searches only the flagged rows,
    gathered ``_SEARCH_TILE`` at a time, and keeps each cell's count from the searched rows;
    the run reads its error from each sample's own cell. All of it must return what one
    full search per pass returns."""

    @pytest.mark.parametrize("d", [8, 9])
    @pytest.mark.parametrize("n, flagged", [
        (_SEARCH_TILE + 300, np.arange(_SEARCH_TILE + 1)),
        (2 * _SEARCH_TILE + 1, np.r_[5:2 * _SEARCH_TILE:3, 2 * _SEARCH_TILE]),
        (2 * _SEARCH_TILE + 1, np.r_[:_SEARCH_TILE + 1, 2 * _SEARCH_TILE]),
    ], ids=["lone_last_chunk", "last_tile_alone", "both"])
    def test_flagged_rows_get_the_full_search_bits(self, d, n, flagged):
        # from d = 8 numpy sums a lone row's losses pairwise: a lone row in the last chunk
        # is searched beside a copy of itself, and the last sample, which the full search
        # takes as a tile of its own when n % _SEARCH_TILE == 1, is searched alone. At
        # seed 13 that sample's pairwise and in-sequence sums differ, at d = 8 and 9
        m = 5
        gens, samples = nearest_case(L2, d, m, n=n, seed=13)
        samples = np.asfortranarray(samples)
        # every sample starts in cell 0, and the counts say so
        full, full_counts = (np.zeros(n, dtype=np.int64), np.full(n, np.nan)), np.zeros(m, int)
        full_counts[0] = n
        _lloyd_pass(gens, samples, *full, np.zeros(m), np.empty(n), full_counts)
        assert full[0].tobytes() == _nearest(gens, L2, samples)[0].tobytes()
        assert full_counts.tolist() == np.bincount(full[0], minlength=m).tolist()
        # a pass that flags only `flagged`, whose cells are stale
        index, gaps = full[0].copy(), np.full(n, np.inf)
        index[flagged] = (index[flagged] + 1) % m
        gaps[flagged] = np.nan
        counts = np.bincount(index, minlength=m)
        _lloyd_pass(gens, samples, index, gaps, np.zeros(m), np.empty(n), counts)
        assert index.tobytes() == full[0].tobytes()
        assert gaps[flagged].tobytes() == full[1][flagged].tobytes()
        assert (np.delete(gaps, flagged) == np.inf).all()
        assert counts.tolist() == full_counts.tolist()

    @pytest.mark.parametrize("d", [8, 9])
    def test_lone_rows_of_small_chunks(self, monkeypatch, d):
        # with 4-row chunks, passes often leave a lone row in the last chunk, and with
        # n % 4 == 1 the last sample is a tile of its own
        monkeypatch.setattr(voronoi, "_SEARCH_TILE", 4)
        real_search_tile, copies = voronoi._search_tile, []

        def spy(gens, loss, block, idx, low, second=None):
            if second is not None and len(block) == 2:
                copies.append(np.array_equal(block[0], block[1]))
            return real_search_tile(gens, loss, block, idx, low, second)
        monkeypatch.setattr(voronoi, "_search_tile", spy)
        pts = np.random.default_rng(60 + d).normal(size=(601, d))
        own, reference = lloyd_both_ways(monkeypatch, pts, 5, tol=0.0, max_iters=40)
        assert own == reference
        assert any(copies)

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
               st.just(n), st.sets(st.integers(0, n - 1)))),
           st.sampled_from([2, 8, 9]), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_any_flagged_rows_get_the_exact_search_bits(self, n_flagged, d, m, seed):
        # with 4-row tiles: the exact search's losses, a tile of 4 rows at a time laid out
        # sample-major and the last row alone when n % 4 == 1, give each flagged row its cell
        # and, from the least and second-least of them, its gap
        n, flagged = n_flagged
        flagged = np.array(sorted(flagged), dtype=np.int64)
        rng = np.random.default_rng(seed)
        pts = np.asfortranarray(rng.normal(size=(n, d)))
        gens = rng.normal(size=(m, d))
        gens[-1] = gens[0]  # an exact tie, which the lower index wins
        losses = np.vstack([np.concatenate([loss_values(L2, g, np.asfortranarray(pts[lo:lo + 4]))
                                            for lo in range(0, n, 4)]) for g in gens])
        ordered = np.sort(losses, axis=0)
        least, second = ordered[0], ordered[1] if m > 1 else np.full(n, np.inf)
        want_gaps = ((1.0 - voronoi._GAP_SLACK) * np.sqrt(2.0 * second)
                     - np.sqrt(2.0 * least) - voronoi._GAP_FLOOR)
        stale = rng.integers(0, m, size=n)
        cells, gaps = stale.copy(), np.full(n, np.inf)
        gaps[flagged] = np.nan
        counts = np.bincount(cells, minlength=m)
        with mock.patch.object(voronoi, "_SEARCH_TILE", 4):
            _lloyd_pass(gens, pts, cells, gaps, np.zeros(m), np.empty(n), counts)
        assert cells[flagged].tobytes() == losses.argmin(axis=0)[flagged].tobytes()
        assert gaps[flagged].tobytes() == want_gaps[flagged].tobytes()
        assert (np.delete(cells, flagged) == np.delete(stale, flagged)).all()
        assert (np.delete(gaps, flagged) == np.inf).all()
        assert counts.tolist() == np.bincount(cells, minlength=m).tolist()

    def test_counts_are_the_cells_after_every_pass(self, monkeypatch, caplog):
        # from the first pass, whose cells all start at 0, through the reseeds of two
        # cells that start empty
        real_pass, agree = voronoi._lloyd_pass, []

        def spy(gens, pts, cells, gaps, moves, scratch, counts):
            real_pass(gens, pts, cells, gaps, moves, scratch, counts)
            agree.append(counts.tolist() == np.bincount(cells, minlength=len(gens)).tolist())
        monkeypatch.setattr(voronoi, "_lloyd_pass", spy)
        pts = np.random.default_rng(53).normal(size=(5000, 2))
        init = np.vstack([pts[:3], np.full((2, 2), 1e3)])
        with caplog.at_level(logging.INFO, logger="mhp.voronoi"):
            result = lloyd(pts, 5, init_generators=init)
        assert len(agree) == result.iterations + 1 and all(agree)
        assert any("reseed" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("d, seed", [(2, 61), (8, 63), (9, 62)])
    def test_max_iters_0(self, monkeypatch, d, seed):
        # the one pass starts from NaN gaps and searches every row: 2 tiles and a
        # lone row, whose own-cell loss must be summed as the full search sums it: pairwise
        # from d = 8. The lone row lies far out, so its loss shows in the mean's last bits,
        # and at these seeds its pairwise and in-sequence sums differ
        pts = np.random.default_rng(seed).normal(size=(2 * _SEARCH_TILE + 1, d))
        pts[-1] *= 1e3
        own, reference = lloyd_both_ways(monkeypatch, pts, 4, init_generators=pts[:4],
                                         max_iters=0)
        assert own == reference
        assert own[1:3] == (0, False)

    def test_reseed_on_the_pass_before_max_iters(self, monkeypatch, caplog):
        # pass 0 reseeds two empty cells, so the last pass, at max_iters, starts from NaN gaps
        pts = np.random.default_rng(62).normal(size=(5000, 2))
        init = np.vstack([pts[:3], np.full((2, 2), 1e3)])
        with caplog.at_level(logging.INFO, logger="mhp.voronoi"):
            own, reference = lloyd_both_ways(monkeypatch, pts, 5, init_generators=init,
                                             max_iters=1)
        assert own == reference
        assert own[1:3] == (1, False)
        assert any("reseed" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("seed, max_iters", [(314, 3), (314, 200), (1932, 200)])
    def test_cells_that_empty_after_a_partial_pass(self, monkeypatch, seed, max_iters):
        # M = 40 on a coarse grid: a pass that searches only some rows empties a cell, which
        # the incremental counts must find; capped at 3, the reseed is on the pass before
        rng = np.random.default_rng(seed)
        pts = np.round(rng.normal(size=(300, 3)) * 1.5) / 1.5
        init = pts[rng.choice(300, 40)] + rng.normal(size=(40, 3)) * 0.3
        events = searches(monkeypatch)
        lloyd(pts, 40, init_generators=init, tol=1e-8, max_iters=max_iters)
        monkeypatch.undo()
        passes = [[0, False]]
        for kind, rows in events:
            if kind == "pass":
                passes.append([0, False])
            passes[-1][0] += rows if kind == "rows" else 0
            passes[-1][1] |= kind == "own"
        own, reference = lloyd_both_ways(monkeypatch, pts, 40, init_generators=init,
                                         tol=1e-8, max_iters=max_iters)
        assert own == reference
        # a reseed reads the own-cell losses after its pass; so does the error, after the last
        assert any(reseeded and flagged < len(pts) for flagged, reseeded in passes[:-1])

    def test_converged_run_reads_its_error_without_a_full_search(self, monkeypatch):
        pts = uniform_square(20_000, seed=58)
        events = searches(monkeypatch)
        result = lloyd(pts, 4, rng=np.random.default_rng(59), tol=1e-6)
        monkeypatch.undo()
        assert result.converged and result.iterations > 10
        last = max(i for i, (kind, _) in enumerate(events) if kind == "pass")
        after = events[last + 1:]
        kinds = [kind for kind, _ in after]
        assert kinds == sorted(kinds, key=["rows", "own"].index)  # the pass, then the error
        assert sum(rows for kind, rows in after if kind == "rows") < len(pts)
        assert sum(rows for kind, rows in after if kind == "own") == len(pts)
        assert result.quantization_error == quantization_error(result.generators, L2, pts)


class TestCellSums:
    @pytest.mark.parametrize("shape", [(1000, 1), (1000, 3)])
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
    @pytest.mark.parametrize("n", [_SEARCH_TILE - 1, _SEARCH_TILE, _SEARCH_TILE + 1,
                                   2 * _SEARCH_TILE + 1])
    def test_bitwise_equal_across_search_tiles(self, loss, n):
        gens, samples = nearest_case(loss, 3, 4, n=n, seed=2)
        ref_index, ref_best = nearest_reference(gens, loss, samples)
        index, best = _nearest(gens, loss, samples)
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

    @pytest.mark.parametrize("d", [2, 8, 33])
    def test_lone_re_searched_row_gets_the_full_search_bits(self, d):
        # numpy sums one row's d losses pairwise from d = 8 but a tile's in sequence: a row
        # re-searched alone must still get the gap that searching its whole tile gives
        gens, samples = nearest_case(L2, d, 5, n=300, seed=3)
        samples = np.asfortranarray(samples)
        full = np.zeros(300, dtype=np.int64), np.full(300, np.nan)
        _lloyd_pass(gens, samples, *full, np.zeros(5), np.empty(300), np.array([300, 0, 0, 0, 0]))
        assert full[0].tobytes() == _nearest(gens, L2, samples)[0].tobytes()
        for row in range(0, 300, 7):
            gaps = np.full(300, np.inf)
            gaps[row] = np.nan
            alone = np.zeros(300, dtype=np.int64), gaps
            _lloyd_pass(gens, samples, *alone, np.zeros(5), np.empty(300),
                        np.zeros(5, dtype=np.int64))
            assert alone[0][row] == full[0][row]
            assert alone[1][row].tobytes() == full[1][row].tobytes()

    def test_lloyd_same_for_c_and_f_ordered_points(self):
        pts = np.random.default_rng(5).normal(size=(3000, 3))
        runs = [lloyd(laid_out, 5, rng=np.random.default_rng(2))
                for laid_out in (pts, np.asfortranarray(pts))]
        assert runs[0].generators.tobytes() == runs[1].generators.tobytes()
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].quantization_error == runs[1].quantization_error
