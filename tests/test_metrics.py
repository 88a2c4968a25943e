"""Oracle-min loss, hypothesis spread, sharpness, multi-label coverage."""

import tracemalloc
import warnings

import numpy as np
import pytest

import mhp
from mhp import metrics, network
from mhp.datagen import default_gridframe_spec, render_frame, sample_gridframe
from mhp.losses import CROSS_ENTROPY, L2, hypothesis_targets, loss_values
from mhp.meta_loss import MetaLossConfig
from mhp.metrics import (dataset_hypothesis_variance, dataset_sharpness, multilabel_scores,
                         oracle_min_loss, oracle_min_loss_nested)
from mhp.network import forward_batch
from mhp.training import TrainSchedule, train
from model_helpers import model_of


def constant_model(hyps):
    """Model that outputs the given (M, d) hypotheses for any input."""
    hyps = np.asarray(hyps, dtype=np.float64)
    m, d = hyps.shape
    return model_of([(np.zeros((m * d, 1)), hyps.ravel(), "identity")], d, m)


ONE_INPUT = np.zeros((1, 1))  # a one-row dataset for a constant_model


class TestOracleMin:
    def test_single_hypothesis_equals_mean_loss(self):
        rng = np.random.default_rng(0)
        model = mhp.init_mlp(1, [8], 2, 1, rng)
        X = rng.random((50, 1))
        Y = rng.normal(size=(50, 2))
        hyps = mhp.forward_batch(model, X)
        expected = np.mean([loss_values(L2, hyps[i, 0], Y[i]) for i in range(50)])
        assert oracle_min_loss(model, X, Y, L2) == pytest.approx(expected, rel=1e-12)

    def test_duplicated_heads_match_single_head(self):
        hyp = np.array([0.3, -0.4])
        dup = constant_model(np.tile(hyp, (4, 1)))
        single = constant_model(hyp[None, :])
        rng = np.random.default_rng(1)
        X = np.zeros((30, 1))
        Y = rng.normal(size=(30, 2))
        assert oracle_min_loss(dup, X, Y, L2) == oracle_min_loss(single, X, Y, L2)

    def test_empty_dataset_rejected(self):
        model = constant_model(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            oracle_min_loss(model, np.zeros((0, 1)), np.zeros((0, 2)), L2)

    def test_nested_heads_non_increasing(self):
        rng = np.random.default_rng(2)
        model = mhp.init_mlp(1, [16], 2, 8, rng)
        X = rng.random((200, 1))
        Y = rng.normal(size=(200, 2))
        nested = oracle_min_loss_nested(model, X, Y, L2)
        assert nested.shape == (8,)
        assert (np.diff(nested) <= 1e-15).all()
        assert nested[-1] == pytest.approx(oracle_min_loss(model, X, Y, L2), rel=1e-12)


class TestHypothesisVariance:
    def test_identical_hypotheses_have_zero_spread(self):
        model = constant_model(np.tile([1.0, 2.0], (5, 1)))
        assert dataset_hypothesis_variance(model, ONE_INPUT)[0] == 0.0

    def test_two_point_example(self):
        model = constant_model(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert dataset_hypothesis_variance(model, ONE_INPUT)[0] == 1.0

    def test_single_hypothesis_rejected(self):
        with pytest.raises(ValueError, match="at least 2 hypotheses"):
            dataset_hypothesis_variance(constant_model(np.array([[1.0, 2.0]])), ONE_INPUT)

    def test_invariance_under_permutation_and_translation(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 3))

        def spread(hyps):
            return dataset_hypothesis_variance(constant_model(hyps), ONE_INPUT)[0]

        base = spread(h)
        assert spread(h[rng.permutation(6)]) == pytest.approx(base, rel=1e-12)
        assert spread(h + np.array([5.0, -2.0, 0.5])) == pytest.approx(base, rel=1e-9)

    def test_dataset_aggregate_matches_per_input(self):
        rng = np.random.default_rng(4)
        model = mhp.init_mlp(2, [8], 2, 3, rng)
        X = rng.random((40, 2))
        mean_spread, per_dim = dataset_hypothesis_variance(model, X)
        rows = [dataset_hypothesis_variance(model, X[i:i + 1]) for i in range(40)]
        expected = np.mean([spread for spread, _ in rows])
        assert mean_spread == pytest.approx(expected, rel=1e-12)
        expected_dim = np.mean([row_dim for _, row_dim in rows], axis=0)
        np.testing.assert_allclose(per_dim, expected_dim, rtol=1e-12)


def one_set_sharpness(hyps, width, height, channels=1):
    """Sharpness of one (M, H*W*C) hypothesis set, as a one-row dataset."""
    return dataset_sharpness(constant_model(hyps), ONE_INPUT, width, height, channels)


class TestSharpness:
    def test_constant_image_is_flat(self):
        assert one_set_sharpness(np.full((1, 16), 0.7), 4, 4) == 0.0

    def test_hand_computed_two_by_two(self):
        img = np.array([[0.0, 1.0], [0.0, 1.0]]).ravel()
        assert one_set_sharpness(img[None, :], 2, 2) == 0.5

    def test_quadratic_intensity_scaling(self):
        rng = np.random.default_rng(5)
        img = rng.random((1, 64))
        base = one_set_sharpness(img, 8, 8)
        assert one_set_sharpness(3.0 * img, 8, 8) == pytest.approx(9.0 * base, rel=1e-12)

    def test_translation_invariance_for_interior_dot(self):
        spec = default_gridframe_spec(1)
        a = render_frame(spec, (3, 3)).ravel()
        b = render_frame(spec, (4, 5)).ravel()
        assert one_set_sharpness(a[None, :], 8, 8) == pytest.approx(
            one_set_sharpness(b[None, :], 8, 8), rel=1e-12)

    def test_averaging_disjoint_dots_blurs(self):
        spec = default_gridframe_spec(1)
        a = render_frame(spec, (2, 2)).ravel()
        b = render_frame(spec, (5, 5)).ravel()
        avg = 0.5 * (a + b)
        assert avg.max() == 0.5 * a.max()
        assert one_set_sharpness(avg[None, :], 8, 8) < one_set_sharpness(a[None, :], 8, 8)
        assert one_set_sharpness(avg[None, :], 8, 8) < one_set_sharpness(b[None, :], 8, 8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            one_set_sharpness(np.zeros((1, 60)), 8, 8)


class TestMultiLabelScores:
    def test_perfect_single_label_classifier(self):
        # heads emit logits favouring class 1 for every input
        logits = np.array([[0.0, 5.0, 0.0]])
        model = constant_model(logits)
        recall, precision = multilabel_scores(model, np.zeros((4, 1)), [{1}] * 4)
        assert recall == 1.0 and precision == 1.0

    def test_coverage_bounded_by_distinct_predictions(self):
        logits = np.tile([5.0, 0.0, 0.0], (3, 1))  # all heads say class 0
        model = constant_model(logits)
        recall, precision = multilabel_scores(model, np.zeros((2, 1)),
                                              [{0, 1}, {0, 2}])
        assert recall == 0.5
        assert precision == 1.0

    def test_mismatched_lengths_rejected(self):
        model = constant_model(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            multilabel_scores(model, np.zeros((2, 1)), [{0}])


class TestVarianceMapOnGridTask:
    def test_map_mass_concentrates_on_terminal_dots(self):
        # train a 3-hypothesis model on the 3-terminal grid task and check
        # where the per-pixel variance lands
        spec = default_gridframe_spec(3)
        rng = np.random.default_rng(6)
        model = mhp.init_mlp(spec.pixels, [32], spec.pixels, 3, rng, seed=6)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.08, 0.9)

        def sampler(r, n):
            X, Y, _ = sample_gridframe(spec, n, r)
            return X, Y

        train(model, sampler, MetaLossConfig(3, 0.05, 0.01), opt,
              TrainSchedule(40, 32, 6, samples_per_epoch=2048))
        x = sample_gridframe(spec, 1, np.random.default_rng(0))[0]
        _, vmap = dataset_hypothesis_variance(model, x)

        support = np.zeros(spec.pixels, dtype=bool)
        for pos in spec.terminals:
            support |= render_frame(spec, pos).ravel() > 0.0
        assert vmap[support].sum() / vmap.sum() >= 0.8


class TestDatasetSharpness:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_sample_loop_exactly(self, seed):
        from mhp.metrics import dataset_sharpness
        from mhp.network import forward_batch, init_mlp

        rng = np.random.default_rng(seed)
        width, height, channels = 4, 3, int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        model = init_mlp(3, [8], width * height * channels, m, rng)
        X = rng.normal(size=(int(rng.integers(1, 30)), 3))
        hyps = forward_batch(model, X)
        loop = float(np.mean([one_set_sharpness(h, width, height, channels) for h in hyps]))
        assert dataset_sharpness(model, X, width, height, channels) == loop

    def test_shape_mismatch_rejected(self):
        from mhp.metrics import dataset_sharpness

        model = constant_model(np.zeros((2, 60)))
        with pytest.raises(ValueError):
            dataset_sharpness(model, np.zeros((3, 1)), 8, 8)


class TestTargetShape:
    @pytest.mark.parametrize("metric", [oracle_min_loss, oracle_min_loss_nested])
    @pytest.mark.parametrize("which", ["transposed", "flat"])
    def test_misshaped_regression_targets_rejected(self, metric, which):
        rng = np.random.default_rng(6)
        model = mhp.init_mlp(1, [8], 2, 3, rng)
        X = rng.random((5, 1))
        Y = rng.normal(size=(5, 2))
        metric(model, X, Y, L2)
        with pytest.raises(ValueError, match="shape"):
            metric(model, X, Y.T if which == "transposed" else Y.ravel(), L2)


class TestSpreadIsBatchRow:
    def test_single_set_is_bitwise_a_dataset_row(self):
        """A constant_model replaying one input's set gives that one-row dataset's spread bits."""
        rng = np.random.default_rng(7)
        model = mhp.init_mlp(2, [8], 3, 4, rng)
        for x in rng.random((10, 2)):
            spread, per_dim = dataset_hypothesis_variance(model, x[None])
            replay, replay_dim = dataset_hypothesis_variance(
                constant_model(mhp.forward(model, x)), ONE_INPUT)
            assert replay == spread
            np.testing.assert_array_equal(replay_dim, per_dim)


T = network._ROW_TILE
TILE_EDGES = [T - 1, T, T + 1, 2 * T - 1, 2 * T, 2 * T + 1]
# the acceptance nets: input dim, hidden widths, output dim, M, base loss
ACCEPTANCE_NETS = {
    "temporal_m1": (1, [50, 50], 2, 1, L2),
    "temporal_m4": (1, [50, 50], 2, 4, L2),
    "temporal_m10": (1, [50, 50], 2, 10, L2),
    "grid_m10": (64, [50, 50], 64, 10, L2),
    "multilabel_m3": (2, [32, 32], 6, 3, CROSS_ENTROPY),
}


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowTiles:
    @pytest.mark.parametrize("n", [0, 1, *TILE_EDGES, 5 * T + 7])
    def test_tiles_cover_the_rows_in_order(self, n):
        tiles = network._row_tiles(n)
        assert len(tiles) == max(n // T, 1)
        assert tiles[0].start == 0 and tiles[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
        assert len(tiles) == 1 or all(t.stop - t.start >= T for t in tiles)

    @pytest.mark.parametrize("n", TILE_EDGES)
    @pytest.mark.parametrize("net", ACCEPTANCE_NETS)
    def test_per_sample_values_equal_an_untiled_pass(self, net, n):
        in_dim, hidden, d, m, kind = ACCEPTANCE_NETS[net]
        rng = np.random.default_rng(n)
        model = mhp.init_mlp(in_dim, hidden, d, m, rng)
        X = rng.random((n, in_dim))
        Y = rng.integers(0, d, n) if kind == CROSS_ENTROPY else rng.normal(size=(n, d))
        hyps = forward_batch(model, X)
        losses = loss_values(kind, hyps, hypothesis_targets(kind, Y, n, d))
        assert same_bytes(metrics._per_hypothesis_losses(model, X, Y, kind), losses)
        assert same_bytes(oracle_min_loss(model, X, Y, kind), float(losses.min(axis=1).mean()))
        assert same_bytes(oracle_min_loss_nested(model, X, Y, kind),
                          np.minimum.accumulate(losses, axis=1).mean(axis=0))
        if m > 1:
            dist, var = metrics._spread(hyps)
            tiled = metrics._per_row(model, X, lambda rows, h: metrics._spread(h))
            assert same_bytes(tiled[0], dist) and same_bytes(tiled[1], var)
            spread, per_dim = dataset_hypothesis_variance(model, X)
            assert same_bytes(spread, float(dist.mean()))
            assert same_bytes(per_dim, var.mean(axis=0))
        if net == "grid_m10":
            energy = metrics._gradient_energy(hyps, 8, 8, 1)
            tiled = metrics._per_row(model, X,
                                     lambda rows, h: [metrics._gradient_energy(h, 8, 8, 1)])
            assert same_bytes(tiled[0], energy)
            assert same_bytes(dataset_sharpness(model, X, 8, 8),
                              float(np.mean(energy / (64 * m))))


SCALES = [1e-150, 1.0, 1e150]


def reference_spread(hyps):
    """Distances to the set mean and per-dimension variances, from numpy's own reductions."""
    return np.linalg.norm(hyps - hyps.mean(1, keepdims=True), axis=2), hyps.var(axis=1)


class TestSpreadHeadSums:
    """The spread adds the heads' slices one at a time; its bits are numpy's reductions'."""

    @pytest.mark.parametrize("m", range(2, 13))
    def test_equals_numpys_reductions_bitwise(self, m):
        rng = np.random.default_rng(m)
        for d in range(1, 71):  # d = 1 with m >= 8 is where numpy sums the heads pairwise
            for scale in SCALES:
                hyps = rng.normal(size=(int(rng.integers(1, 6)), m, d)) * scale
                dist, var = metrics._spread(hyps)
                want_dist, want_var = reference_spread(hyps)
                assert same_bytes(dist, want_dist) and same_bytes(var, want_var), (d, scale)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("m, d", [(8, 1), (12, 1), (3, 2), (10, 16)])
    def test_dataset_spread_across_a_tile_boundary(self, m, d, scale):
        rng = np.random.default_rng(m * d)
        model = mhp.init_mlp(2, [8], d, m, rng)
        for part in (model.layers[-1].weights, model.layers[-1].biases):
            np.multiply(part, scale, out=part)
        X = rng.random((2 * T + 1, 2))
        dist, var = reference_spread(forward_batch(model, X))
        spread, per_dim = dataset_hypothesis_variance(model, X)
        assert same_bytes(spread, float(dist.mean())) and same_bytes(per_dim, var.mean(axis=0))


class TestOnePass:
    @pytest.mark.parametrize("n", [T - 1, 2 * T + 1])
    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY], ids=["l2", "cross_entropy"])
    def test_one_metric_calls_equal_a_multi_metric_pass(self, kind, n):
        rng = np.random.default_rng(n)
        model = mhp.init_mlp(3, [16], 6, 3, rng)
        X = rng.random((n, 3))
        Y = rng.integers(0, 6, n) if kind == CROSS_ENTROPY else rng.normal(size=(n, 6))
        every = metrics.dataset_metrics(model, X, Y, kind, spread=True, image=(3, 2, 1))
        assert same_bytes(every.oracle_min_loss, oracle_min_loss(model, X, Y, kind))
        spread, per_dim = dataset_hypothesis_variance(model, X)
        assert same_bytes(every.hypothesis_spread, spread)
        assert same_bytes(every.per_dim_variance, per_dim)
        assert same_bytes(every.sharpness, dataset_sharpness(model, X, 3, 2))

    def test_no_metric_runs_no_pass(self, monkeypatch):
        monkeypatch.setattr(metrics, "forward_batch", None)
        result = metrics.dataset_metrics(constant_model(np.zeros((2, 4))), np.zeros((3, 1)))
        assert (result.oracle_min_loss, result.hypothesis_spread, result.per_dim_variance,
                result.sharpness) == (None, None, None, None)

    @pytest.mark.parametrize("Y, kind", [(np.zeros((3, 4)), None), (None, L2)])
    def test_targets_and_loss_come_together(self, Y, kind):
        with pytest.raises(ValueError, match="both targets and a base loss"):
            metrics.dataset_metrics(constant_model(np.zeros((2, 4))), np.zeros((3, 1)), Y, kind)


class TestEmptyDataset:
    @pytest.mark.parametrize("metric", [
        lambda model, X, Y: oracle_min_loss(model, X, Y, L2),
        lambda model, X, Y: oracle_min_loss_nested(model, X, Y, L2),
        lambda model, X, Y: dataset_hypothesis_variance(model, X),
        lambda model, X, Y: dataset_sharpness(model, X, 2, 2),
        lambda model, X, Y: multilabel_scores(model, X, []),
    ], ids=["oracle_min_loss", "oracle_min_loss_nested", "dataset_hypothesis_variance",
            "dataset_sharpness", "multilabel_scores"])
    def test_rejected_without_a_warning(self, metric):
        model = constant_model(np.zeros((2, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="empty dataset"):
                metric(model, np.zeros((0, 1)), np.zeros((0, 4)))


def test_dataset_passes_hold_one_tile_of_activations():
    """Oracle-min loss and hypothesis spread of the benchmark's 1-50-50-8 net on 100k rows.
    One whole-dataset pass per metric peaked at 86.5 MB of traced allocations; the bound is
    under a quarter of that."""
    rng = np.random.default_rng(0)
    model = mhp.init_mlp(1, [50, 50], 2, 4, rng)
    X, Y = rng.random((100_000, 1)), rng.normal(size=(100_000, 2))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        oracle_min_loss(model, X, Y, L2)
        dataset_hypothesis_variance(model, X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 20e6
