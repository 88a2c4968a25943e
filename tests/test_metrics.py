"""Oracle-min loss, hypothesis spread, sharpness, multi-label coverage."""

import numpy as np
import pytest

import mhp
from mhp.datagen import default_gridframe_spec, render_frame, sample_gridframe
from mhp.losses import L2
from mhp.meta_loss import MetaLossConfig
from mhp.metrics import (dataset_hypothesis_variance, hypothesis_variance,
                         multilabel_scores, oracle_min_loss,
                         oracle_min_loss_nested, per_dimension_variance,
                         sharpness)
from mhp.network import Layer, MlpModel
from mhp.training import TrainSchedule, train


def constant_model(hyps):
    """Model that outputs the given (M, d) hypotheses for any input."""
    hyps = np.asarray(hyps, dtype=np.float64)
    m, d = hyps.shape
    return MlpModel([Layer(np.zeros((m * d, 1)), hyps.ravel(), "identity")], d, m)


class TestOracleMin:
    def test_single_hypothesis_equals_mean_loss(self):
        rng = np.random.default_rng(0)
        model = mhp.init_mlp(1, [8], 2, 1, rng)
        X = rng.random((50, 1))
        Y = rng.normal(size=(50, 2))
        hyps = mhp.forward_batch(model, X)
        expected = np.mean([mhp.loss(L2, hyps[i, 0], Y[i]) for i in range(50)])
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
        assert hypothesis_variance(np.tile([1.0, 2.0], (5, 1))) == 0.0

    def test_two_point_example(self):
        assert hypothesis_variance(np.array([[0.0, 0.0], [2.0, 0.0]])) == 1.0

    def test_single_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            hypothesis_variance(np.array([[1.0, 2.0]]))

    def test_invariance_under_permutation_and_translation(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(6, 3))
        base = hypothesis_variance(h)
        assert hypothesis_variance(h[rng.permutation(6)]) == pytest.approx(base, rel=1e-12)
        assert hypothesis_variance(h + np.array([5.0, -2.0, 0.5])) == pytest.approx(base, rel=1e-9)

    def test_dataset_aggregate_matches_per_input(self):
        rng = np.random.default_rng(4)
        model = mhp.init_mlp(2, [8], 2, 3, rng)
        X = rng.random((40, 2))
        mean_spread, per_dim = dataset_hypothesis_variance(model, X)
        hyps = mhp.forward_batch(model, X)
        expected = np.mean([hypothesis_variance(hyps[i]) for i in range(40)])
        assert mean_spread == pytest.approx(expected, rel=1e-12)
        expected_dim = np.mean([per_dimension_variance(hyps[i]) for i in range(40)], axis=0)
        np.testing.assert_allclose(per_dim, expected_dim, rtol=1e-12)


class TestSharpness:
    def test_constant_image_is_flat(self):
        assert sharpness(np.full((1, 16), 0.7), 4, 4) == 0.0

    def test_hand_computed_two_by_two(self):
        img = np.array([[0.0, 1.0], [0.0, 1.0]]).ravel()
        assert sharpness(img[None, :], 2, 2) == 0.5

    def test_quadratic_intensity_scaling(self):
        rng = np.random.default_rng(5)
        img = rng.random((1, 64))
        base = sharpness(img, 8, 8)
        assert sharpness(3.0 * img, 8, 8) == pytest.approx(9.0 * base, rel=1e-12)

    def test_translation_invariance_for_interior_dot(self):
        spec = default_gridframe_spec(1)
        a = render_frame(spec, (3, 3)).ravel()
        b = render_frame(spec, (4, 5)).ravel()
        assert sharpness(a[None, :], 8, 8) == pytest.approx(
            sharpness(b[None, :], 8, 8), rel=1e-12)

    def test_averaging_disjoint_dots_blurs(self):
        spec = default_gridframe_spec(1)
        a = render_frame(spec, (2, 2)).ravel()
        b = render_frame(spec, (5, 5)).ravel()
        avg = 0.5 * (a + b)
        assert avg.max() == 0.5 * a.max()
        assert sharpness(avg[None, :], 8, 8) < sharpness(a[None, :], 8, 8)
        assert sharpness(avg[None, :], 8, 8) < sharpness(b[None, :], 8, 8)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sharpness(np.zeros((1, 60)), 8, 8)


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
        x = sample_gridframe(spec, 1, np.random.default_rng(0))[0][0]
        hyps = mhp.forward(model, x)
        vmap = per_dimension_variance(hyps)

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
        loop = float(np.mean([sharpness(h, width, height, channels) for h in hyps]))
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
        rng = np.random.default_rng(7)
        model = mhp.init_mlp(2, [8], 3, 4, rng)
        for x in rng.random((10, 2)):
            spread, per_dim = dataset_hypothesis_variance(model, x[None])
            hyps = mhp.forward(model, x)
            assert hypothesis_variance(hyps) == spread
            np.testing.assert_array_equal(per_dimension_variance(hyps), per_dim)

    @pytest.mark.parametrize("fn", [hypothesis_variance, per_dimension_variance])
    def test_not_a_set_rejected(self, fn):
        with pytest.raises(ValueError, match="at least 2 hypotheses"):
            fn(np.zeros(3))
