"""Assignment weights, the meta-loss and its gradients."""

import numpy as np
import pytest

from mhp.losses import (CROSS_ENTROPY, L2, LossKind, hypothesis_targets, loss, loss_grad,
                        loss_grads, loss_values)
from mhp.meta_loss import (MetaLossConfig, assign, assign_batch, meta_loss,
                           meta_loss_upstream_grads)

TUKEY = LossKind("tukey")


def make_hyps(rng, m, d=2, scale=1.0):
    return rng.normal(scale=scale, size=(m, d))


class TestConfig:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            MetaLossConfig(2, epsilon=0.0)
        with pytest.raises(ValueError):
            MetaLossConfig(2, epsilon=1.0)
        MetaLossConfig(1, epsilon=0.0)  # ignored for a single hypothesis

    def test_dropout_bounds(self):
        with pytest.raises(ValueError):
            MetaLossConfig(3, dropout_prob=1.0)
        with pytest.raises(ValueError):
            MetaLossConfig(3, dropout_prob=-0.1)

    def test_hypothesis_count(self):
        with pytest.raises(ValueError):
            MetaLossConfig(0)


class TestAssign:
    def test_default_epsilon_weights(self):
        # best-first ordering with M=5, eps=0.05, nothing dropped
        cfg = MetaLossConfig(5, epsilon=0.05, dropout_prob=0.0)
        hyps = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        res = assign(cfg, hyps, np.array([0.0]))
        assert res.best_index == 0
        np.testing.assert_array_equal(res.weights, [0.95, 0.0125, 0.0125, 0.0125, 0.0125])

    def test_nearest_generator_wins(self):
        cfg = MetaLossConfig(2, dropout_prob=0.0)
        hyps = np.array([[-0.5, -0.5], [0.5, 0.5]])
        res = assign(cfg, hyps, np.array([-0.4, -0.6]))
        assert res.best_index == 0

    def test_dropout_adjusted_weights(self):
        cfg = MetaLossConfig(3, epsilon=0.05, dropout_prob=0.5)
        hyps = np.array([[0.1], [0.4], [0.2]])  # l2 losses vs 0 scale these
        target = np.array([0.0])
        res = assign(cfg, hyps, target, dropped_mask=[True, False, False])
        losses = res.per_hypothesis_losses
        assert losses[0] < losses[2] < losses[1]
        assert res.best_index == 2
        np.testing.assert_array_equal(res.weights, [0.0, 0.05, 0.95])

    def test_tie_break_lowest_index(self):
        cfg = MetaLossConfig(3, dropout_prob=0.0)
        hyps = np.array([[1.0], [1.0], [2.0]])
        res = assign(cfg, hyps, np.array([1.0]))
        assert res.best_index == 0

    def test_all_dropped_means_none_dropped(self):
        cfg = MetaLossConfig(3, epsilon=0.05, dropout_prob=0.5)
        res = assign(cfg, np.zeros((3, 1)), np.array([1.0]),
                     dropped_mask=[True, True, True])
        assert not res.dropped_mask.any()
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_active_gets_full_weight(self):
        cfg = MetaLossConfig(3, epsilon=0.3, dropout_prob=0.5)
        res = assign(cfg, np.zeros((3, 1)), np.array([1.0]),
                     dropped_mask=[True, False, True])
        np.testing.assert_array_equal(res.weights, [0.0, 1.0, 0.0])

    def test_rng_required_with_dropout(self):
        cfg = MetaLossConfig(2, dropout_prob=0.5)
        with pytest.raises(ValueError):
            assign(cfg, np.zeros((2, 1)), np.array([0.0]))

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for m in range(2, 11):
            for eps in (0.01, 0.05, 0.3):
                for _ in range(10):
                    cfg = MetaLossConfig(m, epsilon=eps, dropout_prob=0.4)
                    hyps = make_hyps(rng, m)
                    res = assign(cfg, hyps, rng.normal(size=2), rng=rng)
                    assert abs(res.weights.sum() - 1.0) <= 1e-12
                    assert (res.weights >= 0.0).all()
                    assert (res.weights[res.dropped_mask] == 0.0).all()

    def test_best_dominates_active(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            cfg = MetaLossConfig(m, epsilon=0.05, dropout_prob=0.3)
            res = assign(cfg, make_hyps(rng, m), rng.normal(size=2), rng=rng)
            active = res.weights[~res.dropped_mask]
            a = (~res.dropped_mask).sum()
            if cfg.epsilon < (a - 1) / a:
                assert res.weights[res.best_index] >= active.max()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        cfg = MetaLossConfig(5, epsilon=0.1, dropout_prob=0.3)
        hyps = make_hyps(rng, 5)
        target = rng.normal(size=2)
        mask = np.array([False, True, False, False, False])
        perm = np.array([3, 0, 4, 1, 2])
        base = assign(cfg, hyps, target, dropped_mask=mask)
        permuted = assign(cfg, hyps[perm], target, dropped_mask=mask[perm])
        np.testing.assert_array_equal(permuted.weights, base.weights[perm])
        g_base = meta_loss_upstream_grads(cfg, hyps, target, base)
        g_perm = meta_loss_upstream_grads(cfg, hyps[perm], target, permuted)
        np.testing.assert_array_equal(g_perm, g_base[perm])


class TestMetaLoss:
    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY, TUKEY])
    def test_single_hypothesis_reduces_to_base_loss(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = rng.normal(size=(1, 4))
            t = int(rng.integers(4)) if kind.name == "cross_entropy" else rng.normal(size=4)
            cfg = MetaLossConfig(1, base_loss=kind, dropout_prob=0.0)
            res = assign(cfg, h, t)
            assert meta_loss(cfg, h, t, res) == loss(kind, h[0], t)
            np.testing.assert_array_equal(
                meta_loss_upstream_grads(cfg, h, t, res)[0], loss_grad(kind, h[0], t))

    def test_hand_arithmetic_two_hypotheses(self):
        cfg = MetaLossConfig(2, epsilon=0.05, dropout_prob=0.0)
        # l2 losses 0.01 and 1.01 against the origin
        hyps = np.array([[np.sqrt(0.02)], [np.sqrt(2.02)]])
        target = np.array([0.0])
        res = assign(cfg, hyps, target)
        assert meta_loss(cfg, hyps, target, res) == pytest.approx(0.06, rel=1e-12)

    def test_exact_hit_hard_assignment_limit(self):
        rng = np.random.default_rng(4)
        hyps = make_hyps(rng, 4)
        target = hyps[2].copy()
        for eps in (1e-3, 1e-6, 1e-9):
            cfg = MetaLossConfig(4, epsilon=eps, dropout_prob=0.0)
            res = assign(cfg, hyps, target)
            assert res.best_index == 2
            assert meta_loss(cfg, hyps, target, res) <= eps * 50

    def test_epsilon_to_zero_approaches_oracle_min(self):
        rng = np.random.default_rng(5)
        hyps = make_hyps(rng, 5)
        target = rng.normal(size=2)
        cfg0 = MetaLossConfig(5, epsilon=0.5, dropout_prob=0.0)
        res = assign(cfg0, hyps, target)
        best = res.per_hypothesis_losses.min()
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            cfg = MetaLossConfig(5, epsilon=eps, dropout_prob=0.0)
            gaps.append(meta_loss(cfg, hyps, target, assign(cfg, hyps, target)) - best)
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0
        assert gaps[2] < 1e-2

    def test_dropped_hypothesis_gets_zero_gradient(self):
        cfg = MetaLossConfig(3, epsilon=0.05, dropout_prob=0.5)
        rng = np.random.default_rng(6)
        hyps = make_hyps(rng, 3)
        target = rng.normal(size=2)
        res = assign(cfg, hyps, target, dropped_mask=[False, True, False])
        grads = meta_loss_upstream_grads(cfg, hyps, target, res)
        assert np.all(grads[1] == 0.0)

    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY, TUKEY])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m, d = 4, 3
            hyps = rng.normal(size=(m, d))
            t = int(rng.integers(d)) if kind.name == "cross_entropy" else rng.normal(size=d)
            cfg = MetaLossConfig(m, epsilon=0.2, dropout_prob=0.3, base_loss=kind)
            res = assign(cfg, hyps, t, dropped_mask=rng.random(m) < 0.3)
            analytic = meta_loss_upstream_grads(cfg, hyps, t, res)
            numeric = np.zeros_like(analytic)
            h = 1e-6
            for j in range(m):
                for kdim in range(d):
                    hp, hm = hyps.copy(), hyps.copy()
                    hp[j, kdim] += h
                    hm[j, kdim] -= h
                    numeric[j, kdim] = (meta_loss(cfg, hp, t, res)
                                        - meta_loss(cfg, hm, t, res)) / (2 * h)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
            assert np.abs(analytic - numeric).max() / scale < 1e-6


class TestAssignBatch:
    def test_matches_sequential_singles(self):
        cfg = MetaLossConfig(4, epsilon=0.1, dropout_prob=0.25)
        rng = np.random.default_rng(8)
        hyps = rng.normal(size=(32, 4, 2))
        targets = rng.normal(size=(32, 2))

        batch_rng = np.random.default_rng(99)
        weights, losses, best, masks = assign_batch(cfg, hyps, targets, rng=batch_rng)

        single_rng = np.random.default_rng(99)
        for i in range(32):
            res = assign(cfg, hyps[i], targets[i], rng=single_rng)
            np.testing.assert_array_equal(weights[i], res.weights)
            np.testing.assert_array_equal(losses[i], res.per_hypothesis_losses)
            np.testing.assert_array_equal(masks[i], res.dropped_mask)
            assert best[i] == res.best_index

    def test_cross_entropy_targets(self):
        cfg = MetaLossConfig(3, base_loss=CROSS_ENTROPY, dropout_prob=0.0)
        rng = np.random.default_rng(9)
        hyps = rng.normal(size=(10, 3, 5))
        targets = rng.integers(0, 5, size=10)
        weights, losses, best, _ = assign_batch(cfg, hyps, targets)
        for i in range(10):
            res = assign(cfg, hyps[i], int(targets[i]))
            np.testing.assert_array_equal(weights[i], res.weights)
            assert best[i] == res.best_index

    def test_single_hypothesis_weights_are_one(self):
        cfg = MetaLossConfig(1, dropout_prob=0.0)
        hyps = np.zeros((7, 1, 2))
        weights, _, _, _ = assign_batch(cfg, hyps, np.ones((7, 2)))
        np.testing.assert_array_equal(weights, np.ones((7, 1)))

    @pytest.mark.parametrize("shape", [(1, 4), (4,), (6, 4, 1), (6, 3)])
    def test_dropout_mask_shape_validated(self, shape):
        cfg = MetaLossConfig(4, dropout_prob=0.0)
        hyps = np.zeros((6, 4, 2))
        with pytest.raises(ValueError, match="dropout masks"):
            assign_batch(cfg, hyps, np.zeros((6, 2)), dropped_masks=np.zeros(shape, bool))

    def test_single_mask_of_wrong_length_rejected(self):
        cfg = MetaLossConfig(3, dropout_prob=0.0)
        with pytest.raises(ValueError):
            assign(cfg, np.zeros((3, 2)), np.zeros(2), dropped_mask=[False, True])


def misshaped(targets):
    """A transposed (d, n) and a flattened (n*d,) copy of (n, d) targets."""
    return [targets.T, targets.ravel()]


class TestTargetShape:
    @pytest.mark.parametrize("which", [0, 1], ids=["transposed", "flat"])
    def test_misshaped_regression_targets_rejected(self, which):
        cfg = MetaLossConfig(3, dropout_prob=0.0)
        rng = np.random.default_rng(12)
        hyps = rng.normal(size=(5, 3, 2))
        targets = rng.normal(size=(5, 2))
        assign_batch(cfg, hyps, targets)
        with pytest.raises(ValueError, match="shape"):
            assign_batch(cfg, hyps, misshaped(targets)[which])

    def test_class_targets_must_be_one_per_sample(self):
        cfg = MetaLossConfig(3, base_loss=CROSS_ENTROPY, dropout_prob=0.0)
        hyps = np.zeros((4, 3, 5))
        with pytest.raises(ValueError, match="shape"):
            assign_batch(cfg, hyps, np.zeros((4, 1), dtype=np.int64))


class TestSingleIsBatchRow:
    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY, TUKEY])
    def test_meta_loss_and_grads_bitwise(self, kind):
        cfg = MetaLossConfig(4, epsilon=0.1, dropout_prob=0.3, base_loss=kind)
        rng = np.random.default_rng(13)
        hyps = rng.normal(scale=2.0, size=(16, 4, 3))
        targets = (rng.integers(0, 3, size=16) if kind.name == "cross_entropy"
                   else rng.normal(scale=2.0, size=(16, 3)))
        weights, _, _, _ = assign_batch(cfg, hyps, targets, rng=np.random.default_rng(1))
        t = hypothesis_targets(kind, targets, 16, 3)
        losses = loss_values(kind, hyps, t)
        upstream = weights[:, :, None] * loss_grads(kind, hyps, t)
        single_rng = np.random.default_rng(1)
        for i in range(16):
            res = assign(cfg, hyps[i], targets[i], rng=single_rng)
            np.testing.assert_array_equal(res.weights, weights[i])
            assert meta_loss(cfg, hyps[i], targets[i], res) == float(weights[i] @ losses[i])
            np.testing.assert_array_equal(
                meta_loss_upstream_grads(cfg, hyps[i], targets[i], res), upstream[i])
