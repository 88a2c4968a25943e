"""Assignment weights, the meta-loss and its gradients."""

import numpy as np
import pytest

from mhp.losses import (CROSS_ENTROPY, L2, LossKind, hypothesis_targets, loss_grads,
                        loss_values)
from mhp.meta_loss import MetaLossConfig, _weight_tables, assign_batch, draw_dropout

TUKEY = LossKind("tukey")


def make_hyps(rng, m, d=2, scale=1.0):
    return rng.normal(scale=scale, size=(m, d))


def assign(cfg, hyps, targets, rng=None, dropped_masks=None):
    """``assign_batch`` on unshaped targets, with the batch's dropout drawn as ``train`` draws
    an epoch's."""
    n = len(hyps)
    t = hypothesis_targets(cfg.base_loss, targets, n, np.shape(hyps)[-1])
    return assign_batch(cfg, hyps, t, draw_dropout(cfg, n, rng, dropped_masks))


def meta_losses(cfg, hyps, targets, weights):
    """(n,) meta-loss of each row under fixed (n, M) weights, as ``train`` sums it."""
    t = hypothesis_targets(cfg.base_loss, targets, len(hyps), hyps.shape[-1])
    return (weights * loss_values(cfg.base_loss, hyps, t)).sum(axis=1)


def upstream_grads(cfg, hyps, targets, weights):
    """(n, M, d) gradient of :func:`meta_losses` w.r.t. the hypotheses."""
    t = hypothesis_targets(cfg.base_loss, targets, len(hyps), hyps.shape[-1])
    return weights[..., None] * loss_grads(cfg.base_loss, hyps, t)


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
        weights, _, best, _ = assign(cfg, hyps[None], np.array([[0.0]]))
        assert best[0] == 0
        np.testing.assert_array_equal(weights[0], [0.95, 0.0125, 0.0125, 0.0125, 0.0125])

    def test_nearest_generator_wins(self):
        cfg = MetaLossConfig(2, dropout_prob=0.0)
        hyps = np.array([[-0.5, -0.5], [0.5, 0.5]])
        _, _, best, _ = assign(cfg, hyps[None], np.array([[-0.4, -0.6]]))
        assert best[0] == 0

    def test_dropout_adjusted_weights(self):
        cfg = MetaLossConfig(3, epsilon=0.05, dropout_prob=0.5)
        hyps = np.array([[0.1], [0.4], [0.2]])  # l2 losses vs 0 scale these
        weights, losses, best, _ = assign(cfg, hyps[None], np.array([[0.0]]),
                                                dropped_masks=[[True, False, False]])
        assert losses[0, 0] < losses[0, 2] < losses[0, 1]
        assert best[0] == 2
        np.testing.assert_array_equal(weights[0], [0.0, 0.05, 0.95])

    def test_tie_break_lowest_index(self):
        cfg = MetaLossConfig(3, dropout_prob=0.0)
        hyps = np.array([[1.0], [1.0], [2.0]])
        _, _, best, _ = assign(cfg, hyps[None], np.array([[1.0]]))
        assert best[0] == 0

    def test_all_dropped_means_none_dropped(self):
        cfg = MetaLossConfig(3, epsilon=0.05, dropout_prob=0.5)
        weights, _, _, masks = assign(cfg, np.zeros((1, 3, 1)), np.array([[1.0]]),
                                            dropped_masks=[[True, True, True]])
        assert not masks.any()
        assert weights[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_active_gets_full_weight(self):
        cfg = MetaLossConfig(3, epsilon=0.3, dropout_prob=0.5)
        weights, _, _, _ = assign(cfg, np.zeros((1, 3, 1)), np.array([[1.0]]),
                                        dropped_masks=[[True, False, True]])
        np.testing.assert_array_equal(weights[0], [0.0, 1.0, 0.0])

    def test_rng_required_with_dropout(self):
        cfg = MetaLossConfig(2, dropout_prob=0.5)
        with pytest.raises(ValueError, match="rng required"):
            draw_dropout(cfg, 1)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        for m in range(2, 11):
            for eps in (0.01, 0.05, 0.3):
                for _ in range(10):
                    cfg = MetaLossConfig(m, epsilon=eps, dropout_prob=0.4)
                    hyps = make_hyps(rng, m)
                    weights, _, _, masks = assign(cfg, hyps[None],
                                                        rng.normal(size=(1, 2)), rng=rng)
                    assert abs(weights[0].sum() - 1.0) <= 1e-12
                    assert (weights >= 0.0).all()
                    assert (weights[masks] == 0.0).all()

    def test_best_dominates_active(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            cfg = MetaLossConfig(m, epsilon=0.05, dropout_prob=0.3)
            weights, _, best, masks = assign(cfg, make_hyps(rng, m)[None],
                                                   rng.normal(size=(1, 2)), rng=rng)
            active = weights[0][~masks[0]]
            a = (~masks[0]).sum()
            if cfg.epsilon < (a - 1) / a:
                assert weights[0, best[0]] >= active.max()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        cfg = MetaLossConfig(5, epsilon=0.1, dropout_prob=0.3)
        hyps = make_hyps(rng, 5)
        target = rng.normal(size=(1, 2))
        mask = np.array([False, True, False, False, False])
        perm = np.array([3, 0, 4, 1, 2])
        base, _, _, _ = assign(cfg, hyps[None], target, dropped_masks=mask[None])
        permuted, _, _, _ = assign(cfg, hyps[perm][None], target,
                                         dropped_masks=mask[perm][None])
        np.testing.assert_array_equal(permuted[0], base[0, perm])
        g_base = upstream_grads(cfg, hyps[None], target, base)[0]
        g_perm = upstream_grads(cfg, hyps[perm][None], target, permuted)[0]
        np.testing.assert_array_equal(g_perm, g_base[perm])


class TestMetaLoss:
    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY, TUKEY])
    def test_single_hypothesis_reduces_to_base_loss(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = rng.normal(size=(1, 4))
            t = int(rng.integers(4)) if kind.name == "cross_entropy" else rng.normal(size=4)
            cfg = MetaLossConfig(1, base_loss=kind, dropout_prob=0.0)
            row = np.asarray(t)[None]
            weights, _, _, _ = assign(cfg, h[None], row)
            assert meta_losses(cfg, h[None], row, weights)[0] == loss_values(kind, h[0], t)
            np.testing.assert_array_equal(upstream_grads(cfg, h[None], row, weights)[0, 0],
                                          loss_grads(kind, h[0], t))

    def test_hand_arithmetic_two_hypotheses(self):
        cfg = MetaLossConfig(2, epsilon=0.05, dropout_prob=0.0)
        # l2 losses 0.01 and 1.01 against the origin
        hyps = np.array([[[np.sqrt(0.02)], [np.sqrt(2.02)]]])
        target = np.array([[0.0]])
        weights, _, _, _ = assign(cfg, hyps, target)
        assert meta_losses(cfg, hyps, target, weights)[0] == pytest.approx(0.06, rel=1e-12)

    def test_exact_hit_hard_assignment_limit(self):
        rng = np.random.default_rng(4)
        hyps = make_hyps(rng, 4)[None]
        target = hyps[:, 2].copy()
        for eps in (1e-3, 1e-6, 1e-9):
            cfg = MetaLossConfig(4, epsilon=eps, dropout_prob=0.0)
            weights, _, best, _ = assign(cfg, hyps, target)
            assert best[0] == 2
            assert meta_losses(cfg, hyps, target, weights)[0] <= eps * 50

    def test_epsilon_to_zero_approaches_oracle_min(self):
        rng = np.random.default_rng(5)
        hyps = make_hyps(rng, 5)[None]
        target = rng.normal(size=(1, 2))
        cfg0 = MetaLossConfig(5, epsilon=0.5, dropout_prob=0.0)
        _, losses, _, _ = assign(cfg0, hyps, target)
        best = losses.min()
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            cfg = MetaLossConfig(5, epsilon=eps, dropout_prob=0.0)
            weights, _, _, _ = assign(cfg, hyps, target)
            gaps.append(meta_losses(cfg, hyps, target, weights)[0] - best)
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0
        assert gaps[2] < 1e-2

    def test_dropped_hypothesis_gets_zero_gradient(self):
        cfg = MetaLossConfig(3, epsilon=0.05, dropout_prob=0.5)
        rng = np.random.default_rng(6)
        hyps = make_hyps(rng, 3)[None]
        target = rng.normal(size=(1, 2))
        weights, _, _, _ = assign(cfg, hyps, target,
                                        dropped_masks=[[False, True, False]])
        grads = upstream_grads(cfg, hyps, target, weights)[0]
        assert np.all(grads[1] == 0.0)

    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY, TUKEY])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m, d = 4, 3
            hyps = rng.normal(size=(1, m, d))
            t = (rng.integers(d, size=1) if kind.name == "cross_entropy"
                 else rng.normal(size=(1, d)))
            cfg = MetaLossConfig(m, epsilon=0.2, dropout_prob=0.3, base_loss=kind)
            weights, _, _, _ = assign(cfg, hyps, t, dropped_masks=rng.random((1, m)) < 0.3)
            analytic = upstream_grads(cfg, hyps, t, weights)[0]
            numeric = np.zeros_like(analytic)
            h = 1e-6
            for j in range(m):
                for kdim in range(d):
                    hp, hm = hyps.copy(), hyps.copy()
                    hp[0, j, kdim] += h
                    hm[0, j, kdim] -= h
                    numeric[j, kdim] = (meta_losses(cfg, hp, t, weights)[0]
                                        - meta_losses(cfg, hm, t, weights)[0]) / (2 * h)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
            assert np.abs(analytic - numeric).max() / scale < 1e-6


class TestAssignBatch:
    def test_matches_sequential_singles(self):
        cfg = MetaLossConfig(4, epsilon=0.1, dropout_prob=0.25)
        rng = np.random.default_rng(8)
        hyps = rng.normal(size=(32, 4, 2))
        targets = rng.normal(size=(32, 2))

        batch_rng = np.random.default_rng(99)
        weights, losses, best, masks = assign(cfg, hyps, targets, rng=batch_rng)

        row_rng = np.random.default_rng(99)
        for i in range(32):
            w, l, b, mask = assign(cfg, hyps[i:i + 1], targets[i:i + 1], rng=row_rng)
            np.testing.assert_array_equal(weights[i], w[0])
            np.testing.assert_array_equal(losses[i], l[0])
            np.testing.assert_array_equal(masks[i], mask[0])
            assert best[i] == b[0]

    def test_cross_entropy_targets(self):
        cfg = MetaLossConfig(3, base_loss=CROSS_ENTROPY, dropout_prob=0.0)
        rng = np.random.default_rng(9)
        hyps = rng.normal(size=(10, 3, 5))
        targets = rng.integers(0, 5, size=10)
        weights, losses, best, _ = assign(cfg, hyps, targets)
        for i in range(10):
            np.testing.assert_array_equal(losses[i],
                                          loss_values(CROSS_ENTROPY, hyps[i], targets[i]))
            assert best[i] == losses[i].argmin()
            np.testing.assert_array_equal(weights[i], np.where(
                np.arange(3) == best[i], 1.0 - cfg.epsilon, cfg.epsilon / 2))

    def test_single_hypothesis_weights_are_one(self):
        cfg = MetaLossConfig(1, dropout_prob=0.0)
        hyps = np.zeros((7, 1, 2))
        weights, _, _, _ = assign(cfg, hyps, np.ones((7, 2)))
        np.testing.assert_array_equal(weights, np.ones((7, 1)))

    @pytest.mark.parametrize("shape", [(1, 4), (4,), (6, 4, 1), (6, 3)])
    def test_dropout_mask_shape_validated(self, shape):
        cfg = MetaLossConfig(4, dropout_prob=0.0)
        with pytest.raises(ValueError, match="dropout masks"):
            draw_dropout(cfg, 6, dropped_masks=np.zeros(shape, bool))
        if len(shape) == 2 and shape[1] == 4:
            # a dropout of the wrong row count, handed to the batch
            hyps = np.zeros((6, 4, 2))
            t = hypothesis_targets(cfg.base_loss, np.zeros((6, 2)), 6, 2)
            with pytest.raises(ValueError, match="dropout masks"):
                assign_batch(cfg, hyps, t, draw_dropout(cfg, shape[0]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 10])
    @pytest.mark.parametrize("dropout", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("eps", [1e-9, 0.05, 0.3])
    def test_weights_match_the_per_row_rule(self, m, dropout, eps):
        """Bitwise equal to the rule written out row by row."""
        cfg = MetaLossConfig(m, epsilon=eps, dropout_prob=dropout)
        rng = np.random.default_rng(m)
        weights, _, best, masks = assign(cfg, rng.normal(size=(64, m, 2)),
                                               rng.normal(size=(64, 2)), rng=rng)
        for row, mask, b in zip(weights, masks, best):
            active = m - mask.sum()
            want = np.where(mask, 0.0, eps / (active - 1) if active > 1 else 0.0)
            want[b] = 1.0 - eps if active > 1 else 1.0
            assert row.tobytes() == want.tobytes()


class TestDrawDropout:
    """One draw for many rows is the same stream as one draw per row chunk."""

    @pytest.mark.parametrize("masks", [[[0.2, 0.0, 0.0]], [[np.nan, 0.0, 0.0]], [[1, 0, 0]]],
                             ids=["float", "nan", "int"])
    def test_non_boolean_masks_refused(self, masks):
        cfg = MetaLossConfig(3, dropout_prob=0.5)
        with pytest.raises(ValueError, match="boolean"):
            draw_dropout(cfg, 1, dropped_masks=masks)

    @pytest.mark.parametrize("m, p", [(1, 0.3), (2, 0.6), (3, 0.3), (10, 0.01), (4, 0.9)])
    @pytest.mark.parametrize("batch", [7, 32, 64, 100])
    def test_one_draw_equals_batch_draws(self, m, p, batch):
        n = 250
        cfg = MetaLossConfig(m, epsilon=0.05, dropout_prob=p)
        whole = draw_dropout(cfg, n, np.random.default_rng(3))
        chunk_rng = np.random.default_rng(3)
        chunks = [draw_dropout(cfg, min(batch, n - lo), chunk_rng) for lo in range(0, n, batch)]
        for got, want in zip(whole, map(np.concatenate, zip(*chunks))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # rows whose every head the generator dropped were reset, and only those
        raw = np.random.default_rng(3).random((n, m)) < p
        reset = raw.all(axis=1)
        np.testing.assert_array_equal(whole.masks, raw & ~reset[:, None])
        winner, loser = _weight_tables(m, cfg.epsilon)
        dropped = whole.masks.sum(axis=1)
        assert whole.winner.tobytes() == winner[dropped].tobytes()
        rows = np.where(whole.masks, 0.0, loser[dropped][:, None])
        assert whole.loser_rows.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("m", range(1, 11))
    def test_caller_masks_give_the_reduction_rule(self, m):
        """Masks and winner as the row reductions gave them, all-dropped rows reset, and the
        loser rows as the per-batch np.where built them."""
        cfg = MetaLossConfig(m, epsilon=0.05, dropout_prob=0.3)
        rng = np.random.default_rng(30 + m)
        given = rng.random((200, m)) < 0.5
        given[::7] = True  # all dropped
        given[1::7] = False
        dropout = draw_dropout(cfg, 200, dropped_masks=given)
        reset = np.logical_and.reduce(given, axis=1)
        masks = given.copy()
        masks[reset] = False
        winner, loser = _weight_tables(m, cfg.epsilon)
        dropped = np.add.reduce(masks, axis=1)
        assert dropout.masks.tobytes() == masks.tobytes()
        assert dropout.winner.tobytes() == winner[dropped].tobytes()
        rows = np.where(masks, 0.0, loser[dropped][:, None])
        assert dropout.loser_rows.dtype == rows.dtype
        assert dropout.loser_rows.tobytes() == rows.tobytes()
        assert given[::7].all()  # the caller's masks are left as they were

    @pytest.mark.parametrize("m", [1, 3])
    def test_nothing_drawn_without_dropout(self, m):
        cfg = MetaLossConfig(m, dropout_prob=0.0)
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        dropout = draw_dropout(cfg, 50, rng)
        assert rng.bit_generator.state == before
        assert not dropout.masks.any()
        assert (dropout.winner == _weight_tables(m, cfg.epsilon)[0][0]).all()


class TestWeightTables:
    """The per-(M, epsilon) weight tables that ``draw_dropout`` reads."""

    @pytest.mark.parametrize("m", [1, 2, 3, 10])
    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_tables_equal_the_where_chain(self, m, eps):
        """Row k drops k heads; the tables give the bits of the per-row np.where chain."""
        masks = np.arange(m)[None, :] < np.arange(m)[:, None]
        active = m - masks.sum(axis=1)
        share = np.where(active > 1, eps / np.maximum(active - 1, 1), 0.0)
        top = np.where(active > 1, 1.0 - eps, 1.0)
        winner, loser = _weight_tables(m, eps)
        assert winner.shape == loser.shape == (m,)
        assert winner.tobytes() == top.tobytes()
        assert loser.tobytes() == share.tobytes()

    def test_tables_are_read_only(self):
        for table in _weight_tables(4, 0.05):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.5

    def test_weights_are_fresh_arrays(self):
        cfg = MetaLossConfig(3, dropout_prob=0.0)
        rng = np.random.default_rng(10)
        dropout = draw_dropout(cfg, 5)
        rows = dropout.loser_rows.copy()
        targets = hypothesis_targets(cfg.base_loss, rng.normal(size=(5, 2)), 5, 2)
        weights, _, _, _ = assign_batch(cfg, rng.normal(size=(5, 3, 2)), targets, dropout)
        weights *= 2.0
        assert _weight_tables(3, cfg.epsilon)[0][0] == 1.0 - cfg.epsilon
        assert dropout.loser_rows.tobytes() == rows.tobytes()


def misshaped(targets):
    """A transposed (1, n, d) and a flattened (n*d,) copy of (n, 1, d) targets, and the
    unshaped (n, d) targets themselves."""
    return [targets.swapaxes(0, 1), targets.ravel(), targets[:, 0]]


class TestTargetShape:
    """``assign_batch`` takes targets as ``hypothesis_targets`` shapes them, and no other."""

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["transposed", "flat", "unshaped"])
    def test_misshaped_regression_targets_rejected(self, which):
        cfg = MetaLossConfig(3, dropout_prob=0.0)
        rng = np.random.default_rng(12)
        hyps = rng.normal(size=(5, 3, 2))
        targets = hypothesis_targets(cfg.base_loss, rng.normal(size=(5, 2)), 5, 2)
        dropout = draw_dropout(cfg, 5)
        assign_batch(cfg, hyps, targets, dropout)
        with pytest.raises(ValueError, match="shape"):
            assign_batch(cfg, hyps, misshaped(targets)[which], dropout)

    def test_class_targets_must_be_one_per_sample(self):
        cfg = MetaLossConfig(3, base_loss=CROSS_ENTROPY, dropout_prob=0.0)
        hyps = np.zeros((4, 3, 5))
        for targets in (np.zeros((4, 2), dtype=np.int64), np.zeros(4, dtype=np.int64)):
            with pytest.raises(ValueError, match="shape"):
                assign_batch(cfg, hyps, targets, draw_dropout(cfg, 4))
        with pytest.raises(ValueError, match="shape"):
            hypothesis_targets(CROSS_ENTROPY, np.zeros((4, 1), dtype=np.int64), 4, 5)


class TestSingleIsBatchRow:
    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY, TUKEY])
    def test_meta_loss_and_grads_bitwise(self, kind):
        """One-row chunks on one rng give the batch's weights, meta-loss and gradient bits."""
        cfg = MetaLossConfig(4, epsilon=0.1, dropout_prob=0.3, base_loss=kind)
        rng = np.random.default_rng(13)
        hyps = rng.normal(scale=2.0, size=(16, 4, 3))
        targets = (rng.integers(0, 3, size=16) if kind.name == "cross_entropy"
                   else rng.normal(scale=2.0, size=(16, 3)))
        weights, _, _, _ = assign(cfg, hyps, targets, rng=np.random.default_rng(1))
        values = meta_losses(cfg, hyps, targets, weights)
        upstream = upstream_grads(cfg, hyps, targets, weights)
        row_rng = np.random.default_rng(1)
        for i in range(16):
            h, t = hyps[i:i + 1], targets[i:i + 1]
            w, _, _, _ = assign(cfg, h, t, rng=row_rng)
            np.testing.assert_array_equal(w[0], weights[i])
            assert meta_losses(cfg, h, t, w)[0] == values[i]
            np.testing.assert_array_equal(upstream_grads(cfg, h, t, w)[0], upstream[i])
