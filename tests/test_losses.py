"""Base loss values and gradients against hand values and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhp.losses import (CROSS_ENTROPY, DEFAULT_TUKEY_C, L2, LossKind, _index_grids,
                        loss_grads, loss_values, softmax)

TUKEY = LossKind("tukey")


def central_diff(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def rel_err(a, b):
    """Max deviation relative to the gradient vector's scale."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b)) / scale)


class TestValues:
    def test_l2_zero_residual(self):
        u = np.array([0.3, -1.2, 4.0])
        assert loss_values(L2, u, u) == 0.0

    def test_l2_half_squared_norm(self):
        assert loss_values(L2, np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5

    def test_cross_entropy_uniform_logits(self):
        for target in range(4):
            assert loss_values(CROSS_ENTROPY, np.zeros(4), target) == pytest.approx(
                math.log(4), rel=1e-12)

    def test_tukey_zero_and_saturated(self):
        c = DEFAULT_TUKEY_C
        assert loss_values(TUKEY, np.array([1.0]), np.array([1.0])) == 0.0
        saturated = loss_values(TUKEY, np.array([10.0]), np.array([0.0]))
        assert saturated == pytest.approx(c * c / 6.0, rel=1e-12)
        assert saturated == pytest.approx(3.658, abs=5e-4)

    def test_tukey_saturation_region(self):
        c = 2.0
        kind = LossKind("tukey", c)
        for r in (2.0, 2.5, 100.0, -3.0):
            assert loss_values(kind, np.array([r]), np.array([0.0])) == c * c / 6.0
            assert loss_grads(kind, np.array([r]), np.array([0.0]))[0] == 0.0

    def test_cross_entropy_shift_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=7)
        base = loss_values(CROSS_ENTROPY, z, 3)
        for shift in (-100.0, -1.0, 0.5, 250.0):
            assert loss_values(CROSS_ENTROPY, z + shift, 3) == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss_values(L2, np.ones(3), np.ones(4))

    def test_class_index_out_of_range(self):
        with pytest.raises(ValueError):
            loss_values(CROSS_ENTROPY, np.zeros(4), 4)
        with pytest.raises(ValueError):
            loss_values(CROSS_ENTROPY, np.zeros(4), -1)


class TestGradients:
    def test_l2_grad_at_minimum(self):
        u = np.array([2.0, -1.0])
        assert np.all(loss_grads(L2, u, u) == 0.0)

    def test_cross_entropy_grad_sums_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.normal(scale=3.0, size=6)
            g = loss_grads(CROSS_ENTROPY, z, int(rng.integers(6)))
            assert abs(g.sum()) < 1e-12

    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY, TUKEY, LossKind("tukey", 1.3)])
    def test_finite_difference_match(self, kind):
        rng = np.random.default_rng(3)
        # keep tukey residuals mostly inside the cutoff: beyond it both the
        # gradient and the finite difference are exactly zero, and a lone
        # near-cutoff residual leaves nothing but oracle roundoff to compare
        scale = min(2.0, kind.tukey_c / 3.0) if kind.name == "tukey" else 2.0
        for _ in range(100):
            u = rng.normal(scale=scale, size=5)
            if kind.name == "cross_entropy":
                v = int(rng.integers(5))
            else:
                v = rng.normal(scale=scale, size=5)
            analytic = loss_grads(kind, u, v)
            numeric = central_diff(lambda p: loss_values(kind, p, v), u)
            assert rel_err(analytic, numeric) < 1e-6


class TestProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.lists(st.floats(-50, 50), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, u, v):
        d = min(len(u), len(v))
        u, v = np.array(u[:d]), np.array(v[:d])
        assert loss_values(L2, u, v) >= 0.0
        assert loss_values(TUKEY, u, v) >= 0.0

    @given(st.lists(st.floats(-15, 15), min_size=2, max_size=8),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_cross_entropy_strictly_positive(self, logits, target):
        # logit gaps beyond ~36 underflow the true positive value to 0.0 in
        # float64, so the property is asserted on the representable range
        z = np.array(logits)
        t = target % len(z)
        assert loss_values(CROSS_ENTROPY, z, t) > 0.0

    def test_zero_only_at_minimum(self):
        u = np.array([1.0, 2.0])
        v = np.array([1.0, 2.5])
        assert loss_values(L2, u, v) > 0.0
        assert loss_values(TUKEY, u, v) > 0.0

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        z = rng.normal(scale=10.0, size=(4, 9))
        np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-12)


class TestBatched:
    def test_matches_scalar_calls(self):
        rng = np.random.default_rng(2)
        preds = rng.normal(size=(6, 3, 4))
        targets = rng.normal(size=(6, 4))
        vals = loss_values(L2, preds, targets[:, None, :])
        for i in range(6):
            for j in range(3):
                assert vals[i, j] == loss_values(L2, preds[i, j], targets[i])

    def test_cross_entropy_batch_broadcast(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 2, 3))
        classes = rng.integers(0, 3, size=5)
        vals = loss_values(CROSS_ENTROPY, logits, classes[:, None])
        for i in range(5):
            for j in range(2):
                assert vals[i, j] == pytest.approx(
                    loss_values(CROSS_ENTROPY, logits[i, j], int(classes[i])), rel=1e-15)


def reference_cross_entropy(logits, targets):
    """Cross-entropy values and gradients through ``take_along_axis`` and
    ``put_along_axis`` on fully broadcast logits and targets."""
    p, t = np.asarray(logits, dtype=np.float64), np.asarray(targets)
    lead = np.broadcast_shapes(p.shape[:-1], t.shape)
    p, t = np.broadcast_to(p, lead + p.shape[-1:]), np.broadcast_to(t, lead)[..., None]
    m = p.max(axis=-1, keepdims=True)
    values = np.log(np.exp(p - m).sum(axis=-1)) + m[..., 0] - np.take_along_axis(p, t, -1)[..., 0]
    grads = softmax(p)
    np.put_along_axis(grads, t, np.take_along_axis(grads, t, -1) - 1.0, -1)
    return values, grads


class TestIndexedCrossEntropy:
    @pytest.mark.parametrize("logit_shape, target_shape", [
        ((32, 3, 6), (32, 1)),    # training: (n, M, C) against (n, 1)
        ((6,), (4096,)),          # voronoi: one generator against a chunk of samples
        ((1, 1, 6), (1, 1)),      # one row
        ((5, 4, 12), (5, 4)),
    ])
    def test_bitwise_the_take_along_axis_reference(self, logit_shape, target_shape):
        rng = np.random.default_rng(21)
        logits = rng.normal(scale=5.0, size=logit_shape)
        targets = rng.integers(0, logit_shape[-1], size=target_shape)
        values, grads = reference_cross_entropy(logits, targets)
        got_values = loss_values(CROSS_ENTROPY, logits, targets)
        got_grads = loss_grads(CROSS_ENTROPY, logits, targets)
        assert got_values.shape == values.shape and got_values.tobytes() == values.tobytes()
        assert got_grads.shape == grads.shape and got_grads.tobytes() == grads.tobytes()

    @pytest.mark.parametrize("kind", [L2, CROSS_ENTROPY, LossKind("tukey", 1.5)])
    def test_grads_are_a_fresh_writable_array(self, kind):
        rng = np.random.default_rng(22)
        preds = rng.normal(size=(4, 2, 3))
        targets = (rng.integers(0, 3, size=(4, 1)) if kind == CROSS_ENTROPY
                   else rng.normal(size=(4, 1, 3)))
        before = preds.copy()
        grads = loss_grads(kind, preds, targets)
        assert grads.flags.writeable and not np.shares_memory(grads, preds)
        grads *= 2.0
        assert np.array_equal(preds, before)


class TestIndexGrids:
    """The cross-entropy index grids, cached per (logit leading shape, target shape)."""

    def test_grids_are_read_only(self):
        loss_values(CROSS_ENTROPY, np.zeros((4, 3, 5)), np.zeros((4, 1), dtype=np.int64))
        lead, grids = _index_grids((4, 3), (4, 1))
        assert lead == (4, 3) and len(grids) == 2
        for grid in grids:
            assert not grid.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                grid[...] = 0

    def test_a_second_shape_pair_gets_its_own_grids(self):
        rng = np.random.default_rng(23)
        first = _index_grids((32, 3), (32, 1))
        assert _index_grids((32, 3), (32, 1)) is first
        for logit_shape, target_shape in [((32, 3, 6), (32, 1)), ((16, 3, 6), (16, 1))]:
            logits = rng.normal(scale=5.0, size=logit_shape)
            targets = rng.integers(0, 6, size=target_shape)
            values, grads = reference_cross_entropy(logits, targets)
            assert loss_values(CROSS_ENTROPY, logits, targets).tobytes() == values.tobytes()
            assert loss_grads(CROSS_ENTROPY, logits, targets).tobytes() == grads.tobytes()
        lead, grids = _index_grids((16, 3), (16, 1))
        assert lead == (16, 3)
        assert [g.shape for g in grids] == [(16, 1), (1, 3)]
        assert [g.shape for g in first[1]] == [(32, 1), (1, 3)]

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32])
    def test_any_integer_dtype_is_a_class_index(self, dtype):
        rng = np.random.default_rng(24)
        logits = rng.normal(size=(8, 2, 4))
        targets = rng.integers(0, 4, size=(8, 1))
        want = loss_values(CROSS_ENTROPY, logits, targets).tobytes()
        assert loss_values(CROSS_ENTROPY, logits, targets.astype(dtype)).tobytes() == want

    def test_boolean_targets_rejected(self):
        with pytest.raises(ValueError, match="integer class indices"):
            loss_values(CROSS_ENTROPY, np.zeros((2, 2)), np.array([True, False]))


class TestSpecStrings:
    def test_parse_roundtrip(self):
        for s in ("l2", "cross_entropy", "tukey:4.685", "tukey:1.5"):
            assert LossKind.parse(s).spec() == s

    def test_bare_tukey_uses_default(self):
        assert LossKind.parse("tukey").tukey_c == DEFAULT_TUKEY_C

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            LossKind.parse("l1")

    def test_nonpositive_cutoff_rejected(self):
        with pytest.raises(ValueError):
            LossKind("tukey", 0.0)

    def test_infinite_cutoff_rejected(self):
        with pytest.raises(ValueError, match="tukey cutoff"):
            LossKind.parse("tukey:inf")


class TestTargetContract:
    @pytest.mark.parametrize("fn", [loss_values, loss_grads])
    def test_float_class_target_rejected(self, fn):
        with pytest.raises(ValueError, match="integer class indices"):
            fn(CROSS_ENTROPY, np.zeros(4), 2.7)

    def test_cross_entropy_single_is_bitwise_a_batch_row(self):
        """One 1-d logit vector with a scalar class gives the bits of its batch row."""
        rng = np.random.default_rng(14)
        logits = rng.normal(scale=4.0, size=(6, 3, 5))
        classes = rng.integers(0, 5, size=6)
        vals = loss_values(CROSS_ENTROPY, logits, classes[:, None])
        grads = loss_grads(CROSS_ENTROPY, logits, classes[:, None])
        for i in range(6):
            for j in range(3):
                assert loss_values(CROSS_ENTROPY, logits[i, j], int(classes[i])) == vals[i, j]
                np.testing.assert_array_equal(
                    loss_grads(CROSS_ENTROPY, logits[i, j], classes[i]), grads[i, j])
