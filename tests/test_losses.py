"""Base loss values and gradients against hand values and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhp.losses import (CROSS_ENTROPY, DEFAULT_TUKEY_C, L2, LossKind, loss,
                        loss_grad, loss_grads, loss_values, softmax)

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
        assert loss(L2, u, u) == 0.0

    def test_l2_half_squared_norm(self):
        assert loss(L2, np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 0.5

    def test_cross_entropy_uniform_logits(self):
        for target in range(4):
            assert loss(CROSS_ENTROPY, np.zeros(4), target) == pytest.approx(math.log(4), rel=1e-12)

    def test_tukey_zero_and_saturated(self):
        c = DEFAULT_TUKEY_C
        assert loss(TUKEY, np.array([1.0]), np.array([1.0])) == 0.0
        saturated = loss(TUKEY, np.array([10.0]), np.array([0.0]))
        assert saturated == pytest.approx(c * c / 6.0, rel=1e-12)
        assert saturated == pytest.approx(3.658, abs=5e-4)

    def test_tukey_saturation_region(self):
        c = 2.0
        kind = LossKind("tukey", c)
        for r in (2.0, 2.5, 100.0, -3.0):
            assert loss(kind, np.array([r]), np.array([0.0])) == c * c / 6.0
            assert loss_grad(kind, np.array([r]), np.array([0.0]))[0] == 0.0

    def test_cross_entropy_shift_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=7)
        base = loss(CROSS_ENTROPY, z, 3)
        for shift in (-100.0, -1.0, 0.5, 250.0):
            assert loss(CROSS_ENTROPY, z + shift, 3) == pytest.approx(base, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loss(L2, np.ones(3), np.ones(4))

    def test_class_index_out_of_range(self):
        with pytest.raises(ValueError):
            loss(CROSS_ENTROPY, np.zeros(4), 4)
        with pytest.raises(ValueError):
            loss(CROSS_ENTROPY, np.zeros(4), -1)


class TestGradients:
    def test_l2_grad_at_minimum(self):
        u = np.array([2.0, -1.0])
        assert np.all(loss_grad(L2, u, u) == 0.0)

    def test_cross_entropy_grad_sums_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.normal(scale=3.0, size=6)
            g = loss_grad(CROSS_ENTROPY, z, int(rng.integers(6)))
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
            analytic = loss_grad(kind, u, v)
            numeric = central_diff(lambda p: loss(kind, p, v), u)
            assert rel_err(analytic, numeric) < 1e-6


class TestProperties:
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.lists(st.floats(-50, 50), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, u, v):
        d = min(len(u), len(v))
        u, v = np.array(u[:d]), np.array(v[:d])
        assert loss(L2, u, v) >= 0.0
        assert loss(TUKEY, u, v) >= 0.0

    @given(st.lists(st.floats(-15, 15), min_size=2, max_size=8),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_cross_entropy_strictly_positive(self, logits, target):
        # logit gaps beyond ~36 underflow the true positive value to 0.0 in
        # float64, so the property is asserted on the representable range
        z = np.array(logits)
        t = target % len(z)
        assert loss(CROSS_ENTROPY, z, t) > 0.0

    def test_zero_only_at_minimum(self):
        u = np.array([1.0, 2.0])
        v = np.array([1.0, 2.5])
        assert loss(L2, u, v) > 0.0
        assert loss(TUKEY, u, v) > 0.0

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
                assert vals[i, j] == loss(L2, preds[i, j], targets[i])

    def test_cross_entropy_batch_broadcast(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 2, 3))
        classes = rng.integers(0, 3, size=5)
        vals = loss_values(CROSS_ENTROPY, logits, classes[:, None])
        for i in range(5):
            for j in range(2):
                assert vals[i, j] == pytest.approx(
                    loss(CROSS_ENTROPY, logits[i, j], int(classes[i])), rel=1e-15)


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
    @pytest.mark.parametrize("fn", [loss, loss_grad])
    def test_float_class_target_rejected(self, fn):
        with pytest.raises(ValueError, match="integer class indices"):
            fn(CROSS_ENTROPY, np.zeros(4), 2.7)

    @pytest.mark.parametrize("fn", [loss, loss_grad])
    def test_class_target_must_be_a_scalar(self, fn):
        with pytest.raises(ValueError):
            fn(CROSS_ENTROPY, np.zeros(4), [1, 2])

    def test_cross_entropy_single_is_bitwise_a_batch_row(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(scale=4.0, size=(6, 3, 5))
        classes = rng.integers(0, 5, size=6)
        vals = loss_values(CROSS_ENTROPY, logits, classes[:, None])
        grads = loss_grads(CROSS_ENTROPY, logits, classes[:, None])
        for i in range(6):
            for j in range(3):
                assert loss(CROSS_ENTROPY, logits[i, j], int(classes[i])) == vals[i, j]
                np.testing.assert_array_equal(
                    loss_grad(CROSS_ENTROPY, logits[i, j], classes[i]), grads[i, j])
