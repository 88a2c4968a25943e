"""Synthetic generators: distribution shape, determinism, file round-trips."""

import json

import numpy as np
import pytest

from mhp.datagen import (GridFrameSpec, KERNEL_MASS, MultiLabelItem, MultiLabelSpec,
                         default_gridframe_spec, load_dataset, make_multilabel_spec,
                         region_index, region_probabilities, render_frame,
                         sample_gaussian_mixture, sample_gridframe,
                         sample_multilabel, sample_temporal2d,
                         temporal2d_dataset, write_dataset)


def binomial_3sigma(p, n):
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


class TestTemporal2D:
    def test_t_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_temporal2d(-0.1, 10, rng)
        with pytest.raises(ValueError):
            sample_temporal2d(1.5, 10, rng)
        with pytest.raises(ValueError):
            sample_temporal2d(0.5, 0, rng)

    def test_t0_never_hits_transient_quadrants(self):
        _, Y = sample_temporal2d(0.0, 20_000, np.random.default_rng(1))
        regions = region_index(Y)
        assert np.isin(regions, [0, 3]).all()

    def test_t1_never_hits_resting_quadrants(self):
        _, Y = sample_temporal2d(1.0, 20_000, np.random.default_rng(2))
        regions = region_index(Y)
        assert np.isin(regions, [1, 2]).all()

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_region_frequencies_within_3sigma(self, t):
        n = 10_000
        _, Y = sample_temporal2d(t, n, np.random.default_rng(3))
        regions = region_index(Y)
        probs = region_probabilities(t)
        for r in range(4):
            freq = (regions == r).mean()
            assert abs(freq - probs[r]) <= binomial_3sigma(max(probs[r], 1e-12), n) + 1e-12

    def test_support_stays_in_square(self):
        for t in (0.0, 0.3, 1.0):
            _, Y = sample_temporal2d(t, 5000, np.random.default_rng(4))
            assert (np.abs(Y) <= 1.0).all()
            assert (region_index(Y) >= 0).all()

    def test_mean_is_origin_within_3sigma(self):
        n = 50_000
        for t in (0.0, 0.5, 0.9):
            _, Y = sample_temporal2d(t, n, np.random.default_rng(5))
            # per-coordinate variance is at most 1/3 on the square
            bound = 3.0 * np.sqrt((1.0 / 3.0) / n)
            assert np.abs(Y.mean(axis=0)).max() <= bound * 2

    def test_inputs_carry_t(self):
        X, _ = sample_temporal2d(0.7, 5, np.random.default_rng(6))
        np.testing.assert_array_equal(X, np.full((5, 1), 0.7))

    def test_dataset_draws_t_uniform(self):
        X, Y = temporal2d_dataset(20_000, np.random.default_rng(7))
        assert X.shape == (20_000, 1) and Y.shape == (20_000, 2)
        assert abs(X.mean() - 0.5) < 0.01
        assert (X >= 0.0).all() and (X <= 1.0).all()

    def test_seed_determinism(self):
        a = sample_temporal2d(0.4, 1000, np.random.default_rng(8))
        b = sample_temporal2d(0.4, 1000, np.random.default_rng(8))
        assert np.array_equal(a[1], b[1])


class TestMultiLabel:
    def test_singleton_always_emits_its_class(self):
        spec = MultiLabelSpec(4, (MultiLabelItem((0.0, 0.0), (3,)),))
        _, labels, _ = sample_multilabel(spec, 500, np.random.default_rng(9))
        assert (labels == 3).all()

    def test_two_label_item_is_a_coin_flip(self):
        spec = MultiLabelSpec(4, (MultiLabelItem((0.0, 0.0), (1, 2)),))
        _, labels, _ = sample_multilabel(spec, 10_000, np.random.default_rng(10))
        assert abs((labels == 1).mean() - 0.5) <= 0.02

    def test_three_label_item_is_uniform(self):
        spec = MultiLabelSpec(5, (MultiLabelItem((0.0, 0.0), (0, 1, 2)),))
        _, labels, _ = sample_multilabel(spec, 30_000, np.random.default_rng(11))
        for c in (0, 1, 2):
            assert abs((labels == c).mean() - 1 / 3) <= 0.02

    def test_inputs_repeat_across_draws(self):
        spec = make_multilabel_spec(6, 2, np.random.default_rng(12))
        X, _, idx = sample_multilabel(spec, 1000, np.random.default_rng(13))
        feats = np.array([it.features for it in spec.items])
        np.testing.assert_array_equal(X, feats[idx])

    def test_adjacent_pool_has_distinct_inputs(self):
        spec = make_multilabel_spec(6, 2)
        feats = np.array([it.features for it in spec.items])
        dists = np.linalg.norm(feats[:, None, :] - feats[None, :, :], axis=2)
        off_diag = dists[~np.eye(len(feats), dtype=bool)]
        assert off_diag.min() > 0.3

    def test_empty_label_set_rejected(self):
        with pytest.raises(ValueError):
            MultiLabelSpec(3, (MultiLabelItem((0.0, 0.0), ()),))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MultiLabelSpec(3, (MultiLabelItem((0.0, 0.0), (3,)),))


class TestGridFrame:
    def test_single_terminal_means_identical_targets(self):
        spec = GridFrameSpec(8, 8, (4, 4), ((2, 5),), (1.0,))
        _, Y, _ = sample_gridframe(spec, 200, np.random.default_rng(14))
        assert np.array_equal(Y, np.tile(Y[0], (200, 1)))

    def test_three_equal_terminals_frequencies(self):
        spec = default_gridframe_spec(3)
        _, _, idx = sample_gridframe(spec, 30_000, np.random.default_rng(15))
        for k in range(3):
            assert abs((idx == k).mean() - 1 / 3) <= 0.02

    def test_every_frame_conserves_kernel_mass(self):
        spec = default_gridframe_spec(5)
        X, Y, _ = sample_gridframe(spec, 300, np.random.default_rng(16))
        np.testing.assert_allclose(X.sum(axis=1), KERNEL_MASS, atol=1e-12)
        np.testing.assert_allclose(Y.sum(axis=1), KERNEL_MASS, atol=1e-12)

    def test_intensities_in_unit_range(self):
        spec = default_gridframe_spec(12)
        X, Y, _ = sample_gridframe(spec, 100, np.random.default_rng(17))
        for arr in (X, Y):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_positions_must_fit_kernel(self):
        with pytest.raises(ValueError):
            GridFrameSpec(8, 8, (0, 4), ((2, 2),), (1.0,))
        with pytest.raises(ValueError):
            GridFrameSpec(8, 8, (4, 4), ((7, 7),), (1.0,))
        with pytest.raises(ValueError):
            render_frame(default_gridframe_spec(1), (0, 0))

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GridFrameSpec(8, 8, (4, 4), ((1, 1), (2, 2)), (0.6, 0.6))


class TestGaussianMixture:
    def test_symmetric_components_center_at_origin(self):
        means = [[-1.5, 0.0], [1.5, 0.0]]
        covs = [np.eye(2) * 0.09] * 2
        pts = sample_gaussian_mixture(means, covs, [0.5, 0.5], 50_000,
                                      np.random.default_rng(18))
        assert np.abs(pts.mean(axis=0)).max() < 0.03

    def test_single_component_mean(self):
        mu = np.array([[2.0, -1.0]])
        cov = [np.eye(2) * 0.25]
        n = 40_000
        pts = sample_gaussian_mixture(mu, cov, [1.0], n, np.random.default_rng(19))
        assert np.abs(pts.mean(axis=0) - mu[0]).max() <= 3.0 * 0.5 / np.sqrt(n) * 1.5

    def test_degenerate_weight_selects_one_component(self):
        means = [[-5.0, 0.0], [5.0, 0.0]]
        covs = [np.eye(2) * 0.01] * 2
        pts = sample_gaussian_mixture(means, covs, [1.0, 0.0], 1000,
                                      np.random.default_rng(20))
        assert (pts[:, 0] < 0).all()

    def test_invalid_covariance_rejected(self):
        bad = [np.array([[1.0, 2.0], [2.0, 1.0]])]  # not positive-definite
        with pytest.raises(ValueError):
            sample_gaussian_mixture([[0.0, 0.0]], bad, [1.0], 10,
                                    np.random.default_rng(21))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            sample_gaussian_mixture([[0.0], [1.0]], [np.eye(1)] * 2, [0.5, 0.6],
                                    10, np.random.default_rng(22))


class TestDatasetFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(23)
        X, Y = temporal2d_dataset(100, rng)
        write_dataset(tmp_path, X, Y, task="temporal2d", spec={"t": None}, seed=23,
                      input_names=["t"], target_names=["y1", "y2"])
        ds = load_dataset(tmp_path)
        assert ds.task == "temporal2d"
        np.testing.assert_array_equal(ds.X, X)
        np.testing.assert_array_equal(ds.Y, Y)

    def test_int_targets_roundtrip(self, tmp_path):
        X = np.zeros((5, 2))
        y = np.array([0, 1, 2, 1, 0])
        write_dataset(tmp_path, X, y, task="multilabel", spec={}, seed=0,
                      input_names=["x1", "x2"], target_names=["label"],
                      int_targets=True)
        ds = load_dataset(tmp_path)
        assert ds.Y.dtype == np.int64
        np.testing.assert_array_equal(ds.Y, y)

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(24)
        X, Y = temporal2d_dataset(50, rng)
        write_dataset(tmp_path / "a", X, Y, task="temporal2d", spec={}, seed=24,
                      input_names=["t"], target_names=["y1", "y2"])
        write_dataset(tmp_path / "b", X, Y, task="temporal2d", spec={}, seed=24,
                      input_names=["t"], target_names=["y1", "y2"])
        assert (tmp_path / "a/data.csv").read_bytes() == (tmp_path / "b/data.csv").read_bytes()

    @pytest.mark.parametrize("field", ["input_columns", "target_columns", "task"])
    def test_sidecar_missing_field_is_value_error(self, tmp_path, field):
        write_dataset(tmp_path, np.zeros((3, 1)), np.zeros((3, 2)), task="temporal2d",
                      spec={}, seed=0, input_names=["t"], target_names=["y1", "y2"])
        sidecar = json.loads((tmp_path / "data.json").read_text())
        del sidecar[field]
        (tmp_path / "data.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=field):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("field, value", [("input_columns", 5), ("input_columns", "t"),
                                              ("target_columns", "yz"),
                                              ("target_columns", ["y1", 2])])
    def test_sidecar_columns_not_a_name_list_is_value_error(self, tmp_path, field, value):
        write_dataset(tmp_path, np.zeros((3, 1)), np.zeros((3, 2)), task="temporal2d",
                      spec={}, seed=0, input_names=["t"], target_names=["y1", "y2"])
        sidecar = json.loads((tmp_path / "data.json").read_text())
        sidecar[field] = value
        (tmp_path / "data.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=field):
            load_dataset(tmp_path)

    def test_sidecar_not_an_object_is_value_error(self, tmp_path):
        write_dataset(tmp_path, np.zeros((3, 1)), np.zeros((3, 2)), task="temporal2d",
                      spec={}, seed=0, input_names=["t"], target_names=["y1", "y2"])
        (tmp_path / "data.json").write_text("[]")
        with pytest.raises(ValueError):
            load_dataset(tmp_path)
