"""Synthetic generators: distribution shape, determinism, file round-trips."""

import hashlib
import json

import numpy as np
import pytest

from mhp.datagen import (GridFrameSpec, KERNEL_MASS, MultiLabelItem, MultiLabelSpec, _draw,
                         default_gridframe_spec, load_dataset, make_multilabel_spec,
                         region_index, region_probabilities, render_frame,
                         sample_gaussian_mixture, sample_gridframe,
                         sample_multilabel, sample_temporal2d,
                         temporal2d_dataset, write_dataset)


def binomial_3sigma(p, n):
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


class TestCategoricalDraw:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_searchsorted_inverse_cdf(self, seed):
        # the reference: the last index a uniform's right-sided search of the CDF gives
        rng = np.random.default_rng(seed)
        p = rng.random(6) * (rng.random(6) < 0.7)
        p /= p.sum()
        u = np.random.default_rng(100 + seed).random(4000)
        want = np.minimum(np.searchsorted(np.cumsum(p), u, side="right"), len(p) - 1)
        got = _draw(p, 4000, np.random.default_rng(100 + seed))
        assert np.array_equal(got, want)
        assert not np.isin(got, np.flatnonzero(p == 0)).any()

    def test_row_probabilities_match_scalar_ones(self):
        ts = np.array([0.0, 0.3, 1.0])
        rows = _draw(region_probabilities(np.repeat(ts, 500)), 1500, np.random.default_rng(2))
        u = np.random.default_rng(2).random(1500)
        for k, t in enumerate(ts):
            part = slice(500 * k, 500 * (k + 1))
            cdf = np.cumsum(region_probabilities(t))
            assert np.array_equal(rows[part], np.minimum(
                np.searchsorted(cdf, u[part], side="right"), 3))


def one_line_draw(p, u):
    """The one-line inverse CDF that ``_draw`` replaced, the reference for its bits."""
    return (u[:, None] >= np.cumsum(p, axis=-1)[..., :-1]).sum(-1)


class StubUniforms:
    """An rng whose ``random(n)`` hands out given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


class TestDrawEqualsOneLineFormula:
    """``_draw`` gives the indices of the one-line formula it replaced, on the same uniforms."""

    @pytest.mark.parametrize("k", [1, 2, 12])
    def test_fixed_probabilities_with_empty_categories(self, k):
        rng = np.random.default_rng(k)
        p = rng.random(k) * (np.arange(k) % 3 != 1)
        p[0] = p[0] or 0.5
        p /= p.sum()
        u = np.random.default_rng(20 + k).random(5000)
        got = _draw(p, 5000, np.random.default_rng(20 + k))
        want = one_line_draw(p, u)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, None], ids=["0", "0.3", "1", "uniform"])
    def test_row_probabilities(self, t):
        ts = np.random.default_rng(6).random(3000) if t is None else np.full(3000, t)
        p = region_probabilities(ts)
        u = np.random.default_rng(7).random(3000)
        got = _draw(p, 3000, np.random.default_rng(7))
        want = one_line_draw(p, u)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [False, True], ids=["fixed", "per_row"])
    def test_uniforms_on_cdf_values(self, rows):
        """A uniform equal to a CDF value counts that entry, as ``>=`` does."""
        p = np.array([0.25, 0.25, 0.5])
        u = np.array([0.0, 0.25, 0.5, 0.75])
        p = np.tile(p, (len(u), 1)) if rows else p
        got = _draw(p, len(u), StubUniforms(u))
        assert got.tolist() == one_line_draw(p, u).tolist() == [0, 1, 2, 2]

    @pytest.mark.parametrize("rows", [False, True], ids=["fixed", "per_row"])
    def test_last_category_when_the_cdf_total_rounds_below_one(self, rows):
        """Ten masses of 0.1 sum to 1 - 2**-53, the largest uniform; the last CDF entry is
        never compared, so the draw stays in range."""
        p = np.full(10, 0.1)
        u = np.array([1.0 - 2.0**-53, 0.5])
        p = np.tile(p, (len(u), 1)) if rows else p
        got = _draw(p, len(u), StubUniforms(u))
        assert got.tolist() == one_line_draw(p, u).tolist() == [9, 5]


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

    @staticmethod
    def reference_sample(spec, n, rng):
        """The per-sample loop ``sample_multilabel`` replaced: one label draw per sample."""
        feats = np.array([it.features for it in spec.items])
        idx = rng.integers(0, len(spec.items), size=n)
        labels = np.empty(n, dtype=np.int64)
        for i, j in enumerate(idx):
            cand = spec.items[j].labels
            labels[i] = cand[rng.integers(len(cand))]
        return feats[idx], labels, idx

    @pytest.mark.parametrize("spec", [
        make_multilabel_spec(6, 2, np.random.default_rng(77)),
        MultiLabelSpec(7, (MultiLabelItem((0.0, 1.0), (4,)), MultiLabelItem((1.0, 0.0), (2, 5)),
                           MultiLabelItem((-1.0, 0.5), (0, 3, 6)),
                           MultiLabelItem((0.5, -1.0), (6, 1, 2)))),
    ], ids=["acceptance", "sizes_1_2_3"])
    @pytest.mark.parametrize("n", [1, 5, 1280])
    @pytest.mark.parametrize("seed", [0, 13, 2024])
    def test_stream_is_bitwise_the_per_sample_loop(self, spec, n, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = sample_multilabel(spec, n, rng), self.reference_sample(spec, n, ref_rng)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert rng.integers(2**62) == ref_rng.integers(2**62)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

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

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.inf]],
                             ids=["nan_nan", "nan_one", "inf"])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="nonnegative and sum to 1"):
            sample_gaussian_mixture([[0.0], [1.0]], [np.eye(1)] * 2, weights,
                                    5, np.random.default_rng(22))


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
        write_dataset(tmp_path, X, y, task="multilabel", spec=make_multilabel_spec(3), seed=0,
                      input_names=["x1", "x2"], target_names=["label"])
        ds = load_dataset(tmp_path)
        assert ds.Y.dtype == np.int64
        np.testing.assert_array_equal(ds.Y, y)

    @pytest.mark.parametrize("task, spec", [
        ("gridframe", default_gridframe_spec(4, 10, 9)),
        ("multilabel", make_multilabel_spec(5, 3, np.random.default_rng(3))),
        ("multilabel", MultiLabelSpec(7, (MultiLabelItem((0.0, 1.0), (4,)),
                                          MultiLabelItem((1.0, 0.0), (2, 5))))),
        ("temporal2d", {"t": 0.25}),
    ], ids=["gridframe", "multilabel", "multilabel_sizes_1_2", "temporal2d"])
    def test_spec_roundtrip(self, tmp_path, task, spec):
        n_out = spec.pixels if task == "gridframe" else 1
        write_dataset(tmp_path, np.zeros((2, 1)), np.zeros((2, n_out), dtype=np.int64),
                      task=task, spec=spec, seed=0, input_names=["x"],
                      target_names=[f"y{i}" for i in range(n_out)])
        assert load_dataset(tmp_path).spec == spec

    def test_multilabel_sidecar_records_the_largest_set_size(self, tmp_path):
        spec = MultiLabelSpec(7, (MultiLabelItem((0.0, 1.0), (4,)),
                                  MultiLabelItem((1.0, 0.0), (2, 5, 6))))
        write_dataset(tmp_path, np.zeros((1, 2)), np.array([4]), task="multilabel", spec=spec,
                      seed=0, input_names=["x1", "x2"], target_names=["label"])
        sidecar = json.loads((tmp_path / "data.json").read_text())
        assert list(sidecar["spec"]) == ["num_classes", "set_size", "items"]
        assert sidecar["spec"]["set_size"] == 3

    @pytest.mark.parametrize("Y, int_targets", [(np.array([0, 2]), True),
                                                (np.array([0.0, 2.0]), False),
                                                ([0, 2], True)])
    def test_int_targets_follow_the_dtype(self, tmp_path, Y, int_targets):
        write_dataset(tmp_path, np.zeros((2, 1)), Y, task="temporal2d", spec={}, seed=0,
                      input_names=["t"], target_names=["y"])
        assert json.loads((tmp_path / "data.json").read_text())["int_targets"] is int_targets
        ds = load_dataset(tmp_path)
        assert ds.Y.dtype == (np.int64 if int_targets else np.float64)

    @pytest.mark.parametrize("key, value, names", [
        ("height", None, ["'height'", "expected an integer"]),
        ("start", [4], ["'start'", "2 entries"]),
        ("terminals", [[1, 1], [1.5, 2]], ["'terminals'", "1.5"]),
        ("probabilities", [float("nan"), 0.5, 0.5], ["nonnegative"]),
        ("probabilities", [0.25, 0.25, 0.25], ["sum to 1"]),
        ("probabilities", [0.5, 0.5], ["one probability per terminal"]),
    ])
    def test_gridframe_spec_field_is_checked(self, tmp_path, key, value, names):
        spec = default_gridframe_spec(3)
        write_dataset(tmp_path, np.zeros((1, 64)), np.zeros((1, 64)), task="gridframe",
                      spec=spec, seed=0, input_names=[f"in{i}" for i in range(64)],
                      target_names=[f"out{i}" for i in range(64)])
        sidecar = json.loads((tmp_path / "data.json").read_text())
        sidecar["spec"][key] = value
        (tmp_path / "data.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path)
        message = str(err.value)
        assert message.startswith(f"{tmp_path / 'data.json'}: field 'spec': ")
        assert message.count(str(tmp_path)) == 1 and all(n in message for n in names)

    @pytest.mark.parametrize("edit, names", [
        (lambda spec: spec["items"][0].pop("labels"), ["'items'", "'labels'", "missing"]),
        (lambda spec: spec["items"][0].update(labels=[9]), ["label out of range"]),
        (lambda spec: spec.update(items=[]), ["at least one item"]),
    ], ids=["item_without_labels", "label_out_of_range", "no_items"])
    def test_multilabel_spec_is_checked(self, tmp_path, edit, names):
        write_dataset(tmp_path, np.zeros((1, 2)), np.array([0]), task="multilabel",
                      spec=make_multilabel_spec(4), seed=0, input_names=["x1", "x2"],
                      target_names=["label"])
        sidecar = json.loads((tmp_path / "data.json").read_text())
        edit(sidecar["spec"])
        (tmp_path / "data.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="field 'spec'") as err:
            load_dataset(tmp_path)
        assert all(n in str(err.value) for n in names)

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_csv(self, tmp_path, value):
        write_dataset(tmp_path, np.zeros((3, 1)), np.zeros((3, 2)), task="temporal2d",
                      spec={}, seed=0, input_names=["t"], target_names=["y1", "y2"])
        csv = tmp_path / "data.csv"
        lines = csv.read_text().splitlines()
        lines[2] = f"0.0,{value},0.0"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="data.csv"):
            load_dataset(tmp_path)

    def test_fractional_int_target_names_the_csv(self, tmp_path):
        write_dataset(tmp_path, np.zeros((3, 2)), np.array([0, 1, 2]), task="multilabel",
                      spec=make_multilabel_spec(3), seed=0, input_names=["x1", "x2"],
                      target_names=["label"])
        csv = tmp_path / "data.csv"
        lines = csv.read_text().splitlines()
        lines[2] = "0.0,0.0,1.5"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="data.csv"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("value", ["no", 1])
    def test_int_targets_not_a_bool_is_value_error(self, tmp_path, value):
        write_dataset(tmp_path, np.zeros((3, 1)), np.zeros((3, 2)), task="temporal2d",
                      spec={}, seed=0, input_names=["t"], target_names=["y1", "y2"])
        sidecar = json.loads((tmp_path / "data.json").read_text())
        sidecar["int_targets"] = value
        (tmp_path / "data.json").write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match="int_targets"):
            load_dataset(tmp_path)

    def test_sidecar_not_an_object_is_value_error(self, tmp_path):
        write_dataset(tmp_path, np.zeros((3, 1)), np.zeros((3, 2)), task="temporal2d",
                      spec={}, seed=0, input_names=["t"], target_names=["y1", "y2"])
        (tmp_path / "data.json").write_text("[]")
        with pytest.raises(ValueError):
            load_dataset(tmp_path)


def _task_tables(task):
    """(X, Y, spec, input names, target names) of a 300-row dataset of ``task``."""
    rng = np.random.default_rng(31)
    if task == "temporal2d":
        return (*temporal2d_dataset(300, rng), {"t": None}, ["t"], ["y1", "y2"])
    if task == "multilabel":
        spec = make_multilabel_spec(5, 3, rng)
        return (*sample_multilabel(spec, 300, rng)[:2], spec, ["x1", "x2"], ["label"])
    if task == "gridframe":
        spec = default_gridframe_spec(4)
        return (*sample_gridframe(spec, 300, rng)[:2], spec,
                [f"in{i}" for i in range(64)], [f"out{i}" for i in range(64)])
    Y = sample_gaussian_mixture([[-1.5, 0.0], [1.5, 0.0]], [np.eye(2) * 0.09] * 2, [0.5, 0.5],
                                300, rng)
    return np.zeros((300, 0)), Y, {}, [], ["y1", "y2"]


class TestDatasetCache:
    """data.npz spares load_dataset the CSV parse only while it carries the digest of the
    data.csv beside it; any other cache is ignored, and both paths give the same bits."""

    TASKS = ["temporal2d", "multilabel", "gridframe", "gmm"]

    @pytest.fixture()
    def parses(self, monkeypatch):
        """The number of CSV parses load_dataset makes, counted at np.loadtxt."""
        count, loadtxt = [0], np.loadtxt

        def counted(*args, **kwargs):
            count[0] += 1
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        return count

    @staticmethod
    def write(path, task):
        X, Y, spec, inputs, targets = _task_tables(task)
        return write_dataset(path, X, Y, task=task, spec=spec, seed=31, input_names=inputs,
                             target_names=targets)

    @staticmethod
    def csv_only(path):
        """The dataset at ``path`` loaded from a copy without its data.npz."""
        copy = path.with_name(path.name + "_csv_only")
        copy.mkdir()
        for name in ("data.csv", "data.json"):
            (copy / name).write_bytes((path / name).read_bytes())
        return load_dataset(copy)

    @staticmethod
    def assert_same_bits(got, want):
        assert got.X.shape == want.X.shape and got.X.dtype == want.X.dtype == np.float64
        assert np.array_equal(got.X.view(np.uint64), want.X.view(np.uint64))
        assert got.Y.dtype == want.Y.dtype and got.Y.shape == want.Y.shape
        assert np.array_equal(got.Y.view(np.uint64) if got.Y.dtype == np.float64 else got.Y,
                              want.Y.view(np.uint64) if want.Y.dtype == np.float64 else want.Y)

    def test_writes_the_table_and_the_csv_digest(self, tmp_path):
        csv, npz, sidecar = self.write(tmp_path, "multilabel")
        assert [csv.name, npz.name, sidecar.name] == ["data.csv", "data.npz", "data.json"]
        with np.load(npz, allow_pickle=False) as cache:
            assert list(cache.keys()) == ["table", "csv_sha256"]
            table, stamp = cache["table"], cache["csv_sha256"]
        X, Y = _task_tables("multilabel")[:2]
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert np.array_equal(table, np.column_stack([X, Y]))
        assert stamp.dtype == np.uint8
        assert stamp.tobytes() == hashlib.sha256(csv.read_bytes()).digest()

    @pytest.mark.parametrize("task", TASKS)
    def test_cached_load_equals_the_csv_parse(self, tmp_path, parses, task):
        self.write(tmp_path / "d", task)
        cached = load_dataset(tmp_path / "d")
        assert parses[0] == 0
        parsed = self.csv_only(tmp_path / "d")
        assert parses[0] == 1
        self.assert_same_bits(cached, parsed)
        assert cached.Y.dtype == (np.int64 if task == "multilabel" else np.float64)
        assert cached.task == parsed.task and cached.spec == parsed.spec

    def test_data_csv_path_reads_the_cache_too(self, tmp_path, parses):
        self.write(tmp_path / "d", "temporal2d")
        self.assert_same_bits(load_dataset(tmp_path / "d" / "data.csv"),
                              load_dataset(tmp_path / "d"))
        assert parses[0] == 0

    @pytest.mark.parametrize("damage", [
        "absent", "truncated", "not_a_zip", "a_plain_npy", "no_table", "no_digest",
        "float32_table", "transposed_table", "flat_table", "another_csvs_digest",
        "digest_as_int64"])
    def test_a_bad_cache_loads_the_csv(self, tmp_path, parses, damage):
        self.write(tmp_path / "d", "temporal2d")
        npz = tmp_path / "d" / "data.npz"
        with np.load(npz, allow_pickle=False) as cache:
            table, stamp = cache["table"], cache["csv_sha256"]
        other = self.write(tmp_path / "other", "gmm")[0]
        if damage == "absent":
            npz.unlink()
        elif damage == "truncated":
            whole = npz.read_bytes()
            npz.write_bytes(whole[:len(whole) // 2])
        elif damage == "not_a_zip":
            npz.write_bytes(b"t,y1,y2\n")
        elif damage == "a_plain_npy":
            with open(npz, "wb") as fh:
                np.save(fh, table)
        else:
            arrays = {
                "no_table": dict(csv_sha256=stamp),
                "no_digest": dict(table=table),
                "float32_table": dict(table=table.astype(np.float32), csv_sha256=stamp),
                "transposed_table": dict(table=np.ascontiguousarray(table.T), csv_sha256=stamp),
                "flat_table": dict(table=table.ravel(), csv_sha256=stamp),
                "another_csvs_digest": dict(table=table, csv_sha256=np.frombuffer(
                    hashlib.sha256(other.read_bytes()).digest(), dtype=np.uint8)),
                "digest_as_int64": dict(table=table, csv_sha256=stamp.view(np.int64)),
            }[damage]
            with open(npz, "wb") as fh:
                np.savez(fh, **arrays)
        got = load_dataset(tmp_path / "d")
        assert parses[0] == 1
        self.assert_same_bits(got, self.csv_only(tmp_path / "d"))
        np.testing.assert_array_equal(got.X, table[:, :1])

    @pytest.mark.parametrize("task, row, column, value", [
        ("temporal2d", 3, 2, "0.125"), ("multilabel", 7, 2, "0"), ("gmm", 0, 0, "-2.5")])
    def test_an_edited_csv_value_is_read(self, tmp_path, parses, task, row, column, value):
        self.write(tmp_path, task)
        csv = tmp_path / "data.csv"
        lines = csv.read_text().splitlines()
        cells = lines[1 + row].split(",")
        assert cells[column] != value
        cells[column] = value
        lines[1 + row] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        ds = load_dataset(tmp_path)
        assert parses[0] == 1
        n_in = ds.X.shape[1]
        got = ds.X[row, column] if column < n_in else ds.Y.reshape(len(ds.Y), -1)[row,
                                                                                 column - n_in]
        assert got == float(value)
