"""Forward/backward correctness of the hand-rolled MLP and its optimizers."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from mhp.network import (Layer, MlpModel, TrainingDivergedError, backward,
                         backward_batch, forward, forward_batch, init_mlp,
                         load_checkpoint, make_optimizer, save_checkpoint, step)
from mhp.network import OptimizerState

# Output of the seeded reference model below at x = 0.25, recorded once and
# cross-checked against the scalar oracle in test_golden_forward.
GOLDEN_FORWARD = [
    [0.20834517088409454, 0.22799845668274818],
    [0.19440253118184994, 0.24880385907077843],
    [0.18520316337581372, 0.22972076969395572],
    [0.21247142808558583, 0.22998334064988332],
]


def reference_model():
    return init_mlp(1, [50, 50], 2, 4, np.random.default_rng(42), seed=42)


def scalar_forward(model, x):
    """Independent loop-based forward pass, one neuron at a time."""
    a = [float(v) for v in x]
    for layer in model.layers:
        out = []
        for i in range(layer.weights.shape[0]):
            z = float(layer.biases[i])
            for j, v in enumerate(a):
                z += float(layer.weights[i, j]) * v
            out.append(max(z, 0.0) if layer.activation == "relu" else z)
        a = out
    m, d = model.num_hypotheses, model.output_dim
    return [a[k * d:(k + 1) * d] for k in range(m)]


def flatten_params(model):
    return np.concatenate([np.concatenate([l.weights.ravel(), l.biases]) for l in model.layers])


def set_params(model, flat):
    pos = 0
    for layer in model.layers:
        n = layer.weights.size
        layer.weights[...] = flat[pos:pos + n].reshape(layer.weights.shape)
        pos += n
        n = layer.biases.size
        layer.biases[...] = flat[pos:pos + n]
        pos += n


class TestForward:
    def test_zero_model_maps_to_zero(self):
        layers = [Layer(np.zeros((4, 3)), np.zeros(4), "relu"),
                  Layer(np.zeros((6, 4)), np.zeros(6), "identity")]
        model = MlpModel(layers, output_dim=2, num_hypotheses=3)
        out = forward(model, np.array([1.0, -2.0, 0.5]))
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_identity_layer(self):
        model = MlpModel([Layer(np.eye(2), np.zeros(2), "identity")], 2, 1)
        out = forward(model, np.array([0.3, -0.7]))
        np.testing.assert_array_equal(out, [[0.3, -0.7]])

    def test_golden_forward(self):
        model = reference_model()
        out = forward(model, np.array([0.25]))
        np.testing.assert_allclose(out, GOLDEN_FORWARD, rtol=0, atol=0)
        oracle = scalar_forward(model, [0.25])
        np.testing.assert_allclose(out, oracle, rtol=1e-12)

    def test_forward_is_pure(self):
        model = reference_model()
        x = np.array([0.77])
        a, b = forward(model, x), forward(model, x)
        assert np.array_equal(a, b)

    def test_head_slicing_is_contiguous(self):
        w = np.arange(6, dtype=float).reshape(6, 1)
        model = MlpModel([Layer(w, np.zeros(6), "identity")], 2, 3)
        out = forward(model, np.array([1.0]))
        np.testing.assert_array_equal(out, [[0, 1], [2, 3], [4, 5]])

    def test_shape_and_finite_validation(self):
        model = reference_model()
        with pytest.raises(ValueError):
            forward(model, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            forward(model, np.array([np.nan]))

    def test_layer_output_is_the_only_full_size_temporary(self):
        # the bias is added in place, so a 50-wide layer briefly holds its
        # input and its output (2x n x 50 floats), not a third array
        model = reference_model()
        n = 20_000
        X = np.linspace(0, 1, n)[:, None]
        tracemalloc.start()
        try:
            forward_batch(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * 50 * 8

    def test_batch_matches_single(self):
        # batched matmuls may pick different BLAS kernels, so agreement is
        # to rounding, not bitwise
        model = reference_model()
        X = np.linspace(0, 1, 9)[:, None]
        batch = forward_batch(model, X)
        for i, x in enumerate(X):
            np.testing.assert_allclose(batch[i], forward(model, x), rtol=1e-12)


class TestModelValidation:
    def test_dimension_chain_enforced(self):
        layers = [Layer(np.zeros((4, 3)), np.zeros(4), "relu"),
                  Layer(np.zeros((2, 5)), np.zeros(2), "identity")]
        with pytest.raises(ValueError):
            MlpModel(layers, 2, 1)

    def test_final_width_must_match_heads(self):
        with pytest.raises(ValueError):
            MlpModel([Layer(np.zeros((5, 2)), np.zeros(5), "identity")], 2, 2)

    def test_final_activation_identity(self):
        with pytest.raises(ValueError):
            MlpModel([Layer(np.zeros((2, 2)), np.zeros(2), "relu")], 2, 1)

    def test_nonfinite_parameters_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(ValueError):
            MlpModel([Layer(w, np.zeros(2), "identity")], 2, 1)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = reference_model()
        grads = backward(model, np.array([0.3]), np.zeros((4, 2)))
        for dw, db in grads:
            assert np.all(dw == 0.0) and np.all(db == 0.0)

    def test_single_linear_layer_outer_product(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = MlpModel([Layer(w, np.zeros(2), "identity")], 2, 1)
        x = np.array([0.5, -1.5])
        g = np.array([[2.0, -1.0]])
        (dw, db), = backward(model, x, g)
        np.testing.assert_array_equal(dw, np.outer(g[0], x))
        np.testing.assert_array_equal(db, g[0])

    def test_linearity_in_upstream(self):
        model = reference_model()
        rng = np.random.default_rng(1)
        x = np.array([0.4])
        g = rng.normal(size=(4, 2))
        scaled = backward(model, x, 3.5 * g)
        base = backward(model, x, g)
        for (dws, dbs), (dw, db) in zip(scaled, base):
            np.testing.assert_allclose(dws, 3.5 * dw, atol=1e-12)
            np.testing.assert_allclose(dbs, 3.5 * db, atol=1e-12)

    def test_finite_difference_full_model(self):
        # 3-layer model, well under 500 parameters
        rng = np.random.default_rng(9)
        model = init_mlp(3, [8, 6], 2, 2, rng)
        assert model.num_parameters() <= 500
        x = rng.normal(size=3)
        upstream = rng.normal(size=(2, 2))

        def objective(flat):
            set_params(model, flat)
            return float((upstream * forward(model, x)).sum())

        theta = flatten_params(model)
        analytic_layers = backward(model, x, upstream)
        analytic = np.concatenate(
            [np.concatenate([dw.ravel(), db]) for dw, db in analytic_layers])
        numeric = np.zeros_like(theta)
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += 1e-6
            tm[i] -= 1e-6
            numeric[i] = (objective(tp) - objective(tm)) / 2e-6
        set_params(model, theta)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_upstream_shape_validated(self):
        model = reference_model()
        with pytest.raises(ValueError):
            backward(model, np.array([0.1]), np.zeros((3, 2)))

    def test_batch_sums_per_sample_grads(self):
        model = reference_model()
        rng = np.random.default_rng(6)
        X = rng.random((5, 1))
        U = rng.normal(size=(5, 4, 2))
        batch = backward_batch(model, X, U)
        single = [backward(model, X[i], U[i]) for i in range(5)]
        for k, (dw, db) in enumerate(batch):
            np.testing.assert_allclose(dw, sum(s[k][0] for s in single), atol=1e-12)
            np.testing.assert_allclose(db, sum(s[k][1] for s in single), atol=1e-12)

    @pytest.mark.parametrize("activations", [("relu", "relu", "identity"),
                                             ("identity", "identity", "identity")])
    def test_cached_activations_match_recompute_bitwise(self, activations):
        rng = np.random.default_rng(7)
        dims = [3, 9, 7, 4 * 2]
        model = MlpModel([Layer(rng.normal(size=(o, i)), rng.normal(size=o), a)
                          for i, o, a in zip(dims, dims[1:], activations)], 2, 4)
        X = rng.normal(size=(11, 3))
        U = rng.normal(size=(11, 4, 2))
        hyps, acts = forward_batch(model, X, return_activations=True)
        assert np.array_equal(hyps, forward_batch(model, X))
        assert len(acts) == len(model.layers) + 1
        cached = backward_batch(model, X, U, activations=acts)
        for (dw, db), (rw, rb) in zip(cached, backward_batch(model, X, U), strict=True):
            assert dw.tobytes() == rw.tobytes() and db.tobytes() == rb.tobytes()

    def test_activation_count_validated(self):
        model = reference_model()
        X = np.array([[0.1], [0.2]])
        _, acts = forward_batch(model, X, return_activations=True)
        with pytest.raises(ValueError):
            backward_batch(model, X, np.zeros((2, 4, 2)), activations=acts[:-1])


class TestOptimizers:
    def one_param_model(self, theta=1.0):
        return MlpModel([Layer(np.array([[theta]]), np.zeros(1), "identity")], 1, 1)

    def test_plain_sgd_step(self):
        model = self.one_param_model(1.0)
        opt = make_optimizer("sgd_momentum", model, 0.1, momentum=0.0)
        step(opt, model, [(np.array([[2.0]]), np.zeros(1))])
        assert model.layers[0].weights[0, 0] == pytest.approx(0.8, rel=1e-15)

    def test_zero_gradient_is_identity(self):
        for kind in ("sgd_momentum", "rmsprop"):
            model = reference_model()
            before = flatten_params(model).copy()
            opt = make_optimizer(kind, model, 0.5, momentum=0.9)
            step(opt, model, [(np.zeros_like(l.weights), np.zeros_like(l.biases))
                              for l in model.layers])
            assert np.array_equal(flatten_params(model), before)

    def test_two_momentum_steps(self):
        model = self.one_param_model(0.0)
        opt = make_optimizer("sgd_momentum", model, 0.1, momentum=0.9)
        g = [(np.array([[1.0]]), np.zeros(1))]
        step(opt, model, g)
        step(opt, model, g)
        assert model.layers[0].weights[0, 0] == pytest.approx(-0.29, rel=1e-12)

    def test_rmsprop_update_formula(self):
        model = self.one_param_model(1.0)
        opt = make_optimizer("rmsprop", model, 0.01, momentum=0.9)
        g = 2.0
        step(opt, model, [(np.array([[g]]), np.zeros(1))])
        s = 0.1 * g * g
        expected = 1.0 - 0.01 * g / math.sqrt(s + 1e-8)
        assert model.layers[0].weights[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_nonfinite_gradient_reports_layer(self):
        model = reference_model()
        grads = [(np.zeros_like(l.weights), np.zeros_like(l.biases)) for l in model.layers]
        grads[1][0][0, 0] = np.nan
        opt = make_optimizer("sgd_momentum", model, 0.1)
        with pytest.raises(TrainingDivergedError) as err:
            step(opt, model, grads)
        assert err.value.layer_index == 1

    def test_unknown_kind_rejected(self):
        model = self.one_param_model()
        with pytest.raises(ValueError):
            make_optimizer("adam", model, 0.1)


class TestCheckpoint:
    def test_roundtrip_bits(self, tmp_path):
        model = reference_model()
        opt = make_optimizer("rmsprop", model, 0.05, momentum=0.95)
        opt.buffers[0][0][...] = 0.125
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, opt)
        loaded, lopt = load_checkpoint(path)
        assert loaded.num_hypotheses == 4 and loaded.output_dim == 2
        assert loaded.seed == 42
        for a, b in zip(model.layers, loaded.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)
            assert a.activation == b.activation
        assert lopt.kind == "rmsprop" and lopt.learning_rate == 0.05
        assert np.array_equal(lopt.buffers[0][0], opt.buffers[0][0])

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, reference_model())
        doc = json.loads(path.read_text())
        for key in ("schema_version", "layer_dims", "activations", "M",
                    "output_dim", "seed", "parameters", "optimizer"):
            assert key in doc
        assert doc["M"] == 4
        # flattened row-major parameter arrays, layer by layer
        assert len(doc["parameters"]) == 3
        assert len(doc["parameters"][0]["weights"]) == 50

    def test_save_is_deterministic(self, tmp_path):
        model = reference_model()
        save_checkpoint(tmp_path / "a.json", model)
        save_checkpoint(tmp_path / "b.json", model)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestStepAtomicity:
    @pytest.mark.parametrize("kind", ["sgd_momentum", "rmsprop"])
    def test_nonfinite_last_layer_changes_nothing(self, kind):
        model = reference_model()
        opt = make_optimizer(kind, model, 0.1)
        rng = np.random.default_rng(3)
        grads = [(rng.normal(size=l.weights.shape), rng.normal(size=l.biases.shape))
                 for l in model.layers]
        step(opt, model, grads)  # nonzero buffers, so a partial update would show
        params = [(l.weights.copy(), l.biases.copy()) for l in model.layers]
        buffers = [(bw.copy(), bb.copy()) for bw, bb in opt.buffers]
        grads[2][1][0] = np.nan
        with pytest.raises(TrainingDivergedError) as err:
            step(opt, model, grads)
        assert err.value.layer_index == 2
        for layer, (w, b) in zip(model.layers, params):
            assert layer.weights.tobytes() == w.tobytes()
            assert layer.biases.tobytes() == b.tobytes()
        for (bw, bb), (w, b) in zip(opt.buffers, buffers):
            assert bw.tobytes() == w.tobytes()
            assert bb.tobytes() == b.tobytes()

    def test_shape_mismatch_in_last_layer_changes_nothing(self):
        model = reference_model()
        opt = make_optimizer("sgd_momentum", model, 0.1)
        before = [l.weights.copy() for l in model.layers]
        grads = [(np.ones_like(l.weights), np.ones_like(l.biases)) for l in model.layers]
        grads[2] = (grads[2][0][:, :-1], grads[2][1])
        with pytest.raises(ValueError):
            step(opt, model, grads)
        for layer, w in zip(model.layers, before):
            assert layer.weights.tobytes() == w.tobytes()


class TestOptimizerStateValidation:
    def test_direct_construction_is_validated(self):
        model = reference_model()
        good = make_optimizer("sgd_momentum", model, 0.1).buffers
        with pytest.raises(ValueError):
            OptimizerState("adam", 0.1, 0.9, good)
        with pytest.raises(ValueError):
            OptimizerState("rmsprop", 0.0, 0.9, good)
        with pytest.raises(ValueError):
            OptimizerState("rmsprop", 0.1, 1.0, good)
        with pytest.raises(ValueError):
            OptimizerState("rmsprop", 0.1, 0.9, [(good[0][0], good[1][1][:-1])])

    def test_truncated_buffers_rejected_on_load(self, tmp_path):
        model = reference_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, make_optimizer("rmsprop", model, 0.05))
        doc = json.loads(path.read_text())
        doc["optimizer"]["buffers"] = doc["optimizer"]["buffers"][:1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_infinite_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_optimizer("sgd_momentum", reference_model(), np.inf)


class TestInitWidths:
    @pytest.mark.parametrize("hidden", [[0], [8, 0], [-1]])
    def test_hidden_width_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="hidden layer widths"):
            init_mlp(2, hidden, 2, 2, np.random.default_rng(0))
