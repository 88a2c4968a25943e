"""Forward/backward correctness of the hand-rolled MLP and its optimizers."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from mhp.network import (MlpModel, TrainingDivergedError, backward_batch, forward,
                         forward_batch, init_mlp, load_checkpoint, make_optimizer,
                         param_views, save_checkpoint, step)
from mhp.network import OptimizerState
from model_helpers import model_of

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
    for (w, b), act in zip(model.layers, model.activations):
        out = []
        for i in range(w.shape[0]):
            z = float(b[i])
            for j, v in enumerate(a):
                z += float(w[i, j]) * v
            out.append(max(z, 0.0) if act == "relu" else z)
        a = out
    m, d = model.num_hypotheses, model.output_dim
    return [a[k * d:(k + 1) * d] for k in range(m)]


class TestForward:
    def test_zero_model_maps_to_zero(self):
        layers = [(np.zeros((4, 3)), np.zeros(4), "relu"),
                  (np.zeros((6, 4)), np.zeros(6), "identity")]
        model = model_of(layers, output_dim=2, num_hypotheses=3)
        out = forward(model, np.array([1.0, -2.0, 0.5]))
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_identity_layer(self):
        model = model_of([(np.eye(2), np.zeros(2), "identity")], 2, 1)
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
        model = model_of([(w, np.zeros(6), "identity")], 2, 3)
        out = forward(model, np.array([1.0]))
        np.testing.assert_array_equal(out, [[0, 1], [2, 3], [4, 5]])

    def test_shape_and_finite_validation(self):
        model = reference_model()
        with pytest.raises(ValueError):
            forward(model, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            forward(model, np.array([np.nan]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_batch_with_a_non_finite_value_refused(self, value):
        X = np.linspace(0, 1, 40)[:, None]
        X[17, 0] = value
        with pytest.raises(ValueError, match="^non-finite input$"):
            forward_batch(reference_model(), X)
        X[16, 0] = -X[17, 0]  # two of them, of opposite signs for an infinity
        with pytest.raises(ValueError, match="^non-finite input$"):
            forward_batch(reference_model(), X)

    def test_finite_inputs_whose_sum_overflows_pass(self):
        # one identity layer of small weights, so that only a sum of the inputs overflows
        model = model_of([(np.array([[0.5], [0.25]]), np.zeros(2), "identity")], 1, 2)
        hyps = forward_batch(model, np.array([[1e308], [1e308]]))
        assert hyps.tolist() == [[[5e307], [2.5e307]]] * 2

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

    def test_layers_are_views_into_params(self):
        model = reference_model()
        assert all(np.shares_memory(arr, model.params)
                   for layer in model.layers for arr in (layer.weights, layer.biases))
        before = forward(model, np.array([0.25]))
        model.params[-1] += 1.0  # the last bias of the last head
        after = forward(model, np.array([0.25]))
        assert after[-1, -1] == pytest.approx(before[-1, -1] + 1.0, rel=1e-12)
        assert np.array_equal(after.ravel()[:-1], before.ravel()[:-1])

    def test_models_built_from_the_same_vector_are_independent(self):
        ref = reference_model()
        vector = ref.params.copy()
        m1, m2 = (MlpModel(vector, ref.shapes, ref.activations, ref.output_dim,
                           ref.num_hypotheses) for _ in range(2))
        x = np.array([0.25])
        before = forward(m1, x)
        step(make_optimizer("sgd_momentum", m1, 0.1), m1, np.ones_like(m1.params))
        assert not np.array_equal(forward(m1, x), before)
        assert np.array_equal(forward(m2, x), before)
        assert np.array_equal(vector, ref.params)
        assert not any(np.shares_memory(a, b) for a, b in
                       [(m1.params, m2.params), (m1.params, vector), (m2.params, vector)])


class TestModelValidation:
    def test_dimension_chain_enforced(self):
        layers = [(np.zeros((4, 3)), np.zeros(4), "relu"),
                  (np.zeros((2, 5)), np.zeros(2), "identity")]
        with pytest.raises(ValueError):
            model_of(layers, 2, 1)

    def test_final_width_must_match_heads(self):
        with pytest.raises(ValueError):
            model_of([(np.zeros((5, 2)), np.zeros(5), "identity")], 2, 2)

    def test_final_activation_identity(self):
        with pytest.raises(ValueError):
            model_of([(np.zeros((2, 2)), np.zeros(2), "relu")], 2, 1)

    def test_nonfinite_parameters_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(ValueError):
            model_of([(w, np.zeros(2), "identity")], 2, 1)

    @pytest.mark.parametrize("activations", [["identity"] * 2, []])
    def test_one_activation_per_layer(self, activations):
        with pytest.raises(ValueError, match=f"^{len(activations)} activations for 1 layers$"):
            MlpModel(np.zeros(6), [(2, 2)], activations, 2, 1)

    @pytest.mark.parametrize("params", [np.zeros(5), np.zeros(7), np.zeros((6, 1))])
    def test_params_must_be_one_vector_of_the_layout_size(self, params):
        with pytest.raises(ValueError, match=r"values of shape \(.*\) for 6 parameters"):
            MlpModel(params, [(2, 2)], ["identity"], 2, 1)

    @pytest.mark.parametrize("shape", [(2, -1), (-2, -1), (0, 3)])
    def test_negative_or_zero_dimension_refused(self, shape):
        with pytest.raises(ValueError, match="^layer 0: .* negative or zero dimension$"):
            MlpModel(np.zeros(4), [shape], ["identity"], 2, 1)

    def test_layers_are_made_once_from_the_vector(self):
        model = reference_model()
        views = param_views(model.shapes, model.params)
        assert len(model.layers) == len(views)
        for layer, (w, b) in zip(model.layers, views):
            assert layer._fields == ("weights", "biases")
            assert layer.weights.base is model.params and layer.biases.base is model.params
            assert np.array_equal(layer.weights, w) and np.array_equal(layer.biases, b)


def batch_grad(model, X, upstream):
    """:func:`backward_batch` on the activations of ``forward_batch(model, X)``."""
    _, acts = forward_batch(model, X, return_activations=True)
    return backward_batch(model, upstream, acts)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = reference_model()
        assert np.all(batch_grad(model, np.array([[0.3]]), np.zeros((1, 4, 2))) == 0.0)

    def test_single_linear_layer_outer_product(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        model = model_of([(w, np.zeros(2), "identity")], 2, 1)
        x = np.array([0.5, -1.5])
        g = np.array([[2.0, -1.0]])
        (dw, db), = param_views(model.shapes, batch_grad(model, x[None], g[None]))
        np.testing.assert_array_equal(dw, np.outer(g[0], x))
        np.testing.assert_array_equal(db, g[0])

    def test_linearity_in_upstream(self):
        model = reference_model()
        rng = np.random.default_rng(1)
        x = np.array([0.4])
        g = rng.normal(size=(4, 2))
        np.testing.assert_allclose(batch_grad(model, x[None], 3.5 * g[None]),
                                   3.5 * batch_grad(model, x[None], g[None]), atol=1e-12)

    @pytest.mark.parametrize("hidden", [("relu", "relu"), ("identity", "relu"),
                                        ("relu", "identity"), ("identity", "identity")],
                             ids="-".join)
    def test_finite_difference_full_model(self, hidden):
        # 3-layer model, well under 500 parameters; every pattern of hidden activations, so
        # both of backward's branches run at each hidden layer
        rng = np.random.default_rng(9)
        dims = [3, 8, 6, 4]
        model = model_of([(rng.normal(0.0, np.sqrt(2.0 / ind), size=(out, ind)),
                           rng.normal(0.0, 0.1, size=out), act)
                          for ind, out, act in zip(dims, dims[1:], [*hidden, "identity"])], 2, 2)
        assert model.params.size <= 500
        x = rng.normal(size=3)
        upstream = rng.normal(size=(2, 2))
        analytic = batch_grad(model, x[None], upstream[None])
        numeric = np.zeros_like(analytic)
        for i, orig in enumerate(model.params.copy()):
            model.params[i] = orig + 1e-6
            fp = float((upstream * forward(model, x)).sum())
            model.params[i] = orig - 1e-6
            numeric[i] = (fp - float((upstream * forward(model, x)).sum())) / 2e-6
            model.params[i] = orig
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_upstream_shape_validated(self):
        model = reference_model()
        with pytest.raises(ValueError):
            batch_grad(model, np.array([[0.1]]), np.zeros((1, 3, 2)))

    def test_batch_sums_per_sample_grads(self):
        model = reference_model()
        rng = np.random.default_rng(6)
        X = rng.random((5, 1))
        U = rng.normal(size=(5, 4, 2))
        single = sum(batch_grad(model, X[i:i + 1], U[i:i + 1]) for i in range(5))
        np.testing.assert_allclose(batch_grad(model, X, U), single, atol=1e-12)

    @pytest.mark.parametrize("activations", [("relu", "relu", "identity"),
                                             ("identity", "identity", "identity")])
    def test_cached_activations_match_recompute_bitwise(self, activations):
        rng = np.random.default_rng(7)
        dims = [3, 9, 7, 4 * 2]
        model = model_of([(rng.normal(size=(o, i)), rng.normal(size=o), a)
                          for i, o, a in zip(dims, dims[1:], activations)], 2, 4)
        X = rng.normal(size=(11, 3))
        hyps, acts = forward_batch(model, X, return_activations=True)
        assert np.array_equal(hyps, forward_batch(model, X))
        assert len(acts) == len(model.layers) + 1

    def test_activation_count_validated(self):
        model = reference_model()
        X = np.array([[0.1], [0.2]])
        _, acts = forward_batch(model, X, return_activations=True)
        with pytest.raises(ValueError):
            backward_batch(model, np.zeros((2, 4, 2)), acts[:-1])


class TestOptimizers:
    def one_param_model(self, theta=1.0):
        return model_of([(np.array([[theta]]), np.zeros(1), "identity")], 1, 1)

    def test_plain_sgd_step(self):
        model = self.one_param_model(1.0)
        opt = make_optimizer("sgd_momentum", model, 0.1, momentum=0.0)
        step(opt, model, np.array([2.0, 0.0]))
        assert model.layers[0].weights[0, 0] == pytest.approx(0.8, rel=1e-15)

    def test_zero_gradient_is_identity(self):
        for kind in ("sgd_momentum", "rmsprop"):
            model = reference_model()
            before = model.params.copy()
            opt = make_optimizer(kind, model, 0.5, momentum=0.9)
            step(opt, model, np.zeros_like(model.params))
            assert np.array_equal(model.params, before)

    def test_two_momentum_steps(self):
        model = self.one_param_model(0.0)
        opt = make_optimizer("sgd_momentum", model, 0.1, momentum=0.9)
        g = np.array([1.0, 0.0])
        step(opt, model, g)
        step(opt, model, g)
        assert model.layers[0].weights[0, 0] == pytest.approx(-0.29, rel=1e-12)

    def test_rmsprop_update_formula(self):
        model = self.one_param_model(1.0)
        opt = make_optimizer("rmsprop", model, 0.01, momentum=0.9)
        g = 2.0
        step(opt, model, np.array([g, 0.0]))
        s = 0.1 * g * g
        expected = 1.0 - 0.01 * g / math.sqrt(s + 1e-8)
        assert model.layers[0].weights[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_nonfinite_gradient_reports_layer(self):
        model = reference_model()
        grad = np.zeros_like(model.params)
        param_views(model.shapes, grad)[1][0][0, 0] = np.nan
        opt = make_optimizer("sgd_momentum", model, 0.1)
        with pytest.raises(TrainingDivergedError) as err:
            step(opt, model, grad)
        assert err.value.layer_index == 1

    def test_unknown_kind_rejected(self):
        model = self.one_param_model()
        with pytest.raises(ValueError):
            make_optimizer("adam", model, 0.1)


class TestCheckpoint:
    def test_roundtrip_bits(self, tmp_path):
        model = reference_model()
        opt = make_optimizer("rmsprop", model, 0.05, momentum=0.95)
        param_views(model.shapes, opt.buffer)[0][0][...] = 0.125
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, opt)
        loaded, lopt = load_checkpoint(path)
        assert loaded.num_hypotheses == 4 and loaded.output_dim == 2
        assert loaded.seed == 42
        assert loaded.shapes == model.shapes and np.array_equal(loaded.params, model.params)
        assert loaded.activations == model.activations
        assert lopt.kind == "rmsprop" and lopt.learning_rate == 0.05
        assert np.array_equal(lopt.buffer, opt.buffer)

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

    @pytest.mark.parametrize("kind, dims, size", [
        ("sgd_momentum", (64, [50, 50], 64, 10), 38_440),  # the grid M=10 acceptance network
        ("rmsprop", (1, [50, 50], 2, 4), 3_058),
    ])
    def test_save_load_save_writes_the_same_bytes(self, kind, dims, size, tmp_path):
        rng = np.random.default_rng(8)
        model = init_mlp(*dims, rng, seed=8, extras={"scale": 0.5})
        assert model.params.size == size
        opt = make_optimizer(kind, model, 0.05)
        step(opt, model, rng.normal(size=size))  # a nonzero buffer
        save_checkpoint(tmp_path / "first.json", model, opt)
        loaded, loaded_opt = load_checkpoint(tmp_path / "first.json")
        save_checkpoint(tmp_path / "second.json", loaded, loaded_opt)
        assert (tmp_path / "second.json").read_bytes() == (tmp_path / "first.json").read_bytes()

    def test_document_that_does_not_encode_writes_nothing(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, reference_model())
        before = path.read_bytes()
        model = init_mlp(1, [50, 50], 2, 4, np.random.default_rng(42), seed=42,
                         extras={"scale": np.float32(0.5)})
        with pytest.raises(TypeError, match="float32"):
            save_checkpoint(path, model)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
        assert path.read_bytes() == before


class TestStepAtomicity:
    @pytest.mark.parametrize("kind", ["sgd_momentum", "rmsprop"])
    def test_nonfinite_last_layer_changes_nothing(self, kind):
        model = reference_model()
        opt = make_optimizer(kind, model, 0.1)
        rng = np.random.default_rng(3)
        grad = rng.normal(size=model.params.shape)
        step(opt, model, grad)  # nonzero buffers, so a partial update would show
        params, buffer = model.params.tobytes(), opt.buffer.tobytes()
        param_views(model.shapes, grad)[2][1][0] = np.nan
        with pytest.raises(TrainingDivergedError) as err:
            step(opt, model, grad)
        assert err.value.layer_index == 2
        assert model.params.tobytes() == params and opt.buffer.tobytes() == buffer

    def test_shape_mismatch_in_last_layer_changes_nothing(self):
        model = reference_model()
        opt = make_optimizer("sgd_momentum", model, 0.1)
        before = model.params.tobytes()
        with pytest.raises(ValueError):
            step(opt, model, np.ones(model.params.size - 1))
        assert model.params.tobytes() == before


    @pytest.mark.parametrize("kind, lr, g", [("sgd_momentum", 1e308, 10), ("rmsprop", 1e308, 10),
                                             ("rmsprop", 0.1, 1e200)])  # here g*g overflows
    def test_overflowing_update_changes_nothing(self, kind, lr, g):
        model = reference_model()
        opt = make_optimizer(kind, model, lr)
        opt.buffer[...] = 1e-3  # nonzero, so a partial update would show
        grad = np.zeros_like(model.params)
        param_views(model.shapes, grad)[2][0][...] = g
        params, buffer = model.params.tobytes(), opt.buffer.tobytes()
        with pytest.raises(TrainingDivergedError) as err:
            step(opt, model, grad)
        assert err.value.layer_index == 2
        assert model.params.tobytes() == params and opt.buffer.tobytes() == buffer

    def test_optimizer_of_another_model_changes_nothing(self):
        rng = np.random.default_rng(0)
        opt = make_optimizer("sgd_momentum", init_mlp(1, [5], 4, 1, rng), 0.1)
        model = init_mlp(1, [5, 4], 2, 2, rng)
        before = model.params.tobytes()
        with pytest.raises(ValueError):
            step(opt, model, np.ones_like(model.params))
        assert model.params.tobytes() == before


def reference_step(state, model, grad):
    """The update rules of ``step`` as plain expressions on copies: (buffer, params)."""
    lr, mu = state.learning_rate, state.momentum
    if state.kind == "sgd_momentum":
        buffer = mu * state.buffer - lr * grad
        return buffer, model.params + buffer
    buffer = mu * state.buffer + (1.0 - mu) * grad * grad
    return buffer, model.params - lr * grad / np.sqrt(buffer + 1e-8)


class TestOnePassStepCheck:
    @pytest.mark.parametrize("kind", ["sgd_momentum", "rmsprop"])
    def test_steps_are_bitwise_the_update_rules(self, kind):
        model = reference_model()
        opt = make_optimizer(kind, model, 0.05, momentum=0.9)
        rng = np.random.default_rng(5)
        for _ in range(3):
            grad = rng.normal(size=model.params.shape)
            buffer, params = reference_step(opt, model, grad)
            step(opt, model, grad)
            assert opt.buffer.tobytes() == buffer.tobytes()
            assert model.params.tobytes() == params.tobytes()

    @pytest.mark.parametrize("kind", ["sgd_momentum", "rmsprop"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_non_finite_gradient_names_its_layer_and_changes_nothing(self, kind, value, layer):
        model = reference_model()
        opt = make_optimizer(kind, model, 0.1)
        grad = np.random.default_rng(6).normal(size=model.params.shape)
        step(opt, model, grad)  # nonzero buffers, so a partial update would show
        params, buffer = model.params.tobytes(), opt.buffer.tobytes()
        param_views(model.shapes, grad)[layer][0][-1, -1] = value
        with pytest.raises(TrainingDivergedError,
                           match=f"^non-finite gradient in layer {layer}$") as err:
            step(opt, model, grad)
        assert err.value.layer_index == layer
        assert model.params.tobytes() == params and opt.buffer.tobytes() == buffer

    def test_overflowing_rmsprop_update_names_the_update(self):
        model = reference_model()
        opt = make_optimizer("rmsprop", model, 1e308)
        opt.buffer[...] = 1e-3
        grad = np.zeros_like(model.params)
        param_views(model.shapes, grad)[1][1][...] = 10.0
        params, buffer = model.params.tobytes(), opt.buffer.tobytes()
        with pytest.raises(TrainingDivergedError, match="^non-finite update in layer 1$") as err:
            step(opt, model, grad)
        assert err.value.layer_index == 1
        assert model.params.tobytes() == params and opt.buffer.tobytes() == buffer

    @pytest.mark.parametrize("kind", ["sgd_momentum", "rmsprop"])
    def test_finite_values_whose_sum_overflows_still_step(self, kind):
        model = model_of([(np.array([[1e308]]), np.array([1e308]), "identity")], 1, 1)
        opt = make_optimizer(kind, model, 0.5, momentum=0.5)
        grad = np.array([1.0, 2.0])
        buffer, params = reference_step(opt, model, grad)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.concatenate([buffer, params]).sum())
        step(opt, model, grad)
        assert opt.buffer.tobytes() == buffer.tobytes()
        assert model.params.tobytes() == params.tobytes()


class TestOptimizerStateValidation:
    def test_direct_construction_is_validated(self):
        model = reference_model()
        good = make_optimizer("sgd_momentum", model, 0.1).buffer
        with pytest.raises(ValueError):
            OptimizerState("adam", 0.1, 0.9, good)
        with pytest.raises(ValueError):
            OptimizerState("rmsprop", 0.0, 0.9, good)
        with pytest.raises(ValueError):
            OptimizerState("rmsprop", 0.1, 1.0, good)

    def test_truncated_buffers_rejected_on_load(self, tmp_path):
        model = reference_model()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, make_optimizer("rmsprop", model, 0.05))
        doc = json.loads(path.read_text())
        doc["optimizer"]["buffers"] = doc["optimizer"]["buffers"][:1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_buffer_rejected(self, value):
        buffer = make_optimizer("sgd_momentum", reference_model(), 0.1).buffer
        buffer[3] = value
        with pytest.raises(ValueError, match="buffer"):
            OptimizerState("sgd_momentum", 0.1, 0.9, buffer)

    def test_infinite_learning_rate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            make_optimizer("sgd_momentum", reference_model(), np.inf)


class TestInitWidths:
    @pytest.mark.parametrize("hidden", [[0], [8, 0], [-1]])
    def test_hidden_width_below_one_rejected(self, hidden):
        with pytest.raises(ValueError, match="hidden layer widths"):
            init_mlp(2, hidden, 2, 2, np.random.default_rng(0))
