"""The training loop: determinism, divergence handling and basic learning."""

import numpy as np
import pytest

import mhp
import mhp.network
import mhp.training
from mhp.datagen import temporal2d_dataset
from mhp.losses import CROSS_ENTROPY
from mhp.meta_loss import MetaLossConfig
from mhp.network import TrainingDivergedError
from mhp.training import TrainSchedule, train


def temporal_sampler(rng, n):
    return temporal2d_dataset(n, rng)


def fresh_model(m, seed=0, hidden=(16, 16), in_dim=1, out_dim=2):
    rng = np.random.default_rng(seed)
    return mhp.init_mlp(in_dim, hidden, out_dim, m, rng, seed=seed)


def run(m=2, seed=0, epochs=4, lr=0.02, n=1024, base=None, **kw):
    model = fresh_model(m, seed, **kw)
    opt = mhp.make_optimizer("sgd_momentum", model, lr, 0.9)
    cfg = MetaLossConfig(m, 0.05, 0.01, base or mhp.L2)
    sched = TrainSchedule(epochs, 32, seed, samples_per_epoch=n)
    history = train(model, temporal_sampler, cfg, opt, sched)
    return model, history


class TestDeterminism:
    def test_same_seed_same_history_and_params(self):
        m1, h1 = run(seed=5)
        m2, h2 = run(seed=5)
        for a, b in zip(h1, h2):
            assert a.mean_meta_loss == b.mean_meta_loss
            assert a.oracle_min_loss == b.oracle_min_loss
        assert np.array_equal(m1.params, m2.params)

    def test_different_seed_differs(self):
        _, h1 = run(seed=1)
        _, h2 = run(seed=2)
        assert h1[-1].mean_meta_loss != h2[-1].mean_meta_loss


class TestDivergence:
    def test_huge_lr_aborts_with_location(self):
        model = fresh_model(2)
        opt = mhp.make_optimizer("sgd_momentum", model, 1e12, 0.9)
        cfg = MetaLossConfig(2, 0.05, 0.0)
        sched = TrainSchedule(5, 32, 0, samples_per_epoch=512)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, temporal_sampler, cfg, opt, sched)
        assert err.value.epoch is not None
        assert err.value.batch_index is not None

    def test_overflow_in_forward_and_backward_is_divergence(self):
        # at this rate the second step's forward and backward passes overflow, which under
        # the suite's warnings-as-errors would escape as a RuntimeWarning
        model = fresh_model(4, hidden=(50, 50))
        opt = mhp.make_optimizer("sgd_momentum", model, 1e50, 0.9)
        with pytest.raises(TrainingDivergedError) as err:
            train(model, temporal_sampler, MetaLossConfig(4), opt,
                  TrainSchedule(2, 32, 0, samples_per_epoch=256))
        assert err.value.epoch is not None
        assert err.value.batch_index is not None

    def test_model_config_mismatch(self):
        model = fresh_model(2)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.01)
        with pytest.raises(ValueError):
            train(model, temporal_sampler, MetaLossConfig(3), opt,
                  TrainSchedule(1, 32, 0))

    def test_empty_dataset_rejected(self):
        model = fresh_model(2)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.01)
        with pytest.raises(ValueError):
            train(model, (np.zeros((0, 1)), np.zeros((0, 2))),
                  MetaLossConfig(2), opt, TrainSchedule(1, 32, 0))


def spoiled_sampler(epoch, row):
    """temporal2d epochs, the one numbered ``epoch`` with an infinite target in ``row``,
    or empty if ``row`` is None."""
    drawn = []

    def sample(rng, n):
        X, Y = temporal2d_dataset(n, rng)
        if len(drawn) == epoch:
            if row is None:
                X, Y = X[:0], Y[:0]
            else:
                Y[row] = np.inf
        drawn.append(n)
        return X, Y
    return sample


class TestAllOrNothing:
    """A train call that raises leaves the parameters and the optimizer buffer as they were."""

    @pytest.mark.parametrize("spoiled, lr, error, steps_taken", [
        ((0, 0), 0.02, TrainingDivergedError, False),
        ((2, 300), 0.02, TrainingDivergedError, True),
        (None, None, TrainingDivergedError, True),
        ((1, None), 0.02, ValueError, True),
    ], ids=["first_step", "mid_run", "learning_rate", "empty_epoch"])
    @pytest.mark.parametrize("kind", ["sgd_momentum", "rmsprop"])
    def test_failed_call_changes_nothing(self, spoiled, lr, error, steps_taken, kind):
        data = spoiled_sampler(*spoiled) if spoiled else temporal_sampler
        # learning rates that diverge only after some steps
        lr = lr or {"sgd_momentum": 1e5, "rmsprop": 1e50}[kind]
        model = fresh_model(4)
        cfg = MetaLossConfig(4, 0.05, 0.01)
        # a first run that finishes, so the buffer going in is not all zeros
        warm = mhp.make_optimizer(kind, model, 0.001, 0.9)
        train(model, temporal_sampler, cfg, warm, TrainSchedule(1, 32, 0, samples_per_epoch=256))
        opt = mhp.network.OptimizerState(kind, lr, 0.9, warm.buffer)
        params, buffer = model.params.copy(), opt.buffer.copy()
        assert buffer.any()
        with pytest.raises(error) as err:
            train(model, data, cfg, opt, TrainSchedule(4, 32, 1, samples_per_epoch=512))
        if error is TrainingDivergedError:
            assert (err.value.epoch > 0 or err.value.batch_index > 0) == steps_taken
        assert model.params.tobytes() == params.tobytes()
        assert opt.buffer.tobytes() == buffer.tobytes()
        assert all(np.shares_memory(l.weights, model.params) for l in model.layers)


class TestLearning:
    def test_loss_decreases_and_stabilizes(self):
        # non-increasing after epoch 5 up to 5% noise, recorded for this seed
        _, history = run(m=4, seed=0, epochs=15, n=2048)
        losses = [h.mean_meta_loss for h in history]
        assert losses[-1] < losses[0]
        for prev, cur in zip(losses[5:], losses[6:]):
            assert cur <= prev * 1.05

    def test_fixed_dataset_path(self):
        rng = np.random.default_rng(3)
        X, Y = temporal2d_dataset(512, rng)
        model = fresh_model(2)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.02, 0.9)
        history = train(model, (X, Y), MetaLossConfig(2, 0.05, 0.01), opt,
                        TrainSchedule(3, 32, 0))
        assert len(history) == 3
        assert history[-1].mean_meta_loss < history[0].mean_meta_loss

    def test_classification_path(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(256, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        model = fresh_model(1, in_dim=2, out_dim=2)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.1, 0.9)
        cfg = MetaLossConfig(1, base_loss=CROSS_ENTROPY, dropout_prob=0.0)
        history = train(model, (X, y), cfg, opt, TrainSchedule(10, 32, 0))
        assert history[-1].mean_meta_loss < 0.3

    def test_rmsprop_trains(self):
        model = fresh_model(2)
        opt = mhp.make_optimizer("rmsprop", model, 0.001, 0.9)
        history = train(model, temporal_sampler, MetaLossConfig(2, 0.05, 0.01),
                        opt, TrainSchedule(4, 32, 0, samples_per_epoch=1024))
        assert history[-1].mean_meta_loss < history[0].mean_meta_loss

    def test_oracle_min_not_above_meta_loss(self):
        _, history = run(m=4, epochs=3)
        for h in history:
            assert h.oracle_min_loss <= h.mean_meta_loss + 1e-12


class TestSinglePass:
    def test_one_layer_loop_per_step(self, monkeypatch):
        calls = []
        forward_batch = mhp.training.forward_batch

        def counted(model, X, **kw):
            calls.append(len(X))
            return forward_batch(model, X, **kw)

        monkeypatch.setattr(mhp.training, "forward_batch", counted)
        model = fresh_model(2)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.02, 0.9)
        cfg = MetaLossConfig(2, 0.05, 0.01, mhp.L2)
        train(model, temporal_sampler, cfg, opt, TrainSchedule(1, 32, 0, samples_per_epoch=32))
        assert calls == [32]


class TestEpochData:
    """A fixed pair or a sampler's draw is converted first, then both must have a sample
    axis and their lengths must agree."""

    def test_fixed_lists_train_like_arrays(self):
        X, Y = temporal2d_dataset(256, np.random.default_rng(6))
        trained = []
        for data in ((X, Y), (X.tolist(), Y.tolist())):
            model = fresh_model(2)
            opt = mhp.make_optimizer("sgd_momentum", model, 0.02, 0.9)
            history = train(model, data, MetaLossConfig(2, 0.05, 0.01), opt,
                            TrainSchedule(2, 32, 0))
            trained.append((model.params.tobytes(), [h.mean_meta_loss for h in history]))
        assert trained[0] == trained[1]

    @pytest.mark.parametrize("targets", [255, 257], ids=["fewer_targets", "more_targets"])
    @pytest.mark.parametrize("source", ["fixed", "sampler"])
    def test_mismatched_lengths_refused_before_any_step(self, monkeypatch, source, targets):
        X, Y = temporal2d_dataset(257, np.random.default_rng(7))
        X, Y = X[:256], Y[:targets]
        data = (X, Y) if source == "fixed" else (lambda rng, n: (X, Y))
        steps = []
        monkeypatch.setattr(mhp.training, "step", lambda *args: steps.append(args))
        model = fresh_model(2)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.02, 0.9)
        with pytest.raises(ValueError, match=f"256 inputs but {targets} targets"):
            train(model, data, MetaLossConfig(2), opt, TrainSchedule(1, 32, 0))
        assert steps == []

    @pytest.mark.parametrize("data", [
        (np.zeros((4, 1)), 3.0),
        (3.0, np.zeros((4, 2))),
        lambda rng, n: (np.zeros((n, 1)), 3.0),
    ], ids=["scalar_target", "scalar_input", "sampler_scalar_target"])
    def test_scalar_refused_before_any_step(self, monkeypatch, data):
        steps = []
        monkeypatch.setattr(mhp.training, "step", lambda *args: steps.append(args))
        model = fresh_model(2)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.02, 0.9)
        params, buffer = model.params.copy(), opt.buffer.copy()
        with pytest.raises(ValueError, match=r"of shape \(.*\) and targets of shape \(.*\)"):
            train(model, data, MetaLossConfig(2), opt, TrainSchedule(1, 32, 0))
        assert steps == []
        assert model.params.tobytes() == params.tobytes()
        assert opt.buffer.tobytes() == buffer.tobytes()
