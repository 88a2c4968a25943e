"""The training loop: determinism, divergence handling and basic learning."""

import hashlib

import numpy as np
import pytest

import mhp
import mhp.network
import mhp.training
from mhp.datagen import temporal2d_dataset
from mhp.losses import CROSS_ENTROPY, LossKind
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


def pinned_run(base, optimizer, m, dropout_prob):
    """SHA-256 of the params, the optimizer buffer and the (epoch, meta-loss, oracle-min)
    records of a 3-epoch run on a fixed 250-sample pair, 32 rows a batch."""
    rng = np.random.default_rng(21)
    X = rng.normal(size=(250, 2))
    if base.name == "cross_entropy":
        Y, out = rng.integers(0, 4, size=250), 4
    else:
        Y, out = rng.normal(scale=3.0, size=(250, 2)), 2
    model = mhp.init_mlp(2, (16, 16), out, m, np.random.default_rng(5), seed=5)
    opt = mhp.make_optimizer(optimizer, model, 0.01, 0.9)
    history = train(model, (X, Y), MetaLossConfig(m, 0.05, dropout_prob, base), opt,
                    TrainSchedule(3, 32, 7))
    metrics = np.array([(h.epoch, h.mean_meta_loss, h.oracle_min_loss) for h in history])
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in (model.params, opt.buffer, metrics)]


class TestPinnedBytes:
    """Digests taken before the dropout draw and the target reshape moved out of the step."""

    @pytest.mark.parametrize("base, optimizer, m, dropout_prob, digests", [
        (mhp.L2, "sgd_momentum", 3, 0.3, [
            "e38c108c0ea27c82df5e8521350bb05efb71005554d1996528ff923eb0efe322",
            "1acf36e5dddf0a2f5b8fa4afdaa60662e60e7bec0bf51653f209e2cbf8b29161",
            "8c1e70eccfa59411bd494acdebdf78e645168511e763964ff94821358bd8f569"]),
        (CROSS_ENTROPY, "rmsprop", 3, 0.3, [
            "0c7aa086d9e09e2539269bad2ed528f7fe6209b02f670a76a07c68be259fdeb2",
            "04ac6b4a27af9d5dc1d3ff36d6ed456f93ae2444af168d1881fcb5ec4aeed813",
            "ba7bb34e10927761fc449cfb899e442f175c29205fdc2839276b4a240726e9ea"]),
        (LossKind("tukey"), "sgd_momentum", 2, 0.0, [
            "46fe527cb0b762f36eb9535a17d28ffcf9c791bcf6f54dfcc2552560e87d920d",
            "c4249f1207d5d3ac3afaf3fe37175c490d06d559b25241706c176490c0451dd7",
            "b10114d931835c9fb9fe9ebf2b66bf7c2db3ab6692e26e25d3617431b6ff11d7"]),
        (mhp.L2, "sgd_momentum", 2, 0.6, [
            "f7b5b4873e9778820201aa6677193449c1a82f3bc072867fe31c6269ff66d865",
            "279b44047581f69184d88ee51ade9e03f0f7c3bfb661013aa8532a4bfc73a94f",
            "0fa320087833db0c843e0f757a6dc3880096a1b4b5e46bade5beecc3739b3647"]),
    ], ids=["l2_sgd_m3", "cross_entropy_rmsprop_m3", "tukey_m2_no_dropout", "l2_m2_rows_drop"])
    def test_params_buffer_and_metrics(self, base, optimizer, m, dropout_prob, digests):
        assert pinned_run(base, optimizer, m, dropout_prob) == digests


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

    @pytest.mark.parametrize("batch", [0, 5])
    @pytest.mark.parametrize("head", ["winner", "dropped"])
    def test_non_finite_loss_names_its_batch_and_changes_nothing(self, monkeypatch, batch, head):
        """A NaN loss on the winner, or an infinite one on a dropped head (weight 0, so its
        term is NaN), stops the run at that batch."""
        assigned, assign_batch = [], mhp.training.assign_batch

        def spoiled(config, hyps, targets, dropout):
            weights, losses, best, masks = assign_batch(config, hyps, targets, dropout)
            if len(assigned) == batch:
                if head == "winner":
                    losses[3, best[3]] = np.nan
                else:
                    row, col = np.argwhere(masks)[0]
                    assert weights[row, col] == 0.0
                    losses[row, col] = np.inf
            assigned.append(len(losses))
            return weights, losses, best, masks
        model = fresh_model(4)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.02, 0.9)
        train(model, temporal_sampler, MetaLossConfig(4), opt,
              TrainSchedule(1, 32, 0, samples_per_epoch=256))
        params, buffer = model.params.copy(), opt.buffer.copy()
        monkeypatch.setattr(mhp.training, "assign_batch", spoiled)
        with pytest.raises(TrainingDivergedError,
                           match=f"^non-finite loss at epoch 0, batch {batch}$") as err:
            train(model, temporal_sampler, MetaLossConfig(4, 0.05, 0.5), opt,
                  TrainSchedule(2, 32, 1, samples_per_epoch=256))
        assert (err.value.epoch, err.value.batch_index) == (0, batch)
        assert len(assigned) == batch + 1
        assert model.params.tobytes() == params.tobytes()
        assert opt.buffer.tobytes() == buffer.tobytes()

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

    def test_each_stage_once_per_batch(self, monkeypatch):
        """The five stages are called through ``training``'s namespace once per batch, and
        the targets are shaped and the dropout drawn once per epoch."""
        calls = []
        for name in ("forward_batch", "assign_batch", "loss_grads", "backward_batch", "step",
                     "hypothesis_targets", "draw_dropout"):
            def counted(*args, _name=name, _original=getattr(mhp.training, name), **kw):
                calls.append(_name)
                return _original(*args, **kw)
            monkeypatch.setattr(mhp.training, name, counted)
        X, Y = temporal2d_dataset(250, np.random.default_rng(8))
        model = fresh_model(3)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.02, 0.9)
        train(model, (X, Y), MetaLossConfig(3, 0.05, 0.3), opt, TrainSchedule(3, 32, 0))
        epoch = ["hypothesis_targets", "draw_dropout"] + 8 * [
            "forward_batch", "assign_batch", "loss_grads", "backward_batch", "step"]
        assert calls == 3 * epoch


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

    @pytest.mark.parametrize("targets", [np.zeros((256, 3)), np.zeros(256)],
                             ids=["too_wide", "flat"])
    def test_misshaped_targets_refused_before_any_forward(self, monkeypatch, targets):
        forwards = []
        monkeypatch.setattr(mhp.training, "forward_batch",
                            lambda *args, **kw: forwards.append(args))
        model = fresh_model(2)
        opt = mhp.make_optimizer("sgd_momentum", model, 0.02, 0.9)
        with pytest.raises(ValueError, match=r"l2 targets must have shape \(256, 2\)"):
            train(model, (np.zeros((256, 1)), targets), MetaLossConfig(2), opt,
                  TrainSchedule(1, 32, 0))
        assert forwards == []

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
