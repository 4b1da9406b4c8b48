import copy
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import make_batches, predict_unfused, train_unfused
from taskopt.errors import DataFormatError, TrainingDivergedError
from taskopt.nn import (
    FcnnConfig,
    FcnnModel,
    _Backprop,
    _batch_bounds,
    _views,
    loss_and_gradients,
    mse,
    train,
)


def finite_difference_gradients(model, x, y, masks, h=1e-5):
    """Central-difference gradient of the batch MSE for every parameter."""
    grads = {}
    for key, value in model.params.items():
        grad = np.zeros_like(value)
        flat = value.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus, _ = loss_and_gradients(model, x, y, masks=masks)
            flat[i] = original - h
            minus, _ = loss_and_gradients(model, x, y, masks=masks)
            flat[i] = original
            grad.ravel()[i] = (plus - minus) / (2.0 * h)
        grads[key] = grad
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for key in analytic:
        a = analytic[key].ravel()
        f = numeric[key].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


class ReferenceAdam:
    """The per-parameter Adam loop (Kingma & Ba 2015) that train() once ran
    over the named parameter dict; train() must match it bit for bit."""

    def __init__(self, params, config):
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        cfg = self.config
        self.t += 1
        bias1 = 1.0 - cfg.beta1**self.t
        bias2 = 1.0 - cfg.beta2**self.t
        for k, g in grads.items():
            m = self.m[k]
            v = self.v[k]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g**2
            p = params[k]
            p -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2)
                                                    + cfg.adam_eps)


def reference_epochs(config, x, y):
    """train()'s batches and masks stepped by ReferenceAdam; ``flat`` per epoch."""
    model = FcnnModel(config)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0
    model.input_mean = x.mean(axis=0)
    model.input_std = std
    rng = np.random.default_rng([config.seed, 1])
    optimizer = ReferenceAdam(model.params, config)
    flats = []
    for _ in range(config.max_epochs):
        for batch in make_batches(rng.permutation(len(x)), config.batch_size):
            masks = model.draw_dropout_masks(batch.size, rng)
            _, grads = loss_and_gradients(model, x[batch], y[batch], masks=masks)
            optimizer.step(model.params, grads)
        flats.append(model.flat.copy())
    return flats


class TestForward:
    def test_eval_deterministic(self):
        model = FcnnModel(FcnnConfig(input_dim=4, hidden=(6, 5), seed=3))
        x = np.random.default_rng(0).normal(size=(7, 4))
        a = model.predict(x)
        b = model.predict(x)
        assert np.array_equal(a, b)

    def test_reduces_to_plain_mlp_at_identity_batchnorm(self):
        # dropout 0, gamma=1, beta=0, running stats (0,1), zero biases:
        # zero input must map to exactly zero output.
        config = FcnnConfig(input_dim=3, hidden=(4, 4), dropout_rate=0.0,
                            bn_eps=0.0, seed=1)
        model = FcnnModel(config)
        for i in range(2):
            model.params[f"h{i}.b"][:] = 0.0
        model.params["out.b"][:] = 0.0
        out = model.predict(np.zeros((2, 3)))
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_train_mode_batch_statistics(self):
        # Post-batch-norm activations must have batch mean beta and
        # biased variance gamma^2 (exactly, up to the eps term).
        config = FcnnConfig(input_dim=5, hidden=(8,), dropout_rate=0.0,
                            bn_eps=1e-12, seed=2)
        model = FcnnModel(config)
        rng = np.random.default_rng(5)
        model.params["h0.gamma"][:] = rng.uniform(0.5, 2.0, size=8)
        model.params["h0.beta"][:] = rng.normal(size=8)
        x = rng.normal(size=(64, 5))
        _, cache = _Backprop(model).forward(model._normalize(x), None)
        zhat = cache[0][1]
        bn_out = model.params["h0.gamma"] * zhat + model.params["h0.beta"]
        assert np.allclose(bn_out.mean(axis=0), model.params["h0.beta"],
                           atol=1e-6)
        assert np.allclose(bn_out.var(axis=0), model.params["h0.gamma"] ** 2,
                           atol=1e-6)

    def test_batch_variance_from_centred_values_is_exact(self):
        # The forward pass computes the variance from the already-centred
        # z - mu; it must equal numpy's z.var(axis=0) bit for bit.
        model = FcnnModel(FcnnConfig(input_dim=6, hidden=(9, 7), dropout_rate=0.0,
                                     seed=4))
        rng = np.random.default_rng(6)
        for rows in (2, 3, 64, 65):
            x = rng.normal(rng.normal(), rng.uniform(0.1, 50.0), size=(rows, 6))
            backprop = _Backprop(model)
            _, cache = backprop.forward(model._normalize(x), None)
            stats = _views(backprop.stats, model._state_shapes)
            for i, (a_in, *_) in enumerate(cache):
                z = a_in @ model.params[f"h{i}.W"] + model.params[f"h{i}.b"]
                assert stats[f"h{i}.running_mean"].tobytes() == \
                    z.mean(axis=0).tobytes()
                assert stats[f"h{i}.running_var"].tobytes() == \
                    z.var(axis=0).tobytes()

    def test_train_mode_needs_two_rows(self):
        model = FcnnModel(FcnnConfig(input_dim=2, hidden=(3,), seed=0))
        masks = model.draw_dropout_masks(1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least 2"):
            loss_and_gradients(model, np.zeros((1, 2)), np.zeros(1), masks=masks)

    def test_train_mode_with_dropout_needs_masks(self):
        model = FcnnModel(FcnnConfig(input_dim=2, hidden=(3,), seed=0))
        with pytest.raises(ValueError, match="masks"):
            loss_and_gradients(model, np.zeros((4, 2)), np.zeros(4))

    def test_empty_batch_rejected(self):
        model = FcnnModel(FcnnConfig(input_dim=2, hidden=(3,), seed=0))
        with pytest.raises(ValueError, match="empty"):
            model.predict(np.zeros((0, 2)))

    @pytest.mark.parametrize("shape", [(3, 3), (2,)])
    def test_wrong_input_shape_rejected(self, shape):
        model = FcnnModel(FcnnConfig(input_dim=2, hidden=(3,), seed=0))
        with pytest.raises(ValueError, match="shape"):
            model.predict(np.zeros(shape))

    def test_eval_consumes_no_rng_and_mutates_nothing(self):
        model = FcnnModel(FcnnConfig(input_dim=3, hidden=(4,), seed=1))
        global_before = copy.deepcopy(np.random.get_state())
        flat_before = model.flat.copy()
        state_before = model.state.copy()
        model.predict(np.ones((3, 3)))
        after = np.random.get_state()
        assert all(np.array_equal(a, b) for a, b in zip(after, global_before))
        assert np.array_equal(model.flat, flat_before)
        assert np.array_equal(model.state, state_before)

    def test_non_finite_activation_detected(self):
        model = FcnnModel(FcnnConfig(input_dim=2, hidden=(3,), seed=0))
        model.params["out.W"][:] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(TrainingDivergedError, match="non-finite"):
            model.predict(np.ones((2, 2)))


class TestGradients:
    def test_finite_difference_small_net_with_dropout(self):
        config = FcnnConfig(input_dim=3, hidden=(4,), dropout_rate=0.2, seed=11)
        model = FcnnModel(config)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        masks = model.draw_dropout_masks(5, rng)  # fixed for checkability
        _, analytic = loss_and_gradients(model, x, y, masks=masks)
        numeric = finite_difference_gradients(model, x, y, masks)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_finite_difference_two_hidden_layers(self):
        config = FcnnConfig(input_dim=4, hidden=(5, 3), dropout_rate=0.0,
                            seed=13)
        model = FcnnModel(config)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=6)
        _, analytic = loss_and_gradients(model, x, y)
        numeric = finite_difference_gradients(model, x, y, None)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_output_layer_bias_gradient(self):
        # With a zeroed output layer the prediction is 0, so the output
        # bias gradient is 2 * mean(pred - target) = -2 * mean(target).
        config = FcnnConfig(input_dim=3, hidden=(4,), dropout_rate=0.0, seed=5)
        model = FcnnModel(config)
        model.params["out.W"][:] = 0.0
        model.params["out.b"][:] = 0.0
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=8)
        _, grads = loss_and_gradients(model, x, y)
        assert grads["out.b"][0] == pytest.approx(-2.0 * y.mean(), rel=1e-12)

    def test_duplicated_rows_leave_gradients_unchanged(self):
        config = FcnnConfig(input_dim=3, hidden=(4,), dropout_rate=0.0, seed=5)
        model = FcnnModel(config)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=6)
        _, single = loss_and_gradients(model, x, y)
        _, doubled = loss_and_gradients(model, np.vstack([x, x]),
                                        np.concatenate([y, y]))
        for key in single:
            assert np.allclose(single[key], doubled[key], atol=1e-12)


class TestTraining:
    def test_linear_neuron_learns_slope_two(self):
        # Noiseless y = 2x has least-squares optimum w = 2, b = 0.
        config = FcnnConfig(input_dim=1, hidden=(), output_dim=1,
                            dropout_rate=0.0, learning_rate=0.05,
                            batch_size=32, max_epochs=300, patience=300,
                            seed=0, normalize_inputs=False)
        model = FcnnModel(config)
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(256, 1))
        y = 2.0 * x[:, 0]
        model, _ = train(model, (x[:200], y[:200]), (x[200:], y[200:]), config)
        assert model.params["out.W"][0, 0] == pytest.approx(2.0, abs=1e-2)
        assert model.params["out.b"][0] == pytest.approx(0.0, abs=1e-2)

    def test_zero_gradients_leave_parameters_unchanged(self):
        config = FcnnConfig(input_dim=2, hidden=(3,), dropout_rate=0.2,
                            max_epochs=3, patience=3, seed=4)
        model = FcnnModel(config)
        model.params["out.W"][:] = 0.0
        model.params["out.b"][:] = 0.0
        before = {k: v.copy() for k, v in model.params.items()}
        x = np.zeros((8, 2))
        y = np.zeros(8)
        model, _ = train(model, (x, y), (x[:2], y[:2]), config)
        for key, value in model.params.items():
            assert np.array_equal(value, before[key]), key

    def test_early_stopping_restores_best_epoch(self):
        # Training targets pull the weights away from their initial
        # values while the validation targets are the initial model's
        # exact predictions, so validation loss rises every epoch.
        config = FcnnConfig(input_dim=1, hidden=(), dropout_rate=0.0,
                            learning_rate=0.05, batch_size=8, max_epochs=50,
                            patience=1, seed=21, normalize_inputs=False)
        probe = FcnnModel(config)
        w0 = float(probe.params["out.W"][0, 0])
        b0 = float(probe.params["out.b"][0])
        x_train = np.linspace(-1, 1, 16).reshape(-1, 1)
        y_train = -10.0 * x_train[:, 0]
        x_val = np.array([[-1.0], [1.0]])
        y_val = np.array([-w0 + b0, w0 + b0])

        model, history = train(FcnnModel(config), (x_train, y_train),
                               (x_val, y_val), config)
        assert history.stopped_early
        assert len(history.records) == 2  # stopped at epoch 2
        assert history.best_epoch == 1

        one_epoch = dataclasses_replace(config, max_epochs=1, patience=1)
        reference, _ = train(FcnnModel(one_epoch), (x_train, y_train),
                             (x_val, y_val), one_epoch)
        assert model.params["out.W"][0, 0] == reference.params["out.W"][0, 0]
        assert model.params["out.b"][0] == reference.params["out.b"][0]

    def test_best_validation_is_minimum_of_history(self):
        config = FcnnConfig(input_dim=2, hidden=(6,), dropout_rate=0.1,
                            max_epochs=15, patience=15, batch_size=16, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=80)
        model, history = train(FcnnModel(config), (x[:60], y[:60]),
                               (x[60:], y[60:]), config)
        vals = [r.val_mse for r in history.records]
        assert history.best_val_mse == pytest.approx(min(vals))
        restored_val = mse(model.predict(x[60:]), y[60:])
        assert restored_val == pytest.approx(history.best_val_mse, rel=1e-12)

    def test_restores_parameters_and_running_statistics_of_best_epoch(self):
        config = FcnnConfig(input_dim=2, hidden=(6,), dropout_rate=0.1,
                            learning_rate=0.03, max_epochs=15, patience=15,
                            batch_size=16, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=80)
        data = ((x[:60], y[:60]), (x[60:], y[60:]))
        model, history = train(FcnnModel(config), *data, config)
        assert 1 < history.best_epoch < len(history.records)
        short = dataclasses_replace(config, max_epochs=history.best_epoch,
                                    patience=history.best_epoch)
        reference, _ = train(FcnnModel(short), *data, short)
        assert model.flat.tobytes() == reference.flat.tobytes()
        assert model.state.tobytes() == reference.state.tobytes()

    def test_training_bit_reproducible(self):
        config = FcnnConfig(input_dim=3, hidden=(5,), dropout_rate=0.2,
                            max_epochs=5, patience=5, batch_size=16, seed=7)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        m1, h1 = train(FcnnModel(config), (x[:40], y[:40]), (x[40:], y[40:]),
                       config)
        m2, h2 = train(FcnnModel(config), (x[:40], y[:40]), (x[40:], y[40:]),
                       config)
        for key in m1.params:
            assert m1.params[key].tobytes() == m2.params[key].tobytes()
        assert [(r.train_mse, r.val_mse) for r in h1.records] == \
            [(r.train_mse, r.val_mse) for r in h2.records]

    def test_flat_adam_matches_per_parameter_reference(self):
        config = FcnnConfig(input_dim=3, hidden=(6, 5), dropout_rate=0.2,
                            learning_rate=0.01, max_epochs=4, patience=4,
                            batch_size=16, seed=8)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(70, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        model, history = train(FcnnModel(config), (x[:56], y[:56]),
                               (x[56:], y[56:]), config)
        flats = reference_epochs(config, x[:56], y[:56])
        assert history.best_epoch == 4
        assert model.flat.tobytes() == flats[history.best_epoch - 1].tobytes()

    def test_divergence_raises(self):
        config = FcnnConfig(input_dim=2, hidden=(3,), dropout_rate=0.0,
                            max_epochs=2, patience=2, seed=0)
        model = FcnnModel(config)
        model.params["h0.W"][:] = np.inf
        x = np.ones((8, 2))
        y = np.zeros(8)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError):
            train(model, (x, y), (x[:2], y[:2]), config)

    def test_input_normalization_fitted_on_train(self):
        config = FcnnConfig(input_dim=2, hidden=(3,), dropout_rate=0.0,
                            max_epochs=1, patience=1, seed=0)
        rng = np.random.default_rng(4)
        x = rng.normal(5.0, 3.0, size=(32, 2))
        y = rng.normal(size=32)
        model, _ = train(FcnnModel(config), (x, y), (x[:4], y[:4]), config)
        assert np.allclose(model.input_mean, x.mean(axis=0))
        assert np.allclose(model.input_std, x.std(axis=0))


class TestBatches:
    def test_trailing_singleton_merged(self):
        assert _batch_bounds(65, 64) == [(0, 65)]
        assert _batch_bounds(129, 64) == [(0, 64), (64, 129)]

    def test_exact_multiple(self):
        assert _batch_bounds(128, 64) == [(0, 64), (64, 128)]

    def test_small_remainder_kept(self):
        assert _batch_bounds(70, 64) == [(0, 64), (64, 70)]
        assert _batch_bounds(10, 64) == [(0, 10)]


def _train_both(n, dropout, normalize, hidden, max_epochs, patience, seed,
                fortran=False):
    """``train`` and the unfused oracle on the same noisy data; both results."""
    rng = np.random.default_rng(seed)
    x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 4), size=(n + 12, 4))
    x = np.asfortranarray(x) if fortran else x
    y = np.sin(x[:, 0]) + 0.5 * rng.normal(size=n + 12)
    config = FcnnConfig(input_dim=4, hidden=hidden, dropout_rate=dropout,
                        learning_rate=0.03, max_epochs=max_epochs,
                        patience=patience, seed=seed, normalize_inputs=normalize)
    data = ((x[:n], y[:n]), (x[n:], y[n:]))
    return train(FcnnModel(config), *data, config), \
        train_unfused(FcnnModel(config), *data, config), x


class TestMatchesUnfusedOracle:
    """``train`` and ``predict`` against the unfused step they replace, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.one_of(st.integers(2, 63), st.integers(1, 3).map(lambda k: 64 * k + 1),
                       st.integers(64, 200)),
           dropout=st.sampled_from([0.0, 0.2]), normalize=st.booleans(),
           hidden=st.sampled_from([(6,), (7, 5, 4)]),
           max_epochs=st.integers(1, 12), patience=st.integers(1, 3),
           seed=st.integers(0, 2**16), fortran=st.booleans())
    @example(n=65, dropout=0.2, normalize=True, hidden=(7, 5, 4), max_epochs=12,
             patience=2, seed=1, fortran=False)
    def test_train_and_predict_bit_equal(self, n, dropout, normalize, hidden,
                                         max_epochs, patience, seed, fortran):
        patience = min(patience, max_epochs)
        ((model, history), (oracle, expected), x) = _train_both(
            n, dropout, normalize, hidden, max_epochs, patience, seed, fortran)
        assert model.flat.tobytes() == oracle.flat.tobytes()
        assert model.state.tobytes() == oracle.state.tobytes()
        assert model.input_mean.tobytes() == oracle.input_mean.tobytes()
        assert model.input_std.tobytes() == oracle.input_std.tobytes()
        assert history == expected  # every EpochRecord, best_epoch, stopped_early
        assert model.predict(x).tobytes() == predict_unfused(oracle, x).tobytes()

    def test_pinned_example_restores_a_non_final_epoch(self):
        # The @example above covers early stopping that rolls back epochs.
        _, (_, history), _ = _train_both(65, 0.2, True, (7, 5, 4), 12, 2, 1)
        assert history.stopped_early
        assert history.best_epoch < len(history.records)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = FcnnConfig(input_dim=3, hidden=(4, 4), seed=9)
        model = FcnnModel(config)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=32)
        model, _ = train(model, (x[:24], y[:24]), (x[24:], y[24:]),
                         dataclasses_replace(config, max_epochs=3, patience=3))
        # The checkpoint as ``taskopt train`` writes it.
        (tmp_path / "model.json").write_text(
            json.dumps(model.to_dict(), sort_keys=True) + "\n", encoding="utf-8")
        back = FcnnModel.load(tmp_path / "model.json")
        assert np.array_equal(back.predict(x), model.predict(x))
        for key in model.params:
            assert back.params[key].tobytes() == model.params[key].tobytes()


    def test_pickle_and_deepcopy_keep_views(self):
        config = FcnnConfig(input_dim=3, hidden=(4, 4), seed=9)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=32)
        model, _ = train(FcnnModel(config), (x[:24], y[:24]), (x[24:], y[24:]),
                         dataclasses_replace(config, max_epochs=2, patience=2))
        for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert np.shares_memory(twin.params["out.W"], twin.flat)
            assert np.shares_memory(twin.buffers["h1.running_var"], twin.state)
            assert not np.shares_memory(twin.flat, model.flat)
            assert twin.predict(x).tobytes() == model.predict(x).tobytes()

    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw["params"].pop("out.b"),
        lambda raw: raw["params"].update({"out.b": [0.1, 0.2]}),
        lambda raw: raw["params"].update({"h0.W": np.zeros((4, 3)).tolist()}),
        lambda raw: raw["params"].update({"extra.W": [1.0]}),
        lambda raw: raw["buffers"].pop("h1.running_mean"),
        lambda raw: raw["params"].update({"h0.b": ["a", "b", "c", "d"]}),
        lambda raw: raw.update({"input_mean": [0.0, 0.0]}),
        lambda raw: raw.pop("input_std"),
        lambda raw: raw["config"].update({"hidden": [4, 0]}),
    ], ids=["missing", "broadcastable", "transposed", "extra", "missing-buffer",
            "non-numeric", "input-mean-length", "no-input-std", "bad-config"])
    def test_malformed_checkpoint_rejected(self, corrupt):
        raw = FcnnModel(FcnnConfig(input_dim=3, hidden=(4, 4), seed=9)).to_dict()
        corrupt(raw)
        with pytest.raises(DataFormatError):
            FcnnModel.from_dict(raw)

    def test_invalid_json_named_in_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataFormatError, match="model.json"):
            FcnnModel.load(path)


class TestConfig:
    def test_validation_collects_problems(self):
        bad = FcnnConfig(input_dim=0, dropout_rate=1.5, batch_size=1,
                         patience=200)
        with pytest.raises(ValueError) as err:
            bad.validate()
        message = str(err.value)
        for fragment in ("input_dim", "dropout_rate", "batch_size", "patience"):
            assert fragment in message


def dataclasses_replace(config, **kwargs):
    import dataclasses

    return dataclasses.replace(config, **kwargs)
