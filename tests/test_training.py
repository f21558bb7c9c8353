import csv
import tracemalloc

import numpy as np
import pytest

import slat.training
from oracles import adam_reference, retained_bytes
from slat.model import SlatConfig, backward, forward, init_params
from slat.training import (BETA1, BETA2, EPS, AdamState, TrainConfig,
                           TrainingDiverged, adam_step, clip_gradients, mse_loss,
                           split_by_trajectory, train, write_history)
from slat.windowing import Windows

TINY = SlatConfig(n_stw=6, n_channels=3, d_model=8, time_blocks=1,
                  sensor_blocks=1, decoder_blocks=1, heads=2, ffn_mult=2,
                  rank=2, dropout=0.0)


def make_samples(n, cfg=TINY, seed=0, n_trajs=2):
    rng = np.random.default_rng(seed)
    values, descriptors, targets = [], [], []
    for i in range(n):
        values.append(rng.standard_normal((cfg.n_stw, cfg.n_channels)))
        descriptors.append(rng.standard_normal(2 * cfg.n_channels))
        targets.append(float(rng.uniform(0, 20)))
    return Windows(np.array(values), np.array(descriptors), np.array(targets),
                   np.array([f"t{i % n_trajs}" for i in range(n)]))


class TestLossAndClip:
    def test_mse_worked_example(self):
        loss, grad = mse_loss(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
        assert loss == pytest.approx(2.0)
        np.testing.assert_allclose(grad, [0.0, 2.0])

    def test_mse_gradient_direction(self):
        preds = np.array([5.0])
        loss, grad = mse_loss(preds, np.array([3.0]))
        assert loss == pytest.approx(4.0)
        assert grad[0] > 0  # decrease pred to decrease loss

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(3), np.zeros(4))

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
        before = dict(grads)
        pre = clip_gradients(grads, 1.0)
        assert pre == pytest.approx(5.0)
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(1.0)
        # clipping rebinds each key; the arrays a caller kept are not written
        np.testing.assert_array_equal(before["a"], [3.0, 0.0])
        np.testing.assert_array_equal(before["b"], [4.0])

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3])}
        clip_gradients(grads, 1.0)
        np.testing.assert_allclose(grads["a"], [0.3])


class TestAdam:
    def test_first_step_magnitude(self):
        # g = 0.5, lr = 1e-3: bias correction makes the first step ~= lr
        params = {"w": np.array([1.0])}
        state = AdamState.init(params)
        cfg = TrainConfig(learning_rate=1e-3)
        adam_step(params, {"w": np.array([0.5])}, state, cfg)
        assert abs(abs(params["w"][0] - 1.0) - 1e-3) < 1e-6

    def test_step_opposes_gradient_sign(self):
        params = {"w": np.array([0.0, 0.0])}
        state = AdamState.init(params)
        adam_step(params, {"w": np.array([1.0, -1.0])},
                  state, TrainConfig(learning_rate=0.01))
        assert params["w"][0] < 0 < params["w"][1]

    def test_nonfinite_gradient_raises_with_name(self):
        params = {"deep.tensor": np.zeros(2)}
        state = AdamState.init(params)
        with pytest.raises(FloatingPointError, match="deep.tensor"):
            adam_step(params, {"deep.tensor": np.array([1.0, np.nan])},
                      state, TrainConfig())

    def test_three_steps_bit_identical_to_textbook_form(self):
        rng = np.random.default_rng(3)
        params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
        want = {k: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for k, p in params.items()}
        state = AdamState.init(params)
        cfg = TrainConfig(learning_rate=0.01)
        for t in (1, 2, 3):
            grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
            kept = {k: g.copy() for k, g in grads.items()}
            adam_step(params, grads, state, cfg)
            for k, g in grads.items():
                assert np.array_equal(g, kept[k])  # gradients are never written
                want[k] = adam_reference(*want[k][:1], g, *want[k][1:], t, cfg.learning_rate,
                                         BETA1, BETA2, EPS)
        for k in params:
            assert np.array_equal(params[k], want[k][0])
            assert np.array_equal(state.m[k], want[k][1])
            assert np.array_equal(state.v[k], want[k][2])

    def test_state_tracks_step_count(self):
        params = {"w": np.zeros(1)}
        state = AdamState.init(params)
        for _ in range(3):
            adam_step(params, {"w": np.ones(1)}, state, TrainConfig())
        assert state.step == 3


class TestSplit:
    def test_holds_out_whole_trajectories(self):
        samples = make_samples(40, n_trajs=5)
        rng = np.random.default_rng(0)
        train_idx, val_idx, val_ids = split_by_trajectory(samples, 0.2, rng)
        assert len(val_ids) == 1
        train_ids = set(samples.traj_ids[train_idx])
        assert set(val_ids) & train_ids == set()
        assert len(train_idx) + len(val_idx) == 40

    def test_no_split_for_single_trajectory(self):
        samples = make_samples(10, n_trajs=1)
        train_idx, val_idx, val_ids = split_by_trajectory(
            samples, 0.5, np.random.default_rng(0))
        assert val_idx == [] and val_ids == []
        assert len(train_idx) == 10


class TestTrainLoop:
    def test_loss_decreases_on_learnable_data(self):
        samples = make_samples(16, seed=1)
        res = train(samples, TINY, TrainConfig(epochs=30, batch_size=8,
                                               val_fraction=0.0, seed=2))
        assert res.history[-1].train_loss < res.history[0].train_loss * 0.7

    def test_bitwise_deterministic_reruns(self):
        samples = make_samples(12, seed=3)
        tcfg = TrainConfig(epochs=3, batch_size=4, val_fraction=0.0, seed=4)
        r1 = train(samples, TINY, tcfg)
        r2 = train(samples, TINY, tcfg)
        assert all(np.array_equal(r1.best_params[k], r2.best_params[k])
                   for k in r1.best_params)
        assert [h.train_loss for h in r1.history] == [h.train_loss for h in r2.history]
        # without validation every epoch is the best so far
        assert r1.best_epoch == 2 and np.isnan(r1.best_val_rmse)

    def test_seed_changes_outcome(self):
        samples = make_samples(12, seed=3)
        r1 = train(samples, TINY, TrainConfig(epochs=2, val_fraction=0.0, seed=1))
        r2 = train(samples, TINY, TrainConfig(epochs=2, val_fraction=0.0, seed=2))
        assert any(not np.array_equal(r1.best_params[k], r2.best_params[k])
                   for k in r1.best_params)

    def test_best_checkpoint_tracked_on_validation(self):
        samples = make_samples(30, seed=5, n_trajs=5)
        res = train(samples, TINY, TrainConfig(epochs=5, batch_size=8,
                                               val_fraction=0.2, seed=6))
        assert res.val_ids
        assert np.isfinite(res.best_val_rmse)
        rmses = [h.val_rmse for h in res.history]
        assert res.best_val_rmse == pytest.approx(min(rmses))
        assert res.best_epoch == int(np.argmin(rmses))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_aborts_with_location(self, monkeypatch):
        samples = make_samples(8, seed=7)

        def poisoned(cfg, rng):  # a head weight that makes the very first loss non-finite
            params = init_params(cfg, rng)
            params["head.w"] = params["head.w"] + np.inf
            return params
        monkeypatch.setattr(slat.training, "init_params", poisoned)
        with pytest.raises(TrainingDiverged) as err:
            train(samples, TINY,
                  TrainConfig(epochs=3, batch_size=4, val_fraction=0.0, seed=0))
        assert err.value.epoch == 0
        assert err.value.batch == 0

    def test_early_stop_on_train_rmse(self):
        samples = make_samples(8, seed=8)
        res = train(samples, TINY, TrainConfig(epochs=50, batch_size=8,
                                               val_fraction=0.0, seed=9,
                                               stop_train_rmse=1e9))
        assert len(res.history) == 1  # threshold already met after epoch 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TINY, TrainConfig(epochs=1))


class TestHistoryFile:
    def test_csv_roundtrip(self, tmp_path):
        samples = make_samples(8, seed=10)
        res = train(samples, TINY, TrainConfig(epochs=2, val_fraction=0.0, seed=0))
        path = tmp_path / "history.csv"
        write_history(path, res.history)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[1]["train_loss"]) == res.history[1].train_loss
        assert rows[0]["epoch"] == "0"


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_batch_of_activations_alive_at_a_time():
    # a batch's cache and grads are released before the next batch's forward,
    # so an epoch of several batches peaks near one forward+backward, plus the
    # optimizer state and parameter copies that train() owns
    cfg = SlatConfig()
    windows = make_samples(96, cfg=cfg)
    params = init_params(cfg, np.random.default_rng(0))
    batch = windows[np.arange(32)]

    def step():
        preds, cache = forward(params, cfg, batch.values, batch.descriptors,
                               train=True, rng=np.random.default_rng(1))
        backward(params, cfg, cache, np.ones_like(preds))

    one_step = _traced_peak(step)
    _, cache = forward(params, cfg, batch.values, batch.descriptors, train=True,
                       rng=np.random.default_rng(1))
    one_cache = retained_bytes(cache, exclude=params)
    del cache
    epoch = _traced_peak(lambda: train(windows, cfg, TrainConfig(epochs=1, val_fraction=0.0)))
    assert epoch - one_step < one_cache, (epoch / 1e6, one_step / 1e6, one_cache / 1e6)


def test_train_does_not_copy_its_windows():
    # each batch is gathered from the caller's windows through the shuffled
    # training indices, so train() holds no second copy of the training set
    windows = make_samples(8000)
    size = sum(a.nbytes for a in vars(windows).values())
    peak = _traced_peak(lambda: train(windows, TINY, TrainConfig(
        epochs=1, batch_size=64, val_fraction=0.0)))
    assert peak < size, (peak / 1e6, size / 1e6)
