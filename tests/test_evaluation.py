import csv

import numpy as np
import pytest

from oracles import synthetic_windows
from slat.evaluation import (EvalReport, constant_baseline, evaluate,
                             linear_baseline, model_predictor,
                             rmse, write_rtf_csv)
from slat.model import SlatConfig, init_params
from slat.windowing import (FaultMode, LabelConfig, Trajectory, fit_norm_stats,
                            label_rul)


def make_traj(n_steps, mode, seed, n_ch=3):
    rng = np.random.default_rng(seed)
    ch = rng.normal(0, 1, size=(n_steps, n_ch)) + np.linspace(
        0, 5, n_steps)[:, None]
    return Trajectory(traj_id=f"{mode.value}_{seed}", mode=mode, channels=ch)


@pytest.fixture()
def tiny_setup():
    trajs = [make_traj(50, FaultMode.PumpLaser, 1),
             make_traj(60, FaultMode.VOA, 2)]
    stats = fit_norm_stats(trajs, 8, 1)
    return trajs, stats


class TestRmse:
    def test_worked_example(self):
        # preds [1, 3] vs targets [1, 1]: mse 2, rmse sqrt(2)
        assert rmse([1.0, 3.0], [1.0, 1.0]) == pytest.approx(1.41421, abs=1e-5)

    def test_zero_for_perfect_predictions(self):
        assert rmse([2.0, 4.0], [2.0, 4.0]) == 0.0

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            rmse([], [])
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


class TestReport:
    def test_unweighted_average_worked_example(self):
        report = EvalReport({"PL": 8.93, "PD": 7.67, "VOA": 1.34, "PC": 8.29})
        assert report.average == pytest.approx(6.5575)
        assert f"{report.average:.2f}" == "6.56"

    def test_average_ignores_counts(self):
        report = EvalReport(per_mode={"PL": 10.0, "PD": 2.0},
                            counts={"PL": 1000, "PD": 2})
        assert report.average == pytest.approx(6.0)

    def test_text_table_lists_modes_in_canonical_order(self):
        report = EvalReport({"PC": 1.0, "PL": 2.0, "VOA": 3.0, "PD": 4.0})
        lines = report.to_text().splitlines()
        assert [ln.split()[0] for ln in lines[1:5]] == ["PL", "PD", "VOA", "PC"]
        assert lines[5].startswith("Average")

    def test_json_dict_is_sorted_and_complete(self):
        report = EvalReport(per_mode={"VOA": 1.0, "PL": 2.0},
                            counts={"VOA": 3, "PL": 4})
        d = report.to_json_dict()
        assert list(d["per_mode_rmse"]) == ["PL", "VOA"]
        assert d["missing_modes"] == ["PD", "PC"]  # derived, in canonical order
        assert d["average_rmse"] == pytest.approx(1.5)


class TestEvaluate:
    def test_perfect_oracle_scores_zero(self, tiny_setup):
        trajs, stats = tiny_setup
        label_cfg = LabelConfig(rul_cap=30.0)
        truth = {}
        for traj in trajs:
            labels = label_rul(traj, label_cfg)
            truth[traj.traj_id] = list(labels[7:])  # window ends, n_stw=8

        calls = {"i": 0}
        order = [t.traj_id for t in trajs]

        def oracle(values, descriptors):
            tid = order[calls["i"]]
            calls["i"] += 1
            return np.array(truth[tid])

        report = evaluate(oracle, trajs, stats, 8, 1, label_cfg)
        assert report.per_mode["PL"] == 0.0
        assert report.per_mode["VOA"] == 0.0
        assert report.average == 0.0

    def test_missing_modes_reported_and_excluded(self, tiny_setup):
        trajs, stats = tiny_setup
        report = evaluate(lambda v, d: np.zeros(v.shape[0]),
                          trajs[:1], stats, 8, 1, LabelConfig(rul_cap=30.0))
        assert set(report.per_mode) == {"PL"}
        assert report.missing == ["PD", "VOA", "PC"]
        assert report.to_text().splitlines()[-1] == "(absent modes excluded: PD, VOA, PC)"

    def test_counts_match_window_math(self, tiny_setup):
        trajs, stats = tiny_setup
        report = evaluate(lambda v, d: np.zeros(v.shape[0]), trajs, stats,
                          8, 1, LabelConfig(rul_cap=30.0))
        assert report.counts["PL"] == 50 - 8 + 1
        assert report.counts["VOA"] == 60 - 8 + 1

    def test_model_predictor_closures_work(self, tiny_setup):
        trajs, stats = tiny_setup
        cfg = SlatConfig(n_stw=8, n_channels=3, d_model=8, time_blocks=1,
                         sensor_blocks=1, decoder_blocks=1, heads=2,
                         ffn_mult=2, rank=2, dropout=0.0, rul_cap=30.0)
        params = init_params(cfg, np.random.default_rng(0))
        report = evaluate(model_predictor(params, cfg), trajs, stats, 8, 1,
                          LabelConfig(rul_cap=30.0))
        assert np.isfinite(report.average)

    def test_series_keeps_each_trajectorys_steps_targets_and_predictions(self, tiny_setup):
        """At stride 2, window k of a trajectory ends at step n_stw - 1 + 2k;
        its target is the label there and its prediction is what the
        predictor returned for it, in order."""
        trajs, stats = tiny_setup
        label_cfg = LabelConfig(rul_cap=30.0)
        returned = {}

        def predictor(values, descriptors):
            preds = np.random.default_rng(len(returned)).uniform(0, 30, len(values))
            returned[len(returned)] = preds
            return preds

        report = evaluate(predictor, trajs, stats, 8, 2, label_cfg)
        assert list(report.series) == [t.traj_id for t in trajs]
        for i, traj in enumerate(trajs):
            t, targets, preds = report.series[traj.traj_id]
            assert t.tolist() == [7 + 2 * k for k in range((traj.n_steps - 8) // 2 + 1)]
            np.testing.assert_array_equal(targets, label_rul(traj, label_cfg)[t])
            np.testing.assert_array_equal(preds, returned[i])


class TestRtf:
    def test_series_aligned_with_labels(self, tiny_setup):
        trajs, stats = tiny_setup
        traj = trajs[0]
        label_cfg = LabelConfig(rul_cap=30.0)
        report = evaluate(lambda v, d: np.zeros(v.shape[0]), [traj], stats,
                          8, 1, label_cfg)
        t, true_rul, _ = report.series[traj.traj_id]
        assert t[0] == 7
        assert t[-1] == traj.n_steps - 1
        assert len(t) == traj.n_steps - 8 + 1
        assert true_rul[-1] == 0.0
        np.testing.assert_array_equal(true_rul, label_rul(traj, label_cfg)[t])

    def test_too_short_trajectory_rejected(self, tiny_setup):
        trajs, stats = tiny_setup
        with pytest.raises(ValueError, match="5 steps < window length 8"):
            evaluate(lambda v, d: np.zeros(v.shape[0]),
                     [make_traj(5, FaultMode.VOA, 3)], stats, 8, 1, LabelConfig())

    def test_csv_format(self, tmp_path, tiny_setup):
        trajs, stats = tiny_setup
        report = evaluate(lambda v, d: np.full(v.shape[0], 2.5), trajs[:1],
                          stats, 8, 1, LabelConfig(rul_cap=30.0))
        path = tmp_path / "rtf.csv"
        write_rtf_csv(path, *report.series[trajs[0].traj_id])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "true_rul", "pred_rul"]
        assert rows[1][0] == "7"
        assert float(rows[1][2]) == 2.5


def linear_samples(n, seed, scale=1.0):
    """Targets are an exact linear function of the features, kept well
    inside (0, 125) so no clamping perturbs the rule."""
    rng = np.random.default_rng(seed)
    w_v = rng.normal(size=(4, 2)) * scale
    w_d = rng.normal(size=4) * scale
    out = []
    for _ in range(n):
        values = rng.normal(size=(4, 2))
        desc = rng.normal(size=4)
        target = float(np.sum(values * w_v) + desc @ w_d + 60.0)
        out.append((values, desc, target))
    values, desc, targets = (np.array(col) for col in zip(*out))
    return synthetic_windows(values, desc, targets, np.full(n, "t0"))


class TestBaselines:
    def test_constant_predicts_training_mean(self):
        samples = synthetic_windows(np.zeros((3, 3, 2)), np.zeros((3, 4)),
                                    np.array([2.0, 4.0, 6.0]), np.full(3, ""))
        predict = constant_baseline(samples, rul_cap=125.0)
        preds = predict(np.zeros((5, 3, 2)), np.zeros((5, 4)))
        np.testing.assert_allclose(preds, 4.0)

    def test_linear_recovers_exact_linear_rule(self):
        # one rule, 350 draws: fit on the first 300, check the held-out 50
        pool = linear_samples(350, seed=0)
        predict, used_ridge = linear_baseline(pool[:300], rul_cap=125.0)
        assert not used_ridge
        check = pool[300:]
        values = check.values
        desc = check.descriptors
        targets = check.targets
        preds = predict(values, desc)
        np.testing.assert_allclose(preds, targets, atol=1e-6)

    def test_ridge_fallback_on_singular_features(self):
        # duplicate every sample so columns of the gram matrix collide with
        # the constant-zero value block
        samples = synthetic_windows(np.zeros((10, 2, 1)), np.tile([1.0, 0.0], (10, 1)),
                                    np.ones(10), np.full(10, ""))
        predict, used_ridge = linear_baseline(samples, rul_cap=125.0)
        assert used_ridge
        preds = predict(np.zeros((3, 2, 1)), np.tile([1.0, 0.0], (3, 1)))
        assert np.all(np.isfinite(preds))

    def test_predictions_clamped(self):
        samples = linear_samples(100, seed=2, scale=4.0)
        predict, _ = linear_baseline(samples, rul_cap=20.0)
        rng = np.random.default_rng(3)
        preds = predict(rng.normal(0, 50, size=(40, 4, 2)),
                        rng.normal(0, 50, size=(40, 4)))
        assert np.all(preds >= 0.0) and np.all(preds <= 20.0)
        # the constant baseline clamps a training mean above the cap to it
        high = synthetic_windows(np.zeros((2, 4, 2)), np.zeros((2, 4)),
                                 np.array([30.0, 50.0]), np.full(2, ""))
        np.testing.assert_array_equal(constant_baseline(high, rul_cap=20.0)(
            np.zeros((3, 4, 2)), np.zeros((3, 4))), 20.0)

    @pytest.mark.parametrize("fit", [constant_baseline, linear_baseline],
                             ids=["constant", "linear"])
    def test_fit_on_no_windows_rejected(self, fit):
        empty = synthetic_windows(np.zeros((0, 2, 2)), np.zeros((0, 4)), np.zeros(0),
                                  np.full(0, ""))
        with pytest.raises(ValueError, match="no samples to fit"):
            fit(empty, rul_cap=125.0)
