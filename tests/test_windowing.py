import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_mean_slope, naive_rul, naive_window_starts
from slat.windowing import (FaultMode, LabelConfig, NormStats, Trajectory,
                            build_dataset, compute_descriptors, fit_norm_stats,
                            label_rul)

IDENTITY = NormStats(np.zeros(1), np.ones(1), np.zeros(2), np.ones(2))


def make_traj(channels, mode=FaultMode.PumpLaser, traj_id="t0"):
    return Trajectory(traj_id=traj_id, mode=mode, channels=channels)


def window_starts(n_steps, n_stw, stride):
    """The start step of every window ``build_dataset`` cuts: one channel
    holding the step index, windowed with identity statistics."""
    traj = make_traj(np.arange(n_steps, dtype=float)[:, None])
    windows = build_dataset([traj], n_stw, stride, LabelConfig(), IDENTITY)
    assert np.array_equal(windows.values[:, :, 0],
                          windows.values[:, :1, 0] + np.arange(n_stw))  # contiguous
    return windows.values[:, 0, 0].tolist()


class TestWindowBounds:
    def test_worked_example(self):
        # T=10, n=4, stride=3 -> starts 0, 3, 6
        assert window_starts(10, 4, 3) == [0, 3, 6]

    def test_single_window_when_lengths_match(self):
        assert window_starts(5, 5, 1) == [0]

    def test_stride_larger_than_remainder(self):
        assert window_starts(6, 5, 10) == [0]

    @pytest.mark.parametrize("n_steps,n_stw,stride", [
        (10, 4, 0), (10, 1, 1), (3, 4, 1),
    ])
    def test_rejects_bad_arguments(self, n_steps, n_stw, stride):
        with pytest.raises(ValueError):
            window_starts(n_steps, n_stw, stride)

    @given(n_steps=st.integers(2, 300), n_stw=st.integers(2, 50),
           stride=st.integers(1, 20))
    def test_matches_naive_enumeration(self, n_steps, n_stw, stride):
        if n_stw > n_steps:
            return
        assert window_starts(n_steps, n_stw, stride) == naive_window_starts(
            n_steps, n_stw, stride)


class TestDescriptors:
    def test_worked_example(self):
        # values 0, 1, 4 -> mean 5/3, slope 2.0
        d = compute_descriptors(np.array([[0.0], [1.0], [4.0]]))
        assert d[0] == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert d[1] == pytest.approx(2.0, abs=1e-12)

    def test_layout_means_then_slopes(self):
        w = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        d = compute_descriptors(w)
        assert d.shape == (4,)
        np.testing.assert_allclose(d[:2], [2.0, 20.0])
        np.testing.assert_allclose(d[2:], [1.0, 10.0])

    def test_rejects_short_or_nonfinite(self):
        with pytest.raises(ValueError):
            compute_descriptors(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            compute_descriptors(np.array([[1.0], [np.nan]]))

    @given(st.integers(2, 40), st.integers(1, 5), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_matches_naive_sums(self, n, n_ch, seed):
        w = np.random.default_rng(seed).normal(0, 10, size=(n, n_ch))
        d = compute_descriptors(w)
        means, slopes = naive_mean_slope(w)
        np.testing.assert_allclose(d[:n_ch], means, atol=1e-9)
        np.testing.assert_allclose(d[n_ch:], slopes, atol=1e-9)

    @given(st.floats(-50, 50), st.floats(-5, 5), st.integers(2, 60))
    def test_recovers_exact_line(self, intercept, slope, n):
        t = np.arange(n, dtype=float)
        w = (intercept + slope * t)[:, None]
        d = compute_descriptors(w)
        assert d[1] == pytest.approx(slope, abs=1e-9)


class TestLabels:
    def test_worked_example_cap(self):
        traj = make_traj(np.zeros((201, 2)))
        rul = label_rul(traj, LabelConfig(rul_cap=125.0))
        assert rul[200] == 0.0
        assert rul[150] == 50.0
        assert rul[0] == 125.0

    def test_monotone_nonincreasing(self):
        traj = make_traj(np.zeros((80, 1)))
        rul = label_rul(traj, LabelConfig(rul_cap=30.0))
        assert np.all(np.diff(rul) <= 0)
        assert rul.max() == 30.0

    @given(st.integers(2, 500), st.floats(1.0, 300.0), st.data())
    @settings(max_examples=50)
    def test_matches_naive(self, n_steps, cap, data):
        t = data.draw(st.integers(0, n_steps - 1))
        traj = make_traj(np.zeros((n_steps, 1)))
        rul = label_rul(traj, LabelConfig(rul_cap=cap))
        assert rul[t] == pytest.approx(naive_rul(n_steps - 1, t, cap))


class TestNormStats:
    def test_population_std_example(self):
        # values 2, 4, 6 -> population std sqrt(8/3)
        traj = make_traj(np.array([[2.0], [4.0], [6.0]]))
        stats = fit_norm_stats([traj], 2, 1)
        assert stats.channel_mean[0] == pytest.approx(4.0)
        assert stats.channel_std[0] == pytest.approx(np.sqrt(8.0 / 3.0), abs=1e-12)

    def test_constant_channel_gets_unit_std(self):
        traj = make_traj(np.full((10, 2), 7.0))
        stats = fit_norm_stats([traj], 3, 1)
        np.testing.assert_array_equal(stats.channel_std, [1.0, 1.0])
        normed = stats.normalize_values(traj.channels)
        np.testing.assert_allclose(normed, 0.0)

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError):
            fit_norm_stats([], 2, 1)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        traj = make_traj(rng.normal(3, 5, size=(40, 3)))
        stats = fit_norm_stats([traj], 5, 2)
        x = rng.normal(0, 2, size=(7, 3))
        np.testing.assert_allclose(
            stats.normalize_values(x) * stats.channel_std + stats.channel_mean, x, atol=1e-9)
        d = rng.normal(0, 2, size=6)
        np.testing.assert_allclose(
            stats.normalize_descriptors(d) * stats.descriptor_std + stats.descriptor_mean,
            d, atol=1e-9)

    def test_dict_roundtrip(self):
        traj = make_traj(np.random.default_rng(0).normal(size=(20, 2)))
        stats = fit_norm_stats([traj], 4, 1)
        back = NormStats.from_dict(stats.to_dict())
        np.testing.assert_array_equal(back.channel_mean, stats.channel_mean)
        np.testing.assert_array_equal(back.descriptor_std, stats.descriptor_std)


class TestBuildDataset:
    def test_targets_at_window_end(self):
        # T=6, n=3 -> windows end at steps 2..5 -> targets 3, 2, 1, 0
        traj = make_traj(np.arange(12, dtype=float).reshape(6, 2))
        stats = fit_norm_stats([traj], 3, 1)
        samples = build_dataset([traj], 3, 1, LabelConfig(rul_cap=100.0), stats)
        assert samples.targets.tolist() == [3.0, 2.0, 1.0, 0.0]
        assert all(t == "t0" for t in samples.traj_ids)

    def test_values_are_normalized(self):
        rng = np.random.default_rng(3)
        traj = make_traj(rng.normal(50, 9, size=(60, 4)))
        stats = fit_norm_stats([traj], 10, 1)
        samples = build_dataset([traj], 10, 1, LabelConfig(), stats)
        all_vals = samples.values
        assert abs(float(all_vals.mean())) < 0.5
        raw = samples[0].values * stats.channel_std + stats.channel_mean
        np.testing.assert_allclose(raw, traj.channels[:10], atol=1e-9)

    def test_descriptors_computed_on_raw_values(self):
        rng = np.random.default_rng(4)
        traj = make_traj(rng.normal(100, 20, size=(40, 2)))
        stats = fit_norm_stats([traj], 8, 1)
        samples = build_dataset([traj], 8, 1, LabelConfig(), stats)
        expected = stats.normalize_descriptors(
            compute_descriptors(traj.channels[0:8]))
        np.testing.assert_allclose(samples[0].descriptors, expected, atol=1e-12)

    @given(extra_steps=st.lists(st.integers(0, 60), min_size=1, max_size=4),
           n_ch=st.integers(1, 5), n_stw=st.integers(2, 40),
           stride=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    @example(extra_steps=[0], n_ch=3, n_stw=40, stride=7, seed=0)
    @settings(max_examples=80, deadline=None)
    def test_equals_per_window_reference(self, extra_steps, n_ch, n_stw, stride, seed):
        """Exactly the windows, descriptors and labels of the per-window
        definition: naive_window_starts, compute_descriptors on each slice, the
        NormStats transforms, and label_rul at the window end."""
        rng = np.random.default_rng(seed)
        trajs = [make_traj(rng.normal(rng.normal(0, 50), 10, size=(n_stw + k, n_ch)),
                           traj_id=f"t{i}") for i, k in enumerate(extra_steps)]
        stats = NormStats(rng.normal(0, 50, n_ch), rng.uniform(0.5, 20, n_ch),
                          rng.normal(0, 5, 2 * n_ch), rng.uniform(0.5, 5, 2 * n_ch))
        cfg = LabelConfig(rul_cap=float(rng.integers(5, 200)))
        raw_desc, values, descriptors, targets, ids = [], [], [], [], []
        for traj in trajs:
            labels = label_rul(traj, cfg)
            for start in naive_window_starts(traj.n_steps, n_stw, stride):
                end = start + n_stw
                raw = traj.channels[start:end]
                raw_desc.append(compute_descriptors(raw))
                values.append(stats.normalize_values(raw))
                descriptors.append(stats.normalize_descriptors(raw_desc[-1]))
                targets.append(labels[end - 1])
                ids.append(traj.traj_id)

        got = build_dataset(trajs, n_stw, stride, cfg, stats)
        assert len(got) == len(targets)
        assert np.array_equal(got.values, np.array(values))
        assert np.array_equal(got.descriptors, np.array(descriptors))
        assert np.array_equal(got.targets, np.array(targets))
        assert got.traj_ids.tolist() == ids
        fitted = fit_norm_stats(trajs, n_stw, stride)
        raw_desc = np.array(raw_desc)
        assert np.array_equal(fitted.descriptor_mean, raw_desc.mean(axis=0))
        std = raw_desc.std(axis=0)
        assert np.array_equal(fitted.descriptor_std, np.where(std == 0.0, 1.0, std))

    def test_short_trajectory_names_both_lengths(self):
        traj = make_traj(np.zeros((5, 2)))
        stats = NormStats(np.zeros(2), np.ones(2), np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="5 steps < window length 8"):
            build_dataset([traj], 8, 1, LabelConfig(), stats)
        with pytest.raises(ValueError, match="5 steps < window length 8"):
            fit_norm_stats([traj], 8, 1)


class TestTrajectory:
    def test_failure_index_must_be_last(self):
        assert Trajectory("x", FaultMode.VOA, np.zeros((5, 2))).failure_index == 4

    def test_rejects_nonfinite(self):
        bad = np.zeros((4, 2))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            Trajectory("x", FaultMode.VOA, bad)

    def test_mode_from_str(self):
        assert FaultMode("PL") is FaultMode.PumpLaser
        with pytest.raises(ValueError):
            FaultMode("XYZ")
