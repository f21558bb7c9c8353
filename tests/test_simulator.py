import math

import numpy as np
import oracles
import pytest

from slat import simulator
from slat.simulator import (BASE_NOISE_STD, CHANNELS, FAILURE_LIMIT_DB, I_MAX_MA,
                            MAX_STEPS, NOISE_BLOCK, NOMINAL_CURRENT_1,
                            NOMINAL_CURRENT_2, PASSIVE_LOSS_DB, PUMP_EFF_1,
                            RATE_SCALE, STAGE1_TARGET_DB, STAGE2_TARGET_DB, SimConfig,
                            agc_step, draw_drift_rate, init_state, inject_drift,
                            observe, simulate_trajectory, trajectory_seed)
from slat.windowing import FaultMode

# channel indices
I1, I2, P1, P2, R1, R2, R3, VOA_SET, TEMP = range(9)
NO_NOISE = (0.0,) * len(CHANNELS)


def base_cfg(mode, **kw):
    kw.setdefault("rate_scale", (1.0, 1.0))
    return SimConfig(mode=mode, **kw)


class TestSteadyState:
    def test_nominal_currents(self):
        assert NOMINAL_CURRENT_1 == pytest.approx(100.0)
        assert NOMINAL_CURRENT_2 == pytest.approx(14.0 / (0.20 * 0.85))

    def test_initial_readings_hit_targets(self):
        state = init_state()
        assert state.r2 - state.r1 == pytest.approx(STAGE1_TARGET_DB, abs=1e-12)
        assert state.r3 - state.r2 == pytest.approx(STAGE2_TARGET_DB, abs=1e-12)
        assert state.r3 - state.r1 == pytest.approx(26.0)

    def test_observe_noise_free_row_layout(self):
        state = init_state()
        row = observe(state, NO_NOISE)
        assert len(row) == len(CHANNELS)
        assert row[I1] == pytest.approx(100.0)
        assert row[R1] == pytest.approx(-6.0)
        assert row[R3] - row[R1] == pytest.approx(26.0)
        assert row[VOA_SET] == pytest.approx(4.0)
        assert row[TEMP] == pytest.approx(45.0)


class TestController:
    def test_no_move_at_equilibrium(self):
        # modeled gain equals target -> currents unchanged
        state = init_state()
        i1, i2 = state.pump_current_1, state.pump_current_2
        agc_step(state)
        assert state.pump_current_1 == pytest.approx(i1, abs=1e-12)
        assert state.pump_current_2 == pytest.approx(i2, abs=1e-12)

    def test_efficiency_halved_doubles_current(self):
        # drop stage-1 efficiency to half and iterate noise-free until the
        # loop settles: the current must land at twice nominal
        state = init_state()
        state.pump_eff_1 = PUMP_EFF_1 / 2.0
        for _ in range(200):
            agc_step(state)
            observe(state, NO_NOISE)
        assert state.pump_current_1 == pytest.approx(200.0, abs=1e-6)
        assert state.pump_current_2 == pytest.approx(NOMINAL_CURRENT_2, abs=1e-6)

    def test_saturation_clamps_at_limit(self):
        state = init_state()
        state.pump_eff_1 = PUMP_EFF_1 / 10.0  # would need 1000 mA
        for _ in range(300):
            agc_step(state)
            observe(state, NO_NOISE)
        assert state.pump_current_1 == I_MAX_MA

    def test_tracking_error_stays_in_band_noise_free(self):
        # |gain error| < 0.1 dB after settling while unsaturated, checked on
        # the controller dynamics alone (no measurement noise)
        for mode in (FaultMode.PumpLaser, FaultMode.VOA,
                     FaultMode.PassiveComponents):
            cfg = base_cfg(mode, noise_scale=0.0)
            _, ints = oracles.simulate_trajectory_reference(cfg, 0)
            sel = ints["current_1"] < I_MAX_MA
            sel[:50] = False
            assert np.abs(ints["gain_error_1"])[sel].max() < 0.1, mode
            assert np.abs(ints["gain_error_2"])[sel].max() < 0.1, mode

    def test_mean_tracking_error_small_with_noise(self):
        cfg = base_cfg(FaultMode.VOA, noise_scale=1.0)
        _, ints = oracles.simulate_trajectory_reference(cfg, 3)
        e1 = ints["gain_error_1"][50:]
        assert abs(e1.mean()) < 0.02


class TestDrift:
    def test_step_zero_leaves_state_healthy(self):
        for mode in FaultMode:
            state = init_state()
            inject_drift(state, mode, 0, 0.01)
            assert state.pump_eff_1 == PUMP_EFF_1
            assert state.pd2_bias == 0.0
            assert state.voa_error == 0.0
            assert state.passive_loss == PASSIVE_LOSS_DB

    def test_drift_is_exact_in_t(self):
        state = init_state()
        inject_drift(state, FaultMode.PumpLaser, 100, 0.002)
        assert state.pump_eff_1 == pytest.approx(PUMP_EFF_1 * np.exp(-0.2))
        # absolute-time form: re-applying the same t is idempotent
        inject_drift(state, FaultMode.PumpLaser, 100, 0.002)
        assert state.pump_eff_1 == pytest.approx(PUMP_EFF_1 * np.exp(-0.2))

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            inject_drift(init_state(), FaultMode.VOA, -1, 0.01)

    def test_rate_drawn_within_bounds(self):
        cfg = SimConfig(mode=FaultMode.VOA)
        lo, hi = cfg.rate_bounds
        rates = [draw_drift_rate(cfg, np.random.default_rng(s)) for s in range(50)]
        assert all(lo <= r <= hi for r in rates)
        assert max(rates) / min(rates) > 2.0  # spread actually used


class TestTrajectories:
    def test_failure_is_last_step(self):
        # the run stops at the first step whose hidden parameter reaches its
        # failure limit; the limits are spelled out so a mistyped constant
        # fails. The hidden state is the per-step oracle's, which
        # TestMatchesPerStepOracle pins to the library's trajectories.
        for mode in FaultMode:
            traj = simulate_trajectory(base_cfg(mode), 5)
            _, ints = oracles.simulate_trajectory_reference(base_cfg(mode), 5)
            crossed = {
                FaultMode.PumpLaser: ints["current_1"] >= 250.0,
                FaultMode.PowerDetector: np.abs(ints["pd2_bias"]) >= 3.0,
                FaultMode.VOA: ints["voa_error"] >= 3.0,
                FaultMode.PassiveComponents: ints["passive_loss"] - 2.0 >= 3.0,
            }[mode]
            assert len(crossed) == traj.n_steps, mode
            assert np.argmax(crossed) == traj.failure_index == traj.n_steps - 1, mode
            assert crossed[-1] and not crossed[-2], mode
            assert traj.channels.shape[1] == len(CHANNELS)
            assert np.all(np.isfinite(traj.channels))

    def test_bit_identical_for_same_seed(self):
        cfg = base_cfg(FaultMode.VOA)
        t1 = simulate_trajectory(cfg, 123)
        t2 = simulate_trajectory(cfg, 123)
        np.testing.assert_array_equal(t1.channels, t2.channels)
        t3 = simulate_trajectory(cfg, 124)
        assert t3.n_steps != t1.n_steps or not np.array_equal(t3.channels,
                                                              t1.channels)

    def test_unreachable_threshold_raises(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_STEPS", 50)
        with pytest.raises(RuntimeError, match="within 50 steps"):
            simulate_trajectory(base_cfg(FaultMode.PassiveComponents), 0)

    def test_pump_failure_window_around_step_400(self):
        # rates within 15% of base must fail inside [300, 500]
        cfg = SimConfig(mode=FaultMode.PumpLaser, rate_scale=(0.85, 1.15))
        fails = [simulate_trajectory(cfg, trajectory_seed(21, cfg.mode, i)).failure_index
                 for i in range(20)]
        assert all(300 <= f <= 500 for f in fails)
        assert len(set(fails)) > 1

    def test_every_mode_reaches_failure_at_bound_edges(self):
        for mode in FaultMode:
            for scale in RATE_SCALE:
                cfg = SimConfig(mode=mode, rate_scale=(scale, scale))
                traj = simulate_trajectory(cfg, 1)
                assert 2 * 30 <= traj.n_steps <= MAX_STEPS, mode


class TestMatchesPerStepOracle:
    """Noise drawn NOISE_BLOCK steps at a time is the per-step stream, so
    every trajectory equals the per-step loop's bit for bit."""

    @staticmethod
    def assert_matches_oracle(cfg, seed):
        traj = simulate_trajectory(cfg, seed)
        channels, _ = oracles.simulate_trajectory_reference(cfg, seed)
        assert traj.channels.shape == channels.shape
        assert traj.channels.tobytes() == channels.tobytes()
        return traj

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_default_drift(self, mode):
        for i in range(3):
            self.assert_matches_oracle(SimConfig(mode=mode), trajectory_seed(4, mode, i))

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_trajectories_spanning_several_noise_blocks(self, mode):
        traj = self.assert_matches_oracle(base_cfg(mode, rate_scale=(0.25, 0.25)), 8)
        assert traj.n_steps > 3 * NOISE_BLOCK

    @pytest.mark.parametrize("mode", list(FaultMode))
    def test_noise_free(self, mode):
        self.assert_matches_oracle(base_cfg(mode, noise_scale=0.0), 9)

    def test_scaled_noise(self):
        self.assert_matches_oracle(base_cfg(FaultMode.VOA, noise_scale=3.0), 10)


def healthy_stats(seed, n=300):
    """Channel mean/std of a no-drift run, for the isolation tests."""
    state = init_state()
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        agc_step(state)
        rows.append(observe(state, rng.standard_normal(len(CHANNELS)) * BASE_NOISE_STD))
    rows = np.asarray(rows)
    return rows.mean(axis=0), rows.std(axis=0)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for mode in FaultMode:
        traj = simulate_trajectory(base_cfg(mode), 77)
        out[mode] = traj.channels
    return out


class TestModeSignatures:
    """Each mode must move its own actuator channels and leave the channels
    it cannot physically touch statistically indistinguishable from healthy."""

    # channels that must stay at their healthy level per mode; loop-held
    # power readings are excluded since small ramp lag shifts them everywhere
    UNAFFECTED = {
        FaultMode.PumpLaser: [I2, P2, R1, VOA_SET, TEMP],
        FaultMode.PowerDetector: [R1, VOA_SET, TEMP],
        FaultMode.VOA: [I2, P2, R1, VOA_SET, TEMP],
        FaultMode.PassiveComponents: [I1, P1, R1, VOA_SET, TEMP],
    }

    def test_affected_channels_trend(self, runs):
        # late-run mean minus early-run mean, in units of healthy std
        def shift(ch, channel):
            early = ch[:60, channel].mean()
            late = ch[-60:, channel].mean()
            return late - early

        assert shift(runs[FaultMode.PumpLaser], I1) > 50.0
        assert shift(runs[FaultMode.PowerDetector], I1) > 5.0
        assert shift(runs[FaultMode.PowerDetector], I2) < -5.0
        assert shift(runs[FaultMode.VOA], I1) > 5.0
        assert shift(runs[FaultMode.PassiveComponents], I2) > 5.0

    def test_unaffected_channels_stay_healthy(self, runs):
        h_mean, h_std = healthy_stats(seed=4)
        for mode, channels in self.UNAFFECTED.items():
            ch = runs[mode]
            n = ch.shape[0]
            for c in channels:
                drift = abs(ch[:, c].mean() - h_mean[c])
                # mean of n noisy samples: 5 sigma/sqrt(n) budget
                budget = 5.0 * max(h_std[c], 1e-9) / np.sqrt(n) + 1e-6
                assert drift < budget, (mode, CHANNELS[c], drift, budget)

    def test_modes_pairwise_distinguishable(self, runs):
        # the late-run actuator fingerprint (I1, I2) separates all four modes
        fingerprints = {}
        for mode, ch in runs.items():
            fingerprints[mode] = np.array([ch[-60:, I1].mean(),
                                           ch[-60:, I2].mean()])
        modes = list(FaultMode)
        for i, a in enumerate(modes):
            for b in modes[i + 1:]:
                assert np.linalg.norm(fingerprints[a] - fingerprints[b]) > 3.0, (a, b)


class TestConfigValidation:
    def test_bad_bounds_rejected(self):
        for scale in ((0.0, 1.0), (2.0, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="bad drift rate scale"):
                SimConfig(mode=FaultMode.VOA, rate_scale=scale)
        with pytest.raises(ValueError):
            SimConfig(mode=FaultMode.VOA, noise_scale=-1.0)

    def test_thresholds_are_positive(self):
        assert FAILURE_LIMIT_DB > 0
