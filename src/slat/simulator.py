"""Synthetic run-to-failure generator for a two-stage amplifier under AGC.

The device model is deliberately coarse: each stage's gain in dB is linear in
its pump power (current times efficiency), with a mid-stage variable
attenuator between stage 1 and the interstage detector and lumped passive
losses between that detector and stage 2. Two incremental PI loops hold the
detector-reading differences at fixed per-stage targets, so degradation is
largely invisible in the power readings and shows up in the actuator
channels instead - the property that makes the prognostics problem hard.

Four soft-failure modes drift exactly one hidden parameter each:

* PumpLaser: stage-1 pump efficiency decays exponentially; the loop raises
  the current until it saturates at the limit.
* PowerDetector: the interstage detector reading acquires a growing negative
  bias; loop 1 over-pumps while loop 2 backs off.
* VOA: the realized attenuation drifts above the commanded value.
* PassiveComponents: lumped passive loss grows linearly.

A trajectory ends at the step its mode's failure threshold is crossed.
Everything is driven by a single seeded generator, so a (config, seed) pair
reproduces a trajectory bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .windowing import FaultMode, Trajectory

CHANNELS = (
    "pump_current_1_ma",
    "pump_current_2_ma",
    "pump_power_1_mw",
    "pump_power_2_mw",
    "input_power_dbm",
    "interstage_power_dbm",
    "output_power_dbm",
    "voa_setting_db",
    "case_temp_c",
)

N_CHANNELS = len(CHANNELS)

# measurement noise std per channel (mA, mA, mW, mW, dB, dB, dB, dB, degC)
BASE_NOISE_STD = np.array([0.5, 0.5, 0.2, 0.2, 0.01, 0.01, 0.01, 0.01, 0.25])
NOISE_BLOCK = 256  # steps of measurement noise drawn per generator call


@dataclass(frozen=True)
class OperatingPoint:
    """Healthy setpoint of the amplifier and its static device constants."""

    input_power_dbm: float = -6.0
    stage1_gain_db: float = 18.0
    stage2_gain_db: float = 14.0
    voa_attenuation_db: float = 4.0
    passive_loss_db: float = 2.0
    gain_per_mw_1: float = 0.20   # dB of stage gain per mW of pump power
    gain_per_mw_2: float = 0.20
    pump_eff_1: float = 0.90      # mW per mA
    pump_eff_2: float = 0.85
    i_max_ma: float = 250.0
    case_temp_c: float = 45.0

    @property
    def nominal_current_1(self) -> float:
        return self.stage1_gain_db / (self.gain_per_mw_1 * self.pump_eff_1)

    @property
    def nominal_current_2(self) -> float:
        return self.stage2_gain_db / (self.gain_per_mw_2 * self.pump_eff_2)

    @property
    def stage1_target_db(self) -> float:
        """Held reading difference interstage - input."""
        return self.stage1_gain_db - self.voa_attenuation_db

    @property
    def stage2_target_db(self) -> float:
        """Held reading difference output - interstage."""
        return self.stage2_gain_db - self.passive_loss_db


@dataclass(frozen=True)
class ControllerConfig:
    """Incremental PI gains in mA per dB of gain error."""

    kp: float = 1.0
    ki: float = 8.0


@dataclass(frozen=True)
class FailureThresholds:
    pd_bias_limit_db: float = 3.0
    voa_error_limit_db: float = 3.0
    passive_loss_limit_db: float = 3.0


# per-step drift magnitude that reaches the failure threshold near step 400
MODE_BASE_RATE = {
    FaultMode.PumpLaser: math.log(2.5) / 400.0,
    FaultMode.PowerDetector: 3.0 / 400.0,
    FaultMode.VOA: 3.0 / 400.0,
    FaultMode.PassiveComponents: 3.0 / 400.0,
}


@dataclass(frozen=True)
class SimConfig:
    mode: FaultMode
    drift_rate_bounds: tuple[float, float] | None = None  # None -> 0.5x..2x base
    noise_scale: float = 1.0
    n_trajectories: int = 10
    max_steps: int = 10000
    op: OperatingPoint = OperatingPoint()
    ctrl: ControllerConfig = ControllerConfig()
    thresholds: FailureThresholds = FailureThresholds()

    def __post_init__(self):
        lo, hi = self.rate_bounds
        if not (0 < lo <= hi):
            raise ValueError(f"bad drift rate bounds ({lo}, {hi})")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")

    @property
    def rate_bounds(self) -> tuple[float, float]:
        if self.drift_rate_bounds is not None:
            return self.drift_rate_bounds
        base = MODE_BASE_RATE[self.mode]
        return (0.5 * base, 2.0 * base)

    @property
    def noise_std(self) -> np.ndarray:
        return BASE_NOISE_STD * self.noise_scale


@dataclass
class AmplifierState:
    """Actuator state, hidden degradation parameters and last readings."""

    pump_current_1: float
    pump_current_2: float
    pump_eff_1: float
    pump_eff_2: float
    voa_commanded: float
    voa_error: float
    passive_loss: float
    pd2_bias: float
    input_power: float
    case_temperature: float
    target_gain_1: float
    target_gain_2: float
    e1_prev: float = 0.0
    e2_prev: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    r3: float = 0.0

    @property
    def target_gain(self) -> float:
        """Overall held reading gain, output over input."""
        return self.target_gain_1 + self.target_gain_2

    def true_powers(self, op: OperatingPoint) -> tuple[float, float]:
        """Noise-free optical power (dBm) at the interstage and output taps;
        each stage's gain in dB is linear in its pump power."""
        g1 = op.gain_per_mw_1 * self.pump_current_1 * self.pump_eff_1
        g2 = op.gain_per_mw_2 * self.pump_current_2 * self.pump_eff_2
        inter = self.input_power + g1 - (self.voa_commanded + self.voa_error)
        out = inter - self.passive_loss + g2
        return inter, out


def init_state(op: OperatingPoint) -> AmplifierState:
    """Healthy steady state; previous readings seeded so the first control
    step sees zero error."""
    state = AmplifierState(
        pump_current_1=op.nominal_current_1,
        pump_current_2=op.nominal_current_2,
        pump_eff_1=op.pump_eff_1,
        pump_eff_2=op.pump_eff_2,
        voa_commanded=op.voa_attenuation_db,
        voa_error=0.0,
        passive_loss=op.passive_loss_db,
        pd2_bias=0.0,
        input_power=op.input_power_dbm,
        case_temperature=op.case_temp_c,
        target_gain_1=op.stage1_target_db,
        target_gain_2=op.stage2_target_db,
    )
    inter, out = state.true_powers(op)
    state.r1 = state.input_power
    state.r2 = inter + state.pd2_bias
    state.r3 = out
    return state


def inject_drift(state: AmplifierState, mode: FaultMode, t: int, rate: float,
                 op: OperatingPoint) -> AmplifierState:
    """Set the selected mode's degradation parameter for step t (exact in t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if mode is FaultMode.PumpLaser:
        state.pump_eff_1 = op.pump_eff_1 * math.exp(-rate * t)
    elif mode is FaultMode.PowerDetector:
        state.pd2_bias = -rate * t
    elif mode is FaultMode.VOA:
        state.voa_error = rate * t
    elif mode is FaultMode.PassiveComponents:
        state.passive_loss = op.passive_loss_db + rate * t
    return state


def agc_step(state: AmplifierState, ctrl: ControllerConfig, op: OperatingPoint) -> AmplifierState:
    """One incremental PI update of both pump currents from the last readings,
    clamped to [0, i_max]."""
    e1 = state.target_gain_1 - (state.r2 - state.r1)
    e2 = state.target_gain_2 - (state.r3 - state.r2)
    state.pump_current_1 = min(op.i_max_ma, max(
        0.0, state.pump_current_1 + ctrl.kp * (e1 - state.e1_prev) + ctrl.ki * e1))
    state.pump_current_2 = min(op.i_max_ma, max(
        0.0, state.pump_current_2 + ctrl.kp * (e2 - state.e2_prev) + ctrl.ki * e2))
    state.e1_prev = e1
    state.e2_prev = e2
    return state


def observe(state: AmplifierState, op: OperatingPoint, noise=None) -> list:
    """Record one channel row and retain the power readings for the next
    control step. ``noise`` holds the row's measurement noise, one value per
    channel; with noise=None the observation is noise-free."""
    inter, out = state.true_powers(op)
    noise = (0.0,) * N_CHANNELS if noise is None else noise
    p1 = state.pump_current_1 * state.pump_eff_1
    p2 = state.pump_current_2 * state.pump_eff_2
    r1 = state.input_power + noise[4]
    r2 = inter + state.pd2_bias + noise[5]
    r3 = out + noise[6]
    state.r1, state.r2, state.r3 = r1, r2, r3
    return [state.pump_current_1 + noise[0], state.pump_current_2 + noise[1],
            p1 + noise[2], p2 + noise[3], r1, r2, r3,
            state.voa_commanded + noise[7], state.case_temperature + noise[8]]


def _noise_rows(rng: np.random.Generator, noise_std: np.ndarray):
    """Measurement noise rows as Python floats, drawn NOISE_BLOCK steps per
    generator call: the same stream as one standard_normal(N_CHANNELS) per step."""
    while True:
        yield from (rng.standard_normal((NOISE_BLOCK, N_CHANNELS)) * noise_std).tolist()


def _crossed(state: AmplifierState, cfg: SimConfig) -> bool:
    th = cfg.thresholds
    if cfg.mode is FaultMode.PumpLaser:
        return state.pump_current_1 >= cfg.op.i_max_ma
    if cfg.mode is FaultMode.PowerDetector:
        return abs(state.pd2_bias) >= th.pd_bias_limit_db
    if cfg.mode is FaultMode.VOA:
        return abs(state.voa_error) >= th.voa_error_limit_db
    return state.passive_loss - cfg.op.passive_loss_db >= th.passive_loss_limit_db


@dataclass
class SimInternals:
    """Per-step hidden state retained for diagnostics and tests."""

    drift_rate: float
    pump_eff_1: list = field(default_factory=list)
    pd2_bias: list = field(default_factory=list)
    voa_error: list = field(default_factory=list)
    passive_loss: list = field(default_factory=list)
    gain_error_1: list = field(default_factory=list)
    gain_error_2: list = field(default_factory=list)
    current_1: list = field(default_factory=list)
    current_2: list = field(default_factory=list)

    def record(self, state: AmplifierState, op: OperatingPoint):
        inter, out = state.true_powers(op)
        self.pump_eff_1.append(state.pump_eff_1)
        self.pd2_bias.append(state.pd2_bias)
        self.voa_error.append(state.voa_error)
        self.passive_loss.append(state.passive_loss)
        # true (noise-free) gain error per stage, before detector bias
        self.gain_error_1.append(
            state.target_gain_1 - ((inter - state.input_power)))
        self.gain_error_2.append(state.target_gain_2 - (out - inter))
        self.current_1.append(state.pump_current_1)
        self.current_2.append(state.pump_current_2)


def draw_drift_rate(cfg: SimConfig, rng: np.random.Generator) -> float:
    lo, hi = cfg.rate_bounds
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def simulate_trajectory(cfg: SimConfig, seed, traj_id: str | None = None,
                        with_internals: bool = False):
    """Run drift -> control -> record until the failure threshold is crossed.

    ``seed`` may be an int or a numpy SeedSequence. Identical (cfg, seed)
    produce bit-identical trajectories.
    """
    rng = np.random.default_rng(seed)
    rate = draw_drift_rate(cfg, rng)
    state = init_state(cfg.op)
    noise_rows = (_noise_rows(rng, cfg.noise_std) if cfg.noise_scale > 0
                  else itertools.repeat(None))
    internals = SimInternals(drift_rate=rate)
    rows = []
    for t, noise in zip(range(cfg.max_steps), noise_rows):
        inject_drift(state, cfg.mode, t, rate, cfg.op)
        agc_step(state, cfg.ctrl, cfg.op)
        rows.append(observe(state, cfg.op, noise))
        if with_internals:
            internals.record(state, cfg.op)
        if _crossed(state, cfg):
            traj = Trajectory(
                traj_id=traj_id or f"{cfg.mode.value}_{rate:.6g}",
                mode=cfg.mode,
                channels=np.asarray(rows),
                failure_index=t,
            )
            return (traj, internals) if with_internals else traj
    raise RuntimeError(
        f"{cfg.mode.value} failure threshold not reached within "
        f"{cfg.max_steps} steps; drift bounds too slow for max_steps")


def trajectory_seed(master_seed: int, mode: FaultMode, index: int) -> np.random.SeedSequence:
    """Deterministic per-trajectory seed derived from the master seed."""
    mode_idx = list(FaultMode).index(mode)
    return np.random.SeedSequence(entropy=(int(master_seed), mode_idx, int(index)))

