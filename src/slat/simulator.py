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

A trajectory ends at the step its mode's failure threshold is crossed, and
``simulate_trajectory`` returns only its channel rows as a ``Trajectory``;
the hidden per-step state stays inside the step functions, which a caller
can replay one by one. Everything is driven by a single seeded generator, so
a (config, seed) pair reproduces a trajectory bit for bit.

There is one simulated device: its setpoint, pump efficiencies, current
limit, PI gains, failure limits and step budget (``MAX_STEPS``) are module
constants, and ``AmplifierState`` holds only what varies during a run. A
``SimConfig`` sets the fault mode, the drift-rate bounds as multiples of that
mode's ``MODE_BASE_RATE`` and the scale of the measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# Device constants of the one simulated amplifier at its healthy setpoint.
INPUT_POWER_DBM = -6.0
STAGE1_GAIN_DB = 18.0
STAGE2_GAIN_DB = 14.0
VOA_ATTENUATION_DB = 4.0
PASSIVE_LOSS_DB = 2.0
GAIN_PER_MW_1 = 0.20   # dB of stage gain per mW of pump power
GAIN_PER_MW_2 = 0.20
PUMP_EFF_1 = 0.90      # mW per mA
PUMP_EFF_2 = 0.85
I_MAX_MA = 250.0
CASE_TEMP_C = 45.0

NOMINAL_CURRENT_1 = STAGE1_GAIN_DB / (GAIN_PER_MW_1 * PUMP_EFF_1)
NOMINAL_CURRENT_2 = STAGE2_GAIN_DB / (GAIN_PER_MW_2 * PUMP_EFF_2)
STAGE1_TARGET_DB = STAGE1_GAIN_DB - VOA_ATTENUATION_DB  # held interstage - input
STAGE2_TARGET_DB = STAGE2_GAIN_DB - PASSIVE_LOSS_DB     # held output - interstage

KP, KI = 1.0, 8.0  # incremental PI gains in mA per dB of gain error

# a drifted parameter fails at this many dB (bias, VOA error, added loss)
FAILURE_LIMIT_DB = 3.0
MAX_STEPS = 10000  # a run that has not failed by then raises


# per-step drift magnitude that reaches the failure threshold near step 400
MODE_BASE_RATE = {
    FaultMode.PumpLaser: math.log(2.5) / 400.0,
    FaultMode.PowerDetector: 3.0 / 400.0,
    FaultMode.VOA: 3.0 / 400.0,
    FaultMode.PassiveComponents: 3.0 / 400.0,
}

# default log-uniform drift-rate bounds, as multiples of the mode's base rate
RATE_SCALE = (0.5, 2.0)


@dataclass(frozen=True)
class SimConfig:
    mode: FaultMode
    rate_scale: tuple[float, float] = RATE_SCALE
    noise_scale: float = 1.0

    def __post_init__(self):
        lo, hi = self.rate_bounds
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"bad drift rate scale {self.rate_scale}")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")

    @property
    def rate_bounds(self) -> tuple[float, float]:
        base = MODE_BASE_RATE[self.mode]
        return (self.rate_scale[0] * base, self.rate_scale[1] * base)

    @property
    def noise_std(self) -> np.ndarray:
        return BASE_NOISE_STD * self.noise_scale


@dataclass
class AmplifierState:
    """What changes during a run: pump currents, hidden degradation
    parameters, last readings and the PI loops' previous errors."""

    pump_current_1: float
    pump_current_2: float
    pump_eff_1: float = PUMP_EFF_1
    voa_error: float = 0.0
    passive_loss: float = PASSIVE_LOSS_DB
    pd2_bias: float = 0.0
    e1_prev: float = 0.0
    e2_prev: float = 0.0
    r1: float = 0.0
    r2: float = 0.0
    r3: float = 0.0

    def true_powers(self) -> tuple[float, float]:
        """Noise-free optical power (dBm) at the interstage and output taps;
        each stage's gain in dB is linear in its pump power."""
        g1 = GAIN_PER_MW_1 * self.pump_current_1 * self.pump_eff_1
        g2 = GAIN_PER_MW_2 * self.pump_current_2 * PUMP_EFF_2
        inter = INPUT_POWER_DBM + g1 - (VOA_ATTENUATION_DB + self.voa_error)
        out = inter - self.passive_loss + g2
        return inter, out


def init_state() -> AmplifierState:
    """Healthy steady state; previous readings seeded so the first control
    step sees zero error."""
    state = AmplifierState(NOMINAL_CURRENT_1, NOMINAL_CURRENT_2)
    observe(state, (0.0,) * N_CHANNELS)
    return state


def inject_drift(state: AmplifierState, mode: FaultMode, t: int, rate: float) -> AmplifierState:
    """Set the selected mode's degradation parameter for step t (exact in t)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if mode is FaultMode.PumpLaser:
        state.pump_eff_1 = PUMP_EFF_1 * math.exp(-rate * t)
    elif mode is FaultMode.PowerDetector:
        state.pd2_bias = -rate * t
    elif mode is FaultMode.VOA:
        state.voa_error = rate * t
    elif mode is FaultMode.PassiveComponents:
        state.passive_loss = PASSIVE_LOSS_DB + rate * t
    return state


def agc_step(state: AmplifierState) -> AmplifierState:
    """One incremental PI update of both pump currents from the last readings,
    clamped to [0, I_MAX_MA]."""
    e1 = STAGE1_TARGET_DB - (state.r2 - state.r1)
    e2 = STAGE2_TARGET_DB - (state.r3 - state.r2)
    state.pump_current_1 = min(I_MAX_MA, max(
        0.0, state.pump_current_1 + KP * (e1 - state.e1_prev) + KI * e1))
    state.pump_current_2 = min(I_MAX_MA, max(
        0.0, state.pump_current_2 + KP * (e2 - state.e2_prev) + KI * e2))
    state.e1_prev = e1
    state.e2_prev = e2
    return state


def observe(state: AmplifierState, noise) -> list:
    """Record one channel row with ``noise``, one measurement-noise value per
    channel, and retain the power readings for the next control step."""
    inter, out = state.true_powers()
    p1 = state.pump_current_1 * state.pump_eff_1
    p2 = state.pump_current_2 * PUMP_EFF_2
    r1 = INPUT_POWER_DBM + noise[4]
    r2 = inter + state.pd2_bias + noise[5]
    r3 = out + noise[6]
    state.r1, state.r2, state.r3 = r1, r2, r3
    return [state.pump_current_1 + noise[0], state.pump_current_2 + noise[1],
            p1 + noise[2], p2 + noise[3], r1, r2, r3,
            VOA_ATTENUATION_DB + noise[7], CASE_TEMP_C + noise[8]]


def _noise_rows(rng: np.random.Generator, noise_std: np.ndarray):
    """Measurement noise rows as Python floats, drawn NOISE_BLOCK steps per
    generator call: the same stream as one standard_normal(N_CHANNELS) per step."""
    while True:
        yield from (rng.standard_normal((NOISE_BLOCK, N_CHANNELS)) * noise_std).tolist()


def _crossed(state: AmplifierState, mode: FaultMode) -> bool:
    if mode is FaultMode.PumpLaser:
        return state.pump_current_1 >= I_MAX_MA
    if mode is FaultMode.PowerDetector:
        return abs(state.pd2_bias) >= FAILURE_LIMIT_DB
    if mode is FaultMode.VOA:
        return abs(state.voa_error) >= FAILURE_LIMIT_DB
    return state.passive_loss - PASSIVE_LOSS_DB >= FAILURE_LIMIT_DB


def draw_drift_rate(cfg: SimConfig, rng: np.random.Generator) -> float:
    lo, hi = cfg.rate_bounds
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def simulate_trajectory(cfg: SimConfig, seed, traj_id: str | None = None) -> Trajectory:
    """Run drift -> control -> record until the failure threshold is crossed.

    ``seed`` may be an int or a numpy SeedSequence. Identical (cfg, seed)
    produce bit-identical trajectories.
    """
    rng = np.random.default_rng(seed)
    rate = draw_drift_rate(cfg, rng)
    state = init_state()
    rows = []
    # at noise_scale 0 the rows are +-0.0, which change no nonzero reading
    for t, noise in zip(range(MAX_STEPS), _noise_rows(rng, cfg.noise_std)):
        inject_drift(state, cfg.mode, t, rate)
        agc_step(state)
        rows.append(observe(state, noise))
        if _crossed(state, cfg.mode):
            return Trajectory(traj_id=traj_id or f"{cfg.mode.value}_{rate:.6g}",
                              mode=cfg.mode, channels=np.asarray(rows))
    raise RuntimeError(
        f"{cfg.mode.value} failure threshold not reached within "
        f"{MAX_STEPS} steps; drift bounds too slow")


def trajectory_seed(master_seed: int, mode: FaultMode, index: int) -> np.random.SeedSequence:
    """Deterministic per-trajectory seed derived from the master seed."""
    mode_idx = list(FaultMode).index(mode)
    return np.random.SeedSequence(entropy=(int(master_seed), mode_idx, int(index)))

