"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (explicit loops, no shared
code with the package) so a bug in the library cannot hide in its own test.
"""

import csv
import math

import numpy as np
from scipy.special import erf

from slat import simulator as sim
from slat.windowing import Windows, WindowStack


def naive_window_starts(n_steps, n_stw, stride):
    starts = []
    s = 0
    while s + n_stw <= n_steps:
        starts.append(s)
        s += stride
    return starts


def materialized_window_values(trajs, n_stw, stride, stats):
    """The (W, n_stw, S) stack with every window's rows copied out: the raw
    windows of every trajectory in order, concatenated, then ``-=`` the
    channel mean and ``/=`` the channel std in place."""
    values = np.concatenate([[t.channels[s:s + n_stw]
                              for s in naive_window_starts(t.n_steps, n_stw, stride)]
                             for t in trajs])
    values -= stats.channel_mean
    values /= stats.channel_std
    return values


def synthetic_windows(values, descriptors, targets, traj_ids):
    """A ``Windows`` over given (W, n, S) window values, for tests that make
    up their windows: the windows' rows are laid end to end in the row
    buffer, so window i starts at row i * n."""
    values = np.asarray(values, dtype=np.float64)
    w, n, s = values.shape
    return Windows(WindowStack(values.reshape(-1, s), np.arange(w) * n, n),
                   descriptors, targets, traj_ids)


def naive_mean_slope(window):
    """Per-channel mean and least-squares slope using plain Python sums."""
    window = np.asarray(window, dtype=float)
    n, n_ch = window.shape
    means, slopes = [], []
    for c in range(n_ch):
        ys = [float(window[t, c]) for t in range(n)]
        mean = sum(ys) / n
        t_mean = (n - 1) / 2.0
        num = sum((t - t_mean) * (ys[t] - mean) for t in range(n))
        den = sum((t - t_mean) ** 2 for t in range(n))
        means.append(mean)
        slopes.append(num / den)
    return means, slopes


def naive_rul(failure_index, t, cap):
    return min(float(cap), float(failure_index - t))


def dense_attention_reference(q, k, v):
    """Unmasked scaled dot-product attention with explicit loops."""
    q = np.asarray(q, dtype=float)
    k = np.asarray(k, dtype=float)
    v = np.asarray(v, dtype=float)
    lq, d = q.shape
    lk = k.shape[0]
    out = np.zeros((lq, v.shape[1]))
    weights = np.zeros((lq, lk))
    for i in range(lq):
        logits = [float(q[i] @ k[j]) / math.sqrt(d) for j in range(lk)]
        mx = max(logits)
        exps = [math.exp(x - mx) for x in logits]
        z = sum(exps)
        for j in range(lk):
            weights[i, j] = exps[j] / z
            out[i] += weights[i, j] * v[j]
    return out, weights


def naive_band_global_grid(length, band_width, global_tokens):
    """Boolean attention grid built position by position."""
    g = set(global_tokens)
    grid = np.zeros((length, length), dtype=bool)
    for i in range(length):
        for j in range(length):
            if abs(i - j) <= band_width or i in g or j in g:
                grid[i, j] = True
    return grid


def numeric_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return grad


def retained_bytes(obj, exclude=()):
    """Bytes of the distinct arrays that own the memory of every array found
    in nested tuples, lists and dicts of obj; owners of arrays found in
    ``exclude`` (for example the parameter dict) are left out."""
    def owners(o, out):
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            out[id(o)] = o
        elif isinstance(o, (tuple, list)):
            for item in o:
                owners(item, out)
        elif isinstance(o, dict):
            for item in o.values():
                owners(item, out)
        return out

    skip = owners(exclude, {})
    return sum(a.nbytes for key, a in owners(obj, {}).items() if key not in skip)


# Textbook one-line forms of the layer kernels. The library computes the same
# operations in the same order with fewer temporaries, so results must be
# bit-identical (GELU itself excepted: the library uses the normal CDF).

def softmax_reference(logits, allowed):
    if allowed is not None:
        logits = np.where(allowed, logits, -np.inf)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_reference(x, gain, bias, eps):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)) * gain + bias


def layer_norm_backward_reference(gy, xhat, inv, gain):
    gxhat = gy * gain
    d = xhat.shape[-1]
    gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
    return gx, (gy * xhat).reshape(-1, d).sum(axis=0), gy.reshape(-1, d).sum(axis=0)


def gelu_erf_reference(x):
    return x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))


def gelu_backward_reference(gy, x, phi):
    return gy * (phi + x * (np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))))


def dropout_reference(x, rate, rng):
    keep = (rng.random(x.shape) >= rate).astype(np.float64) / (1.0 - rate)
    return x * keep, keep


def adam_reference(p, g, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam update; returns the new (p, m, v)."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    step = lr * (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
    return p - step, m, v


def single_head_weights(mats):
    """``mha_forward`` weights for one head whose q, k and v projections are
    the (d_model, d_head) matrices ``mats``, stored as the factors ``m @ I``,
    with an identity output projection and a zero bias, so the forward
    returns the attention context itself."""
    eye = np.eye(mats[0].shape[1])
    weights = {"out_w": eye, "out_b": np.zeros(len(eye))}
    for name, m in zip("qkv", mats):
        weights[f"{name}_u"], weights[f"{name}_v"] = m[None], eye[None]
    return weights


# Corpus set-up written step by step: one noise draw per simulated step, and
# the csv module writing and reading one row at a time. The library draws noise
# in blocks and writes and parses whole files; its corpora must be bit- and
# byte-identical. The simulator's step functions themselves are the library's.

def observe_reference(state, noise_std, rng):
    """One channel row, with its noise drawn for this step alone."""
    inter, out = state.true_powers()
    noise = rng.standard_normal(len(noise_std)) * noise_std if rng is not None else np.zeros(9)
    r1 = sim.INPUT_POWER_DBM + noise[4]
    r2 = inter + state.pd2_bias + noise[5]
    r3 = out + noise[6]
    state.r1, state.r2, state.r3 = r1, r2, r3
    return np.array([state.pump_current_1 + noise[0], state.pump_current_2 + noise[1],
                     state.pump_current_1 * state.pump_eff_1 + noise[2],
                     state.pump_current_2 * sim.PUMP_EFF_2 + noise[3], r1, r2, r3,
                     sim.VOA_ATTENUATION_DB + noise[7], sim.CASE_TEMP_C + noise[8]])


def simulate_trajectory_reference(cfg, seed):
    """Channels ``(T, 9)`` of one run to failure and its hidden state, one
    array per name over the steps: the drifted parameters, the stage-1 pump
    current and each stage's true (noise-free) gain error."""
    rng = np.random.default_rng(seed)
    rate = sim.draw_drift_rate(cfg, rng)
    state = sim.init_state()
    rows, hidden = [], {}
    for t in range(sim.MAX_STEPS):
        sim.inject_drift(state, cfg.mode, t, rate)
        sim.agc_step(state)
        rows.append(observe_reference(state, cfg.noise_std,
                                      rng if cfg.noise_scale > 0 else None))
        inter, out = state.true_powers()
        step = {"pd2_bias": state.pd2_bias, "voa_error": state.voa_error,
                "passive_loss": state.passive_loss, "current_1": state.pump_current_1,
                "gain_error_1": sim.STAGE1_TARGET_DB - (inter - sim.INPUT_POWER_DBM),
                "gain_error_2": sim.STAGE2_TARGET_DB - (out - inter)}
        for name, value in step.items():
            hidden.setdefault(name, []).append(value)
        if sim._crossed(state, cfg.mode):
            return np.asarray(rows), {k: np.asarray(v) for k, v in hidden.items()}
    raise RuntimeError("failure threshold not reached")


def write_trajectory_csv_reference(path, channels, cap):
    """``t, ch_0.., rul`` through ``csv.writer``, floats as ``repr``."""
    failure_index = len(channels) - 1
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"ch_{i}" for i in range(channels.shape[1])] + ["rul"])
        for t, row in enumerate(channels):
            writer.writerow([str(t)] + [repr(float(v)) for v in row]
                            + [repr(naive_rul(failure_index, t, cap))])


def read_trajectory_csv_reference(path):
    """The channel columns through ``csv.reader`` and ``float``."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.asarray([[float(x) for x in row[1:-1]] for row in reader])
