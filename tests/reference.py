"""Independent brute-force oracles used to freeze expected values.

Everything here is written with plain loops, deliberately sharing no code
with the package's vectorized paths.
"""

import math

import numpy as np


def conv1d_loops(w, b, stride, x, relu=False):
    """Triple-loop valid 1D convolution. w: (D, C, K), x: (C, T)."""
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    d_out, c_in, k = w.shape
    t = x.shape[1]
    n = (t - k) // stride + 1
    y = np.zeros((d_out, n))
    for d in range(d_out):
        for i in range(n):
            acc = b[d]
            for c in range(c_in):
                for kk in range(k):
                    acc += w[d, c, kk] * x[c, stride * i + kk]
            y[d, i] = max(acc, 0.0) if relu else acc
    return y


def flatten_loops(window):
    """Channel-major flattening done index by index."""
    window = np.asarray(window)
    c_in, k = window.shape
    out = np.zeros(c_in * k)
    for c in range(c_in):
        for kk in range(k):
            out[c * k + kk] = window[c, kk]
    return out


def gemv_loops(weights, bias, x):
    """Dense product via explicit loops. weights: (in, out)."""
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(weights.shape[1])
    for o in range(weights.shape[1]):
        acc = bias[o]
        for i in range(weights.shape[0]):
            acc += weights[i, o] * x[i]
        out[o] = acc
    return out


def htk_mel_centers(n_mels, fmin, fmax):
    """Triangular-filter center frequencies on the HTK mel scale."""

    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def inv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    pts = np.linspace(mel(fmin), mel(fmax), n_mels + 2)
    return np.array([inv(p) for p in pts[1:-1]])


def smallest_valid_input(forward, channels, upper=400):
    """Smallest frame count for which `forward` succeeds with >= 1 column."""
    for t in range(1, upper + 1):
        try:
            out = forward(np.zeros((channels, t)))
        except Exception:
            continue
        if out.shape[1] >= 1:
            return t
    raise AssertionError(f"no valid input length up to {upper}")


def decode_loops(probs, window, smooth, keyword_ids, threshold):
    """Smoothing, window score and events over a list of probability
    vectors, one list per step: (smoothed, score, event score or None)."""
    smoothed_all, out = [], []
    prev_score, refractory = 0.0, 0
    for n in range(len(probs)):
        recent = probs[max(0, n - smooth + 1) : n + 1]
        smoothed = [sum(f[c] for f in recent) / len(recent) for c in range(len(probs[n]))]
        smoothed_all.append(smoothed)
        in_window = smoothed_all[max(0, n - window + 1) : n + 1]
        maxima = [max(f[k] for f in in_window) for k in keyword_ids]
        if min(maxima) <= 0.0:
            score = 0.0
        else:
            score = math.exp(sum(math.log(m) for m in maxima) / len(maxima))
            score = min(max(score, 0.0), 1.0)
        event = None
        if refractory > 0:
            refractory -= 1
        elif prev_score < threshold <= score:
            event = score
            refractory = window
        prev_score = score
        out.append((smoothed, score, event))
    return out


def _round_half_away(v):
    return int(math.copysign(math.floor(abs(v) + 0.5), v))


def int8_stream_loops(stages, x, primed):
    """Logits of an int8 stage chain run over float frames x (C, T).

    Each stage is a dict of plain values: int weights (in, out) and int
    bias, w_scale, in_scale/in_zp, out_scale/out_zp, relu, kernel, stride
    and residual_from. Codes are integers with zero points; the
    accumulator sums (q - in_zp) * w exactly in Python integers, and
    requantization is round(acc * w_scale * in_scale / out_scale) + out_zp,
    relu max(z, out_zp), plus round((r - src_zp) * src_scale / out_scale)
    for a residual r, clipped to [-128, 127]. A stage runs over its whole
    input at once, preceded by max(K - s, 0) zero-point columns unless
    primed, when the head of its input is its history. Returns the last
    stage's columns as floats (q - out_zp) * out_scale.
    """
    first = stages[0]
    cols = [
        [min(max(_round_half_away(v / first["in_scale"]) + first["in_zp"], -128), 127) for v in col]
        for col in zip(*x)
    ]
    inputs = {}
    for j, st in enumerate(stages):
        k, s = st["kernel"], st["stride"]
        w, b = st["weights"], st["bias"]
        channels, h = len(w) // k, max(k - s, 0)
        if not primed:
            cols = [[st["in_zp"]] * channels] * h + cols
        inputs[j] = cols[h:]
        m = st["w_scale"] * st["in_scale"] / st["out_scale"]
        out = []
        for i in range(0, len(cols) - k + 1, s):
            window = [cols[i + kk][c] for c in range(channels) for kk in range(k)]
            col = []
            for o in range(len(b)):
                acc = int(b[o])
                for n, q in enumerate(window):
                    acc += (q - st["in_zp"]) * int(w[n][o])
                z = _round_half_away(float(acc) * m) + st["out_zp"]
                if st["relu"]:
                    z = max(z, st["out_zp"])
                col.append(z)
            out.append(col)
        r = st["residual_from"]
        if r is not None:
            src = stages[r]
            ratio = src["in_scale"] / st["out_scale"]
            for col, res in zip(out, inputs[r]):
                for o in range(len(col)):
                    col[o] += _round_half_away((float(res[o]) - src["in_zp"]) * ratio)
        cols = [[min(max(z, -128), 127) for z in col] for col in out]
    last = stages[-1]
    return [[(z - last["out_zp"]) * last["out_scale"] for z in col] for col in cols]


def logmel_frames_loops(pcm, cfg):
    """Normalized log-mel frames of a whole PCM stream, one loop turn per
    frame: slice a window, rfft, one mel-bank GEMV, log, normalize. Only
    the config's Hann window and mel bank are shared with the package.
    Returns (n_mels, k)."""
    x = np.asarray(pcm)
    x = x / 32768.0 if x.dtype == np.int16 else x.astype(np.float64)
    win, hop = cfg.window_samples, cfg.hop_samples
    frames = []
    for start in range(0, x.size - win + 1, hop):
        spectrum = np.fft.rfft(x[start : start + win] * cfg.hann, n=cfg.n_fft)
        power = spectrum.real**2 + spectrum.imag**2
        energies = cfg.mel_bank @ power
        frames.append((np.log(energies + cfg.log_floor) - cfg.norm_mean) / cfg.norm_std)
    return np.stack(frames, axis=1) if frames else np.zeros((cfg.n_mels, 0))
