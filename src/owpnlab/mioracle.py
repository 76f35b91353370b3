"""Model-free mutual-information estimation on the scalar sub-channels.

These estimators are the independent oracles that the closed-form lower
bounds must not exceed: a plug-in MI over a 2-D histogram, applied to the
amplitude statistic (|X|^2 against the output block norm) and to the
two-sample phase statistic.

Binning: equal-mass (quantile) bins for unbounded real statistics -- the
|X|^2 marginal is heavy-tailed -- and equal-width wrap-aware bins on
[0, 2pi) for circular statistics.  The plug-in estimate carries a
Miller-Madow style bias allowance (n_bins - 1)^2 / (2 n) and a delta-method
standard error computed from the same histogram.

The phase estimator marginalizes over the amplitude |X_1| of the probed
symbol rather than conditioning on it; that only loosens the empirical
target, so the lower-bound inequality direction is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelParams, per_symbol_power
from .sim import _channel, _chunks, _wiener_rows

TWO_PI = 2.0 * math.pi

DEFAULT_BINS = 64
# test allowance for comparing closed-form bounds against these estimates
MI_ALLOWANCE_NATS = 0.05

_MIN_SAMPLES = 10_000
_CHUNK = 1 << 17


@dataclass(frozen=True)
class MiEstimate:
    """Plug-in mutual information in nats with its bias allowance and a
    delta-method standard error; `degenerate` flags a constant marginal."""

    value: float
    n_samples: int
    n_bins: int
    bias_allowance: float
    std_error: float
    degenerate: bool = False


def _plugin_mi(ix: np.ndarray, iy: np.ndarray, n_bins: int) -> MiEstimate:
    n = ix.size
    joint = np.bincount(ix * n_bins + iy, minlength=n_bins * n_bins).reshape(n_bins, n_bins)
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    nz = joint > 0
    p = joint[nz] / n
    log_ratio = np.log(joint[nz] * float(n) / (row[:, None] * col[None, :])[nz])
    value = float(np.sum(p * log_ratio))
    var = max(float(np.sum(p * log_ratio**2)) - value * value, 0.0)
    return MiEstimate(
        value=value,
        n_samples=n,
        n_bins=n_bins,
        bias_allowance=(n_bins - 1) ** 2 / (2.0 * n),
        std_error=math.sqrt(var / n),
    )


def _equal_mass_bins(x: np.ndarray, n_bins: int) -> np.ndarray:
    ranks = np.empty(x.size, dtype=np.int64)
    ranks[np.argsort(x, kind="stable")] = np.arange(x.size)
    return (ranks * n_bins) // x.size


def _circular_bins(x: np.ndarray, n_bins: int) -> np.ndarray:
    wrapped = np.mod(x, TWO_PI)
    return np.minimum((wrapped / TWO_PI * n_bins).astype(np.int64), n_bins - 1)


def _validate(nx: int, ny: int, n_bins: int) -> None:
    if nx != ny:
        raise ValueError(f"sample lengths differ: {nx} vs {ny}")
    if nx < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {nx}")
    if not 8 <= n_bins <= 1024:
        raise ValueError(f"n_bins must lie in [8, 1024], got {n_bins}")


def histogram_mi(
    x_samples: np.ndarray, y_samples: np.ndarray, n_bins: int = DEFAULT_BINS
) -> MiEstimate:
    """Plug-in MI (nats) from a 2-D equal-mass histogram of two real samples.

    A constant marginal makes the MI identically zero; that case is returned
    flagged rather than binned.
    """
    x = np.asarray(x_samples, dtype=float)
    y = np.asarray(y_samples, dtype=float)
    _validate(x.size, y.size, n_bins)
    if x.min() == x.max() or y.min() == y.max():
        return MiEstimate(0.0, x.size, n_bins, 0.0, 0.0, degenerate=True)
    return _plugin_mi(_equal_mass_bins(x, n_bins), _equal_mass_bins(y, n_bins), n_bins)


def amplitude_channel_mi(
    params: ChannelParams, n_samples: int, rng_seed: int, n_bins: int = DEFAULT_BINS
) -> MiEstimate:
    """MC estimate of I(|X|^2 ; ||Y||^2) under CN(0, P/L) inputs.

    Each sample is one symbol interval: the input is rotated by a fresh
    Wiener phase trajectory and buried in CN(0, 2) noise, then the squared
    norm of the L-sample output block is recorded.
    """
    _validate(n_samples, n_samples, n_bins)
    big_l = params.oversampling
    sym_power = per_symbol_power(params)
    x2 = np.empty(n_samples)
    ynorm = np.empty(n_samples)
    scale = math.sqrt(params.freq_noise_var / big_l)
    amp = math.sqrt(sym_power / 2.0)
    for rng, start, m in _chunks(rng_seed, n_samples, max(1, _CHUNK // big_l)):
        x = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * amp
        theta0 = rng.uniform(0.0, TWO_PI, m)
        theta = theta0[:, None] + _wiener_rows(rng, m, big_l + 1, scale)[:, 1:]
        noise = rng.standard_normal((m, big_l)) + 1j * rng.standard_normal((m, big_l))
        y = _channel(x, theta, noise)
        x2[start : start + m] = np.abs(x) ** 2
        ynorm[start : start + m] = np.sum(np.abs(y) ** 2, axis=1)
    return histogram_mi(x2, ynorm, n_bins)


def phase_channel_mi(
    params: ChannelParams, n_samples: int, rng_seed: int, n_bins: int = DEFAULT_BINS
) -> MiEstimate:
    """MC estimate of the information carried by the two-sample phase statistic

        psi = angle(Y_first) - angle(Y_last) + angle(X_0)   (mod 2pi),

    where Y_last is the final output sample of the pilot symbol X_0 and
    Y_first the first sample of the probed symbol X_1.  Only these two
    adjacent samples enter the statistic, so only they are simulated; the
    phase at Y_last is exactly uniform and the two samples are separated by a
    single N(0, sigma2/L) increment.  Circular binning on [0, 2pi)."""
    if params.avg_power <= 0.0:
        raise ValueError("phase statistic needs P > 0")
    _validate(n_samples, n_samples, n_bins)
    big_l = params.oversampling
    amp = math.sqrt(per_symbol_power(params) / 2.0)
    inc_std = math.sqrt(params.freq_noise_var / big_l)
    angles = np.empty(n_samples)
    psi = np.empty(n_samples)
    for rng, start, m in _chunks(rng_seed, n_samples, _CHUNK):
        x0 = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * amp
        x1 = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * amp
        theta_last = rng.uniform(0.0, TWO_PI, m)
        step = rng.normal(0.0, inc_std, m)
        w_last = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        w_first = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y_last = x0 * np.exp(1j * theta_last) + w_last
        y_first = x1 * np.exp(1j * (theta_last + step)) + w_first
        angles[start : start + m] = np.angle(x1)
        psi[start : start + m] = np.angle(y_first) - np.angle(y_last) + np.angle(x0)
    return _plugin_mi(_circular_bins(angles, n_bins), _circular_bins(psi, n_bins), n_bins)
