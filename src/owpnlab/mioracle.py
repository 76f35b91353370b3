"""Model-free mutual-information estimation on the scalar sub-channels.

These estimators are the independent oracles that the closed-form lower
bounds must not exceed: a plug-in MI over a 2-D histogram, applied to the
amplitude statistic (|X|^2 against the output block norm) and to the
two-sample phase statistic.

Binning: equal-mass bins for unbounded real statistics -- the |X|^2
marginal is heavy-tailed -- from sample ranks in :func:`histogram_mi` and
from the exact marginal laws in the amplitude oracle, and equal-width
wrap-aware bins on [0, 2pi) for circular statistics.  The plug-in estimate
carries a Miller-Madow style bias allowance (n_bins - 1)^2 / (2 n)
and a delta-method standard error computed from the same histogram.

The phase estimator marginalizes over the amplitude |X_1| of the probed
symbol rather than conditioning on it; that only loosens the empirical
target, so the lower-bound inequality direction is preserved.

Both oracles simulate only the law their statistic depends on.  The noise
is circularly symmetric and independent of the phase, so noise rotated by
the phase is again i.i.d. CN(0, 2): the block norm ||Y||^2 has the law of
sum_k |X + W_k|^2, which is that of |sqrt(L) X + W'|^2 + 2 G with
G ~ Gamma(L - 1, 1), and in the two-sample phase statistic the absolute
phase cancels.  Neither oracle draws a uniform phase, builds a phase path or
calls ``cos``/``sin``; the amplitude oracle needs no sigma2 at all, and draws
4 normals and (for L > 1) one gamma per sample, whatever L is.  |X|^2 is
xr^2 + xi^2, the block norm yr^2 + yi^2 + 2 G, and each angle
``arctan2(imag, real)``.  An estimate depends on its samples only through
bin indices (and, in :func:`histogram_mi`, ranks), so it is byte-stable
under last-ulp changes in ``arctan2`` except where such a change moves a
sample across a bin edge or reorders two samples at an edge.  ``exp``,
``log`` and ``lgamma`` enter the amplitude oracle only through its edges.

Memory: each oracle reads its statistics from one generator over its law
(:func:`_amplitude_blocks`, :func:`_phase_blocks`), whose draws come from
the Monte Carlo engine :func:`owpnlab.sim._row_blocks` one row block of at
most ``sim._block_rows(width)`` samples at a time, one sample per column;
:func:`_binned_mi` adds every block to the joint histogram and keeps no
per-sample arrays.  As for every estimator of the engine, the
reproducibility key is ``(seed, n_samples)``: sample ``j`` is drawn from
``sim.substream(seed, j // 8192)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .model import ChannelParams, per_symbol_power
from .sim import _row_blocks

TWO_PI = 2.0 * math.pi

DEFAULT_BINS = 64
# test allowance for comparing closed-form bounds against these estimates
MI_ALLOWANCE_NATS = 0.05

_MIN_SAMPLES = 10_000


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


def _joint_counts(ix: np.ndarray, iy: np.ndarray, n_bins: int) -> np.ndarray:
    """The ``(n_bins, n_bins)`` histogram of paired bin indices."""
    joint = np.multiply(ix, n_bins, dtype=np.intp)
    joint += iy
    return np.bincount(joint, minlength=n_bins * n_bins).reshape(n_bins, n_bins)


def _plugin_mi(joint: np.ndarray) -> MiEstimate:
    n_bins = joint.shape[0]
    n = int(joint.sum())
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
    """``(rank * n_bins) // n`` for the stable rank of each sample.

    Rank r lies in bin k or above exactly when r >= ceil(k n / n_bins), so the
    bins are a fixed table over the positions of one stable sort.  Needs
    ``x.size >= n_bins``; the bins are int16, as ``n_bins <= 1024``.
    """
    n = x.size
    order = np.argsort(x, kind="stable")
    edges = -((-np.arange(1, n_bins) * n) // n_bins)
    bins = np.empty(n, dtype=np.int16)
    bins[order] = np.repeat(
        np.arange(n_bins, dtype=np.int16), np.diff(edges, prepend=0, append=n)
    )
    return bins


def _circular_bins(x: np.ndarray, n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """int16 bins of width 2pi / n_bins over the angles `x` taken mod 2pi.

    The wrap is ``np.mod``'s own arithmetic, written out: ``fmod``, then
    plus 2pi where the remainder is negative, so each wrapped angle is the
    float ``np.mod(x, 2pi)`` gives (a zero remainder becomes +0.0)."""
    wrapped = np.fmod(x, TWO_PI)
    wrapped += np.where(wrapped < 0.0, TWO_PI, 0.0)
    wrapped /= TWO_PI
    wrapped *= n_bins
    bins = wrapped.astype(np.int16)
    return np.minimum(bins, n_bins - 1, out=bins)


def _binned_mi(pairs: Iterable[tuple[np.ndarray, np.ndarray]], bin_x, bin_y) -> MiEstimate:
    """Plug-in MI of the ``(DEFAULT_BINS, DEFAULT_BINS)`` histogram of the
    blocks of paired samples `pairs`, binned by `bin_x` and `bin_y` and
    added up block by block."""
    joint = np.zeros((DEFAULT_BINS, DEFAULT_BINS), dtype=np.int64)
    for x, y in pairs:
        joint += _joint_counts(bin_x(x), bin_y(y), DEFAULT_BINS)
    return _plugin_mi(joint)


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
    flagged rather than binned.  Samples must be finite.
    """
    x = np.asarray(x_samples, dtype=float)
    y = np.asarray(y_samples, dtype=float)
    _validate(x.size, y.size, n_bins)
    limits = [(s.min(), s.max()) for s in (x, y)]
    if not all(math.isfinite(v) for pair in limits for v in pair):
        raise ValueError("samples must be finite")
    if any(lo == hi for lo, hi in limits):
        return MiEstimate(0.0, x.size, n_bins, 0.0, 0.0, degenerate=True)
    ix = _equal_mass_bins(x, n_bins)
    return _plugin_mi(_joint_counts(ix, _equal_mass_bins(y, n_bins), n_bins))


def amplitude_channel_mi(params: ChannelParams, n_samples: int, rng_seed: int) -> MiEstimate:
    """MC estimate of I(|X|^2 ; ||Y||^2) under CN(0, P/L) inputs.

    Each sample is one symbol interval: Y_k = X e^{j theta_k} + W_k for the
    L samples of the block.  The noise is circularly symmetric and independent
    of the phase, so W_k e^{-j theta_k} is again i.i.d. CN(0, 2) and
    ||Y||^2 = sum_k |X + W_k e^{-j theta_k}|^2 has the law of
    sum_k |X + W_k|^2, whatever sigma2 is.  Rotating the noise along
    (1, ..., 1)/sqrt(L) gives ||Y||^2 = |sqrt(L) X + W'|^2 + 2 G, with
    W' ~ CN(0, 2) and G ~ Gamma(L - 1, 1) independent of X and of each
    other: Exp(mean P + 2) plus Gamma(L - 1, scale 2).  Only that law is
    simulated, so a sample costs the same at any L: one row of 4 normals
    (the real and imaginary parts of X, then those of W') and, for L > 1,
    one gamma, drawn with the rest of its chunk's gammas at the chunk's
    start; at L = 1 nothing but the normals is drawn.

    Both statistics take DEFAULT_BINS equal-mass bins of their exact laws
    (:mod:`owpnlab._amplitude_bins`), and the histogram is accumulated row
    block by row block.  |X|^2 is Exp(mean P/L).  Below a normal P/L,
    |X|^2 underflows and the estimate is degenerate, as at P = 0; where the
    ||Y||^2 edges overflow (P above about 3.7e307), ValueError.  Below that,
    from about 1.3e307, a sample's |X|^2 or ||Y||^2 may overflow to inf,
    which lands in the top bin, silently.
    """
    # imported here: compiled at every start-up, its code raised the peak
    # RSS of `verify`, which peaks before its MI rows, by about 0.06 MB
    from ._amplitude_bins import _LEVELS, _EdgeBins, _norm_edges

    _validate(n_samples, n_samples, DEFAULT_BINS)
    power = per_symbol_power(params)
    if power < 2.0**-1022:  # the smallest normal float
        return MiEstimate(0.0, n_samples, DEFAULT_BINS, 0.0, 0.0, degenerate=True)
    norm_bins = _EdgeBins(_norm_edges(params.avg_power, params.oversampling))
    x2_bins = _EdgeBins(-power * np.log1p(-_LEVELS))
    with np.errstate(over="ignore"):
        return _binned_mi(_amplitude_blocks(params, n_samples, rng_seed), x2_bins, norm_bins)


def _amplitude_blocks(params: ChannelParams, n_samples: int, rng_seed: int):
    """Yield |X|^2 and ||Y||^2 of the samples of :func:`amplitude_channel_mi`,
    one row block of :func:`owpnlab.sim._row_blocks` at a time, each in an
    array of its own."""
    big_l = params.oversampling
    amp = math.sqrt(per_symbol_power(params) / 2.0)
    root_l = math.sqrt(big_l)
    # one sample per column: every part below is a contiguous row
    for z, free, _ in _row_blocks(rng_seed, n_samples, 4, gamma_shape=big_l - 1):
        z[:2] *= amp
        xr, xi, yr, yi = z[:4]
        x2 = xr * xr
        x2 += np.multiply(xi, xi, out=free[0])
        xr *= root_l
        xi *= root_l
        yr += xr
        yi += xi
        norm = yr * yr
        norm += np.multiply(yi, yi, out=yi)
        if big_l > 1:
            norm += np.multiply(z[4], 2.0, out=z[4])
        yield x2, norm


def phase_channel_mi(params: ChannelParams, n_samples: int, rng_seed: int) -> MiEstimate:
    """MC estimate of the information carried by the two-sample phase statistic

        psi = angle(Y_first) - angle(Y_last) + angle(X_0)   (mod 2pi),

    where Y_last is the final output sample of the pilot symbol X_0 and
    Y_first the first sample of the probed symbol X_1.  Only these two
    adjacent samples enter the statistic, and they are separated by a single
    N(0, sigma2/L) increment Delta.  Their absolute phase cancels: with noise
    rotated back by it (again i.i.d. CN(0, 2)),

        psi = Delta + angle(X_1 + W_first) - angle(X_0 + W_last) + angle(X_0),

    so only that is simulated.  A sample's normals are one row of 9: X_0 and
    X_1 (real, imaginary), the increment, then the noise of Y_last and of
    Y_first (real, imaginary).  Circular binning into DEFAULT_BINS bins on
    [0, 2pi); the histogram is accumulated row block by row block."""
    if params.avg_power <= 0.0:
        raise ValueError("phase statistic needs P > 0")
    _validate(n_samples, n_samples, DEFAULT_BINS)
    return _binned_mi(_phase_blocks(params, n_samples, rng_seed), _circular_bins, _circular_bins)


def _phase_blocks(params: ChannelParams, n_samples: int, rng_seed: int):
    """Yield angle(X_1) and psi of the samples of :func:`phase_channel_mi`,
    one row block of :func:`owpnlab.sim._row_blocks` at a time."""
    big_l = params.oversampling
    amp = math.sqrt(per_symbol_power(params) / 2.0)
    inc_std = math.sqrt(params.freq_noise_var / big_l)
    # one sample per column: every part below is a contiguous row
    for z, _, _ in _row_blocks(rng_seed, n_samples, 9):
        z[:4] *= amp
        z[4] *= inc_std
        x0r, x0i, x1r, x1i, psi, ylr, yli, yfr, yfi = z
        ylr += x0r
        yli += x0i
        yfr += x1r
        yfi += x1i
        # each angle goes into a buffer that is not read again
        psi += np.arctan2(yfi, yfr, out=yfr)
        psi -= np.arctan2(yli, ylr, out=ylr)
        psi += np.arctan2(x0i, x0r, out=x0r)
        yield np.arctan2(x1i, x1r, out=x1r), psi
