"""Monte Carlo estimators used to cross-check every closed-form constant.

One engine serves every Monte Carlo path here and in :mod:`owpnlab.mioracle`:
:func:`_row_blocks` walks the chunks of a sample budget (:func:`_chunks`) one
row block at a time, and it is the only place that draws.  The path
estimators build their Wiener paths from its normals in place
(:func:`_wiener_paths`); the MI oracles simulate only the law of their
statistics, with no phase path.

Randomness discipline: a master seed names a family of independent substreams
via ``SeedSequence(seed, spawn_key=(index,))``.  Every estimator, whatever its
number of normals per sample, cuts its sample budget into chunks of 8192
samples (the last one partial): sample ``j`` comes from substream
``j // 8192``, so the reproducibility key is ``(seed, n_samples)``.  Every
estimator lays its draws out the same way: a sample's `width` standard normals
are one row, and a chunk's normals are the rows of one
``standard_normal((m, width))`` draw, made one row block at a time.  The
reduction order is fixed in full: each chunk's per-sample values are summed by
one ``np.sum``, and the chunk sums are added left to right from 0.0
(:class:`_Accumulator`).  Results are therefore bit-identical for a given
(seed, n_samples) regardless of how the chunks would be scheduled and of the
numpy version on either side of 2.3, where ``np.sum`` of a long array stopped
working in 8192-element buffers.
Not covered: a different numpy ``Generator`` stream, or elementwise
``exp``/``cos``/``sin``/``log``/``power`` results that differ in another
numpy or libm build.  The MI estimates of
:mod:`owpnlab.mioracle` are sturdier: they see their samples only through
bin indices and equal-mass ranks (see there).

Every estimator works one sample per column: :func:`_row_blocks` transposes
each row block's draw once into a ``(width, m)`` array, so that every step of
the arithmetic runs over the block's `m` samples at once.  A path of `n`
points is its ``n - 1`` increments, built in ``np.cumsum``'s order, with
point 0, exactly 0.0, left implicit; its points are summed left to right
from point 0's value (:func:`_column_sums`), whatever `m` is;
``np.add.reduce(axis=0)`` would sum a single column, m = 1, pairwise.

Working memory does not grow with the budget: a row block holds
``_BLOCK_ELEMENTS`` (2^14) normals, except that rows of more than 16 values
get at least 1024 rows, and that no block holds more than 2^16 normals
(:func:`_block_rows`) or more than its chunk's 8192 rows; a block's draw and
its transpose live in two buffers made once per call, and the estimators
reuse both.  Drawing k1 rows and then k2 rows gives the same values as one
draw of k1 + k2 rows, every per-sample value depends on its own row only, and
the per-row values reach the accumulators one whole chunk at a time, so the
row-block size is not part of the key.

Samples are never recombined to a coarser sampling grid: the discrete channel
law drops the intra-sample fading information such recombining would need, so
a "resample to smaller L" helper would be unsound and is deliberately absent.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .model import ChannelParams, McEstimate

_MIN_SAMPLES = 1_000
# Samples per chunk, each chunk reduced by one np.sum (see _Accumulator):
# numpy's iterator buffer size before 2.3, so that the np.sum of a chunk is
# one inner loop in any numpy.  The reproducibility key.
_SUM_BLOCK = 8192
# Normals per row block (see _block_rows): small enough to bound memory,
# large enough that per-block Python calls stay negligible.  Not part of the
# reproducibility key.
_BLOCK_ELEMENTS = 1 << 14
# Largest power estimate_log_abs_sq takes.  numpy's ziggurat draws no normal
# beyond 13.71 in magnitude (its tail sample is r - ln(u)/r, r = 3.654,
# u >= 2^-53); with the margin |z| <= 16, a sample's |X|^2 = (power/2)
# (z_re^2 + z_im^2) is at most 256 power.
_LOG_ABS_SQ_POWER_MAX = sys.float_info.max / 256.0


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for chunk `index` of master seed `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _block_rows(width: int) -> int:
    # rows of a row block: _BLOCK_ELEMENTS normals, but at least
    # _BLOCK_ELEMENTS // 16 rows (so that a per-point loop over a wide row
    # makes few calls per block) and at most 4 * _BLOCK_ELEMENTS normals; a
    # row of no normals counts as one of width 1.  A chunk caps a block too.
    width = max(width, 1)
    return max(1, min(_BLOCK_ELEMENTS // min(width, 16), 4 * _BLOCK_ELEMENTS // width))


class _Accumulator:
    """Running sum / sum-of-squares reduced in a fixed order: each call of
    :meth:`add` takes one chunk's values, reduces them by one ``np.sum`` and
    adds that to the running sum, chunk by chunk from 0.0, which every
    estimator does in ascending chunk order."""

    def __init__(self) -> None:
        self.s1 = 0.0
        self.s2 = 0.0
        self.n = 0

    def add(self, values: np.ndarray) -> None:
        self.s1 += float(np.sum(values))
        self.s2 += float(np.sum(values * values))
        self.n += values.size

    def estimate(self, seed: int) -> McEstimate:
        mean = self.s1 / self.n
        var = max(self.s2 / self.n - mean * mean, 0.0)
        return McEstimate(mean, math.sqrt(var / self.n), self.n, seed)


def _chunks(seed: int, n_samples: int) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield ``(rng, m)`` for the consecutive chunks of `_SUM_BLOCK` samples
    (the last one partial) covering `n_samples`; chunk ``i`` holds the
    samples from ``i * _SUM_BLOCK`` on and draws from ``substream(seed, i)``."""
    for index, start in enumerate(range(0, n_samples, _SUM_BLOCK)):
        yield substream(seed, index), min(_SUM_BLOCK, n_samples - start)


def _row_blocks(
    seed: int,
    n_samples: int,
    width: int,
    accs: tuple[_Accumulator, ...] = (),
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Walk the chunks of ``_chunks(seed, n_samples)`` one row block at a
    time, drawing each block's normals; the one place that draws.

    A sample is `width` standard normals.  For each row block of `k` samples
    this yields ``(z, free, out)``: `z` is the ``(width, k)`` transpose of the
    block's ``standard_normal((k, width))`` draw from the chunk's generator,
    one sample per column, `free` a spare array of the same shape, and `out`
    the ``(len(accs), k)`` rows into which the caller writes each sample's
    value for ``accs[i]``.  `z` and `free` are views of two buffers made once
    per call; the caller may overwrite both.  Row blocks hold at most
    ``_block_rows(width)`` rows and end at each chunk edge: a chunk's values
    gather in one buffer, also made once per call, and reach each accumulator
    in one ``add``.  Drawing k1 rows and then k2 rows gives the values of one
    draw of k1 + k2 rows, so the blocks draw what one ``(m, width)`` draw per
    chunk would.
    """
    step = _block_rows(width)
    drawn, transposed = np.empty((2, width * min(n_samples, _SUM_BLOCK, step)))
    buf = np.empty((len(accs), min(n_samples, _SUM_BLOCK)))
    for rng, m in _chunks(seed, n_samples):
        for lo in range(0, m, step):
            k = min(step, m - lo)
            draw = drawn[: width * k].reshape(k, width)
            z = transposed[: width * k].reshape(width, k)
            rng.standard_normal(out=draw)
            np.copyto(z, draw.T)
            yield z, draw.reshape(width, k), buf[:, lo : lo + k]
        for acc, values in zip(accs, buf):
            acc.add(values[:m])


def _wiener_paths(z: np.ndarray, step_std: float) -> np.ndarray:
    """Turn the ``(n - 1, m)`` standard normals `z` of :func:`_row_blocks`
    into points 1 to n - 1 of `m` Wiener paths from 0, one path per column,
    in place: the increments are ``step_std * z``, the draws of
    ``rng.normal(0, step_std)`` (which forms ``0 + step_std * z``) with the
    same bits but for the sign of a zero, and row ``k`` becomes row
    ``k - 1`` plus increment ``k``, the order of ``np.cumsum``.  Point 0,
    exactly 0.0, is implicit.  Returns `z`."""
    z *= step_std
    for k in range(1, len(z)):
        np.add(z[k - 1], z[k], out=z[k])
    return z


def _column_sums(points: np.ndarray, first: float, out: np.ndarray) -> np.ndarray:
    """Sum each column of the ``(n, m)`` array `points` into `out`, left to
    right after the value `first`."""
    out[...] = first
    for row in points:
        out += row
    return out


class FMoments(NamedTuple):
    m2: McEstimate
    m4: McEstimate
    mean_real: McEstimate


def estimate_F_moments(params: ChannelParams, n_samples: int, rng_seed: int) -> FMoments:
    """Monte Carlo moments of the coherent sum F = (1/L) sum_i e^{j(Theta_i - Theta_1)}.

    Returns estimates of E|F|^2, E|F|^4 and E[Re F] over fresh phase paths;
    the first two target phi, the last targets kappa.  Computed in real
    arithmetic: Re F and Im F are the means of cos and sin over each phase
    path, and |F|^2 = (Re F)^2 + (Im F)^2.
    """
    if n_samples < _MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {_MIN_SAMPLES}, got {n_samples}")
    big_l = params.oversampling
    scale = math.sqrt(params.freq_noise_var / big_l)
    accs = acc_m2, acc_m4, acc_re = _Accumulator(), _Accumulator(), _Accumulator()
    for z, free, (mag2, mag4, re) in _row_blocks(rng_seed, n_samples, big_l - 1, accs):
        theta = _wiener_paths(z, scale)  # points 1 to L - 1; point 0 is 0.0
        _column_sums(np.cos(theta, out=free), 1.0, re)
        re /= big_l
        im = _column_sums(np.sin(theta, out=theta), 0.0, mag4)  # Im F, until |F|^4 replaces it
        im /= big_l
        np.multiply(re, re, out=mag2)
        im *= im
        mag2 += im
        np.multiply(mag2, mag2, out=mag4)
    return FMoments(
        acc_m2.estimate(rng_seed), acc_m4.estimate(rng_seed), acc_re.estimate(rng_seed)
    )


def simulate_fading_integral(
    sigma2_over_L: float,
    n_time_steps: int,
    n_samples: int,
    rng_seed: int,
) -> tuple[McEstimate, McEstimate]:
    """Estimate E[F_n] for the continuous-time fading integral
    F_n = int_0^1 exp(j sqrt(sigma2/L) B(t)) dt over a standard Wiener path.

    Discretized by the trapezoid rule on `n_time_steps` intervals, over the
    exact path points from B(0) = 0, in real arithmetic (cos and sin of the
    phase path).  The real estimate's mean is that rule applied to
    exp(-a t / 2), a = sigma2/L, so its bias is at most a^2 / (48 n_time_steps^2).
    Returns (real part, imaginary part) estimates; the analytic targets are
    (2L/sigma2)(1 - exp(-sigma2/(2L))) and 0.
    """
    if n_time_steps < 2:
        raise ValueError(f"n_time_steps must be >= 2, got {n_time_steps}")
    if not 0.0 <= sigma2_over_L < math.inf:
        raise ValueError(f"sigma2_over_L must be finite and >= 0, got {sigma2_over_L}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    amp = math.sqrt(sigma2_over_L)
    step_std = math.sqrt(1.0 / n_time_steps)
    accs = acc_re, acc_im = _Accumulator(), _Accumulator()
    for z, free, (re, im) in _row_blocks(rng_seed, n_samples, n_time_steps, accs):
        theta = _wiener_paths(z, step_std)  # points 1 to n; point 0 is 0.0
        theta *= amp
        _trapezoid(np.cos(theta, out=free), 1.0, n_time_steps, re)
        _trapezoid(np.sin(theta, out=theta), 0.0, n_time_steps, im)
    return acc_re.estimate(rng_seed), acc_im.estimate(rng_seed)


def _trapezoid(values: np.ndarray, first: float, n: int, out: np.ndarray) -> None:
    # per column: `first`, then every point of `values` once, minus half of
    # each endpoint, over n intervals
    ends = values[-1] + first
    ends *= 0.5
    _column_sums(values, first, out)
    out -= ends
    out /= n


def estimate_log_abs_sq(power: float, n_samples: int, rng_seed: int) -> McEstimate:
    """Monte Carlo estimate of E[ln |X|^2] for X ~ CN(0, power).

    The analytic value is ln(power) - gamma with gamma the Euler-Mascheroni
    constant.  Each sample is one row ``(re, im)`` of standard normals.
    Raises ValueError unless power / 2 is a normal float and power is at
    most 7.022e305, where no sample's |X|^2 can overflow.
    """
    if not (sys.float_info.min <= power / 2.0 and power <= _LOG_ABS_SQ_POWER_MAX):
        raise ValueError(f"power must have power/2 a normal float and be <= "
                         f"{_LOG_ABS_SQ_POWER_MAX:.4g}, got {power}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    acc = _Accumulator()
    half = math.sqrt(power / 2.0)
    for z, _, (out,) in _row_blocks(rng_seed, n_samples, 2, (acc,)):
        z *= half
        z *= z
        np.add(z[0], z[1], out=out)
        np.log(out, out=out)
    return acc.estimate(rng_seed)
