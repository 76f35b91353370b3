"""Channel configuration and shared value types for the oversampled Wiener
phase-noise (OWPN) channel.

The channel is parameterized by the average power budget ``P``, the number of
receiver samples per transmitted symbol ``L``, and the per-symbol frequency
noise variance ``sigma2`` (rad^2).  Everything downstream -- simulators,
capacity bounds, Fisher recursions, asymptotic exponents -- consumes the
:class:`ChannelParams` triple and the coherence constants produced by
:func:`derive_constants`.

All rates are handled internally in nats; bit values are a presentation-layer
conversion only (:func:`convert_rate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

LN2 = math.log(2.0)

# Below this value of sigma2/2 the closed forms for 1 - kappa and phi cancel
# catastrophically (error ~1e-16/(sigma2/2)); power series take over there.
_SERIES_CUTOFF = 0.5
_TINY = np.finfo(float).tiny  # the least normal float

# 1/(k+2)! for k = 0..16: the series of (e^-x - 1 + x)/x^2.
_E2_RATIO_COEFFS = tuple(1 / math.factorial(k + 2) for k in range(17))

# Row j-1 holds the coefficients of h^j in 1 - phi, h = sigma2/2, in powers of
# u = 1/L^2: entry m is (-1)^(j+1) times the coefficient of L^(-2m) in
# c_j(L)/j!.  By Faulhaber's formula c_j(L) is an even polynomial in 1/L with
# rational coefficients; each entry is its rational rounded once to float
# (tests/test_model.py rebuilds the table exactly).  17 rows leave a
# truncation error below 1e-18 relative at h = 1/2.
_ONE_MINUS_PHI_COEFFS = (
    (0.3333333333333333, -0.3333333333333333),
    (-0.08333333333333333, 0.08333333333333333),
    (0.016666666666666666, -0.027777777777777776, 0.011111111111111112),
    (-0.002777777777777778, 0.006944444444444444, -0.004166666666666667),
    (0.0003968253968253968, -0.001388888888888889, 0.001388888888888889, -0.0003968253968253968),
    (-4.96031746031746e-05, 0.0002314814814814815, -0.00034722222222222224, 0.00016534391534391533),
    (5.5114638447971785e-06, -3.306878306878307e-05, 6.944444444444444e-05, -5.511463844797178e-05, 1.3227513227513228e-05),
    (-5.511463844797178e-07, 4.133597883597884e-06, -1.1574074074074073e-05, 1.3778659611992945e-05, -5.787037037037037e-06),
    (5.010421677088344e-08, -4.592886537330982e-07, 1.6534391534391535e-06, -2.7557319223985893e-06, 1.9290123456790124e-06, -4.17535139757362e-07),
    (-4.17535139757362e-09, 4.592886537330982e-08, -2.066798941798942e-07, 4.592886537330982e-07, -4.822530864197531e-07, 1.8789081289081288e-07),
    (3.2118087673643227e-10, -4.17535139757362e-09, 2.296443268665491e-08, -6.561266481901403e-08, 9.645061728395061e-08, -6.26302709636043e-08, 1.2682056332849983e-08),
    (-2.294149119545945e-11, 3.4794594979780167e-10, -2.2964432686654908e-09, 8.201583102376754e-09, -1.6075102880658437e-08, 1.5657567740901073e-08, -5.812609152556243e-09),
    (1.5294327463639633e-12, -2.6765073061369358e-11, 2.0876756987868099e-10, -9.112870113751948e-10, 2.2964432686654908e-09, -3.131513548180215e-09, 1.9375363841854143e-09, -3.74711022859171e-10),
    (-9.55895466477477e-14, 1.911790932954954e-12, -1.7397297489890082e-11, 9.112870113751948e-11, -2.8705540858318635e-10, 5.219189246967025e-10, -4.843840960463536e-10, 1.7397297489890083e-10),
    (5.622914508691041e-15, -1.2745272886366362e-13, 1.3382536530684678e-12, -8.284427376138134e-12, 3.1895045398131816e-11, -7.455984638524321e-11, 9.687681920927071e-11, -5.799099163296694e-11, 1.0846976948232265e-11),
    (-3.123841393717245e-16, 7.965795553978976e-15, -9.55895466477477e-14, 6.903689480115112e-13, -3.1895045398131818e-12, 9.319980798155402e-12, -1.614613653487845e-11, 1.4497747908241736e-11, -5.084520444483875e-12),
    (1.644127049324866e-17, -4.685762090575868e-16, 6.372636443183181e-15, -5.310530369319317e-14, 2.899549581648347e-13, -1.0355534220172668e-12, 2.3065909335540644e-12, -2.899549581648347e-12, 1.6948401481612914e-12, -3.090982340260024e-13),
)


class Units(str, Enum):
    """Output unit for rates; nats is the internal base."""

    NATS = "nats"
    BITS = "bits"


def convert_rate(value_nats: float, units: Units) -> float:
    """Convert a rate from nats to the requested unit (identity for nats)."""
    if units is Units.BITS:
        return value_nats / LN2
    return value_nats


@dataclass(frozen=True)
class ChannelParams:
    """The (P, L, sigma2) triple that fixes one OWPN channel instance.

    avg_power:      average power budget P >= 0 over a whole symbol interval
                    (the per-sample budget is P/L, see :func:`per_symbol_power`).
    oversampling:   number of receiver samples per symbol, integer L >= 1.
    freq_noise_var: per-symbol variance sigma2 >= 0 of the Wiener phase
                    increments; the per-sample increment variance is sigma2/L.
    """

    avg_power: float
    oversampling: int
    freq_noise_var: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.avg_power) and self.avg_power >= 0.0):
            raise ValueError(f"avg_power must be finite and >= 0, got {self.avg_power}")
        if int(self.oversampling) != self.oversampling or self.oversampling < 1:
            raise ValueError(f"oversampling must be an integer >= 1, got {self.oversampling}")
        if not (math.isfinite(self.freq_noise_var) and self.freq_noise_var >= 0.0):
            raise ValueError(
                f"freq_noise_var must be finite and >= 0, got {self.freq_noise_var}"
            )
        object.__setattr__(self, "oversampling", int(self.oversampling))


def per_symbol_power(params: ChannelParams) -> float:
    """Per-sample input power budget P/L implied by the average power constraint."""
    return params.avg_power / params.oversampling


class DerivedConstants(NamedTuple):
    xi: float
    kappa: float
    phi: float


def _point(*values: float) -> list[np.ndarray]:
    """One-element float64 arrays: a scalar wrapper evaluates its array kernel
    through the same numpy loops as a whole grid."""
    return [np.array([v], dtype=np.float64) for v in values]


def _log_or(value: np.ndarray, log_form, *operands: np.ndarray) -> np.ndarray:
    """np.log(value), with log_form(*operands) on the cells where value is not
    finite, evaluated on those cells only; the caller owns the np.errstate."""
    out = np.log(value)
    bad = ~np.isfinite(value)
    if bad.any():
        out[bad] = log_form(*(np.broadcast_to(v, bad.shape)[bad] for v in operands))
    return out


def _e2_ratio(x: np.ndarray) -> np.ndarray:
    # (e^-x - 1 + x) / x^2 = sum_k (-x)^k / (k+2)!, for 0 <= x <= _SERIES_CUTOFF
    neg = -x
    acc = np.zeros_like(x)
    for c in reversed(_E2_RATIO_COEFFS):
        acc = acc * neg + c
    return acc


def _one_minus_phi_series(half_sigma2: np.ndarray, big_l: np.ndarray) -> np.ndarray:
    # 1 - phi = sum_j h^j sum_m _ONE_MINUS_PHI_COEFFS[j-1][m] L^(-2m), h = sigma2/2
    u = 1.0 / (big_l * big_l)
    acc = np.zeros_like(half_sigma2 * u)
    for row in reversed(_ONE_MINUS_PHI_COEFFS):
        poly = np.zeros_like(u)
        for c in reversed(row):
            poly = poly * u + c
        acc = (acc + poly) * half_sigma2
    return acc


def _phi_closed(half_sigma2: np.ndarray, big_l: np.ndarray) -> np.ndarray:
    step = half_sigma2 / big_l
    xi = np.exp(-step)
    one_minus_xi = -np.expm1(-step)
    one_minus_xi_l = -np.expm1(-half_sigma2)
    inner = one_minus_xi_l - big_l * one_minus_xi
    return (big_l - 2.0 * xi * inner / (one_minus_xi * one_minus_xi)) / (big_l * big_l)


def _coherence(
    sigma2: np.ndarray, big_l: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array kernel of :func:`derive_constants` over broadcast float arrays
    sigma2 >= 0 and L >= 1: returns (xi, kappa, phi, 1 - kappa, 1 - phi).

    For sigma2/2 <= 1/2, 1 - kappa and 1 - phi come from power series with the
    leading 1 removed, so they keep full relative accuracy where kappa and phi
    round to 1:

      1 - kappa = (E2(sigma2/2) - L E2(sigma2/(2L))) / (L (1 - xi)),
                  E2(x) = e^-x - 1 + x;
      1 - phi   = -sum_{j>=1} (-sigma2/2)^j / j! c_j(L),
                  c_j(L) = (2/L^(j+2)) sum_{d=1}^{L-1} (L-d) d^j.
    """
    half = sigma2 / 2.0
    step = half / big_l
    xi = np.exp(-step)
    one_minus_xi = -np.expm1(-step)
    coherent = (half == 0.0) | (big_l == 1.0)
    series = half <= _SERIES_CUTOFF
    tiny_step = step < _TINY  # not a normal float: kappa is 1, 1 - kappa its first term
    with np.errstate(all="ignore"):  # each branch is also evaluated where it is not selected
        kappa = np.where(tiny_step, 1.0, np.minimum(-np.expm1(-half) / (big_l * one_minus_xi), 1.0))
        e2_diff = _e2_ratio(half) - _e2_ratio(step) / big_l
        n_kappa = half * half * e2_diff  # where it is not normal, divide before the last * half
        one_minus_kappa = np.select(
            (~series, tiny_step, n_kappa < _TINY),
            (1.0 - kappa, sigma2 * ((big_l - 1.0) / (4.0 * big_l)),
             half * (half / (big_l * one_minus_xi) * e2_diff)),
            n_kappa / (big_l * one_minus_xi))
        phi_closed = np.minimum(_phi_closed(half, big_l), 1.0)
        one_minus_phi = np.where(series, _one_minus_phi_series(half, big_l), 1.0 - phi_closed)
        phi = np.where(series, 1.0 - one_minus_phi, phi_closed)
    return (
        xi,
        np.where(coherent, 1.0, kappa),
        np.where(coherent, 1.0, phi),
        np.where(coherent, 0.0, one_minus_kappa),
        np.where(coherent, 0.0, one_minus_phi),
    )


def derive_constants(params: ChannelParams) -> DerivedConstants:
    """Coherence constants of the normalized coherent sum of phase rotations.

    With F = (1/L) sum_{i=1..L} exp(j(Theta_i - Theta_1)):

      xi    = exp(-sigma2/(2L)),  the one-step coherence factor;
      kappa = E[F]               = (1/L)(1 - xi^L)/(1 - xi);
      phi   = E[|F|^2]           = (1/L^2)(L - 2 xi (L(xi-1) - xi^L + 1)/(1-xi)^2)
                                 = (1/L^2) sum_{i,k} xi^{|i-k|}.

    The sigma2/2 == 0 case is the analytic limit kappa = phi = 1 (a removable
    singularity, never evaluated by division).  All three lie in [0, 1].
    For sigma2/2 <= 1/2, where the closed form for phi cancels, phi is
    1 minus a power series in sigma2/2 whose coefficients are even
    polynomials in 1/L (a fixed float table); above, the closed form is
    used.  Both keep ~1e-16 relative accuracy for every L >= 1, including
    L ~ 1e9.  This is a one-point wrapper of the array kernel the CLI
    evaluates whole grids with.
    """
    xi, kappa, phi, _, _ = _coherence(
        *_point(params.freq_noise_var, params.oversampling)
    )
    return DerivedConstants(float(xi[0]), float(kappa[0]), float(phi[0]))


@dataclass(frozen=True)
class RateSplit:
    """Amplitude-rate / phase-rate pair in nats per channel use.

    Individual terms may be negative where the underlying formula carries no
    clamp.  A bound's total is ``BoundResult.total``, clamped by its kernel.
    """

    amplitude_rate: float
    phase_rate: float


@dataclass(frozen=True)
class GdofPoint:
    """Exponent pair: L = floor(P^alpha) samples, sigma2 = P^beta noise."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate: mean, standard error, sample count, seed.

    std_error is the sample standard deviation over sqrt(n_samples); the same
    (seed, n_samples) always reproduces the mean bit for bit.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
