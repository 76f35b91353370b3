"""Closed-form capacity bounds for the OWPN channel, plus the entropy and
moment inequalities that support them.

Three bounds, all in nats per channel use:

  upper_outer
      min{ ln(P+2),  (1/2) ln(P+1) + [ (1/2) ln(2pi/e)
           + (1/2) ln( sqrt(P^2/L^2 + 4P/sigma2)/2 - P/(2L) ) ]^+ }

  lower_partially_coherent  (norm combining for amplitude, two adjacent
  samples for phase)
      amp   = (1/2) ln( (e^2 (P+2)^2 + 8 pi (L-1)) / (8 pi e (L+P)) )
      phase = (1/2) [ ln( (2 pi / e^{1+g}) P L / (sigma2 P + pi^2 L^2) ) ]^+

  lower_coherent_combining  (coherent sum of all L samples; kappa/phi from
  model.derive_constants)
      amp   = [ [ln(phi^2/3) + ln(P/2+1)]^+ + (1/2) ln(e/pi)
                - (1/2) ln( 2(1+P phi) + P^2 (1-phi^2) ) ]^+
      phase = (1/2) ln(2 pi / e^{1+g})
              + (1/2) ln( 2LP / (2 sigma2 P + pi^2 (1-kappa) L P
                                 + 6 pi^2 L phi^{-3/2}) )

with g the Euler-Mascheroni constant.  Per-term values are reported raw
(they may be negative where the formula carries no clamp); only totals are
clamped at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelParams, RateSplit, _coherence, _log_or, _point
from .riccati import _phase_rate_upper

EULER_MASCHERONI = 0.57721566490153286061

_LOG_PHASE_CONST = math.log(2.0 * math.pi) - (1.0 + EULER_MASCHERONI)  # ln(2pi/e^{1+g})
_HALF_LOG_E_OVER_PI = 0.5 * math.log(math.e / math.pi)
_LOG2 = math.log(2.0)
_LOG_8_PI_E = math.log(8.0 * math.pi * math.e)
_E_SQ = math.e**2
_PI_SQ = math.pi**2
_LOG_PI_SQ = math.log(_PI_SQ)
_LOG_6_PI_SQ = math.log(6.0 * _PI_SQ)


@dataclass(frozen=True)
class BoundResult:
    """A bound evaluation: the clamped total in nats plus its raw rate split."""

    rate_split: RateSplit
    total: float


# Array kernels: each takes broadcast float arrays (P, L, sigma2) and returns
# (total, amplitude, phase); the public functions evaluate them at one point.

def _upper_outer(
    p: np.ndarray, big_l: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    branch_power = np.log(p + 2.0)
    sigma_zero = s2 == 0.0
    amplitude = np.where(sigma_zero, branch_power, 0.5 * np.log(p + 1.0))
    phase = np.where(sigma_zero, 0.0, _phase_rate_upper(p, big_l, s2))
    return np.minimum(branch_power, amplitude + phase), amplitude, phase


def _lower_partially_coherent(
    p: np.ndarray, big_l: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # where e^2 (P+2)^2 (8 pi (L-1) then below its ulp) or sigma2 P overflows,
    # the log of the sum comes from its terms' logs.  Separated logs: p*L can
    # underflow for subnormal p; log(0) = -inf clamps the phase to 0 at P == 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = p + 2.0
        amplitude = 0.5 * _log_or(
            (_E_SQ * (q * q) + 8.0 * math.pi * (big_l - 1.0))
            / (8.0 * math.pi * math.e * (big_l + p)),
            lambda p, big_l: 2.0 + 2.0 * np.log(p + 2.0) - _LOG_8_PI_E - np.log(big_l + p),
            p, big_l)
        log_denom = _log_or(
            s2 * p + _PI_SQ * big_l * big_l,
            lambda s2, p, big_l: np.logaddexp(
                np.log(s2) + np.log(p), _LOG_PI_SQ + 2.0 * np.log(big_l)),
            s2, p, big_l)
        phase = 0.5 * np.maximum(_LOG_PHASE_CONST + np.log(p) + np.log(big_l) - log_denom, 0.0)
    return np.maximum(amplitude + phase, 0.0), amplitude, phase


def _lower_coherent_combining(
    p: np.ndarray, big_l: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    _, _, phi, one_minus_kappa, one_minus_phi = _coherence(s2, big_l)
    # P^2 (1 - phi^2) from the cancellation-free 1 - phi, multiplied so that
    # 1 - phi == 0 gives 0 for any finite P.  Where a sum overflows, its log
    # comes from the logs of its terms.  Separated logs: 2*L*p can underflow
    # for subnormal p
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_amp_denom = _log_or(
            2.0 * (1.0 + p * phi) + p * (p * (one_minus_phi * (1.0 + phi))),
            lambda p, phi, omp: np.logaddexp(_LOG2 + np.log1p(p * phi),
                                             2.0 * np.log(p) + np.log(omp) + np.log1p(phi)),
            p, phi, one_minus_phi)
        amplitude = np.maximum(
            np.maximum(np.log(phi * phi / 3.0) + np.log(p / 2.0 + 1.0), 0.0)
            + _HALF_LOG_E_OVER_PI - 0.5 * log_amp_denom, 0.0)
        log_denom = _log_or(
            2.0 * s2 * p + _PI_SQ * one_minus_kappa * big_l * p
            + 6.0 * _PI_SQ * big_l / (phi * np.sqrt(phi)),
            lambda s2, omk, big_l, p, phi: np.logaddexp(np.logaddexp(
                _LOG2 + np.log(s2) + np.log(p),
                _LOG_PI_SQ + np.log(omk) + np.log(big_l) + np.log(p)),
                _LOG_6_PI_SQ + np.log(big_l) - 1.5 * np.log(phi)),
            s2, one_minus_kappa, big_l, p, phi)
        phase = 0.5 * _LOG_PHASE_CONST + 0.5 * (_LOG2 + np.log(big_l) + np.log(p) - log_denom)
    phase = np.where(p == 0.0, 0.0, phase)
    return np.maximum(amplitude + phase, 0.0), amplitude, phase


def _at_point(kernel, params: ChannelParams) -> BoundResult:
    point = _point(params.avg_power, params.oversampling, params.freq_noise_var)
    total, amplitude, phase = (float(v[0]) for v in kernel(*point))
    return BoundResult(RateSplit(amplitude, phase), total)


def upper_outer(params: ChannelParams) -> BoundResult:
    """Capacity outer bound; the min of a power-only branch and an
    amplitude+phase branch whose phase summand comes from the stationary
    posterior Fisher information (:func:`owpnlab.riccati.crb_argument`).

    At sigma2 == 0 the phase summand diverges, so the power-only branch
    ln(P+2) is returned, with a phase term of 0.
    """
    return _at_point(_upper_outer, params)


def lower_partially_coherent(params: ChannelParams) -> BoundResult:
    """Achievable-rate lower bound for norm-based amplitude detection plus
    two-sample phase detection, under CN(0, P/L) inputs."""
    return _at_point(_lower_partially_coherent, params)


def lower_coherent_combining(params: ChannelParams) -> BoundResult:
    """Achievable-rate lower bound when all L samples are summed coherently
    before amplitude and phase detection.

    The phase term carries no clamp of its own and goes to -inf as
    sigma2 -> inf (coherent combining is destroyed); only the total is
    clamped.  P == 0 degenerates the phase statistic, so the phase term is
    reported as 0 there.  1 - kappa and 1 - phi come from
    :func:`owpnlab.model.derive_constants`'s kernel without cancellation.
    """
    return _at_point(_lower_coherent_combining, params)


def entropy_chi2_lower(k: int) -> float:
    """Lower bound (1/2) ln(8 pi k) on the differential entropy of a
    chi-squared variable with 2k degrees of freedom, in nats."""
    if int(k) != k or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    return 0.5 * math.log(8.0 * math.pi * k)


def entropy_noncentral_chi2_upper(k: int, lam: float) -> float:
    """Upper bound (1/2) ln(8 pi e (k + lambda)) on the differential entropy
    of a noncentral chi-squared variable with 2k degrees of freedom and
    noncentrality lambda (Gaussian max-entropy argument), in nats."""
    if int(k) != k or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k}")
    if lam < 0.0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return 0.5 * math.log(8.0 * math.pi * math.e * (k + lam))

