"""Posterior Fisher-information recursion for tracking a Wiener phase from
noisy observations, its Riccati fixed point, the resulting posterior
Cramer-Rao entropy bound, and an I-MMSE quadrature self-check.

For the phase-tracking problem the score constants are

    D11 = L/sigma2,   D12 = D21 = -L/sigma2,   D22 = E|X|^2 + L/sigma2,

so the information recursion specializes to the scalar Riccati map

    J' = x + r - r^2 / (J + r) = x + J / (1 + J/r),      x = E|X|^2,  r = L/sigma2,

whose stationary point J* = x/2 + sqrt(x^2 + 4 r x)/2 is a global attractor.
The map is written once, in the second form, which has no negative term and
forms no r^2, as the private iterator ``_iterates``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .model import _log_or, _point
from .sim import _SUM_BLOCK

LOG_2PIE = math.log(2.0 * math.pi * math.e)
_LOG_2PI_OVER_E = math.log(2.0 * math.pi / math.e)
_N_GRID = 100_000  # points and upper limit of the I-MMSE quadrature grid
_RHO_MAX = 1e6


def _iterates(x: float, r: float, j: float) -> Iterator[float]:
    # J_1, J_2, ... from J_0 = j
    while True:
        j = x + j / (1.0 + j / r)
        yield j


def _check_x_r(x_mean_sq: float, l_over_sigma2: float) -> None:
    if not (0.0 <= x_mean_sq < math.inf and 0.0 < l_over_sigma2 < math.inf):
        raise ValueError(
            f"need finite x_mean_sq >= 0 and l_over_sigma2 > 0, got {x_mean_sq}, {l_over_sigma2}"
        )


def riccati_fixed_point(x_mean_sq: float, l_over_sigma2: float) -> float:
    """Stationary solution J* = x/2 + sqrt(x^2 + 4 r x)/2 of the Riccati map,
    evaluated as x + :func:`crb_argument` so that it neither overflows nor
    underflows where x^2 + 4rx leaves the normal float range.  Raises
    ValueError unless x_mean_sq >= 0 and l_over_sigma2 > 0, both finite."""
    _check_x_r(x_mean_sq, l_over_sigma2)
    return x_mean_sq + crb_argument(x_mean_sq, l_over_sigma2)


def iterate_fixed_point(
    x_mean_sq: float,
    l_over_sigma2: float,
    tol: float = 1e-12,
    max_iter: int = 10**6,
) -> tuple[float, int]:
    """Iterate the Riccati map from J = 0 until J is within tol J of J*.

    f(J) = x + rJ/(J + r) is increasing and concave, so the iterates rise to J*
    and J* - J' <= (J' - J) r^2/(J (J + 2r)), which is (J' - J) rho/(1 - rho)
    for rho = f'(J).  The iteration stops once that bound is <= tol J', or at
    an exact fixed point J' == J, so tol bounds the relative error of J
    (rounding adds about 1e-16 sqrt(r/x)).  Returns (J, steps); the steps
    grow like sqrt(r/x), and max_iter raises RuntimeError when hit.  Raises
    ValueError unless x_mean_sq >= 0 and l_over_sigma2 > 0, both finite.
    """
    _check_x_r(x_mean_sq, l_over_sigma2)
    r = l_over_sigma2
    j = 0.0
    for step, nxt in zip(range(1, max_iter + 1), _iterates(x_mean_sq, r, j)):
        if nxt == j or (j > 0.0 and (nxt - j) / nxt * (r / j) / (j / r + 2.0) <= tol):
            return nxt, step
        j = nxt
    raise RuntimeError(
        f"Riccati iteration did not converge within {max_iter} steps "
        f"(x={x_mean_sq}, r={l_over_sigma2})"
    )


def _crb_argument(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    # array kernel of crb_argument.  Where x^2 + 4rx overflows, or 2rx falls
    # below the normal range, the quotient is divided through by x, or by
    # t = sqrt(rx) where 4r/x overflows too, so that no intermediate overflows
    # or underflows; an infinite r stays nan.
    with np.errstate(all="ignore"):  # 0/0 at x == 0, inf/inf on overflow
        numerator = 2.0 * r * x
        direct = numerator / (np.sqrt(x * x + 4.0 * r * x) + x)
        four_r_x = 4.0 * (r / x)
        by_x = r / (0.5 * np.sqrt(1.0 + four_r_x) + 0.5)
        t = np.sqrt(r) * np.sqrt(x)
        by_t = t / (np.sqrt(1.0 + 0.25 * x / r) + 0.5 * x / t)
        out_of_range = ~np.isfinite(x * x + 4.0 * r * x) | (numerator < np.finfo(float).tiny)
    rescale = out_of_range & np.isfinite(r)
    direct = np.where(rescale, np.where(np.isfinite(four_r_x), by_x, by_t), direct)
    return np.where(x == 0.0, 0.0, direct)


def crb_argument(x_mean_sq: float, l_over_sigma2: float) -> float:
    """The stationary prediction-error scale J* - x = sqrt(x^2 + 4rx)/2 - x/2,
    evaluated in the cancellation-free form 2rx / (sqrt(x^2 + 4rx) + x).
    Raises ValueError unless x_mean_sq >= 0 (inf gives the limit r) and
    l_over_sigma2 > 0 finite."""
    if not (x_mean_sq >= 0.0 and 0.0 < l_over_sigma2 < math.inf):
        raise ValueError(
            f"need x_mean_sq >= 0 and finite l_over_sigma2 > 0, got {x_mean_sq}, {l_over_sigma2}"
        )
    return float(_crb_argument(*_point(x_mean_sq, l_over_sigma2))[0])


def posterior_crb_entropy_lower(x_mean_sq: float, l_over_sigma2: float) -> float:
    """Lower bound on the differential entropy of the phase given the past:

        h >= (1/2) ln(2 pi e) - (1/2) ln(sqrt(x^2 + 4rx)/2 - x/2)   [nats].

    For small l_over_sigma2 the bound exceeds ln(2 pi); the raw value is
    reported either way.  Raises ValueError where :func:`crb_argument` does,
    and unless x_mean_sq > 0.
    """
    if x_mean_sq <= 0.0:
        raise ValueError("x_mean_sq must be > 0 (the bound degenerates at 0)")
    return 0.5 * LOG_2PIE - 0.5 * math.log(crb_argument(x_mean_sq, l_over_sigma2))


def _phase_rate_upper(p: np.ndarray, big_l: np.ndarray, s2: np.ndarray) -> np.ndarray:
    # the outer bound's phase summand (see owpnlab.bounds).  Where r overflows
    # or x is not a normal float, the log of the CRB argument is
    # ln sqrt(P/sigma2) - asinh(u/2), u = sqrt(P sigma2)/L; ln 0 = -inf clamps
    # to 0 at P == 0, and sigma2 == 0 gives inf or nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = p / big_l
        arg = np.where(x < np.finfo(float).tiny, np.nan, _crb_argument(x, big_l / s2))
        log_arg = _log_or(arg, lambda p, big_l, s2: 0.5 * (np.log(p) - np.log(s2))
                          - np.arcsinh(0.5 * np.sqrt(p) * np.sqrt(s2) / big_l), p, big_l, s2)
        return np.maximum(0.5 * _LOG_2PI_OVER_E + 0.5 * log_arg, 0.0)


def immse_entropy_quadrature(prior_std: float) -> float:
    """Gaussian-prior self-check of the I-MMSE entropy identity.

    Numerically evaluates

        (1/2) int_0^rho_max ( s/(1 + s rho) - 1/(2 pi e + rho) ) d rho,

    with s = prior_std^2, rho_max = 1e6 and the Gaussian mmse s/(1+s rho), on a
    log-spaced grid of 1e5 points, plus the analytic 1/rho^2 tail correction
    (2 pi e - 1/s)/(2 rho_max).  The exact value is h(N(0, s)) = (1/2) ln(2 pi e s).
    The grid is made and summed one block of 8192 trapezoid terms at a time,
    with the same points and the same sum as the whole grid.

    The fixed grid meets verify's 1e-3 tolerance for 4e-3 <= prior_std <=
    5e3 (error 2.3e-3 at 10^-2.5, 0.15 nats at 1e-3, 0.028 at 1e4); far
    outside it the value is meaningless (2.5e291 at 1e150, where h is 346.8).
    Raises ValueError unless prior_std > 0 and s is a normal float such that
    s rho_max does not overflow (s < 1.797e302).
    """
    s = float(prior_std) * float(prior_std)  # a Python float overflows without a warning
    # s rho_max is finite exactly for s below max / rho_max as rounded
    if not (prior_std > 0.0 and np.finfo(float).tiny <= s < np.finfo(float).max / _RHO_MAX):
        raise ValueError(f"prior_std must be > 0 with prior_std^2 a normal float < 1.797e302, "
                         f"got {prior_std}")
    two_pi_e = 2.0 * math.pi * math.e
    body = 0.0
    for rho in _quadrature_blocks():
        integrand = s / (1.0 + s * rho) - 1.0 / (two_pi_e + rho)
        # np.trapezoid's own terms: one sum block, added left to right
        terms = np.diff(rho) * (integrand[1:] + integrand[:-1]) / 2.0
        body += float(np.sum(terms))
    tail = 0.5 * (two_pi_e - 1.0 / s) / _RHO_MAX
    return 0.5 * body + tail


def _quadrature_blocks() -> Iterator[np.ndarray]:
    # the grid 0, np.logspace(-8, log10(rho_max), _N_GRID - 1) in runs that
    # overlap by one point, each giving _SUM_BLOCK trapezoid terms (the last
    # fewer).  Each point is computed as np.linspace and np.logspace compute
    # it, k * step + start with the last point set to stop, then 10.0**y, so
    # every run equals its slice of the whole grid.
    start, stop, last = -8.0, math.log10(_RHO_MAX), _N_GRID - 2
    step = np.float64(stop - start) / last
    for lo in range(0, _N_GRID - 1, _SUM_BLOCK):
        hi = min(lo + _SUM_BLOCK, last + 1)
        y = np.arange(max(lo - 1, 0), hi, dtype=np.float64)
        y *= step
        y += start
        if hi == last + 1:
            y[-1] = stop
        rho = np.power(10.0, y, out=y)
        yield np.concatenate(([0.0], rho)) if lo == 0 else rho
