"""Generalized-degrees-of-freedom (GDoF) regions of the OWPN channel.

The GDoF is the capacity pre-log when the power P grows with L = floor(P^alpha)
receiver samples per symbol and frequency-noise variance sigma2 = P^beta.  Each
region below is a piecewise-linear function of (alpha, beta), written once as a
table of (condition, value) branches that evaluates on floats and on numpy
arrays alike; every applicable branch is evaluated and must agree at shared
boundaries (turning printed interval ambiguity into a runtime consistency check).

Every total decomposes as amplitude + phase degrees of freedom; the outer
bound's amplitude share is identically 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .model import ChannelParams, GdofPoint, _point

if TYPE_CHECKING:
    from .bounds import BoundResult

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class GdofValue:
    total: float
    amplitude: float
    phase: float
    regime: Optional[str] = None


def _pick(branches, a: float, b: float, what: str) -> float:
    """The value of the first applicable (condition, value) branch at the point
    (a, b); every other applicable branch must agree within _TIE_TOL."""
    first = None
    for applies, value in branches:
        if applies:
            if first is None:
                first = value
            elif abs(value - first) > _TIE_TOL:
                values = [v for c, v in branches if c]
                raise RuntimeError(f"{what} branches disagree at (alpha={a}, beta={b}): {values}")
    if first is None:
        raise RuntimeError(f"no {what} branch covers (alpha={a}, beta={b})")
    return first + 0.0  # normalizes -0.0


def _pick_array(branches, a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    # _pick over equal-shape arrays: the branches burnt in last to first, as
    # np.select does, so that the first applicable one wins
    out = np.full(a.shape, np.nan)
    covered = np.zeros(a.shape, dtype=bool)
    for applies, value in reversed(branches):
        np.copyto(out, value, where=applies)
        covered |= applies
    bad = ~covered
    for applies, value in branches:
        bad |= applies & (np.abs(value - out) > _TIE_TOL)
    for i in np.flatnonzero(bad)[:1]:  # _pick raises its error for the first such point
        _pick([(np.broadcast_to(c, a.shape)[i], float(np.broadcast_to(v, a.shape)[i]))
               for c, v in branches], float(a[i]), float(b[i]), what)
    return out + 0.0


# The regions as functions of (alpha, beta, pick), pick being _pick or
# _pick_array; each returns (total, amplitude, phase).

def _clamp(x, a, b, pick, what):  # min(max(x, 0), 1)
    return pick(((x <= 0.0, 0.0), ((x >= 0.0) & (x <= 1.0), x), (x >= 1.0, 1.0)), a, b, what)


def _outer(a, b, pick):
    phase = pick((
        ((b >= a) | (b >= 1.0), 0.0),  # beta >= min(alpha, 1)
        ((a <= 1.0) & (b >= 2.0 * a - 1.0) & (b <= a), (a - b) / 2.0),
        ((b >= -1.0) & (b <= 2.0 * a - 1.0) & (b <= 1.0), (1.0 - b) / 4.0),
        (b <= -1.0, 0.5),
    ), a, b, "outer phase")
    return 0.5 + phase, 0.5, phase


def _inner_pc(a, b, pick):
    amplitude = 0.5 * _clamp(2.0 - a, a, b, pick, "inner-pc amplitude")
    # (1/2) [min(alpha - beta, 1 - alpha)]^+ for alpha <= 1; the min of the rounded terms
    phase = pick((
        (a >= 1.0, 0.0),
        ((a <= 1.0) & (1.0 - a < a - b), 0.5 * (1.0 - a)),
        (a - b <= 0.0, 0.0),
        ((a - b >= 0.0) & (a - b <= 1.0 - a), 0.5 * (a - b)),
    ), a, b, "inner-pc phase")
    total = pick((
        (True, amplitude + phase),
        ((a <= 1.0) & (b >= a), 0.5),
        ((a <= 1.0) & (b >= 2.0 * a - 1.0) & (b <= a), 0.5 + (a - b) / 2.0),
        ((a <= 1.0) & (b <= 2.0 * a - 1.0), 1.0 - a / 2.0),
        ((a >= 1.0) & (a <= 2.0), 1.0 - a / 2.0),
        (a >= 2.0, 0.0),
    ), a, b, "inner-pc")
    return total, amplitude, phase


def _inner_cc(a, b, pick):
    half = 0.5 * _clamp(-b, a, b, pick, "inner-cc")  # the branches 0, -beta, 1, halved
    return 2.0 * half, half, half


def _inner_combined_total(a, b, pick):
    return pick((
        ((a <= 1.0) & (b >= a), 0.5),
        ((a <= 1.0) & (b >= 2.0 * a - 1.0) & (b <= a), 0.5 + (a - b) / 2.0),
        ((a <= 1.0) & (b >= a / 2.0 - 1.0) & (b <= 2.0 * a - 1.0), 1.0 - a / 2.0),
        ((a >= 1.0) & (a <= 2.0) & (b >= a / 2.0 - 1.0), 1.0 - a / 2.0),
        ((b >= -1.0) & (b <= 0.0) & (b <= a / 2.0 - 1.0), -b),  # beta <= min(0, alpha/2 - 1)
        (b <= -1.0, 1.0),
        ((b >= 0.0) & (a >= 2.0), 0.0),
    ), a, b, "inner-combined")


def _exact(a, b):
    # (condition, regime, (total, amplitude, phase)), tried in order
    return (
        (b < -1.0, "awgn", (1.0, 0.5, 0.5)),
        ((a < 1.0) & (b >= a), "nc", (0.5, 0.5, 0.0)),
        ((a >= 1.0) & (a <= 2.0) & (b >= 1.0), "onc", (1.0 - a / 2.0, 1.0 - a / 2.0, 0.0)),
        ((a >= 2.0) & (b >= 1.0), "onc", (0.0, 0.0, 0.0)),
        ((a <= 0.5) & (b >= 0.0) & (b <= a), "pc", (0.5 + (a - b) / 2.0, 0.5, (a - b) / 2.0)),
    )


def gdof_outer(point: GdofPoint) -> GdofValue:
    """Outer bound: 1/2 (amplitude) plus the piecewise phase share

        0            for beta >= min(alpha, 1)
        (alpha-beta)/2   for 2 alpha - 1 <= beta <= alpha, 0 <= alpha <= 1
        (1-beta)/4   for -1 <= beta <= min(2 alpha - 1, 1)
        1/2          for beta <= -1.
    """
    return GdofValue(*_outer(point.alpha, point.beta, _pick))


def gdof_inner_pc(point: GdofPoint) -> GdofValue:
    """Partially-coherent inner region:

        0 <= alpha <= 1:  1/2 for beta >= alpha;
                          1/2 + (alpha-beta)/2 for 2 alpha - 1 <= beta <= alpha;
                          1 - alpha/2 for beta <= 2 alpha - 1
        1 <= alpha <= 2:  1 - alpha/2
        alpha >= 2:       0.

    Split: the amplitude share is (1/2) min(max(2 - alpha, 0), 1); the phase
    share is (1/2) [min(alpha - beta, 1 - alpha)]^+ for alpha <= 1, else 0.
    """
    return GdofValue(*_inner_pc(point.alpha, point.beta, _pick))


def gdof_inner_cc(point: GdofPoint) -> GdofValue:
    """Coherent-combining inner region, a function of beta alone:

        0 for beta >= 0;   -beta for -1 <= beta <= 0;   1 for beta <= -1.

    Amplitude and phase each contribute half.
    """
    return GdofValue(*_inner_cc(point.alpha, point.beta, _pick))


def gdof_inner_combined(point: GdofPoint) -> GdofValue:
    """Combined inner region (the explicit piecewise form of the max of the
    two inner families):

        0 <= alpha <= 1:  1/2 for beta >= alpha;
                          1/2 + (alpha-beta)/2 for 2 alpha - 1 <= beta <= alpha;
                          1 - alpha/2 for alpha/2 - 1 <= beta <= 2 alpha - 1
        1 - alpha/2  for beta >= alpha/2 - 1, 1 <= alpha <= 2
        -beta        for -1 <= beta <= min(0, alpha/2 - 1)
        1            for beta <= -1
        0            for beta >= 0, alpha >= 2.
    """
    a, b = point.alpha, point.beta
    total = _inner_combined_total(a, b, _pick)
    pc, cc = _inner_pc(a, b, _pick), _inner_cc(a, b, _pick)
    amplitude = pc[1] if pc[0] >= cc[0] else cc[1]
    return GdofValue(total, amplitude, total - amplitude)


def gdof_exact_if_known(point: GdofPoint) -> Optional[GdofValue]:
    """The exact GDoF where the bounds pin it down, else None.

    Regimes (and the regime tag reported):

        "awgn"  beta < -1                          -> 1
        "nc"    alpha < 1, beta >= alpha           -> 1/2
        "onc"   1 <= alpha <= 2, beta >= 1         -> 1 - alpha/2
        "onc"   alpha >= 2, beta >= 1              -> 0
        "pc"    0 <= alpha <= 1/2, 0 <= beta <= alpha -> 1/2 + (alpha-beta)/2

    The "pc" strip includes its beta = 0 edge, where the exact pre-log
    (1 + alpha)/2 is known and the inner and outer regions coincide.
    """
    for applies, regime, value in _exact(point.alpha, point.beta):
        if applies:
            return GdofValue(*value, regime)
    return None


def _regions(a: np.ndarray, b: np.ndarray) -> tuple:
    """(total, amplitude, phase) arrays of outer, inner-pc, inner-cc, inner-combined
    and exact (nan where unknown), then the exact regime per point ("" if unknown)."""
    with np.errstate(all="ignore"):  # overflowed branches, which _pick meets as inf
        pc, cc = _inner_pc(a, b, _pick_array), _inner_cc(a, b, _pick_array)
        total = _inner_combined_total(a, b, _pick_array)
        amplitude = np.where(pc[0] >= cc[0], pc[1], cc[1])
        conditions, regimes, values = zip(*_exact(a, b))  # an if chain: the first match wins
        exact = tuple(np.select(conditions, [v[k] for v in values], np.nan) for k in range(3))
        which = np.select(conditions, range(len(conditions)), -1)
        names = np.array([*regimes, ""], dtype=object)  # which == -1 picks ""
        return (_outer(a, b, _pick_array), pc, cc, (total, amplitude, total - amplitude),
                exact, names[which].tolist())


class Regime(str, Enum):
    NEAR_AWGN = "near-awgn"
    NEAR_ONC = "near-onc"
    GENERAL = "general"


# Documented capacity-gap guarantees attached to the classifier outcomes, nats.
NEAR_AWGN_GAP_NATS = 0.5 * math.log(2.0 * math.pi * math.e)
NEAR_ONC_GAP_NATS = 0.2


def regime_gap_nats(regime: Regime) -> float:
    """The guaranteed capacity gap for a classified regime (nan for general)."""
    if regime is Regime.NEAR_AWGN:
        return NEAR_AWGN_GAP_NATS
    if regime is Regime.NEAR_ONC:
        return NEAR_ONC_GAP_NATS
    return math.nan


_REGIMES = (Regime.GENERAL, Regime.NEAR_AWGN, Regime.NEAR_ONC)
_ONC_SLOPE = 2.0 * math.pi / math.e


def _classify(p: np.ndarray, big_l: np.ndarray, s2: np.ndarray) -> np.ndarray:
    # array kernel of classify_regime: an index into _REGIMES per point, with
    # math.log once per distinct L so that no point moves across the threshold
    distinct, which = np.unique(big_l, return_inverse=True)
    log_l1 = np.array([math.log(v + 1.0) for v in distinct.tolist()])[which]
    with np.errstate(divide="ignore", over="ignore"):  # 1/(2P) at P == 0 is never used
        near_awgn = (p > 1.5) & (s2 < 1.0 / (2.0 * p))
    near_onc = (p > 1.0) & (s2 / big_l >= _ONC_SLOPE * log_l1)
    for i in np.flatnonzero(near_awgn & near_onc)[:1]:
        raise AssertionError(f"regime conditions cannot both hold at P={float(p[i])}, "
                             f"L={int(big_l[i])}, sigma2={float(s2[i])}")
    return np.select([near_awgn, near_onc], [1, 2], 0)


def classify_regime(params: ChannelParams) -> Regime:
    """Classify a parameter point against the two proximity conditions:

        near-awgn:  P > 1.5  and sigma2 < 1/(2P)         (gap <= ln(2 pi e)/2)
        near-onc:   P > 1    and sigma2/L >= (2 pi / e) ln(L+1)   (gap <= 0.2)

    The two conditions are mutually exclusive (the near-onc threshold exceeds
    1/(2P) whenever P > 1.5); anything else is "general".
    """
    point = _point(params.avg_power, params.oversampling, params.freq_noise_var)
    return _REGIMES[int(_classify(*point)[0])]


def channel_at_power(point: GdofPoint, avg_power: float) -> ChannelParams:
    """Channel parameters on the (alpha, beta) ray at power P:
    L = floor(P^alpha) (capped at 2^62), sigma2 = P^beta.  Raises ValueError
    unless P >= 1, and where L exceeds the cap or sigma2 overflows."""
    if avg_power < 1.0:
        raise ValueError("avg_power must be >= 1 on a GDoF ray")
    if point.alpha * math.log2(avg_power) > 62.0:
        raise ValueError(
            f"floor(P^alpha) exceeds 2^62 at P={avg_power}, alpha={point.alpha}"
        )
    big_l = max(int(math.floor(avg_power**point.alpha)), 1)
    try:
        sigma2 = avg_power**point.beta
    except OverflowError:
        raise ValueError(f"P^beta overflows at P={avg_power}, beta={point.beta}") from None
    return ChannelParams(avg_power, big_l, sigma2)


def empirical_prelog(
    bound_fn: Callable[[ChannelParams], BoundResult | float],
    point: GdofPoint,
    power_lo: float,
    power_hi: float,
) -> float:
    """Slope-based pre-log estimate (B(P2) - B(P1)) / (ln P2 - ln P1) along the
    (alpha, beta) ray.

    A two-point slope is used rather than B(P)/ln P because the bounds carry
    O(1) offsets that vanish only in the slope.  `bound_fn` must return an
    object with a float `total` attribute (a BoundResult) or a float.
    """
    if not power_hi > power_lo >= 1e3:
        raise ValueError("need power_hi > power_lo >= 1e3")

    def total_at(p: float) -> float:
        res = bound_fn(channel_at_power(point, p))
        value = getattr(res, "total", res)
        if not math.isfinite(value):
            raise ValueError(f"bound is not finite at P={p} on {point}")
        return float(value)

    return (total_at(power_hi) - total_at(power_lo)) / (
        math.log(power_hi) - math.log(power_lo)
    )
