"""Generalized-degrees-of-freedom (GDoF) regions of the OWPN channel.

The GDoF is the capacity pre-log when the power P grows with L = floor(P^alpha)
receiver samples per symbol and frequency-noise variance sigma2 = P^beta.  Each
region below is a piecewise-linear function of (alpha, beta); branch values are
evaluated for every applicable branch and must agree at shared boundaries
(turning printed interval ambiguity into a runtime consistency check).

Every total decomposes as amplitude + phase degrees of freedom; the outer
bound's amplitude share is identically 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

from .model import ChannelParams, GdofPoint

if TYPE_CHECKING:
    from .bounds import BoundResult

_TIE_TOL = 1e-12
_MAX_OVERSAMPLING = 2**62


class GdofFamily(str, Enum):
    OUTER_BOUND = "outer"
    INNER_PC = "inner-pc"
    INNER_CC = "inner-cc"
    INNER_COMBINED = "inner-combined"
    EXACT_WHERE_KNOWN = "exact"


@dataclass(frozen=True)
class GdofValue:
    total: float
    amplitude: float
    phase: float
    family: GdofFamily
    regime: Optional[str] = None


def _consistent(values: list[float], what: str, point: GdofPoint) -> float:
    if not values:
        raise RuntimeError(f"no {what} branch covers (alpha={point.alpha}, beta={point.beta})")
    first = values[0]
    for v in values[1:]:
        if abs(v - first) > _TIE_TOL:
            raise RuntimeError(
                f"{what} branches disagree at (alpha={point.alpha}, beta={point.beta}): {values}"
            )
    return first + 0.0  # normalizes -0.0


def gdof_outer(point: GdofPoint) -> GdofValue:
    """Outer bound: 1/2 (amplitude) plus the piecewise phase share

        0            for beta >= min(alpha, 1)
        (alpha-beta)/2   for 2 alpha - 1 <= beta <= alpha, 0 <= alpha <= 1
        (1-beta)/4   for -1 <= beta <= min(2 alpha - 1, 1)
        1/2          for beta <= -1.
    """
    a, b = point.alpha, point.beta
    branches: list[float] = []
    if b >= min(a, 1.0):
        branches.append(0.0)
    if a <= 1.0 and 2.0 * a - 1.0 <= b <= a:
        branches.append((a - b) / 2.0)
    if -1.0 <= b <= min(2.0 * a - 1.0, 1.0):
        branches.append((1.0 - b) / 4.0)
    if b <= -1.0:
        branches.append(0.5)
    phase = _consistent(branches, "outer phase", point)
    return GdofValue(0.5 + phase, 0.5, phase, GdofFamily.OUTER_BOUND)


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
    a, b = point.alpha, point.beta
    amplitude = 0.5 * min(max(2.0 - a, 0.0), 1.0)
    phase = 0.5 * max(min(a - b, 1.0 - a), 0.0) if a <= 1.0 else 0.0
    branches: list[float] = [amplitude + phase]
    if a <= 1.0:
        if b >= a:
            branches.append(0.5)
        if 2.0 * a - 1.0 <= b <= a:
            branches.append(0.5 + (a - b) / 2.0)
        if b <= 2.0 * a - 1.0:
            branches.append(1.0 - a / 2.0)
    if 1.0 <= a <= 2.0:
        branches.append(1.0 - a / 2.0)
    if a >= 2.0:
        branches.append(0.0)
    total = _consistent(branches, "inner-pc", point)
    return GdofValue(total, amplitude, phase, GdofFamily.INNER_PC)


def gdof_inner_cc(point: GdofPoint) -> GdofValue:
    """Coherent-combining inner region, a function of beta alone:

        0 for beta >= 0;   -beta for -1 <= beta <= 0;   1 for beta <= -1.

    Amplitude and phase each contribute half.
    """
    b = point.beta
    half = 0.5 * min(1.0, max(-b, 0.0)) + 0.0
    branches: list[float] = [2.0 * half]
    if b >= 0.0:
        branches.append(0.0)
    if -1.0 <= b <= 0.0:
        branches.append(-b)
    if b <= -1.0:
        branches.append(1.0)
    total = _consistent(branches, "inner-cc", point)
    return GdofValue(total, half, half, GdofFamily.INNER_CC)


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
    branches: list[float] = []
    if a <= 1.0:
        if b >= a:
            branches.append(0.5)
        if 2.0 * a - 1.0 <= b <= a:
            branches.append(0.5 + (a - b) / 2.0)
        if a / 2.0 - 1.0 <= b <= 2.0 * a - 1.0:
            branches.append(1.0 - a / 2.0)
    if 1.0 <= a <= 2.0 and b >= a / 2.0 - 1.0:
        branches.append(1.0 - a / 2.0)
    if -1.0 <= b <= min(0.0, a / 2.0 - 1.0):
        branches.append(-b)
    if b <= -1.0:
        branches.append(1.0)
    if b >= 0.0 and a >= 2.0:
        branches.append(0.0)
    total = _consistent(branches, "inner-combined", point)
    pc = gdof_inner_pc(point)
    cc = gdof_inner_cc(point)
    best = pc if pc.total >= cc.total else cc
    return GdofValue(total, best.amplitude, total - best.amplitude, GdofFamily.INNER_COMBINED)


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
    a, b = point.alpha, point.beta
    if b < -1.0:
        return GdofValue(1.0, 0.5, 0.5, GdofFamily.EXACT_WHERE_KNOWN, "awgn")
    if a < 1.0 and b >= a:
        return GdofValue(0.5, 0.5, 0.0, GdofFamily.EXACT_WHERE_KNOWN, "nc")
    if 1.0 <= a <= 2.0 and b >= 1.0:
        return GdofValue(1.0 - a / 2.0, 1.0 - a / 2.0, 0.0, GdofFamily.EXACT_WHERE_KNOWN, "onc")
    if a >= 2.0 and b >= 1.0:
        return GdofValue(0.0, 0.0, 0.0, GdofFamily.EXACT_WHERE_KNOWN, "onc")
    if a <= 0.5 and 0.0 <= b <= a:
        return GdofValue(
            0.5 + (a - b) / 2.0, 0.5, (a - b) / 2.0, GdofFamily.EXACT_WHERE_KNOWN, "pc"
        )
    return None


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


def classify_regime(params: ChannelParams) -> Regime:
    """Classify a parameter point against the two proximity conditions:

        near-awgn:  P > 1.5  and sigma2 < 1/(2P)         (gap <= ln(2 pi e)/2)
        near-onc:   P > 1    and sigma2/L >= (2 pi / e) ln(L+1)   (gap <= 0.2)

    The two conditions are mutually exclusive (the near-onc threshold exceeds
    1/(2P) whenever P > 1.5); anything else is "general".
    """
    p = params.avg_power
    big_l = params.oversampling
    s2 = params.freq_noise_var
    near_awgn = p > 1.5 and s2 < 1.0 / (2.0 * p)
    near_onc = p > 1.0 and s2 / big_l >= (2.0 * math.pi / math.e) * math.log(big_l + 1.0)
    if near_awgn and near_onc:
        raise AssertionError(f"regime conditions cannot both hold at {params}")
    if near_awgn:
        return Regime.NEAR_AWGN
    if near_onc:
        return Regime.NEAR_ONC
    return Regime.GENERAL


def channel_at_power(point: GdofPoint, avg_power: float) -> ChannelParams:
    """Channel parameters on the (alpha, beta) ray at power P:
    L = floor(P^alpha) (capped at 2^62), sigma2 = P^beta."""
    if avg_power < 1.0:
        raise ValueError("avg_power must be >= 1 on a GDoF ray")
    if point.alpha * math.log2(avg_power) > 62.0:
        raise ValueError(
            f"floor(P^alpha) exceeds 2^62 at P={avg_power}, alpha={point.alpha}"
        )
    big_l = max(int(math.floor(avg_power**point.alpha)), 1)
    return ChannelParams(avg_power, big_l, avg_power**point.beta)


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
