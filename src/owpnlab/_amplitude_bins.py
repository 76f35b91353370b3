"""The exact equal-mass bins of the amplitude MI oracle's two statistics,
|X|^2 and ||Y||^2 (see :func:`owpnlab.mioracle.amplitude_channel_mi`): the
law of ||Y||^2, its quantiles, and a table lookup that bins a value against
63 fixed edges.  Only that oracle imports this module, when it runs."""

from __future__ import annotations

import math

import numpy as np

from .mioracle import DEFAULT_BINS

# the probabilities j / DEFAULT_BINS of the inner equal-mass edges; built
# from Python floats, as a numpy division at import time adds about 0.13 MB
# to the peak RSS
_LEVELS = np.array([j / DEFAULT_BINS for j in range(1, DEFAULT_BINS)])


def _poisson_pmf(k: int, x: np.ndarray) -> np.ndarray:
    """e^{-x} x^k / k! for x > 0."""
    return np.exp(k * np.log(x) - x - math.lgamma(k + 1))


def _below(k: int, z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """P(Poisson(z) < k) for z > k: e^{-z} z^{k-1}/(k-1)! times
    1 + (k-1)/z + (k-1)(k-2)/z^2 + ..., truncated after ``m.size`` terms."""
    if k == 0:
        return np.zeros_like(z)
    terms = np.cumprod(np.maximum(k - m, 0) / z[:, None], axis=1)
    return _poisson_pmf(k - 1, z) * (1.0 + terms.sum(axis=1))


def _norm_law(t: np.ndarray, avg_power: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """CDF F and density G/(P + 2) at t > 0 of Exp(mean P + 2) + Gamma(k, 2),
    the law of ||Y||^2 with k = L - 1, where F(t) = P_k(x) - G(t) and
    G(t) = e^{-x(1 - rho)} rho^{-k} P_k(rho x), x = t/2, rho = P/(P + 2) and
    P_k the regularized lower incomplete gamma function (P_0 = 1).  As
    P_k(z) = e^{-z} z^k/k! S(z), S(z) = sum_{m >= 0} z^m k!/(k + m)!, G is
    e^{-x} x^k/k! S(rho x) where rho x <= k, and rho^{-k}, which overflows at
    small P, is never formed.  Where x <= k, F is e^{-x} x^k/k! times
    sum_{m >= 1} x^m k!/(k + m)! (1 - rho^m); elsewhere it is
    1 - P(Poisson(x) < k) - G.  These series fall off like e^{-m^2/(2k)}."""
    x = t / 2.0
    y = x * (avg_power / (avg_power + 2.0))
    log_rho = (-math.log1p(2.0 / avg_power) if avg_power > 1.0
               else math.log(avg_power / (avg_power + 2.0)))
    m = np.arange(1.0, 31.0 + 10.0 * math.ceil(math.sqrt(k)))
    second = np.empty_like(x)
    near = y <= k
    if near.any():
        series = 1.0 + np.cumprod(y[near, None] / (k + m), axis=1).sum(axis=1)
        second[near] = _poisson_pmf(k, x[near]) * series
    far = ~near
    if far.any():
        scale = np.exp(-k * log_rho - x[far] * (2.0 / (avg_power + 2.0)))
        second[far] = scale * (1.0 - _below(k, y[far], m))
    cdf = np.empty_like(x)
    low = x <= k
    if low.any():
        terms = np.cumprod(x[low, None] / (k + m), axis=1)
        terms *= -np.expm1(m * log_rho)
        cdf[low] = _poisson_pmf(k, x[low]) * terms.sum(axis=1)
    high = ~low
    if high.any():
        cdf[high] = 1.0 - _below(k, x[high], m) - second[high]
    return cdf, second / (avg_power + 2.0)


def _norm_edges(avg_power: float, big_l: int) -> np.ndarray:
    """The quantiles of :func:`_norm_law` at j / DEFAULT_BINS, j = 1..63, by
    Newton steps from the Exp quantile plus the Gamma mean, safeguarded as
    in Numerical Recipes' ``rtsafe``: a step that leaves the bracket or is
    longer than half the step before last becomes a bisection.  It stops at
    a step below 2^-44 of the edge, where Newton's steps are rounding noise."""
    k = big_l - 1
    # P(Exp(mean P + 2) > (P + 2) ln 128) = 1/128, and Gamma(k, scale 2)
    # exceeds 2(k + 6 sqrt(k) + 10) with a smaller probability
    top = (avg_power + 2.0) * math.log(128.0) + 2.0 * (k + 6.0 * math.sqrt(k) + 10.0)
    if not math.isfinite(top):
        raise ValueError(f"P too large: the ||Y||^2 bin edges overflow at P = {avg_power}")
    lo = np.zeros(_LEVELS.size)
    hi = np.full(_LEVELS.size, top)
    last, before = hi.copy(), hi.copy()  # the last two step lengths
    edges = -(avg_power + 2.0) * np.log1p(-_LEVELS) + 2.0 * k
    todo = np.arange(_LEVELS.size)
    while todo.size:
        t, level = edges[todo], _LEVELS[todo]
        cdf, density = _norm_law(t, avg_power, k)
        reached = cdf >= level
        hi[todo] = np.where(reached, t, hi[todo])
        lo[todo] = np.where(reached, lo[todo], t)
        step = np.divide(cdf - level, density, out=np.full(t.size, np.inf), where=density > 0.0)
        new = t - step
        newton = (lo[todo] <= new) & (new <= hi[todo]) & (2.0 * np.abs(step) <= before[todo])
        new = np.where(newton, new, lo[todo] + 0.5 * (hi[todo] - lo[todo]))
        before[todo] = last[todo]
        last[todo] = np.abs(new - t)
        edges[todo] = new
        todo = todo[last[todo] > 2.0**-44 * new]
    return edges


class _EdgeBins:
    """``bins(v) == np.searchsorted(edges, v, side="right")`` by a table of
    cells over [edges[0] - w, edges[-1] + w], each storing the bin of its left
    end and the edges beside it.  With w below half of every edge gap, a
    value put in a cell, even by rounding, lies less than two cells from its
    left end, so one correction against those edges gives its bin."""

    def __init__(self, edges: np.ndarray) -> None:
        span = float(edges[-1] - edges[0])
        gap = float(np.min(np.diff(edges)))
        cells = DEFAULT_BINS
        while span / (cells - 2) >= 0.5 * gap:
            cells *= 2
        width = span / (cells - 2)
        self.origin = float(edges[0]) - width
        self.per_width = 1.0 / width
        self.last = cells - 1.0
        self.start = np.searchsorted(edges, self.origin + width * np.arange(cells), side="right")
        padded = np.concatenate(([np.nan], edges, [np.nan]))  # no edge: never corrects
        self.below, self.above = padded[self.start], padded[self.start + 1]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        cell = v - self.origin
        cell *= self.per_width
        np.maximum(cell, 0.0, out=cell)
        np.minimum(cell, self.last, out=cell)
        at = cell.astype(np.intp)
        out = self.start[at]
        out += v >= self.above[at]
        out -= v < self.below[at]
        return out
