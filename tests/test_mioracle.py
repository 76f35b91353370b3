import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _memory import traced_peak_mib
from owpnlab.bounds import lower_partially_coherent, upper_outer
from owpnlab._amplitude_bins import _LEVELS, _EdgeBins, _norm_edges
from owpnlab.mioracle import (
    MI_ALLOWANCE_NATS,
    MiEstimate,
    _amplitude_blocks,
    _circular_bins,
    _equal_mass_bins,
    _phase_blocks,
    amplitude_channel_mi,
    histogram_mi,
    phase_channel_mi,
)
from owpnlab import sim
from owpnlab.model import ChannelParams, per_symbol_power
from owpnlab.sim import _chunks, substream
from test_sim import _reference_wiener_rows

TWO_PI = 2.0 * math.pi


class TestHistogramMi:
    def test_independent_pairs_near_zero(self):
        rng = substream(101, 0)
        x = rng.standard_normal(100_000)
        y = rng.standard_normal(100_000)
        est = histogram_mi(x, y, 32)
        assert 0.0 <= est.value <= est.bias_allowance + 4.0 * est.std_error + 1e-3

    def test_deterministic_dependence_saturates(self):
        rng = substream(102, 0)
        x = rng.standard_normal(100_000)
        est = histogram_mi(x, x, 32)
        assert est.value > 2.0
        assert est.value == pytest.approx(math.log(32.0), rel=1e-12)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_gaussian_sanity(self, rho):
        rng = substream(103, 0)
        n = 200_000
        g1 = rng.standard_normal(n)
        g2 = rho * g1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
        est = histogram_mi(g1, g2)
        assert est.value == pytest.approx(_oracles.gaussian_mi(rho), abs=MI_ALLOWANCE_NATS)

    def test_degenerate_marginal_flagged(self):
        y = substream(104, 0).standard_normal(20_000)
        est = histogram_mi(np.zeros(20_000), y)
        assert est.value == 0.0 and est.degenerate

    def test_bias_allowance_formula(self):
        rng = substream(105, 0)
        est = histogram_mi(rng.standard_normal(50_000), rng.standard_normal(50_000), 16)
        assert est.bias_allowance == pytest.approx(15**2 / (2.0 * 50_000), rel=1e-12)

    def test_validation(self):
        x = np.arange(20_000, dtype=float)
        with pytest.raises(ValueError):
            histogram_mi(x, x[:-1])
        with pytest.raises(ValueError):
            histogram_mi(x[:100], x[:100])
        for bad_bins in (4, 2048):
            with pytest.raises(ValueError):
                histogram_mi(x, x, bad_bins)

    def test_working_memory(self):
        # int16 bins and one intp joint index: below the 15.3 MiB traced
        # with int64 bins and an int64 index product
        rng = substream(107, 0)
        x = rng.standard_normal(500_000)
        y = x + rng.standard_normal(500_000)
        assert traced_peak_mib(histogram_mi, x, y) < 8.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        x = substream(106, 0).standard_normal(20_000)
        y = x.copy()
        y[12_345] = bad
        for args in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="finite"):
                histogram_mi(*args)


def _stable_rank_bins(x, n_bins):
    ranks = np.empty(x.size, dtype=np.int64)
    ranks[np.argsort(x, kind="stable")] = np.arange(x.size)
    return (ranks * n_bins) // x.size


def _edge_positions(n, n_bins):
    return -((-np.arange(1, n_bins) * n) // n_bins)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_bins=st.sampled_from([8, 64, 1024]),
    extra=st.integers(0, 3000),
    kind=st.sampled_from(["continuous", "integer", "straddle"]),
)
@settings(max_examples=150, deadline=None)
def test_equal_mass_bins_are_stable_rank_bins(seed, n_bins, extra, kind):
    rng = np.random.default_rng(seed)
    n = n_bins + extra
    if kind == "continuous":
        x = rng.standard_normal(n)
    elif kind == "integer":  # tie-heavy
        x = rng.integers(0, int(rng.integers(2, 40)), n).astype(float)
    else:  # runs of equal values across several bin edges
        s = np.sort(rng.standard_normal(n))
        for p in _edge_positions(n, n_bins)[:: max(1, n_bins // 8)]:
            s[max(p - 3, 0) : p + 3] = s[p]
        x = rng.permutation(s)
        s = np.sort(x)
        edges = _edge_positions(n, n_bins)
        assert np.any(s[edges - 1] == s[edges])
    assert np.array_equal(_equal_mass_bins(x, n_bins), _stable_rank_bins(x, n_bins))


# The oracles in complex arithmetic, each 8192-sample chunk drawn at once as
# one (m, k) array of standard normals, one row per sample; X + W formed as
# complex arrays, |.|^2 by np.abs and angles by np.angle, and binned by
# np.searchsorted against mpmath quantiles or as circular bins.  The
# row-blocked real-arithmetic oracles must reproduce them exactly.


def _reference_plugin_mi(ix, iy, n_bins):
    n = ix.size
    joint = np.bincount(ix * n_bins + iy, minlength=n_bins * n_bins).reshape(n_bins, n_bins)
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    nz = joint > 0
    p = joint[nz] / n
    log_ratio = np.log(joint[nz] * float(n) / (row[:, None] * col[None, :])[nz])
    value = float(np.sum(p * log_ratio))
    var = max(float(np.sum(p * log_ratio**2)) - value * value, 0.0)
    return MiEstimate(value, n, n_bins, (n_bins - 1) ** 2 / (2.0 * n), math.sqrt(var / n))


def _reference_circular_bins(x, n_bins):
    wrapped = np.mod(x, TWO_PI)
    return np.minimum((wrapped / TWO_PI * n_bins).astype(np.int64), n_bins - 1)


@functools.lru_cache(maxsize=None)
def _mp_amplitude_edges(p, big_l):
    """The equal-mass edges of |X|^2 and ||Y||^2 at (P, L), from mpmath: the
    quantiles -(P/L) ln(1 - j/64) of Exp(mean P/L), and those of the block
    norm law, found by Newton's method from the oracle's own edges."""
    x2 = [float(-mp.mpf(p) / big_l * mp.log(1 - mp.mpf(q))) for q in _LEVELS]
    start = _norm_edges(p, big_l)
    norm = [_oracles.norm_quantile(p, big_l, q, t) for q, t in zip(_LEVELS, start)]
    return np.array(x2), np.array(norm)


def _reference_amplitude_mi(params, n_samples, seed, n_bins=64):
    # ||Y||^2 = |sqrt(L) X + W'|^2 + 2 G, G ~ Gamma(L - 1, 1): per chunk, its
    # m gammas (none at L = 1), then one row (X, W') of 4 normals per sample
    big_l = params.oversampling
    x2 = np.empty(n_samples)
    ynorm = np.empty(n_samples)
    amp = math.sqrt(per_symbol_power(params) / 2.0)
    for index, (rng, m) in enumerate(_chunks(seed, n_samples)):
        start = index * 8192
        gamma = rng.standard_gamma(big_l - 1, m) if big_l > 1 else np.zeros(m)
        z = rng.standard_normal((m, 4))
        x = (z[:, 0] + 1j * z[:, 1]) * amp
        y = math.sqrt(big_l) * x + (z[:, 2] + 1j * z[:, 3])
        x2[start : start + m] = np.abs(x) ** 2
        ynorm[start : start + m] = np.abs(y) ** 2 + 2.0 * gamma
    x2_edges, norm_edges = _mp_amplitude_edges(params.avg_power, big_l)
    return _reference_plugin_mi(
        np.searchsorted(x2_edges, x2, side="right"),
        np.searchsorted(norm_edges, ynorm, side="right"),
        n_bins,
    )


def _reference_phase_mi(params, n_samples, seed, n_bins=64):
    big_l = params.oversampling
    amp = math.sqrt(per_symbol_power(params) / 2.0)
    inc_std = math.sqrt(params.freq_noise_var / big_l)
    angles = np.empty(n_samples)
    psi = np.empty(n_samples)
    for index, (rng, m) in enumerate(_chunks(seed, n_samples)):
        start = index * 8192
        z = rng.standard_normal((m, 9))
        x0 = (z[:, 0] + 1j * z[:, 1]) * amp
        x1 = (z[:, 2] + 1j * z[:, 3]) * amp
        step = z[:, 4] * inc_std
        w_last = z[:, 5] + 1j * z[:, 6]
        w_first = z[:, 7] + 1j * z[:, 8]
        angles[start : start + m] = np.angle(x1)
        psi[start : start + m] = step + np.angle(x1 + w_first) - np.angle(x0 + w_last) + np.angle(x0)
    return _reference_plugin_mi(
        _reference_circular_bins(angles, n_bins), _reference_circular_bins(psi, n_bins), n_bins
    )


_REFERENCE_POINTS = [(20.0, 4, 0.5), (100.0, 1, 0.01), (3.0, 16, 2.0), (0.5, 1, 5.0)]


@pytest.mark.parametrize("p,big_l,s2", _REFERENCE_POINTS)
@pytest.mark.parametrize("seed", [3, 40])
def test_amplitude_mi_matches_complex_reference(p, big_l, s2, seed):
    # 50,000 samples: 6 whole chunks and a partial seventh
    params = ChannelParams(p, big_l, s2)
    got = amplitude_channel_mi(params, 50_000, seed)
    want = _reference_amplitude_mi(params, 50_000, seed)
    assert got == want  # value and std_error included


@pytest.mark.parametrize("p,big_l,s2", _REFERENCE_POINTS)
@pytest.mark.parametrize("seed", [3, 40])
def test_phase_mi_matches_complex_reference(p, big_l, s2, seed):
    # two whole chunks and a partial third
    params = ChannelParams(p, big_l, s2)
    n = 2 * 8192 + 1_234
    got = phase_channel_mi(params, n, seed)
    want = _reference_phase_mi(params, n, seed)
    assert got == want  # value and std_error included


# The whole channel, simulated in test code: a uniform start phase, a Wiener
# path of N(0, sigma2/L) steps and Y = X e^{j Theta} + W in complex
# arithmetic, in 8192-sample chunks.  The oracles simulate only the law of
# their statistics; the MI they report must match the one measured on these
# samples.
_LAW_SAMPLES = 200_000


def _full_channel_amplitude(params, n_samples, seed):
    """|X|^2 and the block norm ||Y||^2 of `n_samples` symbol intervals."""
    big_l = params.oversampling
    amp = math.sqrt(per_symbol_power(params) / 2.0)
    step_std = math.sqrt(params.freq_noise_var / big_l)
    x2 = np.empty(n_samples)
    ynorm = np.empty(n_samples)
    for index, (rng, m) in enumerate(_chunks(seed, n_samples)):
        start = index * 8192
        xr = amp * rng.standard_normal((m, 1))
        xi = amp * rng.standard_normal((m, 1))
        theta = rng.uniform(0.0, TWO_PI, (m, 1))
        theta = theta + _reference_wiener_rows(rng, m, big_l + 1, step_std)[:, 1:]
        w = rng.standard_normal((m, big_l)) + 1j * rng.standard_normal((m, big_l))
        y = (xr + 1j * xi) * np.exp(1j * theta) + w
        x2[start : start + m] = (xr * xr + xi * xi)[:, 0]
        ynorm[start : start + m] = np.sum(np.abs(y) ** 2, axis=1)
    return x2, ynorm


def _full_channel_phase(params, n_samples, seed):
    """angle(X_1) and psi of `n_samples` symbol pairs, psi measured on the
    last output sample of X_0 and the first of X_1."""
    big_l = params.oversampling
    amp = math.sqrt(per_symbol_power(params) / 2.0)
    step_std = math.sqrt(params.freq_noise_var / big_l)
    angles = np.empty(n_samples)
    psi = np.empty(n_samples)
    for index, (rng, m) in enumerate(_chunks(seed, n_samples)):
        start = index * 8192
        # column 0: X_0 and its last output sample; column 1: X_1 and its first
        xr = amp * rng.standard_normal((m, 2))
        xi = amp * rng.standard_normal((m, 2))
        theta = rng.uniform(0.0, TWO_PI, (m, 1))
        theta = theta + _reference_wiener_rows(rng, m, 2, step_std)
        w = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        x = xr + 1j * xi
        y = x * np.exp(1j * theta) + w
        angles[start : start + m] = np.angle(x[:, 1])
        psi[start : start + m] = np.angle(y[:, 1]) - np.angle(y[:, 0]) + np.angle(x[:, 0])
    return angles, psi


def _within_4_se(a, b):
    return abs(a.value - b.value) <= 4.0 * math.hypot(a.std_error, b.std_error)


def _assert_means_within_4_se(a, b):
    se = math.hypot(float(np.std(a)), float(np.std(b))) / math.sqrt(a.size)
    assert abs(float(np.mean(a)) - float(np.mean(b))) <= 4.0 * se


_LAW_POINTS = [(20.0, 4, 0.5), (100.0, 1, 0.01), (3.0, 16, 2.0)]


class TestLawAgainstFullChannel:
    @pytest.mark.parametrize("p,big_l,s2", _LAW_POINTS + [(1e3, 64, 0.1)])
    def test_amplitude(self, p, big_l, s2):
        params = ChannelParams(p, big_l, s2)
        got = amplitude_channel_mi(params, _LAW_SAMPLES, rng_seed=31)
        # the oracle's ||Y||^2, the values it binned
        norms = np.concatenate([norm for _, norm in _amplitude_blocks(params, _LAW_SAMPLES, 31)])
        x2, ynorm = _full_channel_amplitude(params, _LAW_SAMPLES, seed=32)
        assert _within_4_se(got, histogram_mi(x2, ynorm))
        for moment in (1, 2):
            _assert_means_within_4_se(norms**moment, ynorm**moment)

    @pytest.mark.parametrize("p,big_l,s2", _LAW_POINTS)
    def test_phase(self, p, big_l, s2):
        params = ChannelParams(p, big_l, s2)
        got = phase_channel_mi(params, _LAW_SAMPLES, rng_seed=33)
        angles, psi = _full_channel_phase(params, _LAW_SAMPLES, seed=34)
        want = _reference_plugin_mi(
            _reference_circular_bins(angles, 64), _reference_circular_bins(psi, 64), 64
        )
        assert _within_4_se(got, want)
        # the oracle's psi - angle(X_1), from the angles it binned
        noise = np.concatenate([s - a for a, s in _phase_blocks(params, _LAW_SAMPLES, 33)])
        for f in (np.cos, np.sin):
            _assert_means_within_4_se(f(noise), f(psi - angles))


class TestAmplitudeChannelMi:
    def test_zero_power_degenerate(self):
        est = amplitude_channel_mi(ChannelParams(0.0, 2, 0.5), 20_000, rng_seed=1)
        assert est.value == 0.0 and est.degenerate

    def test_phase_noise_invariance(self):
        # the block norm discards phase, so sigma2 cannot matter
        a = amplitude_channel_mi(ChannelParams(20.0, 1, 10.0), 200_000, rng_seed=7)
        b = amplitude_channel_mi(ChannelParams(20.0, 1, 1e4), 200_000, rng_seed=8)
        assert abs(a.value - b.value) <= 4.0 * math.hypot(a.std_error, b.std_error)

    def test_independent_of_sigma2(self):
        # the block norm's law holds no sigma2, and neither does the oracle
        a = amplitude_channel_mi(ChannelParams(20.0, 4, 0.01), 50_000, rng_seed=19)
        b = amplitude_channel_mi(ChannelParams(20.0, 4, 5.0), 50_000, rng_seed=19)
        assert a == b

    def test_dominates_closed_form_lower_bound(self):
        params = ChannelParams(20.0, 4, 0.5)
        est = amplitude_channel_mi(params, 200_000, rng_seed=9)
        closed = lower_partially_coherent(params).rate_split.amplitude_rate
        assert closed <= est.value + 4.0 * (est.std_error + MI_ALLOWANCE_NATS)
        assert closed <= est.value + MI_ALLOWANCE_NATS + 4.0 * est.std_error

    def test_reproducible(self):
        params = ChannelParams(5.0, 2, 0.3)
        a = amplitude_channel_mi(params, 20_000, rng_seed=5)
        b = amplitude_channel_mi(params, 20_000, rng_seed=5)
        assert a.value == b.value

    def test_working_memory(self):
        # one row block and its bins (1.7 MiB at L = 1, 1.6 MiB at L = 4);
        # ranking two per-sample arrays traced 13.6 MiB, and drawing whole
        # chunks 20 MiB
        for p, big_l in ((100.0, 1), (20.0, 4)):
            params = ChannelParams(p, big_l, 0.01)
            assert traced_peak_mib(amplitude_channel_mi, params, 500_000, 1) < 4.0

    @pytest.mark.parametrize("p, big_l", [(100.0, 1), (20.0, 4)])
    def test_working_memory_on_narrow_rows(self, p, big_l):
        # 0.5 MiB in blocks of 2^14 normals; blocks of 2^16 normals traced
        # 1.8 MiB at L = 1 and 1.7 MiB at L = 4
        params = ChannelParams(p, big_l, 0.01)
        assert traced_peak_mib(amplitude_channel_mi, params, 500_000, 1) < 1.0

    def test_subnormal_power_per_sample_degenerate(self):
        # P/L = 1e-310 / 2 underflows |X|^2, as P = 0 does
        est = amplitude_channel_mi(ChannelParams(1e-310, 2, 0.5), 20_000, rng_seed=1)
        assert est.value == 0.0 and est.degenerate

    @pytest.mark.parametrize("big_l, value, std_error", [
        pytest.param(1, 4.157244324931996, 0.00040347961837752057, id="L=1"),
        pytest.param(4, 4.157012302366536, 0.0004315045547516564, id="L=4"),
    ])
    def test_samples_that_overflow_raise_no_warning(self, big_l, value, std_error):
        # at P = 3e307 the ||Y||^2 edges are finite, but the squares of
        # sqrt(L) X + W' (56 samples at L = 1, 45 at L = 4) and, at L = 1,
        # |X|^2 (56 samples) overflow to inf, which lands in the top bin
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = amplitude_channel_mi(ChannelParams(3e307, big_l, 0.5), 20_000, rng_seed=1)
        assert (est.value, est.std_error, est.degenerate) == (value, std_error, False)

    def test_rejects_power_whose_edges_overflow(self):
        with pytest.raises(ValueError, match="overflow"):
            amplitude_channel_mi(ChannelParams(1e308, 1, 0.5), 20_000, rng_seed=1)


_EDGE_P = [1e-6, 1e-2, 1.0, 20.0, 1e3, 1e6, 1e12]
_EDGE_L = [1, 2, 4, 16, 64, 256, 1024]


class TestAmplitudeEdges:
    @pytest.mark.parametrize("p", _EDGE_P)
    @pytest.mark.parametrize("big_l", _EDGE_L)
    def test_norm_edges_are_mpmath_quantiles(self, p, big_l):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = _norm_edges(p, big_l)
        assert edges.shape == (63,) and np.all(np.isfinite(edges))
        assert np.all(np.diff(edges) > 0)
        want = [_oracles.norm_quantile(p, big_l, q, t) for q, t in zip(_LEVELS, edges)]
        assert edges == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p,big_l", [(20.0, 4), (100.0, 1), (3.0, 16), (1e4, 64)])
    def test_marginal_bins_hold_equal_mass(self, p, big_l):
        # binned by np.searchsorted, the oracle's own draws of each statistic
        # fall into the 64 bins with mass 1/64 each, within 4 SE per bin
        n = 200_000
        params = ChannelParams(p, big_l, 0.5)
        edges = (-(p / big_l) * np.log1p(-_LEVELS), _norm_edges(p, big_l))
        counts = np.zeros((2, 64), dtype=np.int64)
        for block in _amplitude_blocks(params, n, 23):
            for row, e, v in zip(counts, edges, block):
                row += np.bincount(np.searchsorted(e, v, side="right"), minlength=64)
        se = math.sqrt(n * (1.0 / 64.0) * (63.0 / 64.0))
        assert np.all(np.abs(counts - n / 64.0) <= 4.0 * se)

    @pytest.mark.parametrize("p,big_l", [(20.0, 4), (100.0, 1), (1e-6, 1024), (1e12, 2)])
    def test_edge_bins_are_searchsorted(self, p, big_l):
        rng = substream(24, 0)
        for edges in (_norm_edges(p, big_l), -(p / big_l) * np.log1p(-_LEVELS)):
            at = rng.choice(edges, 1 << 14)
            v = np.concatenate([
                at, np.nextafter(at, np.inf), np.nextafter(at, -np.inf),
                rng.uniform(0.0, 1.5 * edges[-1], 1 << 18), [0.0, math.inf],
            ])
            assert np.array_equal(_EdgeBins(edges)(v), np.searchsorted(edges, v, side="right"))

    def test_edge_bins_where_rounding_crosses_an_edge(self):
        # Interior edges moved onto cell left ends keep the cell geometry.
        # Values within ulps of them are where rounding can put a value in the
        # cell above an edge it lies below, so that the bin needs lowering.
        lowered = 0
        for edges in (_norm_edges(100.0, 1), -(1e12 / 2) * np.log1p(-_LEVELS)):
            table = _EdgeBins(edges)
            lefts = table.origin + np.arange(table.last + 1.0) / table.per_width
            edges = edges.copy()
            edges[1:-1] = lefts[np.searchsorted(lefts, edges[1:-1])]
            moved = _EdgeBins(edges)
            assert (moved.origin, moved.per_width, moved.last) == (
                table.origin, table.per_width, table.last
            )
            inner = edges[1:-1]
            v = np.concatenate([inner + k * np.spacing(inner) for k in range(-4, 5)])
            at = np.minimum(np.maximum((v - moved.origin) * moved.per_width, 0.0), moved.last)
            lowered += int(np.sum(v < moved.below[at.astype(np.intp)]))
            assert np.array_equal(moved(v), np.searchsorted(edges, v, side="right"))
        assert lowered > 0


class TestCircularBins:
    """The wrap written as fmod plus 2pi where negative bins every angle as
    np.mod does: at the bin edges and one ulp either side, at signed zeros,
    at huge and subnormal angles, and at random angles."""

    def test_matches_np_mod(self):
        at = np.arange(-200, 201) * (TWO_PI / 64)
        x = np.concatenate([
            at, np.nextafter(at, np.inf), np.nextafter(at, -np.inf),
            [0.0, -0.0, math.pi, -math.pi, 1e300, -1e300, 5e-324, -5e-324],
            np.random.default_rng(25).uniform(-8.0 * math.pi, 8.0 * math.pi, 10**6),
        ])
        assert np.array_equal(_circular_bins(x, 64), _reference_circular_bins(x, 64))


class TestPhaseChannelMi:
    def test_dominates_closed_form_lower_bound(self):
        params = ChannelParams(100.0, 1, 0.01)
        est = phase_channel_mi(params, 200_000, rng_seed=11)
        closed = lower_partially_coherent(params).rate_split.phase_rate
        assert closed <= est.value + MI_ALLOWANCE_NATS + 4.0 * est.std_error

    def test_uniform_scrambling_kills_information(self):
        est = phase_channel_mi(ChannelParams(100.0, 1, 1e6), 200_000, rng_seed=12)
        assert est.value <= est.bias_allowance + 4.0 * est.std_error + 1e-3

    def test_vanishing_power(self):
        est = phase_channel_mi(ChannelParams(1e-6, 1, 0.01), 200_000, rng_seed=13)
        assert est.value <= est.bias_allowance + 4.0 * est.std_error + 1e-3

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            phase_channel_mi(ChannelParams(0.0, 1, 0.01), 20_000, rng_seed=0)

    def test_working_memory(self):
        # one row block (2.3 MiB); drawing whole chunks traced 17.3 MiB, and
        # drawing a chunk's uniform phases first 3.3 MiB
        params = ChannelParams(20.0, 4, 0.5)
        assert traced_peak_mib(phase_channel_mi, params, 500_000, 1) < 4.0

    def test_working_memory_on_narrow_rows(self):
        # 0.4 MiB in blocks of 2^14 normals; blocks of 2^16 normals traced
        # 1.55 MiB
        params = ChannelParams(20.0, 4, 0.5)
        assert traced_peak_mib(phase_channel_mi, params, 500_000, 1) < 1.0


class TestRowBlockSize:
    """The row-block size is not part of the reproducibility key: with row
    blocks of `SMALL` elements, whose row counts do not divide a chunk, every
    field of each estimate is unchanged.  Each budget spans two whole chunks
    and a partial third."""

    SMALL = 1000
    N = 2 * 8192 + 1_234

    def small_blocks(self, monkeypatch, width):
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", self.SMALL)
        rows = sim._block_rows(width)
        assert 8192 % rows and 0 < rows < 8192

    @pytest.mark.parametrize("big_l", [1, 4, 16, 64])
    def test_amplitude(self, big_l, monkeypatch):
        params = ChannelParams(20.0, big_l, 0.5)
        want = amplitude_channel_mi(params, self.N, rng_seed=17)
        self.small_blocks(monkeypatch, 4)
        assert amplitude_channel_mi(params, self.N, rng_seed=17) == want

    @pytest.mark.parametrize("big_l", [1, 4, 16])
    def test_phase(self, big_l, monkeypatch):
        params = ChannelParams(20.0, big_l, 0.5)
        want = phase_channel_mi(params, self.N, rng_seed=18)
        self.small_blocks(monkeypatch, 9)
        assert phase_channel_mi(params, self.N, rng_seed=18) == want


class TestSandwichAgainstOuterBound:
    @pytest.mark.parametrize("p,big_l,s2", [(20.0, 4, 0.5), (100.0, 1, 0.01)])
    def test_achievable_below_outer(self, p, big_l, s2):
        params = ChannelParams(p, big_l, s2)
        amp = amplitude_channel_mi(params, 200_000, rng_seed=21)
        phase = phase_channel_mi(params, 200_000, rng_seed=22)
        outer = upper_outer(params).total
        assert amp.value + phase.value <= outer + 2.0 * MI_ALLOWANCE_NATS
