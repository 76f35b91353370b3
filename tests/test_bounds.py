import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gammaln

import _oracles
from owpnlab import bounds
from owpnlab.bounds import (
    EULER_MASCHERONI,
    entropy_chi2_lower,
    entropy_noncentral_chi2_upper,
    lower_coherent_combining,
    lower_partially_coherent,
    upper_outer,
)
from owpnlab.model import ChannelParams, _coherence, derive_constants
from owpnlab.riccati import _phase_rate_upper
from owpnlab.sim import substream

FOUR_LN2 = 4.0 * math.log(2.0)

# acceptance-style sandwich grid
POWER_GRID = [10.0**k for k in range(0, 13)]
L_GRID = [1, 2, 4, 16, 256]
SIGMA2_GRID = [10.0**k for k in range(-6, 3)]


def chi2_entropy_2k(k: int) -> float:
    # digamma-based exact entropy of chi-squared with 2k degrees of freedom
    return k + math.log(2.0) + float(gammaln(k)) + (1.0 - k) * float(digamma(k))


class TestUpperOuter:
    def test_reference_point(self):
        # frozen from the 50-digit oracle; the quoted 0.81227 is hand-rounded
        res = upper_outer(ChannelParams(2.0, 1, 1.0))
        assert res.total == pytest.approx(0.81229199844750977, abs=1e-12)
        assert res.rate_split.amplitude_rate == pytest.approx(0.549306144334055, abs=1e-12)
        assert res.rate_split.phase_rate == pytest.approx(0.26298585411345488, abs=1e-12)

    def test_zero_power(self):
        res = upper_outer(ChannelParams(0.0, 3, 0.5))
        assert res.total == 0.0

    def test_large_oversampling_limit(self):
        # L -> infinity at fixed P, sigma2: the phase argument tends to sqrt(4P/sigma2)/2
        res = upper_outer(ChannelParams(100.0, 10**9, 1.0))
        analytic = 0.5 * math.log(101.0) + 0.5 * math.log(2.0 * math.pi / math.e) \
            + 0.5 * math.log(10.0)
        assert res.total == pytest.approx(analytic, abs=1e-6)

    def test_sigma_zero_limit(self):
        res = upper_outer(ChannelParams(5.0, 2, 0.0))
        assert res.rate_split.phase_rate == 0.0
        assert res.total == pytest.approx(math.log(7.0), rel=1e-15)

    def test_matches_oracle_on_grid(self):
        for p in (0.5, 2.0, 30.0, 1e6, 1e12):
            for big_l in (1, 3, 64, 10**6):
                for s2 in (1e-6, 1e-4, 0.3, 9.0):
                    res = upper_outer(ChannelParams(p, big_l, s2))
                    _, _, total = _oracles.upper_outer(p, big_l, s2)
                    assert res.total == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestLowerPartiallyCoherent:
    def test_reference_point(self):
        res = lower_partially_coherent(ChannelParams(100.0, 1, 0.01))
        assert res.rate_split.amplitude_rate == pytest.approx(1.2053268410990234, abs=1e-12)
        assert res.rate_split.phase_rate == pytest.approx(1.2399306403345420, abs=1e-12)
        assert res.total == pytest.approx(2.4452574814335654, abs=1e-12)

    def test_negative_amplitude_term_clamped_total(self):
        # frozen oracle value -0.0055992466; the quoted -0.00537 is hand-rounded
        res = lower_partially_coherent(ChannelParams(6.0, 1, 1.0))
        assert res.rate_split.amplitude_rate == pytest.approx(-0.00559924661244, abs=1e-11)
        assert res.rate_split.phase_rate == 0.0
        assert res.total == 0.0

    def test_high_power_prelog_slope(self):
        # the O(1) offsets cancel in the two-point slope; target 3/4 at alpha=1/2
        def total(p):
            return lower_partially_coherent(
                ChannelParams(p, int(math.isqrt(int(p))), 1.0)
            ).total

        slope = (total(1e12) - total(1e8)) / (math.log(1e12) - math.log(1e8))
        assert slope == pytest.approx(0.75, abs=0.02)

    def test_matches_oracle_on_grid(self):
        for p in (1e-3, 1.0, 250.0, 1e9, 1e12):
            for big_l in (1, 7, 128, 10**6):
                for s2 in (0.0, 1e-6, 1e-3, 2.0, 50.0):
                    res = lower_partially_coherent(ChannelParams(p, big_l, s2))
                    amp, phase, total = _oracles.lower_pc(p, big_l, s2)
                    assert res.rate_split.amplitude_rate == pytest.approx(amp, rel=1e-12, abs=1e-12)
                    assert res.rate_split.phase_rate == pytest.approx(phase, rel=1e-12, abs=1e-12)
                    assert res.total == pytest.approx(total, rel=1e-12, abs=1e-12)


class TestLowerCoherentCombining:
    def test_noiseless_reference_point(self):
        res = lower_coherent_combining(ChannelParams(1000.0, 1, 0.0))
        assert res.rate_split.amplitude_rate == pytest.approx(1.2446778895544712, abs=1e-12)
        assert res.rate_split.phase_rate == pytest.approx(1.8901723100615200, abs=1e-12)

    def test_phase_term_dies_with_noise(self):
        params = lambda s2: ChannelParams(1000.0, 4, s2)  # noqa: E731
        phase = lambda s2: lower_coherent_combining(params(s2)).rate_split.phase_rate  # noqa: E731
        lo, hi = 1e-6, 1e6
        assert phase(lo) > 0.0 > phase(hi)
        for _ in range(80):  # bisect the sign change
            mid = math.sqrt(lo * hi)
            if phase(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        sigma0 = hi
        for factor in (1.0, 2.0, 10.0, 1e3):
            assert phase(sigma0 * factor) <= 0.0
        assert lower_coherent_combining(params(1e6)).total == 0.0

    def test_high_power_prelog_slope(self):
        # sigma2 = P^-2: the AWGN-like ray; slope tends to 1
        def total(p):
            return lower_coherent_combining(ChannelParams(p, 1, p**-2.0)).total

        slope = (total(1e12) - total(1e8)) / (math.log(1e12) - math.log(1e8))
        assert slope == pytest.approx(1.0, abs=0.02)

    def test_matches_oracle_on_grid(self):
        for p in (1e-2, 3.0, 1e4, 1e8, 1e12):
            for big_l in (1, 2, 16, 1000, 10**6):
                for s2 in (0.0, 1e-6, 1e-3, 0.2, 0.999, 1.001, FOUR_LN2, 30.0):
                    res = lower_coherent_combining(ChannelParams(p, big_l, s2))
                    amp, phase, total = _oracles.lower_cc(p, big_l, s2)
                    assert res.rate_split.amplitude_rate == pytest.approx(amp, rel=1e-12, abs=1e-12)
                    assert res.rate_split.phase_rate == pytest.approx(phase, rel=1e-12, abs=1e-12)
                    assert res.total == pytest.approx(total, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p, big_l, s2", [
        (1.0, 4, 9e307), (1e100, 16, 1e250), (1e-300, 1000, 1e308), (1e150, 10**6, 1e200),
    ])
    def test_phase_where_2_sigma2_p_overflows(self, p, big_l, s2):
        # the phase's denominator overflows; the true phase is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lower_coherent_combining(ChannelParams(p, big_l, s2))
        _, phase, _ = _oracles.lower_cc(p, big_l, s2)
        assert res.rate_split.phase_rate == pytest.approx(phase, rel=1e-12, abs=0.0)


MAX_FLOAT = np.finfo(float).max
KERNELS = (bounds._upper_outer, bounds._lower_partially_coherent, bounds._lower_coherent_combining)
SWEEP_L = (1.0, 2.0, 3.0, 16.0, 1e3, 1e6, 1e15, 2.0**53 - 1)
COLUMNS = ("upper_total", "upper_amp", "upper_phase", "pc_total", "pc_amp", "pc_phase",
           "cc_total", "cc_amp", "cc_phase")


def _sweep():
    # the float range: zero, subnormal, log-spaced and maximal P and sigma2,
    # by L from 1 to 2^53 - 1, 200,976 rows in all
    p_axis = np.concatenate(([0.0, 5e-324, 1e-320, 1e-310], np.logspace(-300, 308, 153),
                             [MAX_FLOAT]))
    l_axis = np.array(SWEEP_L)
    s2_axis = np.concatenate(([0.0, 5e-324, 1e-315, 1e-310, 1e-308],
                              np.logspace(-300, 308, 153), [MAX_FLOAT]))
    return [g.ravel() for g in np.meshgrid(p_axis, l_axis, s2_axis, indexing="ij")]


def _at(p, big_l, s2):
    # the nine value columns of one row
    point = [np.array([float(v)]) for v in (p, big_l, s2)]
    return [float(c[0]) for kernel in KERNELS for c in kernel(*point)]


def _oracle_points():
    # 100 rows of the sweep with P up to 1e300, drawn once with a fixed seed,
    # and the rows at P = 1e152 with sigma2 in {1e-160, 1e-164}, where
    # half^2 (...) in 1 - kappa is subnormal
    p, big_l, s2 = _sweep()
    rows = np.random.default_rng(19).choice(np.flatnonzero(p <= 1e300), 100, replace=False)
    return ([(float(p[i]), float(big_l[i]), float(s2[i])) for i in sorted(rows)]
            + [(1e152, big_l, s2) for big_l in SWEEP_L for s2 in (1e-160, 1e-164)])


class TestWholeFloatRange:
    @pytest.mark.parametrize("p, big_l, s2", _oracle_points())
    def test_matches_oracle(self, p, big_l, s2):
        got, want = _at(p, big_l, s2), _oracles.bounds_row(p, int(big_l), s2)
        for name, g, w in zip(COLUMNS, got, want):
            assert abs(g - w) <= 1e-12 * max(abs(w), 1.0), (name, g, w)

    @pytest.mark.parametrize("p, big_l, s2, column, want", [
        # e^2 (P + 2)^2 overflows
        (1e200, 1, 1e-10, "pc_amp", 229.14642358563995),
        # sigma2 P overflows, and ln(inf) would clamp the phase to 0
        (1e300, 1e15, 1e12, "pc_phase", 3.5842083402449747),
        # 2 (1 + P phi) + P^2 (1 - phi^2) overflows, which would clamp the amplitude to 0
        (1e160, 2, 1e-8, "cc_amp", 8.039363138820873),
        # P/L rounds to 0, which would clamp the outer phase to 0
        (5e-324, 2, 5e-324, "upper_phase", 0.4189385332046727),
        # half^2 (...) in 1 - kappa underflows to 0, which would give 210.82
        (1e284, 1e15, 1e-168, "cc_phase", 193.44246939724425),
        # the cc denominator overflows, and its log-domain sum is dominated by
        # ln(pi^2 (1 - kappa) L P): ln(pi^2) 1% too large gives -0.67827
        (1e300, 2**53 - 1, 1e3, "cc_phase", -0.666824593480196),
    ])
    def test_where_the_direct_form_leaves_the_float_range(self, p, big_l, s2, column, want):
        i = COLUMNS.index(column)
        assert _oracles.bounds_row(p, int(big_l), s2)[i] == pytest.approx(want, rel=1e-15)
        assert _at(p, big_l, s2)[i] == pytest.approx(want, rel=1e-12)


class TestSandwichAndShape:
    def test_sandwich_on_grid(self):
        for p in POWER_GRID:
            for big_l in L_GRID:
                for s2 in SIGMA2_GRID:
                    params = ChannelParams(p, big_l, s2)
                    upper = upper_outer(params).total
                    lower = max(
                        lower_partially_coherent(params).total,
                        lower_coherent_combining(params).total,
                    )
                    assert lower <= upper + 1e-9, (p, big_l, s2, lower, upper)

    def test_monotone_in_power(self):
        for big_l in L_GRID:
            for s2 in SIGMA2_GRID:
                for fn in (upper_outer, lower_partially_coherent, lower_coherent_combining):
                    totals = [fn(ChannelParams(p, big_l, s2)).total for p in POWER_GRID]
                    for lo, hi in zip(totals, totals[1:]):
                        assert hi >= lo - 1e-12, (fn.__name__, big_l, s2)

    def test_finite_on_the_whole_float_range(self):
        # every cell of the 200,976-row sweep is finite, and both lower bounds
        # lie below the outer bound; no kernel warns, as each owns its errstate
        p, big_l, s2 = _sweep()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cells = np.array([c for kernel in KERNELS for c in kernel(p, big_l, s2)])
        assert p.size == 200_976
        assert np.isfinite(cells).all()
        upper, pc, cc = cells[0], cells[3], cells[6]
        assert np.all(np.maximum(pc, cc) <= upper + 1e-9)

    def test_scalar_wrappers_raise_no_warning(self):
        # edge points of the sweep: zero, subnormal and maximal P and sigma2,
        # and the least and largest L
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p, big_l, s2 in itertools.product((0.0, 5e-324, 1e-310, 1e154, MAX_FLOAT),
                                                  (1, 2**53 - 1), (0.0, 5e-324, MAX_FLOAT)):
                params = ChannelParams(p, big_l, s2)
                derive_constants(params)
                for fn in (upper_outer, lower_partially_coherent, lower_coherent_combining):
                    assert math.isfinite(fn(params).total), (fn.__name__, p, big_l, s2)
            upper_outer(ChannelParams(1e-320, 4, 1e-322))

    def test_zero_power_degenerates(self):
        for fn in (upper_outer, lower_partially_coherent, lower_coherent_combining):
            assert fn(ChannelParams(0.0, 4, 0.7)).total == 0.0

    @given(
        p=st.floats(min_value=0.0, max_value=1e12),
        big_l=st.integers(min_value=1, max_value=10**6),
        s2=st.floats(min_value=1e-9, max_value=1e4),
    )
    @settings(max_examples=150, deadline=None)
    def test_sandwich_property(self, p, big_l, s2):
        params = ChannelParams(p, big_l, s2)
        upper = upper_outer(params).total
        assert math.isfinite(upper) and upper >= 0.0
        for fn in (lower_partially_coherent, lower_coherent_combining):
            low = fn(params).total
            assert math.isfinite(low) and 0.0 <= low <= upper + 1e-9


class TestArrayKernels:
    # a grid mixing P == 0, subnormal P, sigma2 == 0, L == 1, and both sides
    # of the series/closed-form switch at sigma2 = 1
    P_AXIS = [0.0, 5e-324, 1e-3, 1.0, 37.5, 1e6, 1e12]
    L_AXIS = [1, 2, 3, 16, 1000, 10**6]
    S2_AXIS = [0.0, 1e-6, 1e-3, 0.4, 1.0, 1.0000001, 4.0, 100.0]

    def grid(self):
        mesh = np.meshgrid(self.P_AXIS, np.array(self.L_AXIS, dtype=float), self.S2_AXIS,
                           indexing="ij")
        return [g.ravel() for g in mesh]

    def test_bounds_equal_scalar_wrappers_bit_for_bit(self):
        p, big_l, s2 = self.grid()
        for kernel, fn in ((bounds._upper_outer, upper_outer),
                           (bounds._lower_partially_coherent, lower_partially_coherent),
                           (bounds._lower_coherent_combining, lower_coherent_combining)):
            totals, amps, phases = kernel(p, big_l, s2)
            for i in range(p.size):
                res = fn(ChannelParams(float(p[i]), int(big_l[i]), float(s2[i])))
                got = (res.total, res.rate_split.amplitude_rate, res.rate_split.phase_rate)
                assert got == (totals[i], amps[i], phases[i]), (fn.__name__, p[i], big_l[i], s2[i])

    def test_constants_equal_scalar_wrappers_bit_for_bit(self):
        p, big_l, s2 = self.grid()
        xi, kappa, phi, _, _ = _coherence(s2, big_l)
        rate = _phase_rate_upper(p, big_l, s2)
        for i in range(p.size):
            params = ChannelParams(float(p[i]), int(big_l[i]), float(s2[i]))
            assert tuple(derive_constants(params)) == (xi[i], kappa[i], phi[i])
            if s2[i] > 0.0:
                assert upper_outer(params).rate_split.phase_rate == rate[i]


class TestEntropyInequalities:
    @pytest.mark.parametrize("k", range(1, 21))
    def test_chain(self, k):
        exact = chi2_entropy_2k(k)
        assert entropy_chi2_lower(k) < exact < entropy_noncentral_chi2_upper(k, 0.0)

    def test_reference_values(self):
        assert entropy_chi2_lower(1) == pytest.approx(1.6120857137646180, abs=1e-12)
        assert chi2_entropy_2k(1) == pytest.approx(1.0 + math.log(2.0), abs=1e-12)
        assert entropy_chi2_lower(2) == pytest.approx(1.9586593040657266, abs=1e-9)
        assert chi2_entropy_2k(2) == pytest.approx(2.2703628454614781, abs=1e-9)
        assert entropy_noncentral_chi2_upper(1, 0.0) == pytest.approx(2.1120857137646180, abs=1e-12)
        assert entropy_noncentral_chi2_upper(2, 0.0) == pytest.approx(2.4586593040657266, abs=1e-9)

    def test_growth(self):
        huge = entropy_chi2_lower(10**6)
        assert math.isfinite(huge)
        assert huge > entropy_chi2_lower(10**5) > entropy_chi2_lower(10)

    def test_noncentral_against_histogram_entropy(self):
        # h estimated from a histogram of chi2_2(lambda) draws must stay below
        # the closed-form upper bound
        lam = 1e5
        rng = substream(77, 0)
        n = 400_000
        samples = (math.sqrt(lam) + rng.standard_normal(n)) ** 2 + rng.standard_normal(n) ** 2
        counts, edges = np.histogram(samples, bins=400)
        widths = np.diff(edges)
        p = counts / n
        nz = p > 0
        h_est = float(-np.sum(p[nz] * np.log(p[nz] / widths[nz])))
        assert h_est <= entropy_noncentral_chi2_upper(1, lam)

    def test_validation(self):
        with pytest.raises(ValueError):
            entropy_chi2_lower(0)
        with pytest.raises(ValueError):
            entropy_noncentral_chi2_upper(1, -0.5)


def test_cc_amplitude_log_moment():
    # The coherent-combining amplitude rests on E[ln|F|^2] >= ln(phi^2 / 3).
    # At L = 2 the inverse moment E[|F|^-2] diverges (|F| has a second-order
    # zero of positive density), so only this logarithmic step is checked.
    params = ChannelParams(1.0, 2, FOUR_LN2)
    _, _, phi = derive_constants(params)
    rng = substream(55, 0)
    increments = rng.normal(0.0, math.sqrt(FOUR_LN2 / 2.0), 500_000)
    mag_sq = (1.0 + np.cos(increments)) / 2.0  # |F|^2 at L = 2
    mc = float(np.mean(np.log(mag_sq)))
    se = float(np.std(np.log(mag_sq))) / math.sqrt(mag_sq.size)
    assert mc - 4.0 * se >= math.log(phi * phi / 3.0)


def test_euler_mascheroni_constant():
    assert EULER_MASCHERONI == pytest.approx(float(_oracles.GAMMA), abs=1e-18)
