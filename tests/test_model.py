import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from owpnlab.model import (
    _ONE_MINUS_PHI_COEFFS,
    ChannelParams,
    GdofPoint,
    McEstimate,
    Units,
    _coherence,
    convert_rate,
    derive_constants,
    per_symbol_power,
)
from owpnlab.sim import estimate_F_moments

FOUR_LN2 = 4.0 * math.log(2.0)


def direct_phi(big_l: int, sigma2: float) -> float:
    # independent oracle: the raw double sum (1/L^2) sum_{i,k} xi^{|i-k|}
    if sigma2 == 0.0:
        return 1.0
    xi = math.exp(-sigma2 / (2.0 * big_l))
    total = math.fsum(
        xi ** abs(i - k) for i in range(big_l) for k in range(big_l)
    )
    return total / big_l**2


def direct_kappa(big_l: int, sigma2: float) -> float:
    if sigma2 == 0.0:
        return 1.0
    xi = math.exp(-sigma2 / (2.0 * big_l))
    return math.fsum(xi**d for d in range(big_l)) / big_l


def bernoulli(m: int) -> Fraction:
    # B_m as an exact rational (B_1 = -1/2; it never enters the table)
    values = [Fraction(1)]
    for n in range(1, m + 1):
        values.append(-sum(math.comb(n + 1, k) * values[k] for k in range(n)) / (n + 1))
    return values[m]


def one_minus_phi_row(j: int) -> list[Fraction]:
    """Exact coefficients of h^j in 1 - phi, in powers of 1/L^2.

    c_j(L) = (2/L^(j+2)) sum_{d=1}^{L-1} (L-d) d^j; Faulhaber's formula for
    the power sums gives c_j(L)/j! = 2/(j+2)!
    + sum_{k=2}^{j} 2 B_k (1-k) / (k! (j+2-k)!) L^-k - 2 B_{j+1} / j! L^-(j+1),
    where only even k carry a nonzero B_k."""
    coeffs = [Fraction(2, math.factorial(j + 2))]
    for k in range(2, j + 2, 2):
        c = Fraction(0)
        if k <= j:
            c += 2 * bernoulli(k) * (1 - k) / (math.factorial(k) * math.factorial(j + 2 - k))
        if k == j + 1:
            c -= 2 * bernoulli(j + 1) / math.factorial(j)
        coeffs.append(c)
    return [c if j % 2 else -c for c in coeffs]


class TestChannelParams:
    def test_symbol_power(self):
        assert per_symbol_power(ChannelParams(10.0, 5, 1.0)) == 2.0
        assert per_symbol_power(ChannelParams(0.0, 3, 1.0)) == 0.0
        assert per_symbol_power(ChannelParams(7.0, 1, 1.0)) == 7.0

    def test_xi_definition(self):
        xi = derive_constants(ChannelParams(1.0, 4, 2.0)).xi
        assert xi == pytest.approx(math.exp(-2.0 / 8.0), rel=1e-15)
        assert derive_constants(ChannelParams(1.0, 4, 0.0)).xi == 1.0
        assert 0.0 < derive_constants(ChannelParams(1.0, 2, 50.0)).xi < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(avg_power=-1.0, oversampling=1, freq_noise_var=0.0),
            dict(avg_power=math.inf, oversampling=1, freq_noise_var=0.0),
            dict(avg_power=1.0, oversampling=0, freq_noise_var=0.0),
            dict(avg_power=1.0, oversampling=1.5, freq_noise_var=0.0),
            dict(avg_power=1.0, oversampling=1, freq_noise_var=-0.1),
            dict(avg_power=1.0, oversampling=1, freq_noise_var=math.nan),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestDeriveConstants:
    def test_single_sample_is_unit(self):
        xi, kappa, phi = derive_constants(ChannelParams(3.0, 1, 3.0))
        assert kappa == 1.0 and phi == 1.0

    def test_half_coherence_point(self):
        # sigma2 = 4 ln 2 at L = 2 gives xi = 1/2 and kappa = phi = 3/4
        xi, kappa, phi = derive_constants(ChannelParams(1.0, 2, FOUR_LN2))
        assert xi == pytest.approx(0.5, rel=1e-15)
        assert kappa == pytest.approx(0.75, rel=1e-13)
        assert phi == pytest.approx(0.75, rel=1e-13)
        assert phi == pytest.approx(direct_phi(2, FOUR_LN2), rel=1e-13)

    def test_zero_noise_limit(self):
        for big_l in (1, 2, 7, 1000):
            xi, kappa, phi = derive_constants(ChannelParams(1.0, big_l, 0.0))
            assert xi == 1.0 and kappa == 1.0 and phi == 1.0
        # approach from above
        for s2 in (1e-3, 1e-6, 1e-9):
            _, kappa, phi = derive_constants(ChannelParams(1.0, 16, s2))
            assert 1.0 - kappa < s2
            assert 1.0 - phi < s2

    @pytest.mark.parametrize("big_l", [1, 2, 3, 7, 16, 64, 257])
    @pytest.mark.parametrize("sigma2", [1e-6, 1e-3, 0.1, 1.0, FOUR_LN2, 10.0, 100.0])
    def test_phi_matches_double_sum(self, big_l, sigma2):
        _, _, phi = derive_constants(ChannelParams(1.0, big_l, sigma2))
        oracle = direct_phi(big_l, sigma2)
        assert abs(big_l**2 * phi - big_l**2 * oracle) <= 1e-12 * big_l**2 * oracle

    @pytest.mark.parametrize("big_l", [2, 5, 64, 257])
    @pytest.mark.parametrize("sigma2", [1e-6, 1e-2, 1.0, 30.0])
    def test_kappa_matches_sum(self, big_l, sigma2):
        _, kappa, _ = derive_constants(ChannelParams(1.0, big_l, sigma2))
        assert kappa == pytest.approx(direct_kappa(big_l, sigma2), rel=1e-12)

    def test_series_closed_form_agree_at_switch(self):
        # the hybrid switches at sigma2/2 = 1/2; both paths must agree nearby
        from owpnlab.model import _one_minus_phi_series, _phi_closed

        for big_l in (2, 9, 128, 10**6):
            for half in (0.2, 0.45, 0.5, 0.55, 0.9):
                closed = _phi_closed(half, big_l)
                series = 1.0 - _one_minus_phi_series(half, big_l)
                assert series == pytest.approx(closed, rel=5e-13)

    def test_phi_table_is_exact(self):
        # each entry is its rational rounded once to float
        for j, row in enumerate(_ONE_MINUS_PHI_COEFFS, start=1):
            assert row == tuple(float(c) for c in one_minus_phi_row(j)), j

    def test_phi_table_rows_match_power_sums(self):
        # the Faulhaber rows against c_j(L)/j! summed directly, in exact rationals
        for j in range(1, len(_ONE_MINUS_PHI_COEFFS) + 1):
            for big_l in (2, 3, 5, 16):
                c_j = Fraction(2 * sum((big_l - d) * d**j for d in range(1, big_l)),
                               big_l ** (j + 2) * math.factorial(j))
                poly = sum(c * Fraction(1, big_l**2) ** m
                           for m, c in enumerate(one_minus_phi_row(j)))
                assert poly == (c_j if j % 2 else -c_j), (j, big_l)

    @pytest.mark.parametrize("big_l", [1, 2, 3, 16, 1000, 10**6, 10**9])
    def test_one_minus_constants_keep_relative_accuracy(self, big_l):
        # 1 - kappa and 1 - phi against 50-digit values, also where kappa and
        # phi round to 1
        s2s = [1e-9, 1e-6, 1e-3, 0.3, 0.999, 1.0, 1.001, 3.0, 40.0]
        _, kappa, phi, om_kappa, om_phi = _coherence(np.array(s2s), np.full(len(s2s), float(big_l)))
        for i, s2 in enumerate(s2s):
            if big_l == 1:
                assert (kappa[i], phi[i], om_kappa[i], om_phi[i]) == (1.0, 1.0, 0.0, 0.0)
                continue
            with mp.workdps(60):
                xi = mp.exp(-mp.mpf(s2) / (2 * big_l))
                ref_kappa = 1 - (1 - xi**big_l) / (big_l * (1 - xi))
                ref_phi = 1 - (
                    big_l - 2 * xi * (big_l * (xi - 1) - xi**big_l + 1) / (1 - xi) ** 2
                ) / big_l**2
                assert abs(om_kappa[i] - ref_kappa) <= 1e-14 * ref_kappa, s2
                assert abs(om_phi[i] - ref_phi) <= 1e-14 * ref_phi, s2

    @pytest.mark.parametrize("big_l", [2, 16, 2**53 - 1])
    def test_subnormal_noise(self, big_l):
        # sigma2/2 rounds to 0 at 5e-324, and sigma2/(2L) is no normal float
        # in any of these cells, so 1 - xi carries no relative accuracy
        s2s = [5e-324, 1e-320, 1e-310]
        _, _, _, om_kappa, om_phi = _coherence(np.array(s2s), np.full(len(s2s), float(big_l)))
        assert np.all(np.isfinite(om_kappa) & (om_kappa >= 0.0)), om_kappa
        assert np.all(np.isfinite(om_phi) & (om_phi >= 0.0)), om_phi
        for s2 in s2s:
            _, kappa, phi = derive_constants(ChannelParams(1.0, big_l, s2))
            assert 0.0 <= kappa <= 1.0 and 0.0 <= phi <= 1.0, (s2, kappa, phi)

    @pytest.mark.parametrize("big_l", [2, 3, 16, 1000])
    def test_constants_where_the_step_is_subnormal(self, big_l):
        # k smallest subnormals: 1 - xi rounds to a few ulps, so its closed
        # form quotient for kappa was off by up to 44%; 1 - kappa is within
        # two subnormal ulps of its value
        s2s = [k * 5e-324 for k in range(1, 41)] + [1e-320, 1e-310, 4e-308]
        _, kappa, phi, om_kappa, _ = _coherence(np.array(s2s), np.full(len(s2s), float(big_l)))
        for i, s2 in enumerate(s2s):
            _, ref_kappa, ref_phi = _oracles.coherence_constants(big_l, s2)
            ref_om_kappa, _ = _oracles.one_minus_coherence(big_l, s2)
            assert (kappa[i], phi[i]) == (ref_kappa, ref_phi) == (1.0, 1.0), s2
            assert abs(om_kappa[i] - ref_om_kappa) <= 1e-12 * ref_om_kappa + 1e-323, s2

    def test_huge_oversampling(self):
        # closed forms must stay accurate for GDoF-scale L
        _, kappa, phi = derive_constants(ChannelParams(1.0, 10**9, 1e-12))
        assert 0.0 < kappa <= 1.0 and 0.0 < phi <= 1.0
        assert phi == pytest.approx(1.0, abs=1e-9)
        _, kappa2, phi2 = derive_constants(ChannelParams(1.0, 10**9, 2.0))
        assert 0.0 < phi2 < 1.0 and 0.0 < kappa2 < 1.0

    def test_monotone_in_noise(self):
        grid = [0.0, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        for big_l in (2, 5, 16):
            kappas = []
            phis = []
            for s2 in grid:
                _, kappa, phi = derive_constants(ChannelParams(1.0, big_l, s2))
                kappas.append(kappa)
                phis.append(phi)
            assert all(a >= b - 1e-14 for a, b in zip(kappas, kappas[1:]))
            assert all(a >= b - 1e-14 for a, b in zip(phis, phis[1:]))

    def test_kappa_against_monte_carlo(self):
        params = ChannelParams(1.0, 4, 1.0)
        _, kappa, _ = derive_constants(params)
        moments = estimate_F_moments(params, 100_000, rng_seed=2024)
        est = moments.mean_real
        assert abs(est.mean - kappa) <= 4.0 * est.std_error

    @given(
        big_l=st.integers(min_value=1, max_value=10**9),
        sigma2=st.one_of(
            st.just(0.0), st.floats(min_value=1e-9, max_value=1e4, allow_nan=False)
        ),
    )
    @settings(max_examples=200, deadline=None)
    @example(big_l=4, sigma2=2.0)
    def test_constants_in_unit_interval(self, big_l, sigma2):
        xi, kappa, phi = derive_constants(ChannelParams(1.0, big_l, sigma2))
        assert xi == pytest.approx(math.exp(-sigma2 / (2.0 * big_l)), rel=1e-15)
        assert 0.0 <= xi <= 1.0
        assert 0.0 <= kappa <= 1.0
        assert 0.0 <= phi <= 1.0
        if sigma2 == 0.0:
            assert xi == 1.0
        elif sigma2 / (2.0 * big_l) > 1e-12:  # xi < 1 once exp(-x) is resolvable
            assert xi < 1.0


class TestValueTypes:
    def test_units_round_trip(self):
        for nats in (0.81229, 1.0, 13.8, 1e-9):
            bits = convert_rate(nats, Units.BITS)
            assert bits == pytest.approx(nats / math.log(2.0), rel=1e-15)
            back = bits * math.log(2.0)
            assert abs(back - nats) <= 4.0 * math.ulp(nats)
        assert convert_rate(2.5, Units.NATS) == 2.5

    def test_gdof_point_validation(self):
        GdofPoint(0.0, -5.0)
        with pytest.raises(ValueError):
            GdofPoint(-0.1, 0.0)
        with pytest.raises(ValueError):
            GdofPoint(1.0, math.inf)

    def test_mc_estimate_validation(self):
        McEstimate(1.0, 0.0, 1, 42)
        with pytest.raises(ValueError):
            McEstimate(1.0, -1e-3, 10, 42)
        with pytest.raises(ValueError):
            McEstimate(1.0, 0.1, 0, 42)
