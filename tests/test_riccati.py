import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import _oracles
from _memory import traced_peak_mib
from owpnlab.bounds import upper_outer
from owpnlab.model import ChannelParams
from owpnlab.riccati import (
    _iterates,
    crb_argument,
    immse_entropy_quadrature,
    iterate_fixed_point,
    posterior_crb_entropy_lower,
    riccati_fixed_point,
)
from test_sim import left_to_right_blocks

X_GRID = np.logspace(-1, 3, 20)
R_GRID = np.logspace(-3, 6, 20)


class TestRecursion:
    def test_zero_power_fixed_point(self):
        assert next(_iterates(0.0, 1.0, 0.0)) == 0.0

    def test_hand_step(self):
        assert next(_iterates(3.0, 1.0, 0.0)) == pytest.approx(3.0, rel=1e-15)

    def test_iteration_converges_fast(self):
        j, steps = iterate_fixed_point(3.0, 1.0)
        assert steps < 200
        assert j == pytest.approx(1.5 + 0.5 * math.sqrt(21.0), abs=1e-11)

    def test_nonneg_preserved(self):
        # D22 >= D21 (J + D11)^-1 D12 for these score constants
        for x in (0.0, 0.1, 10.0):
            for r in (1e-3, 1.0, 1e5):
                assert all(j >= 0.0 for j in itertools.islice(_iterates(x, r, 0.0), 50))

    def test_state_validation(self):
        for x, r in ((-0.1, 1.0), (1.0, 0.0)):
            with pytest.raises(ValueError):
                iterate_fixed_point(x, r)
        for r in (1e-3, 0.1, 1.0, 1e6):  # J = 0 is an exact fixed point at x = 0
            assert iterate_fixed_point(0.0, r) == (0.0, 1)

    def test_converges_honestly(self):
        # wherever the iteration returns, J lies within the relative error
        # that tol = 1e-12 bounds, plus rounding of order 1e-16 sqrt(r/x)
        rng = np.random.default_rng(20)
        for x, ratio in zip(10.0 ** rng.uniform(-300.0, 300.0, 120),
                            10.0 ** rng.uniform(-6.0, 6.0, 120)):
            x, r = float(x), float(x * ratio)
            j, _ = iterate_fixed_point(x, r)
            want = _oracles.riccati_fixed_point(x, r)
            assert j == pytest.approx(want, rel=1e-11, abs=0.0), (x, r)

    @pytest.mark.parametrize("x, r", [(1e-3, 1e13), (1.0, 1e16), (1e3, 1e22), (1e-200, 1e-150)])
    def test_refuses_where_it_cannot_converge(self, x, r):
        # r/x >= 1e16 needs ~1e8 steps; a map that cancels returns J = 0 at
        # (1e-200, 1e-150)
        with pytest.raises(RuntimeError):
            iterate_fixed_point(x, r)


class TestFixedPoint:
    def test_examples(self):
        assert riccati_fixed_point(0.0, 5.0) == 0.0
        assert riccati_fixed_point(3.0, 1.0) == pytest.approx(3.7912878474779199, abs=1e-12)
        assert riccati_fixed_point(1.0, 1e6) == pytest.approx(
            _oracles.riccati_fixed_point(1.0, 1e6), rel=1e-14
        )
        assert riccati_fixed_point(1.0, 1e6) == pytest.approx(1000.500125, abs=1e-6)

    def test_where_x2_plus_4rx_underflows(self):
        # x^2 + 4rx underflows to 0 here, while J* is about sqrt(rx)
        assert riccati_fixed_point(1e-200, 1e-150) == pytest.approx(
            _oracles.riccati_fixed_point(1e-200, 1e-150), rel=1e-12, abs=0.0
        )

    def test_step_consistency_on_grid(self):
        for x in X_GRID:
            for r in R_GRID:
                jstar = riccati_fixed_point(float(x), float(r))
                assert abs(next(_iterates(float(x), float(r), jstar)) - jstar) < 1e-10

    def test_global_attraction(self):
        # corners with r >> x need ~3e4 steps for 1e-9 relative accuracy
        # (contraction factor 1 - 6e-4); everywhere else 1e4 steps suffice
        for x in X_GRID:
            for r in R_GRID:
                jstar = riccati_fixed_point(float(x), float(r))
                cap = 10_000 if r <= 1e3 * x else 100_000
                for j0 in (0.0, 10.0 * jstar):
                    for j in itertools.islice(_iterates(float(x), float(r), j0), cap):
                        if abs(j - jstar) <= 1e-9 * jstar:
                            break
                    assert abs(j - jstar) <= 1e-9 * jstar, (x, r, j0)

    def test_divergence_guard(self):
        with pytest.raises(RuntimeError):
            iterate_fixed_point(1.0, 1e6, tol=0.0, max_iter=50)


class TestPosteriorCrb:
    def test_reference_values(self):
        assert posterior_crb_entropy_lower(3.0, 1.0) == pytest.approx(
            1.5359852702807478, abs=1e-12
        )
        # the quoted -2.0351 is hand-rounded; the oracle gives -2.0346891
        assert posterior_crb_entropy_lower(1.0, 1e6) == pytest.approx(
            -2.0346891062979400, abs=1e-9
        )
        assert posterior_crb_entropy_lower(1.0, 1e6) == pytest.approx(
            _oracles.posterior_crb_entropy_lower(1.0, 1e6), abs=1e-12
        )

    def test_where_2rx_underflows(self):
        assert posterior_crb_entropy_lower(1e-200, 1e-150) == pytest.approx(
            _oracles.posterior_crb_entropy_lower(1e-200, 1e-150), rel=1e-12, abs=0.0
        )

    def test_no_observation_limit_exceeds_circle(self):
        # almost no information: the bound exceeds the uniform-phase entropy
        assert posterior_crb_entropy_lower(1.0, 1e-9) > math.log(2.0 * math.pi)

    def test_rejects_zero_power(self):
        with pytest.raises(ValueError):
            posterior_crb_entropy_lower(0.0, 1.0)

    @pytest.mark.parametrize("fn", [crb_argument, posterior_crb_entropy_lower])
    @pytest.mark.parametrize("x, r", [
        (math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (-1.0, 1.0), (1.0, -1.0), (1.0, 0.0),
    ])
    def test_rejects_out_of_domain(self, fn, x, r):
        # the array kernel gives nan at each, or 0.0 at r = 0: no bound
        with pytest.raises(ValueError):
            fn(x, r)

    def test_limit_at_infinite_power(self):
        # J* - x tends to r as x grows; the CLI never passes x = inf
        assert crb_argument(math.inf, 2.5) == 2.5
        assert posterior_crb_entropy_lower(math.inf, 1.0) == 0.5 * math.log(2.0 * math.pi * math.e)

    def test_identity_with_phase_rate(self):
        # ln(2 pi) - h_lower == (1/2) ln(2 pi / e) + (1/2) ln(argument)
        for x in (0.3, 2.0, 40.0):
            for r in (1e-2, 1.0, 1e4):
                lhs = math.log(2.0 * math.pi) - posterior_crb_entropy_lower(x, r)
                rhs = 0.5 * math.log(2.0 * math.pi / math.e) + 0.5 * math.log(
                    crb_argument(x, r)
                )
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPhaseRateUpper:
    def test_is_outer_bound_phase_summand(self):
        # the kernel riccati._phase_rate_upper, read through the outer bound
        phase = upper_outer(ChannelParams(2.0, 1, 1.0)).rate_split.phase_rate
        assert phase == pytest.approx(0.26298585411345488, abs=1e-12)

    def test_stable_argument_identity(self):
        # at P/L >> sqrt(4P/sigma2) the argument collapses to L/sigma2; the
        # naive evaluation loses every digit here
        arg = crb_argument(1e8, 1.0)
        assert abs(arg - 1.0) < 1e-3
        assert abs(arg - 1.0) < 1e-6  # the stable form is far better than required

    def test_argument_where_the_direct_form_overflows(self):
        # x^2 + 4 r x overflows at every point, 4 r / x also at the last two,
        # and 2 r x does not at (5e104, 1.2e203); the rescaled forms keep every
        # digit
        points = ((1e100, 1e300), (1e200, 1e200), (5e104, 1.2e203), (1e308, 1e308),
                  (1.0, 8e307), (3.0, 1e308))
        for x, r in points:
            arg = crb_argument(x, r)
            assert abs(arg - _oracles.crb_argument(x, r)) <= 1e-15 * _oracles.crb_argument(x, r)

    def test_argument_where_2rx_underflows(self):
        # 2 r x is subnormal or 0 at every point, and the direct form gives 0
        # at the first.  At (1, 1e-320) the oracle needs more than its 50
        # digits, or sqrt(x^2 + 4rx)/2 - x/2 cancels to 0.
        for x, r in ((1e-200, 1e-150), (1e-300, 1e-10), (1.0, 1e-320)):
            with mp.workdps(400):
                want = _oracles.crb_argument(x, r)
            assert want > 0.0
            assert crb_argument(x, r) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_large_grid_point(self):
        # the quoted 3.8723 is hand-rounded; the oracle gives 3.8728137
        value = upper_outer(ChannelParams(100.0, 10**4, 1e-4)).rate_split.phase_rate
        assert value == pytest.approx(3.8728136727006834, abs=1e-9)
        assert value == pytest.approx(_oracles.phase_rate_upper(100.0, 10**4, 1e-4), abs=1e-12)

    def test_zero_power(self):
        assert upper_outer(ChannelParams(0.0, 1, 1.0)).rate_split.phase_rate == 0.0


class TestConcavityHelper:
    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_sqrt_quadratic_is_concave(self, a):
        f = lambda x: math.sqrt(x * x + a * x)  # noqa: E731
        for x in np.logspace(-3, 3, 60):
            h = 1e-3 * x
            second_diff = f(x + h) - 2.0 * f(x) + f(x - h)
            assert second_diff <= 1e-9


class TestImmseQuadrature:
    @pytest.mark.parametrize("s", [0.25, 1.0, 4.0])
    def test_recovers_gaussian_entropy(self, s):
        value = immse_entropy_quadrature(math.sqrt(s))
        assert value == pytest.approx(_oracles.gaussian_entropy(s), abs=1e-3)

    def test_monotone_in_variance(self):
        assert immse_entropy_quadrature(1e-2) < immse_entropy_quadrature(1e-1)

    @staticmethod
    def whole_grid(prior_std):
        # the quadrature over its whole grid at once, built by np.logspace
        s = prior_std * prior_std
        rho = np.concatenate(([0.0], np.logspace(-8.0, 6.0, 99_999)))
        integrand = s / (1.0 + s * rho) - 1.0 / (2.0 * math.pi * math.e + rho)
        terms = np.diff(rho) * (integrand[1:] + integrand[:-1]) / 2.0
        body = 0.5 * left_to_right_blocks(terms)
        return body + 0.5 * (2.0 * math.pi * math.e - 1.0 / s) / 1e6

    @pytest.mark.parametrize("prior_std", [1.0, 0.3, 3.0, 1e-3, 1e3, 1e-150, 1e150])
    def test_blocks_equal_the_whole_grid(self, prior_std):
        assert immse_entropy_quadrature(prior_std) == self.whole_grid(prior_std)

    @pytest.mark.parametrize("prior_std", [1e-200, 2e-162, 1e155, 1e200])
    def test_refuses_variance_out_of_float_range(self, prior_std):
        # prior_std^2 underflows to 0 (ZeroDivisionError), is subnormal
        # (-inf), or overflows (nan, with RuntimeWarnings)
        with warnings.catch_warnings(), pytest.raises(ValueError) as refusal:
            warnings.simplefilter("error")
            immse_entropy_quadrature(prior_std)
        assert "\n" not in str(refusal.value)

    def test_working_memory(self):
        # one block of 8192 terms at a time; the whole grid traced 3.05 MiB
        assert traced_peak_mib(immse_entropy_quadrature, 1.0) < 1.0
