import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpnlab.bounds import (
    lower_coherent_combining,
    lower_partially_coherent,
    upper_outer,
)
from owpnlab import bounds as bounds_mod
from owpnlab import gdof
from owpnlab.gdof import (
    NEAR_AWGN_GAP_NATS,
    NEAR_ONC_GAP_NATS,
    Regime,
    channel_at_power,
    classify_regime,
    empirical_prelog,
    gdof_exact_if_known,
    gdof_inner_cc,
    gdof_inner_combined,
    gdof_inner_pc,
    gdof_outer,
    regime_gap_nats,
)
from owpnlab.model import ChannelParams, GdofPoint

ALL_FAMILIES = (gdof_outer, gdof_inner_pc, gdof_inner_cc, gdof_inner_combined)


class TestOuter:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            (0.5, 0.0, 0.75),
            (2.0, -1.0, 1.0),
            (0.3, 0.5, 0.5),
            (0.0, -3.0, 1.0),
            (1.7, 0.4, 0.65),  # (1 - beta)/4 branch above alpha = 1
        ],
    )
    def test_values(self, alpha, beta, expected):
        value = gdof_outer(GdofPoint(alpha, beta))
        assert value.total == expected
        assert value.amplitude == 0.5
        assert value.total == value.amplitude + value.phase


class TestInnerPc:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            (0.25, 0.0, 0.625),
            (1.5, -3.0, 0.25),
            (1.5, 7.0, 0.25),
            (3.0, 0.0, 0.0),
            (0.4, 1.0, 0.5),
            (0.4, -0.5, 0.8),  # beta <= 2 alpha - 1 branch
        ],
    )
    def test_values(self, alpha, beta, expected):
        value = gdof_inner_pc(GdofPoint(alpha, beta))
        assert value.total == pytest.approx(expected, abs=1e-15)
        assert value.total == pytest.approx(value.amplitude + value.phase, abs=1e-15)


class TestInnerCc:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [(0.3, -2.0, 1.0), (5.0, -2.0, 1.0), (1.0, -0.5, 0.5), (2.0, 0.5, 0.0)],
    )
    def test_values(self, alpha, beta, expected):
        value = gdof_inner_cc(GdofPoint(alpha, beta))
        assert value.total == expected
        assert value.amplitude == value.phase == expected / 2.0


class TestInnerCombined:
    @pytest.mark.parametrize(
        "alpha,beta,expected",
        [
            (1.5, 0.0, 0.25),
            (3.0, -0.8, 0.8),
            # at (0.5, -0.2) the (alpha-beta)/2 branch does not apply
            # (beta < 2 alpha - 1); both lemma functions give 1 - alpha/2
            (0.5, -0.2, 0.75),
            (2.5, 0.3, 0.0),
            (0.1, -5.0, 1.0),
        ],
    )
    def test_values(self, alpha, beta, expected):
        value = gdof_inner_combined(GdofPoint(alpha, beta))
        assert value.total == pytest.approx(expected, abs=1e-15)

    def test_equals_max_of_inner_families(self):
        # the explicit piecewise form must realize max(pc, cc) everywhere
        for alpha in np.arange(0.0, 3.001, 0.05):
            for beta in np.arange(-2.0, 2.001, 0.05):
                point = GdofPoint(round(float(alpha), 4), round(float(beta), 4))
                combined = gdof_inner_combined(point).total
                best = max(gdof_inner_pc(point).total, gdof_inner_cc(point).total)
                assert combined == pytest.approx(best, abs=1e-12), point


class TestExact:
    @pytest.mark.parametrize(
        "alpha,beta,expected,regime",
        [
            (0.4, 0.2, 0.6, "pc"),
            (5.0, 2.0, 0.0, "onc"),
            (1.5, 1.2, 0.25, "onc"),
            (0.3, 0.9, 0.5, "nc"),
            (0.7, -1.5, 1.0, "awgn"),
            (0.5, 0.0, 0.75, "pc"),
            (0.25, 0.0, 0.625, "pc"),
        ],
    )
    def test_known_points(self, alpha, beta, expected, regime):
        value = gdof_exact_if_known(GdofPoint(alpha, beta))
        assert value is not None
        assert value.total == pytest.approx(expected, abs=1e-15)
        assert value.regime == regime

    @pytest.mark.parametrize("alpha,beta", [(0.8, 0.1), (1.5, 0.0), (2.5, -0.5), (0.6, 0.3)])
    def test_open_region(self, alpha, beta):
        assert gdof_exact_if_known(GdofPoint(alpha, beta)) is None

    def test_exact_matches_inner_combined_everywhere(self):
        for alpha in np.arange(0.0, 3.001, 0.03):
            for beta in np.arange(-2.0, 2.001, 0.03):
                point = GdofPoint(round(float(alpha), 4), round(float(beta), 4))
                exact = gdof_exact_if_known(point)
                if exact is None:
                    continue
                assert exact.total == pytest.approx(
                    gdof_inner_combined(point).total, abs=1e-12
                ), point

    def test_exact_matches_outer_where_bounds_pinch(self):
        # "onc" exactness comes from an external converse; the outer bound
        # here is strictly looser there, so equality holds on nc/pc/awgn only
        for alpha in np.arange(0.0, 3.001, 0.03):
            for beta in np.arange(-2.0, 2.001, 0.03):
                point = GdofPoint(round(float(alpha), 4), round(float(beta), 4))
                exact = gdof_exact_if_known(point)
                if exact is None or exact.regime == "onc":
                    continue
                assert exact.total == pytest.approx(gdof_outer(point).total, abs=1e-12), point


class TestRegionProperties:
    def test_sandwich_dense_grid(self):
        for alpha in np.arange(0.0, 3.001, 0.02):
            for beta in np.arange(-2.0, 2.001, 0.02):
                point = GdofPoint(round(float(alpha), 4), round(float(beta), 4))
                assert (
                    gdof_inner_combined(point).total
                    <= gdof_outer(point).total + 1e-12
                ), point

    @pytest.mark.parametrize(
        "boundary",
        [
            lambda a: (a, a),            # beta = alpha
            lambda a: (a, 2.0 * a - 1.0),  # beta = 2 alpha - 1
            lambda a: (a, a / 2.0 - 1.0),  # beta = alpha/2 - 1
            lambda a: (a, -1.0),
            lambda a: (a, 0.0),
            lambda a: (a, 1.0),
        ],
    )
    def test_continuity_across_boundaries(self, boundary):
        eps = 1e-9
        for a in np.linspace(0.0, 3.0, 61):
            alpha, beta = boundary(float(a))
            if beta != max(beta, -10.0):
                continue
            at = GdofPoint(alpha, beta)
            for fn in ALL_FAMILIES:
                here = fn(at).total
                above = fn(GdofPoint(alpha, beta + eps)).total
                below = fn(GdofPoint(alpha, beta - eps)).total
                assert abs(above - here) <= 1e-8
                assert abs(below - here) <= 1e-8

    @given(
        alpha=st.floats(min_value=0.0, max_value=10.0),
        beta=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_range_and_split(self, alpha, beta):
        point = GdofPoint(alpha, beta)
        for fn in ALL_FAMILIES:
            value = fn(point)
            assert 0.0 <= value.total <= 1.0
            assert value.total == pytest.approx(value.amplitude + value.phase, abs=1e-12)


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64)


def _grid_matches_one_point_functions(alphas, betas):
    """gdof._regions over the (alpha, beta) grid equals the public one-point
    functions at every point, bit for bit, in total, amplitude and phase."""
    a, b = (g.ravel() for g in np.meshgrid(alphas, betas, indexing="ij"))
    *families, regimes = gdof._regions(a, b)
    points = [GdofPoint(float(x), float(y)) for x, y in zip(a, b)]
    for fn, family in zip(ALL_FAMILIES, families):
        scalars = [fn(point) for point in points]
        for k, field in enumerate(("total", "amplitude", "phase")):
            expected = _bits([getattr(v, field) for v in scalars])
            got = _bits(np.broadcast_to(family[k], a.shape))
            assert np.array_equal(got, expected), (fn.__name__, field)
    exact = [gdof_exact_if_known(point) for point in points]
    assert regimes == ["" if v is None else v.regime for v in exact]
    known = np.array([v is not None for v in exact], dtype=bool)
    for k, field in enumerate(("total", "amplitude", "phase")):
        expected = _bits([getattr(v, field) for v in exact if v is not None])
        assert np.array_equal(_bits(families[-1][k][known]), expected), ("exact", field)
        assert np.isnan(families[-1][k][~known]).all()


class TestArrayKernels:
    """The grid evaluation behind `owpnlab gdof` against the one-point API."""

    # the region boundaries of the lattice alpha = k/4, beta = k/8 - 2, plus
    # signed zeros, subnormals, the floats next to the break points and
    # interior points whose branch values round differently
    ALPHAS = sorted(
        [k / 4 for k in range(13)]
        + [-0.0, 5e-324, 1e-300, 0.5 - 2**-54, 1.0 - 2**-53, 1.0 + 2**-52, 2.0 - 2**-52, 1e300]
        + [9.319980798155402e-12, 0.1, 0.3, 0.7, 0.9, 1.3, 2.6]
    )
    BETAS = sorted(
        [k / 8 - 2.0 for k in range(33)]
        + [-0.0, 5e-324, -5e-324, -1.0 - 2**-52, -1.0 + 2**-53, 1.0 - 2**-53, 0.3, -0.7,
           1e300, -1e300]
    )

    def test_matches_one_point_functions_on_dense_grid(self):
        _grid_matches_one_point_functions(self.ALPHAS, self.BETAS)

    def test_matches_next_to_every_boundary(self):
        # beta on and next to alpha, 2 alpha - 1 and alpha/2 - 1
        rng = np.random.default_rng(7)
        alphas = rng.uniform(0.0, 3.0, 40)
        for alpha in alphas:
            edges = [alpha, 2.0 * alpha - 1.0, alpha / 2.0 - 1.0]
            betas = sorted(np.nextafter(e, d) for e in edges for d in (-np.inf, 0.0, np.inf))
            _grid_matches_one_point_functions([float(alpha)], betas)

    @given(
        alphas=st.lists(
            st.one_of(st.floats(min_value=0.0, max_value=4.0), st.sampled_from([-0.0, 5e-324])),
            min_size=1, max_size=6,
        ),
        betas=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_one_point_functions_on_drawn_grids(self, alphas, betas):
        _grid_matches_one_point_functions(alphas, betas)

    @staticmethod
    def _inconsistent(a, b):
        # two branches that meet at beta = 0.25 and disagree above it
        return ((b >= 0.0, 0.0), (b >= 0.25, b - 0.25))

    @staticmethod
    def _uncovered(a, b):
        return ((b <= 1.0, 0.0),)

    def test_inconsistent_table_raises_naming_the_point(self):
        message = r"probe branches disagree at \(alpha=0.5, beta=0.5\): \[0.0, 0.25\]"
        with pytest.raises(RuntimeError, match=message):
            gdof._pick(self._inconsistent(0.5, 0.5), 0.5, 0.5, "probe")
        a = np.array([0.0, 0.5, 1.0, 1.5])
        b = np.array([0.1, 0.5, 0.2, 0.75])
        with pytest.raises(RuntimeError, match=message):
            gdof._pick_array(self._inconsistent(a, b), a, b, "probe")
        assert gdof._pick(self._inconsistent(0.5, 0.25), 0.5, 0.25, "probe") == 0.0

    def test_uncovered_point_raises_naming_the_point(self):
        message = r"no probe branch covers \(alpha=3.0, beta=2.5\)"
        with pytest.raises(RuntimeError, match=message):
            gdof._pick(self._uncovered(3.0, 2.5), 3.0, 2.5, "probe")
        a = np.array([0.0, 3.0, 1.0])
        b = np.array([1.0, 2.5, 4.0])
        with pytest.raises(RuntimeError, match=message):
            gdof._pick_array(self._uncovered(a, b), a, b, "probe")


class TestBlankExact:
    """`owpnlab gdof` prints d_exact as a float column whose nan cells are
    blank, so every family total must be a number and d_exact must be nan
    exactly where no regime applies."""

    EXTREMES = [0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 3.0, 1e10, 1e100, 1e300, 1.7976931348623157e308]

    @staticmethod
    def check(alphas, betas):
        a, b = (g.ravel() for g in np.meshgrid(alphas, betas, indexing="ij"))
        *families, regimes = gdof._regions(a, b)
        for name, (total, _, _) in zip(("outer", "pc", "cc", "combined"), families):
            assert not np.isnan(total).any(), name
        assert np.array_equal(np.isnan(families[-1][0]), np.array(regimes) == "")

    def test_extreme_lattice(self):
        self.check(self.EXTREMES, sorted({-v for v in self.EXTREMES} | set(self.EXTREMES)))

    @given(
        alphas=st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=8),
        betas=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_drawn_points(self, alphas, betas):
        self.check(alphas, betas)


class TestRegimeClassifier:
    def test_examples(self):
        assert classify_regime(ChannelParams(2.0, 1, 0.2)) is Regime.NEAR_AWGN
        assert classify_regime(ChannelParams(2.0, 1, 2.0)) is Regime.NEAR_ONC
        assert classify_regime(ChannelParams(2.0, 1, 1.0)) is Regime.GENERAL

    def test_onc_threshold_arithmetic(self):
        # threshold at L=1 is (2 pi / e) ln 2 = 1.602178...
        threshold = (2.0 * math.pi / math.e) * math.log(2.0)
        assert classify_regime(ChannelParams(2.0, 1, threshold)) is Regime.NEAR_ONC
        assert classify_regime(ChannelParams(2.0, 1, threshold * 0.999)) is Regime.GENERAL

    def test_gap_constants(self):
        assert NEAR_AWGN_GAP_NATS == pytest.approx(1.4189385332046727, abs=1e-12)
        assert NEAR_ONC_GAP_NATS == 0.2
        assert regime_gap_nats(Regime.NEAR_AWGN) == NEAR_AWGN_GAP_NATS
        assert regime_gap_nats(Regime.NEAR_ONC) == NEAR_ONC_GAP_NATS
        assert math.isnan(regime_gap_nats(Regime.GENERAL))

    def test_mutual_exclusivity_grid(self):
        # never raises: the two conditions cannot hold together
        for p in (1.01, 1.5, 1.6, 2.0, 10.0, 1e4):
            for big_l in (1, 2, 16, 256):
                for s2 in np.logspace(-8, 4, 25):
                    classify_regime(ChannelParams(p, big_l, float(s2)))


class TestTablesAgainstKernelSlopes:
    """The total of each region table against the slope of the bound kernel it
    summarizes, (B(P2) - B(P1)) / ln(P2 / P1) along L = floor(P^alpha),
    sigma2 = P^beta, on alpha = k/16 (k = 0..6) and beta = -2..2 in steps of
    1/8.  The slopes approach the tables as P grows."""

    ALPHAS = np.repeat([k / 16 for k in range(7)], 33)
    BETAS = np.tile([k / 8 - 2.0 for k in range(33)], 7)
    KERNELS = {
        "outer": bounds_mod._upper_outer,
        "pc": bounds_mod._lower_partially_coherent,
        "cc": bounds_mod._lower_coherent_combining,
    }

    def max_errors(self, p1, p2):
        outer, pc, cc, *_ = gdof._regions(self.ALPHAS, self.BETAS)
        # The cc table is the alpha -> 0+ limit; at alpha = 0 (L = 1) the cc
        # kernel's slope is up to 0.5 off it, so alpha = 0 is left out for cc.
        points = {"outer": slice(None), "pc": slice(None), "cc": self.ALPHAS > 0.0}
        errors = {}
        for (name, kernel), (table, _, _) in zip(self.KERNELS.items(), (outer, pc, cc)):
            totals = []
            for p in (p1, p2):
                big_l = np.floor(np.power(p, self.ALPHAS))
                totals.append(kernel(np.full_like(big_l, p), big_l, np.power(p, self.BETAS))[0])
            slope = (totals[1] - totals[0]) / math.log(p2 / p1)
            errors[name] = float(np.max(np.abs(slope - table)[points[name]]))
        return errors

    def test_slopes_approach_the_tables(self):
        far = self.max_errors(1e20, 1e40)
        near = self.max_errors(1e8, 1e12)
        for name in self.KERNELS:
            assert far[name] < 0.005, (name, far[name])
            assert near[name] > far[name], (name, near[name], far[name])


class TestEmpiricalPrelog:
    def test_outer_slope(self):
        slope = empirical_prelog(upper_outer, GdofPoint(0.0, 0.0), 1e8, 1e12)
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_pc_slope(self):
        slope = empirical_prelog(lower_partially_coherent, GdofPoint(0.5, 0.0), 1e8, 1e12)
        assert slope == pytest.approx(0.75, abs=0.05)

    def test_cc_slope(self):
        slope = empirical_prelog(lower_coherent_combining, GdofPoint(0.0, -1.5), 1e8, 1e12)
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_channel_at_power(self):
        params = channel_at_power(GdofPoint(0.5, 0.0), 1e8)
        assert params.oversampling == 10_000
        assert params.freq_noise_var == 1.0

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            channel_at_power(GdofPoint(3.0, 0.0), 1e12)
        with pytest.raises(ValueError):
            empirical_prelog(upper_outer, GdofPoint(3.0, 0.0), 1e8, 1e12)

    def test_sigma2_overflow_is_value_error(self):
        # P^beta overflows a float: a ValueError, like the other refusals
        for call in (lambda: channel_at_power(GdofPoint(1.0, 400.0), 10.0),
                     lambda: empirical_prelog(upper_outer, GdofPoint(0.0, 200.0), 1e3, 1e4)):
            with warnings.catch_warnings(), pytest.raises(ValueError) as refusal:
                warnings.simplefilter("error")
                call()
            assert "\n" not in str(refusal.value)

    def test_rejects_small_power(self):
        with pytest.raises(ValueError):
            empirical_prelog(upper_outer, GdofPoint(0.0, 0.0), 10.0, 1e6)

    def test_rejects_nonfinite_bound(self):
        with pytest.raises(ValueError):
            empirical_prelog(lambda p: math.inf, GdofPoint(0.0, 0.0), 1e8, 1e12)
