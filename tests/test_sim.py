import functools
import math
import operator
import sys
import warnings

import numpy as np
import pytest

from _memory import traced_peak_mib
from owpnlab import sim
from owpnlab.model import ChannelParams, McEstimate
from owpnlab.sim import (
    FMoments,
    _chunks,
    _column_sums,
    _wiener_paths,
    estimate_F_moments,
    estimate_log_abs_sq,
    simulate_fading_integral,
    substream,
)

TWO_PI = 2.0 * math.pi
EULER_MASCHERONI = 0.57721566490153286061


class TestChunks:
    def test_sizes_and_substreams(self):
        chunks = list(_chunks(7, 2 * 8192 + 10))
        assert [m for _, m in chunks] == [8192, 8192, 10]
        for index, (rng, _) in enumerate(chunks):
            assert rng.standard_normal() == substream(7, index).standard_normal()

    def test_no_empty_last_chunk(self):
        assert [m for _, m in _chunks(1, 2 * 8192)] == [8192, 8192]
        assert [m for _, m in _chunks(1, 3)] == [3]

    def test_wiener_paths(self):
        # one path per column, built in place from the walker's layout
        increments = substream(3, 0).normal(0.0, 0.3, size=(5, 4))
        z = np.ascontiguousarray(substream(3, 0).standard_normal((5, 4)).T)
        paths = _wiener_paths(z, 0.3)
        assert paths is z
        assert np.array_equal(paths.T, np.cumsum(increments, axis=1))


class TestRowBlocks:
    """The walker's contract: over two whole chunks of 8192 samples and a
    partial third, the `z` blocks of chunk i, side by side, are the
    transposed ``standard_normal((m, width))`` draw of ``substream(seed, i)``,
    at any row-block size; `free` shares no memory with `z`."""

    @pytest.mark.parametrize("small", [False, True], ids=["default_blocks", "small_blocks"])
    @pytest.mark.parametrize("width", [0, 1, 2, 9, 10, 15, 64])
    def test_draws_each_chunk(self, width, small, monkeypatch):
        if small:
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 1000)
        rows = 8192
        n = 2 * rows + 1_234
        blocks = []
        for z, free, out in sim._row_blocks(41, n, width):
            assert z.shape == free.shape == (width, out.shape[1]) and out.shape[0] == 0
            assert z.flags.c_contiguous
            drawn = z.copy()
            free[...] = np.nan
            assert np.array_equal(z, drawn)
            blocks.append(drawn)
        got = np.split(np.concatenate(blocks, axis=1), [rows, 2 * rows], axis=1)
        chunks = list(_chunks(41, n))
        assert len(got) == len(chunks) == 3
        for z, (rng, m) in zip(got, chunks):
            assert np.array_equal(z, rng.standard_normal((m, width)).T)

    @pytest.mark.parametrize("small", [False, True], ids=["default_blocks", "small_blocks"])
    @pytest.mark.parametrize("width, shape", [(4, 0.5), (4, 63.0), (9, 3.0)])
    def test_gammas_come_first_in_each_chunk(self, width, shape, small, monkeypatch):
        # with gamma_shape > 0, z gains one row: the block's slice of its
        # chunk's one standard_gamma(shape, m) draw, made before the normals
        if small:
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 1000)
        n = 2 * 8192 + 1_234
        blocks = []
        for z, free, _ in sim._row_blocks(42, n, width, gamma_shape=shape):
            assert z.shape == free.shape == (width + 1, z.shape[1])
            blocks.append(z.copy())
        got = np.split(np.concatenate(blocks, axis=1), [8192, 2 * 8192], axis=1)
        for z, (rng, m) in zip(got, _chunks(42, n)):
            assert np.array_equal(z[-1], rng.standard_gamma(shape, m))
            assert np.array_equal(z[:-1], rng.standard_normal((m, width)).T)


class TestFMoments:
    def test_half_coherence_point(self):
        params = ChannelParams(1.0, 2, 4.0 * math.log(2.0))
        moments = estimate_F_moments(params, 200_000, rng_seed=21)
        assert abs(moments.m2.mean - 0.75) <= 4.0 * moments.m2.std_error
        assert abs(moments.mean_real.mean - 0.75) <= 4.0 * moments.mean_real.std_error

    def test_zero_noise_exact(self):
        moments = estimate_F_moments(ChannelParams(1.0, 5, 0.0), 5_000, rng_seed=1)
        assert moments.m2.mean == 1.0 and moments.m2.std_error == 0.0
        assert moments.m4.mean == 1.0
        assert moments.mean_real.mean == 1.0

    def test_single_sample_exact(self):
        moments = estimate_F_moments(ChannelParams(1.0, 1, 7.0), 5_000, rng_seed=1)
        assert moments.m2.mean == 1.0 and moments.m4.mean == 1.0

    def test_fourth_moment_bounded_by_second(self):
        # |F| <= 1 so m4 <= m2
        params = ChannelParams(1.0, 8, 2.0)
        moments = estimate_F_moments(params, 50_000, rng_seed=33)
        assert moments.m4.mean <= moments.m2.mean

    def test_reproducible(self):
        params = ChannelParams(1.0, 4, 1.0)
        a = estimate_F_moments(params, 30_000, rng_seed=5)
        b = estimate_F_moments(params, 30_000, rng_seed=5)
        assert a.m2.mean == b.m2.mean
        assert a.m4.mean == b.m4.mean
        assert a.mean_real.mean == b.mean_real.mean

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            estimate_F_moments(ChannelParams(1.0, 2, 1.0), 10, rng_seed=0)

    def test_matches_complex_reference(self):
        # one chunk, so the same draws as substream(seed, 0)
        big_l, s2, n, seed = 4, 1.0, 5_000, 8
        moments = estimate_F_moments(ChannelParams(1.0, big_l, s2), n, rng_seed=seed)
        rows = _reference_wiener_rows(substream(seed, 0), n, big_l, math.sqrt(s2 / big_l))
        f = np.mean(np.exp(1j * rows), axis=1)
        mag2 = np.abs(f) ** 2
        for est, want in ((moments.m2, mag2), (moments.m4, mag2**2), (moments.mean_real, f.real)):
            assert est.mean == pytest.approx(float(np.mean(want)), rel=1e-15, abs=0.0)


class TestFadingIntegral:
    def test_matches_analytic_mean(self):
        n_steps, a = 64, 2.0
        re_est, im_est = simulate_fading_integral(a, n_steps, 100_000, rng_seed=17)
        target = 1.0 - math.exp(-1.0)  # int_0^1 e^{-t} dt at sigma2/L = 2
        bias = a * a / (48.0 * n_steps**2)
        assert abs(re_est.mean - target) <= 4.0 * re_est.std_error + bias
        assert abs(im_est.mean) <= 4.0 * im_est.std_error

    def test_matches_complex_trapezoid_reference(self):
        # one chunk, so the same draws as substream(seed, 0)
        a, n_steps, n, seed = 2.0, 64, 2_000, 5
        re_est, im_est = simulate_fading_integral(a, n_steps, n, rng_seed=seed)
        rows = _reference_wiener_rows(substream(seed, 0), n, n_steps + 1, math.sqrt(1.0 / n_steps))
        g = np.exp(1j * math.sqrt(a) * rows)
        f = np.sum(g[:, 1:] + g[:, :-1], axis=1) / (2.0 * n_steps)  # np.trapezoid's formula
        assert abs(re_est.mean - float(np.mean(f.real))) <= 1e-15
        assert abs(im_est.mean - float(np.mean(f.imag))) <= 1e-15

    @pytest.mark.parametrize("a", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("n_steps", [2, 8, 32, 64, 1000])
    def test_trapezoid_bias_bound(self, a, n_steps):
        # the estimator's mean is the trapezoid rule on exp(-a t / 2), whose
        # error is at most max|f''| / (12 n^2) = a^2 / (48 n^2)
        f = np.exp(-a * np.linspace(0.0, 1.0, n_steps + 1) / 2.0)
        rule = (f.sum() - 0.5 * (f[0] + f[-1])) / n_steps
        closed = (2.0 / a) * -math.expm1(-a / 2.0)
        assert abs(rule - closed) <= a * a / (48.0 * n_steps**2)

    def test_zero_ratio_is_unity(self):
        re_est, im_est = simulate_fading_integral(0.0, 100, 2_000, rng_seed=3)
        assert re_est.mean == 1.0
        assert im_est.mean == 0.0

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            simulate_fading_integral(1.0, 1, 1_000, rng_seed=0)


# The two path estimators written without row blocks: each chunk of 8192
# rows drawn at once through rng.normal, each row's points summed left to
# right (np.cumsum along the row, sequential by definition), each chunk's
# per-row values reduced by one np.sum and the chunk sums added left to
# right.  The row-blocked estimators must reproduce them exactly.


class _ReferenceAccumulator:
    def __init__(self):
        self.s1 = self.s2 = 0.0
        self.n = 0

    def add(self, values):  # one whole chunk
        self.s1 += float(np.sum(values))
        self.s2 += float(np.sum(values * values))
        self.n += values.size

    def estimate(self, seed):
        mean = self.s1 / self.n
        var = max(self.s2 / self.n - mean * mean, 0.0)
        return McEstimate(mean, math.sqrt(var / self.n), self.n, seed)


def _reference_wiener_rows(rng, m, n, step_std):
    rows = np.empty((m, n))
    rows[:, 0] = 0.0
    np.cumsum(rng.normal(0.0, step_std, size=(m, n - 1)), axis=1, out=rows[:, 1:])
    return rows


def _row_sums(values):
    return np.cumsum(values, axis=1)[:, -1]


def _reference_f_moments(params, n_samples, seed):
    big_l = params.oversampling
    scale = math.sqrt(params.freq_noise_var / big_l)
    acc_m2, acc_m4, acc_re = _ReferenceAccumulator(), _ReferenceAccumulator(), _ReferenceAccumulator()
    for rng, m in _chunks(seed, n_samples):
        theta = _reference_wiener_rows(rng, m, big_l, scale)
        re = _row_sums(np.cos(theta)) / big_l
        im = _row_sums(np.sin(theta)) / big_l
        mag2 = re * re + im * im
        acc_m2.add(mag2)
        acc_m4.add(mag2 * mag2)
        acc_re.add(re)
    return FMoments(acc_m2.estimate(seed), acc_m4.estimate(seed), acc_re.estimate(seed))


def _reference_fading_integral(sigma2_over_L, n_steps, n_samples, seed):
    amp = math.sqrt(sigma2_over_L)
    acc_re, acc_im = _ReferenceAccumulator(), _ReferenceAccumulator()
    for rng, m in _chunks(seed, n_samples):
        theta = _reference_wiener_rows(rng, m, n_steps + 1, math.sqrt(1.0 / n_steps))
        theta *= amp
        for acc, values in ((acc_re, np.cos(theta)), (acc_im, np.sin(theta))):
            acc.add((_row_sums(values) - 0.5 * (values[:, 0] + values[:, -1])) / n_steps)
    return acc_re.estimate(seed), acc_im.estimate(seed)


def _bits(estimates):
    # repr keeps every bit of a float, the sign of a zero included
    return [repr(est) for est in estimates]


class TestRowBlocksKeepBits:
    """Every McEstimate field equals the unblocked estimator's, over budgets
    of whole 8192-sample chunks and a partial last one."""

    @pytest.mark.parametrize("big_l, s2, n_samples", [
        (1, 0.7, 2_109_497),  # 257 whole chunks and a partial one
        (2, 4.0 * math.log(2.0), 1_060_921),  # 129 and a partial one
        (2, 0.0, 1_060_921),
        (16, 0.1, 143_417),  # 17 and a partial one
        (65, 3.0, 33_496),  # 4 and a partial one
        # where numpy's pairwise row sum changes its order (under 8 points,
        # exactly 8, one past 8, one past 128), which the left-to-right path
        # sums must not follow
        (4, 1.0, 274_489),  # 33 and a partial one
        (8, 2.0, 143_417),
        (9, 0.3, 128_853),  # 15 and a partial one
        (129, 5.0, 9_362),  # 1 and a partial one
    ])
    def test_f_moments(self, big_l, s2, n_samples):
        params = ChannelParams(1.0, big_l, s2)
        got = estimate_F_moments(params, n_samples, rng_seed=31)
        assert _bits(got) == _bits(_reference_f_moments(params, n_samples, 31))

    @pytest.mark.parametrize("a, n_samples", [
        (2.0, 33_496),  # 4 whole chunks and a partial one
        (0.0, 32_263),  # 3 and a partial one
        (8.0, 3_000),  # one partial chunk
    ])
    def test_fading_integral(self, a, n_samples):
        got = simulate_fading_integral(a, 64, n_samples, rng_seed=32)
        assert _bits(got) == _bits(_reference_fading_integral(a, 64, n_samples, 32))

    @pytest.mark.parametrize("n_steps", [7, 8, 128])
    def test_fading_integral_at_order_seams(self, n_steps):
        # 8, 9 and 129 path points, where numpy's pairwise row sum changes
        # its order; two whole chunks and a partial third
        n_samples = 2 * 8192 + 1_234
        got = simulate_fading_integral(1.5, n_steps, n_samples, rng_seed=33)
        assert _bits(got) == _bits(_reference_fading_integral(1.5, n_steps, n_samples, 33))

    @pytest.mark.parametrize("estimate", [
        lambda: estimate_F_moments(ChannelParams(1.0, 17, 2.0), 3_000, rng_seed=34),
        lambda: simulate_fading_integral(1.5, 16, 3_000, rng_seed=35),
    ], ids=["f_moments", "fading_integral"])
    def test_one_sample_blocks(self, estimate, monkeypatch):
        # 17 path points, 16 increments: 16-element row blocks hold one
        # sample each, which np.add.reduce(axis=0) would sum pairwise
        want = estimate()
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 16)
        assert sim._block_rows(16) == 1
        assert _bits(estimate()) == _bits(want)


class TestWorkingMemory:
    """Traced peak memory stays below bounds that the whole-chunk estimators
    (chunks of 2^20 normals, ~27-32 MiB traced) exceeded."""

    def test_fading_integral(self):
        assert traced_peak_mib(simulate_fading_integral, 2.0, 64, 100_000, 1) < 4.0

    def test_f_moments(self):
        params = ChannelParams(1.0, 2, 4.0 * math.log(2.0))
        assert traced_peak_mib(estimate_F_moments, params, 500_000, 1) < 4.0

    def test_f_moments_at_16(self):
        # 1.9 MiB with whole-block temporaries per block, 1.4 MiB in two
        # buffers reused across blocks
        params = ChannelParams(1.0, 16, 0.1)
        assert traced_peak_mib(estimate_F_moments, params, 500_000, 1) < 1.6

    def test_log_abs_sq(self):
        # drawing whole chunks traced 15.3 MiB
        assert traced_peak_mib(estimate_log_abs_sq, 1.0, 500_000, 1) < 4.0

    @pytest.mark.parametrize("big_l, s2", [(2, 4.0 * math.log(2.0)), (4, 1.0), (16, 0.1)])
    def test_f_moments_on_narrow_rows(self, big_l, s2):
        # 0.5-0.7 MiB in blocks of 2^14 normals; blocks of 2^16 normals
        # traced 2.0, 1.8 and 1.4 MiB
        params = ChannelParams(1.0, big_l, s2)
        assert traced_peak_mib(estimate_F_moments, params, 500_000, 1) < 1.0

    def test_log_abs_sq_on_narrow_rows(self):
        # 0.3 MiB in blocks of 8192 rows; blocks of 2^16 normals traced 1.25 MiB
        assert traced_peak_mib(estimate_log_abs_sq, 1.0, 500_000, 1) < 1.0


class TestBlockRows:
    """A row block holds 2^14 normals, but rows of more than 16 values get at
    least 1024 rows, and no block holds more than 2^16 normals or the 8192
    rows of its chunk."""

    @pytest.mark.parametrize("width, rows", [
        (1, 8192), (2, 8192), (4, 4096), (9, 1820), (10, 1638), (16, 1024),
        (17, 1024), (65, 1008), (130, 504), (1025, 63),
    ])
    def test_rows(self, width, rows):
        z, _, _ = next(sim._row_blocks(0, 2 * 8192, width))
        assert z.shape == (width, rows)


class TestColumnSums:
    """`_column_sums` adds each column of a (points, samples) array left to
    right, from the first value, at any number of samples, one included:
    np.add.reduce(axis=0) sums a single column pairwise."""

    @pytest.mark.parametrize("kind", ["random", "special"])
    def test_matches_plain_python(self, kind):
        rng = np.random.default_rng(7 if kind == "random" else 8)
        pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.1, 5e-324, 1e308, -1e308])
        for n in [*range(1, 301), 511, 512, 513, 1024, 1025]:
            if kind == "random":
                # magnitudes over 16 decades, so that a change of order shows
                rows = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-8, 8, (4, n))
            else:
                rows = pool[rng.integers(0, pool.size, (4, n))]
                rows[0] = -0.0
                rows[1] = rng.choice([0.0, -0.0], n)
            want = _bits(functools.reduce(operator.add, row) for row in rows.tolist())
            for m in (4, 1):
                points = np.ascontiguousarray(rows[:m].T)
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _column_sums(points[1:], points[0], np.empty(m))
                # repr leaves out which nan an add of two nans keeps
                assert _bits(got.tolist()) == want[:m], (n, m)


class TestLogAbsSq:
    def test_unit_power(self):
        est = estimate_log_abs_sq(1.0, 400_000, rng_seed=9)
        assert abs(est.mean - (-EULER_MASCHERONI)) <= 4.0 * est.std_error

    def test_constructed_cancellation(self):
        est = estimate_log_abs_sq(math.exp(EULER_MASCHERONI), 400_000, rng_seed=10)
        assert abs(est.mean) <= 4.0 * est.std_error

    def test_power_four(self):
        est = estimate_log_abs_sq(4.0, 400_000, rng_seed=11)
        assert abs(est.mean - (math.log(4.0) - EULER_MASCHERONI)) <= 4.0 * est.std_error

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            estimate_log_abs_sq(0.0, 10_000, rng_seed=0)

    @pytest.mark.parametrize("power", [5e-324, 1.7e308])
    def test_refuses_samples_out_of_float_range(self, power):
        # power / 2 underflows to 0, or a sample's |X|^2 can overflow
        with warnings.catch_warnings(), pytest.raises(ValueError) as refusal:
            warnings.simplefilter("error")
            estimate_log_abs_sq(power, 10_000, rng_seed=0)
        assert "\n" not in str(refusal.value)

    @pytest.mark.parametrize("power", [1e-300, 1e300, 2.0 * sys.float_info.min,
                                       sys.float_info.max / 256.0])
    def test_power_at_the_float_range_ends(self, power):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_log_abs_sq(power, 20_000, rng_seed=12)
        expected = math.log(power) - EULER_MASCHERONI
        assert abs(est.mean - expected) <= 4.0 * est.std_error

    def test_row_block_size_leaves_the_key(self, monkeypatch):
        # 1000-element row blocks (500 rows, which do not divide a chunk)
        # over two whole chunks and a partial third
        n = 2 * 8192 + 1_234
        want = estimate_log_abs_sq(4.0, n, rng_seed=19)
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 1000)
        assert _bits([estimate_log_abs_sq(4.0, n, rng_seed=19)]) == _bits([want])


def left_to_right_blocks(values):
    """The fixed reduction order: np.sum of each consecutive 8192-value
    chunk, the chunk sums added left to right from 0.0."""
    total = 0.0
    for start in range(0, values.size, 8192):
        total += float(np.sum(values[start : start + 8192]))
    return total


class TestBlockedSum:
    """The reduction order is part of the reproducibility key: 8192-sample
    chunks, each summed by np.sum, chunk sums added left to right.  numpy
    >= 2.3 sums a whole long array in one pairwise pass, which differs from
    this order in the last ulp on the input below."""

    N = 100_000

    @classmethod
    def log_abs_sq_samples(cls):
        # the chunks behind estimate_log_abs_sq(4.0, 100_000, 343), which is
        # the power=4 row of `verify --seed 42`: one row (re, im) per sample
        z = np.concatenate([rng.standard_normal((m, 2)) for rng, m in _chunks(343, cls.N)])
        z *= math.sqrt(4.0 / 2.0)
        re, im = z[:, 0], z[:, 1]
        return np.log(re * re + im * im)

    def test_estimator_uses_block_order(self):
        values = self.log_abs_sq_samples()
        est = estimate_log_abs_sq(4.0, self.N, rng_seed=343)
        want = left_to_right_blocks(values)
        assert est.mean == want / self.N, (
            f"mean {est.mean!r}, not the left-to-right sum of 8192-element block "
            f"sums {want!r} over {self.N} (a whole-array np.sum gives "
            f"{float(np.sum(values))!r}): the in-chunk reduction order is no longer "
            "fixed, so MC results depend on the numpy version"
        )


class TestSumBlocks:
    """The engine's one contract with its accumulators: `_Accumulator.add` is
    called once per chunk, with the chunk's values, 8192 of them or, for the
    last chunk, the rest.  Over two whole chunks and a partial third, also
    with 1000-element row blocks, whose row counts do not divide a chunk."""

    @pytest.mark.parametrize("small", [False, True], ids=["default_blocks", "small_blocks"])
    @pytest.mark.parametrize("width, n_accs, estimate", [
        (15, 3, lambda n: estimate_F_moments(ChannelParams(1.0, 16, 0.1), n, rng_seed=36)),
        (64, 2, lambda n: simulate_fading_integral(2.0, 64, n, rng_seed=37)),
        (2, 1, lambda n: estimate_log_abs_sq(4.0, n, rng_seed=38)),
    ], ids=["f_moments", "fading_integral", "log_abs_sq"])
    def test_one_sum_block_per_add(self, width, n_accs, estimate, small, monkeypatch):
        if small:
            monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", 1000)
            assert 8192 % sim._block_rows(width)
        calls = {}
        add = sim._Accumulator.add

        def spy_add(acc, values):
            calls.setdefault(id(acc), []).append(values.size)
            add(acc, values)

        monkeypatch.setattr(sim._Accumulator, "add", spy_add)
        estimate(2 * 8192 + 1_234)
        assert list(calls.values()) == [[8192, 8192, 1_234]] * n_accs


class TestHadamardIdentity:
    """Under any fixed input amplitude the output-block norm has the same law
    as one amplified sample plus L-1 noise-only samples; compare the first two
    empirical moments.  Its phase-free law is what `amplitude_channel_mi`
    simulates; `tests/test_mioracle.py::TestLawAgainstFullChannel` checks the
    oracle itself against this full channel."""

    @pytest.mark.parametrize("big_l", [1, 2, 4])
    def test_first_two_moments(self, big_l):
        n = 100_000
        p = 6.0
        params = ChannelParams(p, big_l, 0.8)
        amp = math.sqrt(p / big_l)

        # the whole channel: a uniform start phase, a Wiener path, a rotation
        rng = substream(123 + big_l, 0)
        theta0 = rng.uniform(0.0, TWO_PI, n)
        path = _reference_wiener_rows(rng, n, big_l + 1, math.sqrt(0.8 / big_l))
        theta = theta0[:, None] + path[:, 1:]
        wr = rng.standard_normal((n, big_l))
        wi = rng.standard_normal((n, big_l))
        y = amp * np.exp(1j * theta) + (wr + 1j * wi)
        norm_sq = np.sum(np.abs(y) ** 2, axis=1)

        rng2 = substream(321 + big_l, 0)
        w0 = rng2.standard_normal(n) + 1j * rng2.standard_normal(n)
        rest = rng2.standard_normal((n, big_l - 1)) + 1j * rng2.standard_normal((n, big_l - 1))
        combined = np.abs(math.sqrt(big_l) * amp + w0) ** 2 + np.sum(np.abs(rest) ** 2, axis=1)

        for moment in (1, 2):
            a = norm_sq**moment
            b = combined**moment
            se = math.hypot(float(np.std(a)), float(np.std(b))) / math.sqrt(n)
            assert abs(float(np.mean(a)) - float(np.mean(b))) <= 4.0 * se
