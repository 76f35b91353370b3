"""Independent arbitrary-precision re-evaluations of every closed form,
used as oracles by the test suite.  Everything here is computed at 50
decimal digits with mpmath, or more where a bound's closed form cancels
(``_digits``), and only converted to float at the boundary."""

import functools

import mpmath as mp

mp.mp.dps = 50

GAMMA = mp.euler
PI = mp.pi
E = mp.e


def _clamp(x):
    return max(x, mp.mpf(0))


def _digits(p, big_l, s2) -> int:
    """Working digits at (P, L, sigma2): the current ones, plus what cancels.
    phi's closed form loses about twice the decimal exponent of sigma2/(2L),
    and twice that of L, and 1 - phi that exponent once more;
    sqrt(x^2 + 4rx) - x loses the exponent of P sigma2 / L^2."""
    digits = mp.mp.dps
    if s2 > 0:
        digits += 3 * max(0, -int(mp.log10(mp.mpf(s2) / (2 * big_l)))) + 2 * int(mp.log10(big_l))
        if p > 0:
            digits += max(0, int(mp.log10(mp.mpf(p) * s2 / mp.mpf(big_l) ** 2)))
    return digits


def _scaled(oracle):
    # run a (P, L, sigma2) oracle at _digits(P, L, sigma2) working digits
    @functools.wraps(oracle)
    def run(p, big_l, s2):
        with mp.workdps(_digits(p, big_l, s2)):
            return oracle(p, big_l, s2)

    return run


def _coherence(big_l: int, s2):
    # (xi, kappa, phi) at the current working digits
    s2 = mp.mpf(s2)
    xi = mp.exp(-s2 / (2 * big_l))
    if s2 == 0 or big_l == 1:
        return xi, mp.mpf(1), mp.mpf(1)
    kappa = (1 - xi**big_l) / (big_l * (1 - xi))
    phi = (big_l - 2 * xi * (big_l * (xi - 1) - xi**big_l + 1) / (1 - xi) ** 2) / big_l**2
    return xi, kappa, phi


def coherence_constants(big_l: int, sigma2) -> tuple[float, float, float]:
    with mp.workdps(_digits(1, big_l, sigma2)):
        return tuple(float(v) for v in _coherence(big_l, sigma2))


def one_minus_coherence(big_l: int, sigma2) -> tuple[float, float]:
    """(1 - kappa, 1 - phi), each rounded to float only once."""
    with mp.workdps(_digits(1, big_l, sigma2)):
        _, kappa, phi = _coherence(big_l, sigma2)
        return float(1 - kappa), float(1 - phi)


@_scaled
def upper_outer(p, big_l, s2) -> tuple[float, float, float]:
    """(amplitude term, phase term, min-total) of the outer bound, nats; at
    sigma2 == 0, the power-only branch ln(P+2) with a phase term of 0."""
    p, s2 = mp.mpf(p), mp.mpf(s2)
    branch_power = mp.log(p + 2)
    if s2 == 0:
        return float(branch_power), 0.0, float(branch_power)
    amp = mp.log(p + 1) / 2
    arg = mp.sqrt(p**2 / mp.mpf(big_l) ** 2 + 4 * p / s2) / 2 - p / (2 * big_l)
    phase = _clamp(mp.log(2 * PI / E) / 2 + mp.log(arg) / 2) if arg > 0 else mp.mpf(0)
    return float(amp), float(phase), float(min(branch_power, amp + phase))


@_scaled
def lower_pc(p, big_l, s2) -> tuple[float, float, float]:
    p, s2 = mp.mpf(p), mp.mpf(s2)
    amp = mp.log((E**2 * (p + 2) ** 2 + 8 * PI * (big_l - 1)) / (8 * PI * E * (big_l + p))) / 2
    if p == 0:
        phase = mp.mpf(0)
    else:
        phase = _clamp(
            mp.log((2 * PI / mp.exp(1 + GAMMA)) * p * big_l / (s2 * p + PI**2 * big_l**2))
        ) / 2
    return float(amp), float(phase), float(_clamp(amp + phase))


@_scaled
def lower_cc(p, big_l, s2) -> tuple[float, float, float]:
    p, s2 = mp.mpf(p), mp.mpf(s2)
    _, kappa, phi = _coherence(big_l, s2)
    amp = _clamp(
        _clamp(mp.log(phi**2 / 3) + mp.log(p / 2 + 1))
        + mp.log(E / PI) / 2
        - mp.log(2 * (1 + p * phi) + p**2 * (1 - phi**2)) / 2
    )
    if p == 0:
        phase = mp.mpf(0)
    else:
        denom = 2 * s2 * p + PI**2 * (1 - kappa) * big_l * p + 6 * PI**2 * big_l * phi ** mp.mpf("-1.5")
        phase = mp.log(2 * PI / mp.exp(1 + GAMMA)) / 2 + mp.log(2 * big_l * p / denom) / 2
    return float(amp), float(phase), float(_clamp(amp + phase))


def bounds_row(p, big_l, s2) -> list[float]:
    """The nine value columns of a `bounds` CSV row, in its column order:
    total, amplitude and phase of upper_outer, lower_pc and lower_cc."""
    row = []
    for oracle in (upper_outer, lower_pc, lower_cc):
        amp, phase, total = oracle(p, big_l, s2)
        row += [total, amp, phase]
    return row


def riccati_fixed_point(x, r) -> float:
    x, r = mp.mpf(x), mp.mpf(r)
    return float(x / 2 + mp.sqrt(x**2 + 4 * r * x) / 2)


def crb_argument(x, r) -> float:
    x, r = mp.mpf(x), mp.mpf(r)
    return float(mp.sqrt(x**2 + 4 * r * x) / 2 - x / 2)


def posterior_crb_entropy_lower(x, r) -> float:
    x, r = mp.mpf(x), mp.mpf(r)
    arg = mp.sqrt(x**2 + 4 * r * x) / 2 - x / 2
    return float(mp.log(2 * PI * E) / 2 - mp.log(arg) / 2)


def phase_rate_upper(p, big_l, s2) -> float:
    p, s2 = mp.mpf(p), mp.mpf(s2)
    arg = mp.sqrt(p**2 / mp.mpf(big_l) ** 2 + 4 * p / s2) / 2 - p / (2 * big_l)
    return float(_clamp(mp.log(2 * PI / E) / 2 + mp.log(arg) / 2))


def chi2_entropy_2k(k: int) -> float:
    """Exact differential entropy of a chi-squared variable with 2k degrees
    of freedom: k + ln(2 Gamma(k)) + (1-k) psi(k), nats."""
    k = mp.mpf(k)
    return float(k + mp.log(2 * mp.gamma(k)) + (1 - k) * mp.digamma(k))


def gaussian_entropy(variance) -> float:
    return float(mp.log(2 * PI * E * mp.mpf(variance)) / 2)


def gaussian_mi(correlation) -> float:
    return float(-mp.log(1 - mp.mpf(correlation) ** 2) / 2)


def _norm_law(p, big_l, t):
    """(CDF, density) at t of ||Y||^2 = Exp(mean P + 2) + Gamma(L - 1, scale 2),
    the block norm of the amplitude MI oracle, with k = L - 1:
    F(t) = P_k(t/2) - e^{-t/(P+2)} ((P+2)/P)^k P_k(t P/(2(P+2))), with P_k the
    regularized lower incomplete gamma function (P_0 = 1).  Differentiating,
    the two P_k derivatives cancel, so f(t) is the second term over P + 2."""
    p, t = mp.mpf(p), mp.mpf(t)
    k = big_l - 1
    if k == 0:
        second = mp.exp(-t / (p + 2))
        return 1 - second, second / (p + 2)
    inner = mp.gammainc(k, 0, t * p / (2 * (p + 2)), regularized=True)
    second = mp.exp(-t / (p + 2)) * ((p + 2) / p) ** k * inner
    return mp.gammainc(k, 0, t / 2, regularized=True) - second, second / (p + 2)


def norm_quantile(p, big_l, q, start) -> float:
    """The q-quantile of the block norm law of :func:`_norm_law`, by Newton's
    method from `start`, which must lie near it.  Newton converges
    quadratically there, so a step below half the working digits leaves the
    root good to all of them."""
    q, t = mp.mpf(q), mp.mpf(start)
    for _ in range(20):
        cdf, density = _norm_law(p, big_l, t)
        step = (cdf - q) / density
        t -= step
        if abs(step) <= t * mp.mpf(10) ** (-(mp.mp.dps // 2)):
            return float(t)
    raise ArithmeticError(f"no quantile convergence at P={p}, L={big_l}, q={q}")
