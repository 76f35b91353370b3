"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from owpnlab.bounds import (
    entropy_chi2_lower,
    entropy_noncentral_chi2_upper,
    lower_coherent_combining,
    lower_partially_coherent,
    upper_outer,
)
from owpnlab.cli import main as cli_main
from owpnlab.gdof import (
    NEAR_AWGN_GAP_NATS,
    NEAR_ONC_GAP_NATS,
    Regime,
    classify_regime,
    empirical_prelog,
    gdof_exact_if_known,
    gdof_inner_combined,
    gdof_outer,
    regime_gap_nats,
)
from owpnlab.mioracle import MI_ALLOWANCE_NATS, amplitude_channel_mi, phase_channel_mi
from owpnlab.model import ChannelParams, GdofPoint, derive_constants
from owpnlab.riccati import immse_entropy_quadrature, iterate_fixed_point, riccati_fixed_point
from owpnlab.sim import estimate_F_moments

GOLDEN = Path(__file__).parent / "golden" / "verify_seed42.csv"


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"acceptance criterion {number}: {detail}"


def test_criterion_1_gdof_anchor_values():
    t0 = time.time()
    ok = True
    for alpha, expected in ((0.5, 0.75), (0.25, (1.0 + 0.25) / 2.0)):
        point = GdofPoint(alpha, 0.0)
        exact = gdof_exact_if_known(point)
        ok &= exact is not None and exact.total == expected
        ok &= gdof_outer(point).total == expected
        ok &= gdof_inner_combined(point).total == expected
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"anchors 0.75 @ (0.5,0) and 0.625 @ (0.25,0), exact equality [{elapsed:.2f}s]")


def test_criterion_2_sandwich_grids():
    t0 = time.time()
    ok = True
    for p in [10.0**k for k in range(0, 13)]:
        for big_l in (1, 2, 4, 16, 256):
            for s2 in [10.0**k for k in range(-6, 3)]:
                params = ChannelParams(p, big_l, s2)
                upper = upper_outer(params).total
                inner = max(
                    lower_partially_coherent(params).total,
                    lower_coherent_combining(params).total,
                )
                ok &= inner <= upper + 1e-9
    for alpha in np.linspace(0.0, 3.0, 301):
        for beta in np.linspace(-2.0, 2.0, 401):
            point = GdofPoint(float(alpha), float(beta))
            ok &= gdof_inner_combined(point).total <= gdof_outer(point).total + 1e-12
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    report(2, ok, f"rate sandwich on 585-point grid, GDoF sandwich on 0.01 grid [{elapsed:.1f}s]")


def test_criterion_3_riccati_consistency():
    t0 = time.time()
    worst = 0.0
    for x in np.logspace(-1, 3, 20):
        for r in np.logspace(-3, 6, 20):
            closed = riccati_fixed_point(float(x), float(r))
            iterated, _ = iterate_fixed_point(float(x), float(r), tol=1e-13)
            worst = max(worst, abs(iterated - closed) / closed)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(3, ok, f"20x20 grid, worst relative gap {worst:.2e} <= 1e-9 [{elapsed:.1f}s]")


def test_criterion_4_monte_carlo_coherence_constants():
    t0 = time.time()
    ok = True
    details = []
    for idx, (big_l, s2) in enumerate([(2, 4.0 * math.log(2.0)), (4, 1.0), (16, 0.1)]):
        params = ChannelParams(1.0, big_l, s2)
        _, kappa, phi = derive_constants(params)
        moments = estimate_F_moments(params, 1_000_000, rng_seed=4000 + idx)
        dev_phi = abs(moments.m2.mean - phi)
        dev_kap = abs(moments.mean_real.mean - kappa)
        ok &= dev_phi <= 4.0 * moments.m2.std_error
        ok &= dev_kap <= 4.0 * moments.mean_real.std_error
        details.append(f"L={big_l}: phi dev {dev_phi:.1e}, kappa dev {dev_kap:.1e}")
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(4, ok, f"kappa/phi vs MC at n=1e6 within 4 SE ({'; '.join(details)}) [{elapsed:.1f}s]")


def test_criterion_5_entropy_inequalities():
    t0 = time.time()
    margin_lo = math.inf
    margin_hi = math.inf
    for k in range(1, 21):
        exact = k + math.log(2.0) + float(gammaln(k)) + (1.0 - k) * float(digamma(k))
        margin_lo = min(margin_lo, exact - entropy_chi2_lower(k))
        margin_hi = min(margin_hi, entropy_noncentral_chi2_upper(k, 0.0) - exact)
    elapsed = time.time() - t0
    ok = margin_lo > 0.0 and margin_hi > 0.0 and elapsed < 1.0
    report(5, ok, f"chi-squared entropy chain k=1..20, margins {margin_lo:.4f}/{margin_hi:.4f} nats [{elapsed:.2f}s]")


def test_criterion_6_mi_sandwich_at_desk_scale():
    t0 = time.time()
    ok = True
    details = []
    for idx, (p, big_l, s2) in enumerate([(20.0, 4, 0.5), (100.0, 1, 0.01)]):
        params = ChannelParams(p, big_l, s2)
        pc = lower_partially_coherent(params).rate_split
        outer = upper_outer(params).total
        amp = amplitude_channel_mi(params, 1_000_000, rng_seed=6000 + idx)
        phase = phase_channel_mi(params, 1_000_000, rng_seed=6100 + idx)
        ok &= pc.amplitude_rate <= amp.value + MI_ALLOWANCE_NATS + 4.0 * amp.std_error
        ok &= pc.phase_rate <= phase.value + MI_ALLOWANCE_NATS + 4.0 * phase.std_error
        ok &= amp.value + phase.value <= outer + 0.1
        details.append(
            f"P={p:g}: amp {pc.amplitude_rate:.3f}<={amp.value:.3f}, "
            f"phase {pc.phase_rate:.3f}<={phase.value:.3f}, "
            f"sum {amp.value + phase.value:.3f}<={outer:.3f}+0.1"
        )
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    report(6, ok, f"MI sandwich at n=1e6 ({'; '.join(details)}) [{elapsed:.1f}s]")


def test_criterion_7_empirical_prelog_slopes():
    t0 = time.time()
    targets = [
        (upper_outer, GdofPoint(0.0, 0.0), 0.5),
        (lower_partially_coherent, GdofPoint(0.5, 0.0), 0.75),
        (lower_coherent_combining, GdofPoint(0.0, -1.5), 1.0),
    ]
    ok = True
    slopes = []
    for fn, point, target in targets:
        slope = empirical_prelog(fn, point, 1e8, 1e12)
        slopes.append(f"{slope:.4f}")
        ok &= abs(slope - target) <= 0.05
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(7, ok, f"slopes {slopes} vs 0.5/0.75/1.0 within 0.05 [{elapsed:.2f}s]")


def test_criterion_8_regime_classifiers():
    t0 = time.time()
    awgn = classify_regime(ChannelParams(2.0, 1, 0.2))
    onc = classify_regime(ChannelParams(2.0, 1, 2.0))
    ok = awgn is Regime.NEAR_AWGN and onc is Regime.NEAR_ONC
    ok &= abs(regime_gap_nats(awgn) - 0.5 * math.log(2.0 * math.pi * math.e)) < 1e-12
    ok &= abs(NEAR_AWGN_GAP_NATS - 1.41894) < 1e-5
    ok &= regime_gap_nats(onc) == NEAR_ONC_GAP_NATS == 0.2
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(8, ok, "near-awgn gap 1.41894 nats; near-onc gap 0.2 nats "
                  f"[{elapsed:.2f}s]")


def _differences(name_a: str, a: bytes, name_b: str, b: bytes) -> str:
    """Name every line where `b` departs from `a` by its (check, point)
    cells and line number, or '' if equal."""
    if a == b:
        return ""
    lines_a = a.decode("utf-8", "replace").splitlines()
    lines_b = b.decode("utf-8", "replace").splitlines()
    moved = []
    for number in range(1, max(len(lines_a), len(lines_b)) + 1):
        text_a = lines_a[number - 1] if number <= len(lines_a) else "<end of file>"
        text_b = lines_b[number - 1] if number <= len(lines_b) else "<end of file>"
        if text_a != text_b:
            key = text_a if number <= len(lines_a) else text_b
            moved.append(f"({','.join(key.split(',')[:2])}) at line {number}")
    if not moved:
        return f"; {name_a} vs {name_b}: lines equal, bytes differ (line endings)"
    return f"; {name_a} vs {name_b} differ on {len(moved)} lines: {'; '.join(moved)}"


def test_criterion_9_reproducibility(tmp_path):
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    rc1 = cli_main(["verify", "--seed", "42", "--out", str(first)])
    rc2 = cli_main(["verify", "--seed", "42", "--out", str(second)])
    ok = rc1 == 0 and rc2 == 0
    ok &= first.read_bytes() == second.read_bytes()
    ok &= GOLDEN.exists() and first.read_bytes() == GOLDEN.read_bytes()
    diagnosis = _differences("run1", first.read_bytes(), "run2", second.read_bytes())
    if not GOLDEN.exists():
        diagnosis += f"; golden file {GOLDEN} is missing"
    else:
        diagnosis += _differences("golden", GOLDEN.read_bytes(), "run", first.read_bytes())
    report(9, ok, "verify --seed 42 twice byte-identical and equal to the golden file"
                  f" [exit codes {rc1}, {rc2}]{diagnosis}")


def test_criterion_10_immse_identity():
    t0 = time.time()
    worst = 0.0
    for s in (0.25, 1.0, 4.0):
        value = immse_entropy_quadrature(math.sqrt(s))
        exact = 0.5 * math.log(2.0 * math.pi * math.e * s)
        worst = max(worst, abs(value - exact))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 2.0
    report(10, ok, f"Gaussian-prior quadrature, worst error {worst:.2e} <= 1e-3 [{elapsed:.2f}s]")
