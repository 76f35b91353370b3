"""Seeded workload inputs and the output checks behind `failed`.

A workload is one invocation of the program: an `owpnlab` CLI argv, or the
`mc_oracles.py` program in this directory.  Its inputs depend only on the
workload name and the seed, and every seed gives inputs of the same size, so
a held-out seed measures the same amount of work.

Why each workload exists, and the layer it is the only heavy user of:

  bounds-grid   closed-form bounds plus CSV formatting over a 28,000-row grid
                with only 7 distinct L, so the cold phi-series path is ~2% of it.
  bounds-new-L  ~250 distinct L with sigma2 in (0, 1]: mostly the cold
                exact-rational phi series that bounds-grid bypasses.
  gdof-grid     the five GDoF region functions; no numpy and no `model`.
  verify        the verification suite, ~90% the fading-integral kernel.
  mc-oracles    MC moment and histogram-MI oracles at acceptance scale,
                with no fading integral.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("bounds-grid", "bounds-new-L", "gdof-grid", "verify", "mc-oracles")

BOUNDS_HEADER = (
    "P,L,sigma2,upper_total,upper_amp,upper_phase,pc_total,pc_amp,pc_phase,"
    "cc_total,cc_amp,cc_phase,units"
)
GDOF_HEADER = "alpha,beta,d_outer,d_inner_pc,d_inner_cc,d_inner_combined,d_exact,regime_of_exactness"
VERIFY_HEADER = "check,point,measured,expected,deviation,tolerance,status,note"
# The verify suite's rows in order; the `point` column is fixed for any seed.
VERIFY_CHECKS = (
    ["kappa-closed-vs-sum", "phi-closed-vs-sum"] * 5
    + ["kappa-mc", "phi-mc", "f-fourth-moment-mc", "kappa-mc", "phi-mc", "kappa-mc", "phi-mc"]
    + ["fading-integral-re", "fading-integral-im", "fading-integral-re"]
    + ["log-abs-sq"] * 2
    + ["riccati-fixed-point"] * 3
    + ["immse-gaussian"]
    + ["mi-amplitude-lb", "mi-phase-lb", "mi-total-vs-outer"] * 2
)
EXACT_REGIMES = ("awgn", "nc", "onc", "pc")

# Workload sizes keep one invocation near 1.5-2 s, so that a run holds enough
# invocations, each close in time to the reference runs around it.  For
# verify that is 20,000 samples instead of the CLI default 1e5; the fading
# integral keeps its ~90% share.
VERIFY_SAMPLES = 20_000
# Stated tolerances of acceptance criteria 4 and 6, pinned here rather than
# read from the program so that a change to the program cannot loosen them.
MC_SE_FACTOR = 4.0
MI_ALLOWANCE_NATS = 0.05
MI_OUTER_SLACK_NATS = 0.1

# Rows of a bounds output compared cell by cell against the mpmath oracles.
ORACLE_ROWS = 400
BOUNDS_VALUE_COLUMNS = BOUNDS_HEADER.split(",")[3:12]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    argv: tuple[str, ...]
    axes: tuple[tuple, ...] = ()  # grid axes, sorted as the CLI emits them
    samples: int = 0  # sum of the n_samples budgets passed to MC estimators

    @property
    def rows(self) -> int:
        """Grid rows the invocation emits (0 for MC workloads)."""
        return math.prod(len(a) for a in self.axes) if self.axes else 0

    @property
    def work(self) -> int:
        """Units of work behind work_per_s: grid rows, else MC samples."""
        return self.rows or self.samples

    @property
    def work_unit(self) -> str:
        return "points" if self.axes else "samples"


def _log_strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n log-uniform values in [lo, hi], one in each equal slice of the log range."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / n) for i in range(n)]


def _join(values) -> str:
    return ",".join(repr(v) for v in values)


def make(name: str, seed: int) -> Workload:
    """The workload's inputs for one seed."""
    rng = random.Random(f"{name}/{seed}")
    child_seed = str(seed % 2**31)
    if name == "bounds-grid":
        ps = _log_strata(rng, 100, 1.0, 1e12)
        ls = [1]
        for v in _log_strata(rng, 6, 2.0, 1024.0):
            ls.append(max(round(v), ls[-1] + 1))
        s2s = _log_strata(rng, 40, 1e-6, 1e2)
        return _bounds(name, seed, ps, ls, s2s)
    if name == "bounds-new-L":
        ls: set[int] = set()
        while len(ls) < 250:
            ls.add(round(math.exp(rng.uniform(math.log(2.0), math.log(1e6)))))
        ps = _log_strata(rng, 5, 1.0, 1e12)
        s2s = _log_strata(rng, 8, 1e-6, 1.0)
        return _bounds(name, seed, ps, sorted(ls), s2s)
    if name == "gdof-grid":
        # Lattice points put grid rows on the region boundaries (beta = alpha,
        # 2 alpha - 1, alpha/2 - 1, 0, +-1), where every branch is evaluated
        # and cross-checked; the rest are seed-drawn interior points.
        alphas = [k / 4 for k in range(13)] + [rng.uniform(0.0, 3.0) for _ in range(287)]
        betas = [k / 8 - 2.0 for k in range(33)] + [rng.uniform(-2.0, 2.0) for _ in range(117)]
        alphas, betas = sorted(alphas), sorted(betas)
        # `--beta=<list>`: argparse would read a list starting with "-2" as a flag.
        argv = ("gdof", f"--alpha={_join(alphas)}", f"--beta={_join(betas)}")
        return Workload(name, seed, argv, (tuple(alphas), tuple(betas)))
    if name == "verify":
        n = VERIFY_SAMPLES
        # estimate_F_moments 3x n, simulate_fading_integral n + max(n//10, 1000),
        # estimate_log_abs_sq 2x n, amplitude/phase_channel_mi 2x n each.  The
        # traced run counts the budgets passed and fails if they differ.
        samples = 10 * n + max(n // 10, 1000)
        return Workload(name, seed, ("verify", "--seed", child_seed, "--samples", str(n)),
                        samples=samples)
    if name == "mc-oracles":
        from mc_oracles import F_POINTS, MI_POINTS, SAMPLES

        # estimate_F_moments at each F point, amplitude/phase_channel_mi at each MI point
        return Workload(name, seed, ("--seed", child_seed),
                        samples=(len(F_POINTS) + 2 * len(MI_POINTS)) * SAMPLES)
    raise ValueError(f"unknown workload {name!r}")


def _bounds(name: str, seed: int, ps, ls, s2s) -> Workload:
    ps, ls, s2s = sorted(ps), sorted(ls), sorted(s2s)
    argv = ("bounds", "--P", _join(ps), "--L", ",".join(map(str, ls)), "--sigma2", _join(s2s))
    return Workload(name, seed, argv, (tuple(ps), tuple(ls), tuple(s2s)))


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output passes


def _fmt(value) -> str:
    # the CLI's cell format: 17 significant digits, integers as integers
    return str(value) if isinstance(value, int) else format(value, ".17g")


def _split_csv(text: str, header: str, rows: int, width: int) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    if lines[0] != header:
        return [], [f"header is {lines[0][:80]!r}"]
    if lines[-1] != "":
        return [], ["output does not end with a line feed"]
    body = lines[1:-1]
    if len(body) != rows:
        return [], [f"{len(body)} rows, expected {rows}"]
    cells = [line.split(",") for line in body]
    for i, row in enumerate(cells):
        if len(row) != width:
            return [], [f"row {i + 1} has {len(row)} cells, expected {width}"]
    return cells, []


def _check_axes(w: Workload, cells: list[list[str]]) -> list[str]:
    keys = itertools.product(*[[_fmt(v) for v in axis] for axis in w.axes])
    n = len(w.axes)
    for i, (row, key) in enumerate(zip(cells, keys)):
        if tuple(row[:n]) != key:
            return [f"row {i + 1} is at {row[:n]}, expected {list(key)}"]
    return []


def _floats(cells: list[list[str]], start: int, stop: int) -> tuple[np.ndarray | None, list[str]]:
    try:
        values = np.array([row[start:stop] for row in cells], dtype=float)
    except ValueError as exc:
        return None, [f"non-numeric cell: {exc}"]
    if not np.all(np.isfinite(values)):
        return None, ["non-finite value"]
    return values, []


def _close(a: np.ndarray, b: np.ndarray, rel: float) -> np.ndarray:
    return np.abs(a - b) <= rel * np.maximum(np.abs(b), 1.0)


def _first_bad(ok: np.ndarray, what: str) -> list[str]:
    bad = np.flatnonzero(~ok)
    return [f"{what} fails on {bad.size} rows, first row {bad[0] + 1}"] if bad.size else []


def check_bounds(w: Workload, text: str) -> list[str]:
    cells, problems = _split_csv(text, BOUNDS_HEADER, w.rows, 13)
    if problems:
        return problems
    problems = _check_axes(w, cells)
    if any(row[12] != "nats" for row in cells):
        problems.append("units column is not 'nats'")
    v, bad = _floats(cells, 0, 12)
    if bad:
        return problems + bad
    p = v[:, 0]
    up_t, up_a, up_p, pc_t, pc_a, pc_p, cc_t, cc_a, cc_p = v[:, 3:12].T
    # the documented sandwich, then the definition of each total from its split
    problems += _first_bad(np.maximum(pc_t, cc_t) <= up_t + 1e-9, "max(pc_total, cc_total) <= upper_total + 1e-9")
    problems += _first_bad(_close(up_t, np.minimum(np.log(p + 2.0), up_a + up_p), 1e-12),
                           "upper_total = min(ln(P+2), upper_amp + upper_phase)")
    problems += _first_bad(_close(pc_t, np.maximum(pc_a + pc_p, 0.0), 1e-12),
                           "pc_total = [pc_amp + pc_phase]^+")
    problems += _first_bad(_close(cc_t, np.maximum(cc_a + cc_p, 0.0), 1e-12),
                           "cc_total = [cc_amp + cc_phase]^+")
    return problems


def check_gdof(w: Workload, text: str) -> list[str]:
    cells, problems = _split_csv(text, GDOF_HEADER, w.rows, 8)
    if problems:
        return problems
    problems = _check_axes(w, cells)
    v, bad = _floats(cells, 2, 6)
    if bad:
        return problems + bad
    outer, pc, cc, combined = v.T
    problems += _first_bad(combined <= outer + 1e-12, "d_inner_combined <= d_outer + 1e-12")
    problems += _first_bad(_close(combined, np.maximum(pc, cc), 1e-12),
                           "d_inner_combined = max(d_inner_pc, d_inner_cc)")
    for i, row in enumerate(cells):
        exact, regime = row[6], row[7]
        if (exact == "") != (regime == ""):
            problems.append(f"row {i + 1}: d_exact {exact!r} with regime {regime!r}")
            break
        if exact == "":
            continue
        try:
            d = float(exact)
        except ValueError:
            problems.append(f"row {i + 1}: non-numeric d_exact {exact!r}")
            break
        if regime not in EXACT_REGIMES or not combined[i] - 1e-12 <= d <= outer[i] + 1e-12:
            problems.append(f"row {i + 1}: d_exact {exact} ({regime}) outside "
                            f"[{combined[i]!r}, {outer[i]!r}]")
            break
    return problems


def check_verify(w: Workload, text: str) -> list[str]:
    cells, problems = _split_csv(text, VERIFY_HEADER, len(VERIFY_CHECKS), 8)
    if problems:
        return problems
    names = [row[0] for row in cells]
    if names != VERIFY_CHECKS:
        return [f"check column is {names}"]
    v, bad = _floats(cells, 2, 6)
    if bad:
        return bad
    measured, expected, deviation, tolerance = v.T
    one_sided = np.array([name.startswith("mi-") for name in names])
    recomputed = np.where(one_sided, expected - measured, np.abs(measured - expected))
    problems += _first_bad(_close(deviation, recomputed, 1e-12), "deviation = |measured - expected|")
    problems += _first_bad(deviation <= tolerance, "deviation <= tolerance")
    problems += _first_bad(np.array([row[6] == "pass" for row in cells]), "status = pass")
    return problems


def check_mc_oracles(w: Workload, text: str) -> list[str]:
    try:
        return _mc_problems(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable result: {exc!r}"]


def _mc_problems(result: dict) -> list[str]:
    from mc_oracles import F_POINTS, MI_POINTS

    moments, mis = result["moments"], result["mi"]
    if [(m["L"], m["sigma2"]) for m in moments] != list(F_POINTS):
        return ["moment points differ from criterion 4's"]
    if [(m["P"], m["L"], m["sigma2"]) for m in mis] != list(MI_POINTS):
        return ["MI points differ from criterion 6's"]
    problems = []
    k = MC_SE_FACTOR
    for m in moments:
        at = f"L={m['L']}"
        # written as not(<=) so that a NaN fails
        if not abs(m["m2"] - m["phi"]) <= k * m["m2_se"]:
            problems.append(f"criterion 4 at {at}: |E|F|^2 - phi| > 4 SE")
        if not abs(m["re"] - m["kappa"]) <= k * m["re_se"]:
            problems.append(f"criterion 4 at {at}: |E Re F - kappa| > 4 SE")
    for m in mis:
        at = f"P={m['P']:g}"
        if not m["pc_amp"] <= m["amp_mi"] + MI_ALLOWANCE_NATS + k * m["amp_se"]:
            problems.append(f"criterion 6 at {at}: amplitude bound above the MI estimate")
        if not m["pc_phase"] <= m["phase_mi"] + MI_ALLOWANCE_NATS + k * m["phase_se"]:
            problems.append(f"criterion 6 at {at}: phase bound above the MI estimate")
        if not m["amp_mi"] + m["phase_mi"] <= m["outer"] + MI_OUTER_SLACK_NATS:
            problems.append(f"criterion 6 at {at}: MI sum above the outer bound + 0.1")
    return problems


_CHECKS = {
    "bounds-grid": check_bounds,
    "bounds-new-L": check_bounds,
    "gdof-grid": check_gdof,
    "verify": check_verify,
    "mc-oracles": check_mc_oracles,
}


def check(w: Workload, returncode: int, text: str) -> list[str]:
    """Problems with one invocation's exit code and output; empty if it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    return _CHECKS[w.name](w, text)


# ---------------------------------------------------------------------------
# accuracy against the 50-digit oracles in tests/_oracles.py


def oracle_errors(w: Workload, text: str) -> dict:
    """Worst |got - ref| / max(|ref|, 1) over a seed-chosen sample of a bounds
    output's rows, every value cell, plus the same for kappa and phi from
    `derive_constants` at the sampled (L, sigma2)."""
    import _oracles
    from owpnlab.model import ChannelParams, derive_constants

    rows = text.split("\n")[1:-1]
    rng = random.Random(f"oracle/{w.name}/{w.seed}")
    worst = (0.0, "")
    worst_dc = 0.0
    for i in sorted(rng.sample(range(len(rows)), min(ORACLE_ROWS, len(rows)))):
        cells = rows[i].split(",")
        p, big_l, s2 = float(cells[0]), int(cells[1]), float(cells[2])
        up = _oracles.upper_outer(p, big_l, s2)
        pc = _oracles.lower_pc(p, big_l, s2)
        cc = _oracles.lower_cc(p, big_l, s2)
        refs = (up[2], up[0], up[1], pc[2], pc[0], pc[1], cc[2], cc[0], cc[1])
        for column, got, ref in zip(BOUNDS_VALUE_COLUMNS, map(float, cells[3:12]), refs):
            err = abs(got - ref) / max(abs(ref), 1.0)
            if err > worst[0]:
                worst = (err, f"{column} at P={p:.6g} L={big_l} sigma2={s2:.6g}")
        _, kappa, phi = derive_constants(ChannelParams(p, big_l, s2))
        _, kappa_ref, phi_ref = _oracles.coherence_constants(big_l, s2)
        worst_dc = max(worst_dc, abs(kappa - kappa_ref), abs(phi - phi_ref))
    return {"oracle_err_max": worst[0], "where": worst[1], "derive_constants": worst_dc,
            "rows": min(ORACLE_ROWS, len(rows))}
