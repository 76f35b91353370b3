"""Sweep driver and export layer: evaluate bounds, GDoF regions, regime
classifications and the Monte-Carlo-vs-closed-form verification suite over
parameter grids, and write the results as CSV.

Subcommands: bounds, gdof, verify, riccati, regimes.

Axes are given as comma lists (``--P 1,10,100``) or log ranges
(``--P log:1:1e6:7``); grids are emitted in ascending lexicographic order of
the axes, one row per point, with a mandatory header, LF line endings and
17-significant-digit decimals.  Output is bit-identical for a given sweep and
seed.  A grid is never held whole: it is one stream of blocks of axis values,
``_ROW_BLOCK`` rows each, made by index arithmetic from one float array per
axis (``_grid``).  The writer runs the kernels once on each block, then
formats, joins and writes its rows ``_TEXT_ROWS`` at a time, so working
memory is set by the block size and the axis lengths, not by the number of
rows, and no text of a whole block is held.  Every number, axis cells
included, is formatted as ``format(v, ".17g")`` by ``_fmt_cells``, once per
distinct value of a slice's column, and a nan prints as an empty cell.
Every kernel is elementwise and every cell is formatted on its own, so
neither size changes a byte.  A grid of more than ``GRID_CAP`` rows is
refused before any axis is expanded.  The finiteness check of `bounds` and
the branch-consistency errors of `gdof` and `regimes` check invariants of
the kernels, not input, so they are not refusals: one raised in a later
block would leave the rows before it written.

Each subcommand takes exactly the options it reads (``_COMMANDS``), plus
``--out`` and ``--config``, each by its full name only (no prefixes).  A
config file holds ``key=value`` lines, each key an option name of that
subcommand; its values are parsed as that option's default, with the
option's own type, and flags win.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from . import gdof as gdof_mod
from . import mioracle, riccati, sim
from .model import ChannelParams, Units, convert_rate, derive_constants

# `owpnlab --help`'s text: what the tool does and how it exits, without the
# implementation notes of this module's docstring
_DESCRIPTION = (
    "Evaluate bounds, GDoF regions, regime classifications and the "
    "Monte-Carlo-vs-closed-form verification suite over parameter grids, and "
    "write the results as CSV. Exit codes: 0 success, 1 usage error, "
    "2 verification failure, 3 I/O error."
)
GRID_CAP = 10**7
# Rows of a grid block, made and computed at a time, and rows of a slice of
# a block, formatted, joined and written at a time.
_ROW_BLOCK = 4096
_TEXT_ROWS = 1024

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        # Options are read by their full names only: a prefix such as `--r`
        # is an unrecognized argument, as a config key must be exact too.
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # Read any argument that starts with '-' and a digit as a value, so that
        # axis lists such as `--beta -2,-1,0` parse (argparse's own pattern
        # accepts only a single negative number).  No option looks like one.
        self._negative_number_matcher = re.compile(r"-\.?\d")
        self.commands: dict[str, _Parser] = {}

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        raise UsageError(message)


def _fmt(value) -> str:
    return format(float(value), ".17g")


def parse_axis(text: str, name: str, integer: bool = False, nonnegative: bool = False) -> np.ndarray:
    """Parse one axis spec: 'v1,v2,...' or 'log:start:stop:n', into a sorted
    float64 array.

    Every value must be finite; `nonnegative` also requires >= 0, and an
    integer axis holds integers from 1 to 2^53 - 1 (see `_as_integers`).  A
    log range is computed straight into the array, one value at a time; where
    stop / start is not a normal float, it steps in the log domain between
    the exact endpoints."""
    text = text.strip()
    log_range = text.startswith("log:")
    if log_range:
        parts = text.split(":")
        if len(parts) != 4:
            raise UsageError(f"axis {name}: log range must be log:start:stop:n, got {text!r}")
        try:
            start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise UsageError(f"axis {name}: bad log range {text!r}") from exc
        if not (0.0 < start < math.inf and 0.0 < stop < math.inf):
            raise UsageError(f"axis {name}: log range requires finite positive endpoints")
        if count < 1:
            raise UsageError(f"axis {name}: log range needs n >= 1")
        if count > GRID_CAP:
            raise UsageError(f"axis {name}: log range n exceeds the cap {GRID_CAP}")
        if integer:
            _as_integers(np.array([start, stop]), name, 0.0)
        if count == 1:
            values = np.array([start])
        elif sys.float_info.min <= stop / start < math.inf:
            ratio = math.log(stop / start)
            values = np.fromiter(
                (start * math.exp(ratio * i / (count - 1)) for i in range(count)),
                dtype=np.float64, count=count)
            if integer:  # exp may miss a large integer stop; keep it exact
                values[-1] = stop
        else:  # the ratio is not a normal float: step in the log domain
            low, span = math.log(start), math.log(stop) - math.log(start)
            values = np.empty(count)
            values[0], values[-1] = start, stop
            values[1:-1] = np.fromiter(
                (math.exp(low + span * i / (count - 1)) for i in range(1, count - 1)),
                dtype=np.float64, count=count - 2)
    else:
        try:
            values = np.array([float(v) for v in text.split(",") if v.strip() != ""])
        except ValueError as exc:
            raise UsageError(f"axis {name}: bad value list {text!r}") from exc
    if not values.size:
        raise UsageError(f"axis {name}: empty")
    bad = ~np.isfinite(values)
    if nonnegative:
        bad |= values < 0.0
    if bad.any():
        bound = "finite and >= 0" if nonnegative else "finite"
        raise UsageError(f"axis {name}: values must be {bound}, got {float(values[bad.argmax()])}")
    if integer:
        values = _as_integers(values, name, _LOG_POINT_REL if log_range else 0.0)
    values.sort(kind="stable")
    return values


# Relative distance from an integer within which a computed point of a log
# range on an integer axis is taken as that integer: start * exp(...) is off
# by well under 1e-13 relative for any range inside [1, 2^53).
_LOG_POINT_REL = 1e-12
_INT_LIMIT = 2.0**53  # from here on, a float no longer holds every integer


def _as_integers(values: np.ndarray, name: str, rel: float) -> np.ndarray:
    """`values` rounded to integers from 1 to 2^53 - 1; each value must be
    that integer exactly, or within `rel` of it relative to the value."""
    rounded = np.round(values)
    bad = ~((values >= 1.0) & (values < _INT_LIMIT))
    bad |= np.abs(values - rounded) > rel * values
    if bad.any():
        raise UsageError(f"axis {name}: values must be integers from 1 to 2^53 - 1, "
                         f"got {float(values[bad.argmax()])}")
    return rounded


def _write_lines(out_path: str | None, blocks: Iterable[Iterable[str]]) -> None:
    """Write each block of lines, every line LF-terminated, to `out_path`
    (stdout when None), one block at a time."""
    with (open(out_path, "w", encoding="utf-8", newline="") if out_path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        for lines in blocks:
            fh.write("\n".join(lines))
            fh.write("\n")


def _write_grid(out_path: str | None, header: list[str], blocks: Iterable[list[np.ndarray]],
                cells: Callable[[list[np.ndarray]], list]) -> None:
    """Write a grid's CSV: the header, then the rows of each block of axis
    columns from `blocks`.  ``cells(columns)`` runs the kernels on a block
    and gives its cell columns, each a float array (nan prints blank) or a
    sequence of texts.  A row is its axis values followed by its cells; the
    rows are formatted, joined and written `_TEXT_ROWS` at a time
    (`_fmt_cells`), so no text of a whole block is ever held."""
    def lines():
        yield [",".join(header)]
        for columns in blocks:
            columns = [*columns, *cells(columns)]
            for lo in range(0, columns[0].size, _TEXT_ROWS):
                rows = slice(lo, lo + _TEXT_ROWS)
                yield map(",".join, zip(*(
                    _fmt_cells(column[rows]) if isinstance(column, np.ndarray) else column[rows]
                    for column in columns)))

    _write_lines(out_path, lines())


def _fmt_cells(values: np.ndarray) -> list[str]:
    # the cells of a slice of a float column: format(v, ".17g"), or "" for a
    # nan, once per distinct bit pattern (-0.0 is not 0.0), found by one sort
    distinct, which = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64),
                                return_inverse=True)
    texts = [format(v, ".17g") if v == v else "" for v in distinct.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[which].tolist()


# ---------------------------------------------------------------------------
# subcommands

_PLS_AXES = (("P", {"nonnegative": True}), ("L", {"integer": True}),
             ("sigma2", {"nonnegative": True}))
_GDOF_AXES = (("alpha", {"nonnegative": True}), ("beta", {}))


def _axis_length(text: str) -> int:
    # the number of values of an axis spec, read from its text without
    # expanding it; 1 for a malformed log range, which parse_axis refuses
    text = text.strip()
    if not text.startswith("log:"):
        return sum(1 for v in text.split(",") if v.strip() != "")
    parts = text.split(":")
    try:
        return max(int(parts[3]), 1) if len(parts) == 4 else 1
    except ValueError:
        return 1


def _grid(args, axes) -> Iterator[list[np.ndarray]]:
    """The grid over `axes`, (name, parse_axis keywords) pairs whose specs are
    read from `args`, parsed now: an iterator over its rows, `_ROW_BLOCK` at
    a time, as one float array of axis values per axis, in product order, the
    last axis varying fastest.  A grid of more than GRID_CAP rows is refused
    before any axis is expanded."""
    specs = [getattr(args, name) for name, _ in axes]
    total = math.prod(_axis_length(spec) for spec in specs)
    if total > GRID_CAP:
        raise UsageError(f"grid size {total} exceeds the cap {GRID_CAP}")
    arrays = [parse_axis(spec, name, **keywords) for spec, (name, keywords) in zip(specs, axes)]
    size = math.prod(axis.size for axis in arrays)

    def blocks() -> Iterator[list[np.ndarray]]:
        for lo in range(0, size, _ROW_BLOCK):
            # each axis value copied by its index in the product order
            index = np.arange(lo, min(lo + _ROW_BLOCK, size))
            columns = []
            for axis in reversed(arrays):
                columns.append(axis[index % axis.size])
                index //= axis.size
            yield columns[::-1]

    return blocks()


def _grid_command(axes, header: list[str], cells) -> Callable[..., int]:
    """The function of a grid subcommand over `axes`: it writes the grid's
    CSV, whose header is the axis names followed by `header`, and whose cells
    ``cells(args, block)`` gives for each block of axis columns."""
    def command(args) -> int:  # the axes are parsed before the output is opened
        _write_grid(args.out, [*(name for name, _ in axes), *header], _grid(args, axes),
                    lambda block: cells(args, block))
        return EXIT_OK

    return command


_BOUNDS_KERNELS = (bounds_mod._upper_outer, bounds_mod._lower_partially_coherent,
                   bounds_mod._lower_coherent_combining)


def _bounds_cells(args, grid):  # total, amplitude, phase of each kernel, in nats
    columns = [column for kernel in _BOUNDS_KERNELS for column in kernel(*grid)]
    undefined = np.flatnonzero(~np.isfinite(columns).all(axis=0))
    for i in undefined[:1]:  # every bound is finite on its whole input domain
        p, big_l, s2 = (_fmt(g[i]) for g in grid)
        raise RuntimeError(f"a bound is not finite at (P={p}, L={big_l}, sigma2={s2})")
    return [*(convert_rate(c, args.units) for c in columns), [args.units.value] * grid[0].size]


def _gdof_cells(args, grid):  # each family's total; d_exact is nan (blank) outside every regime
    *families, regimes = gdof_mod._regions(*grid)
    return [*(total for total, _, _ in families), regimes]


def _regimes_cells(args, grid):  # each point's regime and its guaranteed gap, blank for "general"
    which = gdof_mod._classify(*grid)
    gaps = convert_rate(np.array([gdof_mod.regime_gap_nats(r) for r in gdof_mod._REGIMES]),
                        args.units)
    return [[gdof_mod._REGIMES[i].value for i in which.tolist()], gaps[which],
            [args.units.value] * which.size]


def cmd_riccati(args) -> int:
    x, ratio = args.x, args.ratio
    if not 0.0 <= x < math.inf:
        raise UsageError(f"--x must be finite and >= 0, got {x}")
    if not 0.0 < ratio < math.inf:
        raise UsageError(f"--ratio must be finite and > 0, got {ratio}")
    if args.max_iter < 1:
        raise UsageError(f"--max-iter must be >= 1, got {args.max_iter}")
    closed = riccati.riccati_fixed_point(x, ratio)
    if not math.isfinite(closed):
        raise UsageError("--x and --ratio too large: the fixed point J* overflows")
    lines = [f"x (input second moment)  : {_fmt(x)}", f"r (L / sigma2)           : {_fmt(ratio)}"]
    try:
        fixed, steps = riccati.iterate_fixed_point(x, ratio, max_iter=args.max_iter)
    except RuntimeError as exc:
        sys.stderr.write(f"riccati: {exc}\n")
        return EXIT_VERIFY_FAIL
    if abs(fixed - closed) > 1e-9 * abs(closed):  # relative, even where J* is subnormal
        sys.stderr.write(f"riccati: the iteration stopped after {steps} steps at J = "
                         f"{_fmt(fixed)}, not within 1e-9 J* of J* = {_fmt(closed)}\n")
        return EXIT_VERIFY_FAIL
    trace = [0.0, *itertools.islice(riccati._iterates(x, ratio, 0.0), min(steps, 9))]
    lines.append("iteration trace (first 10):")
    for i, j in enumerate(trace):
        lines.append(f"  {i:4d}  {_fmt(j)}")
    lines.append(f"converged after {steps} steps: J = {_fmt(fixed)}")
    lines.append(f"closed-form fixed point     : {_fmt(closed)}")
    if riccati.crb_argument(x, ratio) > 0.0:
        crb = riccati.posterior_crb_entropy_lower(x, ratio)
        lines.append(f"posterior-CRB entropy bound : {_fmt(crb)} nats")
    else:  # x == 0
        lines.append(f"posterior-CRB entropy bound : undefined at x = {_fmt(x)}")
    _write_lines(args.out, [lines])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite

@dataclass(frozen=True)
class CheckRow:
    check: str
    point: str
    measured: float
    expected: float
    deviation: float
    tolerance: float
    passed: bool
    note: str = ""


def _direct_phi_kappa(big_l: int, s2: float) -> tuple[float, float]:
    # independent oracle: direct double sum over xi^{|i-k|}
    if s2 == 0.0:
        return 1.0, 1.0
    xi = math.exp(-s2 / (2.0 * big_l))
    kappa = math.fsum(xi**d for d in range(big_l)) / big_l
    phi = (big_l + 2.0 * math.fsum((big_l - d) * xi**d for d in range(1, big_l))) / big_l**2
    return kappa, phi


def verify_rows(seed: int, n_samples: int, tolerance_scale: float = 1.0) -> list[CheckRow]:
    """Run the MC-vs-closed-form suite; deterministic for a given seed."""
    rows: list[CheckRow] = []
    scale = tolerance_scale

    def add(check, point, measured, expected, tolerance, note=""):
        deviation = abs(measured - expected)
        rows.append(
            CheckRow(check, point, measured, expected, deviation, tolerance * scale,
                     deviation <= tolerance * scale, note)
        )

    def add_one_sided(check, point, measured, bound, tolerance, note=""):
        # the bound must not exceed the measurement by more than the tolerance
        deviation = bound - measured
        rows.append(
            CheckRow(check, point, measured, bound, deviation, tolerance * scale,
                     deviation <= tolerance * scale, note)
        )

    const_grid = [(2, 4.0 * math.log(2.0)), (4, 1.0), (16, 0.1), (256, 1e-4), (8, 0.0)]
    for big_l, s2 in const_grid:
        params = ChannelParams(1.0, big_l, s2)
        _, kappa, phi = derive_constants(params)
        kap_o, phi_o = _direct_phi_kappa(big_l, s2)
        note = "analytic-limit" if s2 == 0.0 else ""
        point = f"L={big_l};sigma2={_fmt(s2)}"
        add("kappa-closed-vs-sum", point, kappa, kap_o, 1e-12, note)
        add("phi-closed-vs-sum", point, phi, phi_o, 1e-12, note)

    mc_grid = [(2, 4.0 * math.log(2.0)), (4, 1.0), (16, 0.1)]
    for idx, (big_l, s2) in enumerate(mc_grid):
        params = ChannelParams(1.0, big_l, s2)
        _, kappa, phi = derive_constants(params)
        moments = sim.estimate_F_moments(params, n_samples, seed + 100 + idx)
        point = f"L={big_l};sigma2={_fmt(s2)}"
        add("kappa-mc", point, moments.mean_real.mean, kappa, 4.0 * moments.mean_real.std_error)
        add("phi-mc", point, moments.m2.mean, phi, 4.0 * moments.m2.std_error)
        if big_l == 2:
            # at L=2, |F|^4 = ((1+cos N)/2)^2 has the closed mean
            # (3/2 + 2 e^{-v/2} + e^{-2v}/2)/4 with v = sigma2/L
            v = s2 / big_l
            m4_closed = (1.5 + 2.0 * math.exp(-v / 2.0) + 0.5 * math.exp(-2.0 * v)) / 4.0
            add("f-fourth-moment-mc", point, moments.m4.mean, m4_closed,
                4.0 * moments.m4.std_error)

    n_steps = 64
    ratio = 2.0  # sigma2 / L
    re_est, im_est = sim.simulate_fading_integral(ratio, n_steps, n_samples, seed + 200)
    target = (2.0 / ratio) * -math.expm1(-ratio / 2.0)  # (2L/sigma2)(1 - e^{-sigma2/(2L)})
    add("fading-integral-re", "sigma2/L=2", re_est.mean, target,
        4.0 * re_est.std_error + ratio**2 / (48.0 * n_steps**2),
        note="trapezoid bias <= a^2/(48 n^2)")
    add("fading-integral-im", "sigma2/L=2", im_est.mean, 0.0, 4.0 * im_est.std_error)
    re0, _ = sim.simulate_fading_integral(0.0, n_steps, max(n_samples // 10, 1000), seed + 201)
    add("fading-integral-re", "sigma2/L=0", re0.mean, 1.0, 1e-15, note="analytic-limit")

    for idx, power in enumerate((1.0, 4.0)):
        est = sim.estimate_log_abs_sq(power, n_samples, seed + 300 + idx)
        add("log-abs-sq", f"power={_fmt(power)}", est.mean,
            math.log(power) - bounds_mod.EULER_MASCHERONI, 4.0 * est.std_error)

    for x, noise_ratio in ((3.0, 1.0), (1.0, 1e6), (0.1, 1e-3)):
        iterated, _ = riccati.iterate_fixed_point(x, noise_ratio)
        closed = riccati.riccati_fixed_point(x, noise_ratio)
        add("riccati-fixed-point", f"x={_fmt(x)};r={_fmt(noise_ratio)}",
            iterated, closed, 1e-9 * max(abs(closed), 1.0))

    quad = riccati.immse_entropy_quadrature(1.0)
    add("immse-gaussian", "s=1", quad, 0.5 * math.log(2.0 * math.pi * math.e), 1e-3)

    mi_points = [(20.0, 4, 0.5), (100.0, 1, 0.01)]
    for idx, (p, big_l, s2) in enumerate(mi_points):
        params = ChannelParams(p, big_l, s2)
        pc = bounds_mod.lower_partially_coherent(params)
        outer = bounds_mod.upper_outer(params)
        amp_mi = mioracle.amplitude_channel_mi(params, n_samples, seed + 400 + idx)
        ph_mi = mioracle.phase_channel_mi(params, n_samples, seed + 500 + idx)
        point = f"P={_fmt(p)};L={big_l};sigma2={_fmt(s2)}"
        add_one_sided("mi-amplitude-lb", point, amp_mi.value, pc.rate_split.amplitude_rate,
                      mioracle.MI_ALLOWANCE_NATS + 4.0 * amp_mi.std_error)
        add_one_sided("mi-phase-lb", point, ph_mi.value, pc.rate_split.phase_rate,
                      mioracle.MI_ALLOWANCE_NATS + 4.0 * ph_mi.std_error)
        add_one_sided("mi-total-vs-outer", point, outer.total,
                      amp_mi.value + ph_mi.value, 0.1,
                      note="achievable <= outer + 0.1")
    return rows


def cmd_verify(args) -> int:
    if args.samples < 10_000:
        raise UsageError("verify needs --samples >= 10000")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if not 0.0 <= args.tolerance_scale < math.inf:
        raise UsageError(f"--tolerance-scale must be finite and >= 0, got {args.tolerance_scale}")
    rows = verify_rows(args.seed, args.samples, args.tolerance_scale)
    header = "check,point,measured,expected,deviation,tolerance,status,note"
    lines = [
        ",".join([r.check, r.point, _fmt(r.measured), _fmt(r.expected), _fmt(r.deviation),
                  _fmt(r.tolerance), "pass" if r.passed else "fail", r.note])
        for r in rows
    ]
    _write_lines(args.out, [[header, *lines]])
    return EXIT_OK if all(r.passed for r in rows) else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# argument plumbing

_UNITS = ("--units", {"type": Units, "default": "nats", "metavar": "{nats,bits}",
                      "help": "rate unit, applied at emission (default: nats)"})


def _axis_flags(axes) -> tuple:
    return tuple((f"--{name}", {"help": f"{name} axis: 'v1,v2,...' or 'log:start:stop:n'"})
                 for name, _ in axes)


# Each subcommand's function, help line and the options it reads, as
# (flag, add_argument keywords); a grid subcommand's axes give its first
# options and header columns.  An option without a default is a required
# input, given by a flag or a config line.  Every subcommand also takes
# --out and --config.
_COMMANDS = {
    "bounds": (_grid_command(_PLS_AXES, ["upper_total", "upper_amp", "upper_phase",
                                         "pc_total", "pc_amp", "pc_phase",
                                         "cc_total", "cc_amp", "cc_phase", "units"], _bounds_cells),
               "capacity bounds over a (P, L, sigma2) grid", (*_axis_flags(_PLS_AXES), _UNITS)),
    "gdof": (_grid_command(_GDOF_AXES, ["d_outer", "d_inner_pc", "d_inner_cc", "d_inner_combined",
                                        "d_exact", "regime_of_exactness"], _gdof_cells),
             "GDoF regions over an (alpha, beta) grid", _axis_flags(_GDOF_AXES)),
    "verify": (cmd_verify, "Monte-Carlo vs closed-form verification suite", (
        ("--seed", {"type": int, "default": 42, "help": "base seed, >= 0 (default: 42)"}),
        ("--samples", {"type": int, "default": 100_000,
                       "help": "Monte Carlo budget, >= 10000 (default: 100000)"}),
        ("--tolerance-scale", {"type": float, "default": 1.0,
                               "help": "multiply every tolerance, finite and >= 0 "
                                       "(0 gives a deterministic failure)"}),
    )),
    "riccati": (cmd_riccati, "Fisher-information recursion report", (
        ("--x", {"type": float, "help": "input second moment E|X|^2"}),
        ("--ratio", {"type": float, "help": "L / sigma2"}),
        ("--max-iter", {"type": int, "default": 10**6, "help": "iteration cap, >= 1"}),
    )),
    "regimes": (_grid_command(_PLS_AXES, ["regime", "gap", "units"], _regimes_cells),
                "regime classification over a (P, L, sigma2) grid",
                (*_axis_flags(_PLS_AXES), _UNITS)),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def build_parser() -> _Parser:
    """The owpnlab parser; `parser.commands` maps each subcommand to its parser."""
    parser = _Parser(prog="owpnlab", description=_DESCRIPTION)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        sub = parser.commands[name] = subs.add_parser(name, help=help_line)
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
        sub.add_argument("--out", help="output path (default: stdout)")
        sub.add_argument("--config", help="key=value config file; flags win")
    return parser


def _read_config(path: str, dests: set[str]) -> dict[str, str]:
    # the key=value lines of a config file; each key is one of `dests`
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in dests:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command, _, options = _COMMANDS[args.command]
        if args.config is not None:
            dests = {_dest(flag) for flag, _ in options} | {"out"}
            parser.commands[args.command].set_defaults(**_read_config(args.config, dests))
            try:  # argparse converts each string default with its option's type
                args = parser.parse_args(argv)
            except UsageError as exc:
                raise UsageError(f"{args.config}: {exc}") from None
        for flag, keywords in options:
            if "default" not in keywords and getattr(args, _dest(flag)) is None:
                raise UsageError(f"missing required {flag}")
        return command(args)
    except UsageError as exc:
        sys.stderr.write(f"owpnlab: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"owpnlab: I/O error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
