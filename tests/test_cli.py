import contextlib
import hashlib
import io
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _memory import traced_peak_mib
from owpnlab import bounds as bounds_mod
from owpnlab import cli
from owpnlab import gdof as gdof_mod
from owpnlab.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    UsageError,
    build_parser,
    main,
    parse_axis,
)
from owpnlab.model import ChannelParams, GdofPoint, Units, convert_rate

LN2 = math.log(2.0)


def assert_rows_match_oracle(lines):
    # each bounds CSV row's nine value cells within 1e-12 max(|ref|, 1) of the oracles
    for line in lines:
        cells = line.split(",")
        want = _oracles.bounds_row(float(cells[0]), int(cells[1]), float(cells[2]))
        for got, ref in zip(map(float, cells[3:12]), want):
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0), (line, got, ref)


def assert_same_lines(got, want):
    """Assert that two lists of lines, or two texts (str or bytes), are equal.

    A difference is reported by the lengths and the first differing line:
    pytest's own report on two long lists diffs them whole, which takes
    minutes for a grid's text."""
    if isinstance(got, (str, bytes)):
        got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    got_line = got[at] if at < len(got) else "<end>"
    want_line = want[at] if at < len(want) else "<end>"
    raise AssertionError(f"{len(got)} lines, want {len(want)}; line {at}: "
                         f"{got_line!r} != {want_line!r}")


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestAxisParsing:
    def test_value_list(self):
        assert parse_axis("3,1,2", "P").tolist() == [1.0, 2.0, 3.0]

    def test_log_range(self):
        values = parse_axis("log:1:100:3", "P").tolist()
        assert values == pytest.approx([1.0, 10.0, 100.0], rel=1e-12)
        assert parse_axis("log:5:5:1", "P").tolist() == [5.0]

    def test_integer_axis(self):
        assert parse_axis("4,1", "L", integer=True).tolist() == [1, 4]
        with pytest.raises(UsageError):
            parse_axis("1.5", "L", integer=True)
        with pytest.raises(UsageError):
            parse_axis("0", "L", integer=True)

    def test_integer_log_range(self):
        # exact integers, the largest stop included; a point that is no
        # integer, or an endpoint that is none, is refused
        assert parse_axis("log:1:1000:4", "L", integer=True).tolist() == [1, 10, 100, 1000]
        assert parse_axis("log:1:1e15:4", "L", integer=True).tolist() == [1, 10**5, 10**10, 10**15]
        for bad in ("log:1:10:3", "log:1.5:10:2", "log:1:1000000000000.5:2", "log:1:1e16:2"):
            with pytest.raises(UsageError):
                parse_axis(bad, "L", integer=True)

    def test_log_range_builds_no_float_list(self):
        # one float64 array of 200,000 values (1.5 MiB); a list of Python
        # floats on the way to it traced 7.7 MiB
        assert traced_peak_mib(parse_axis, "log:1:1e6:200000", "P") < 4.0

    @pytest.mark.parametrize("start,stop", [(1e-300, 1.7e308), (1.7e308, 1e-300)])
    def test_log_range_whose_ratio_leaves_the_float_range(self, start, stop):
        # stop / start overflows (ascending) or underflows (descending); the
        # endpoints are kept exact, the interior follows the exact log range
        values = parse_axis(f"log:{start!r}:{stop!r}:5", "alpha", nonnegative=True).tolist()
        assert all(0.0 < v < math.inf for v in values)
        assert values == sorted(values) and len(set(values)) == 5
        assert values[0] == min(start, stop) and values[-1] == max(start, stop)
        with mpmath.workdps(40):
            for i in range(1, 4):
                want = mpmath.mpf(start) * (mpmath.mpf(stop) / mpmath.mpf(start)) ** (
                    mpmath.mpf(i) / 4)
                got = values[i] if start < stop else values[4 - i]
                assert abs(got - want) <= 1e-12 * want

    def test_rejects_bad_specs(self):
        for bad in ("", "log:1:10", "log:-1:10:3", "log:1:10:0", "a,b"):
            with pytest.raises(UsageError):
                parse_axis(bad, "P")


class TestBoundsCommand:
    def test_single_point(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--P", "2", "--L", "1", "--sigma2", "1",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header[0:3] == ["P", "L", "sigma2"]
        assert len(rows) == 1
        assert float(rows[0]["upper_total"]) == pytest.approx(0.81229199844750977, abs=1e-12)
        assert rows[0]["units"] == "nats"

    def test_zero_power_row(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["bounds", "--P", "0", "--L", "2", "--sigma2", "0.5", "--out", str(out)])
        _, rows = read_csv(out)
        for col in ("upper_total", "pc_total", "cc_total"):
            assert float(rows[0][col]) == 0.0

    def test_grid_rows_and_order(self, tmp_path):
        out = tmp_path / "b.csv"
        main(["bounds", "--P", "10,1,100", "--L", "2,1", "--sigma2", "1,0.1",
              "--out", str(out)])
        _, rows = read_csv(out)
        assert len(rows) == 12
        keys = [(float(r["P"]), int(r["L"]), float(r["sigma2"])) for r in rows]
        assert keys == sorted(keys)

    def test_overflowing_crb_argument_row(self, tmp_path):
        # 2 r x overflows at x = P/L = 1e100, r = L/sigma2 = 1e300; the bound is finite
        out = tmp_path / "b.csv"
        assert main(["bounds", "--P", "1e100", "--L", "1", "--sigma2", "1e-300",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        upper = float(rows[0]["upper_total"])
        assert upper == math.log(1e100 + 2.0)
        assert upper >= float(rows[0]["pc_total"])
        assert upper >= float(rows[0]["cc_total"])

    def test_cc_phase_where_2_sigma2_p_overflows(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--P", "1", "--L", "4", "--sigma2", "9e307",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert all(math.isfinite(float(rows[0][col])) for col in header[:-1])
        assert float(rows[0]["cc_phase"]) == pytest.approx(
            _oracles.lower_cc(1.0, 4, 9e307)[1], rel=1e-12, abs=0.0)

    def test_subnormal_sigma2_still_overflows(self, capsys):
        # r = L/sigma2 itself overflows here, and at L = 2 sigma2/2 rounds to
        # 0; the outer phase comes from the logs of P, L and sigma2
        for p, big_l in (("1e100", "1"), ("1", "2")):
            assert main(["bounds", "--P", p, "--L", big_l, "--sigma2", "5e-324"]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            assert_rows_match_oracle(captured.out.splitlines()[1:])

    def test_refused_in_the_last_block(self, tmp_path):
        # 2 * _ROW_BLOCK + 1 rows whose last row squares P + 2 past the float
        # range: every block is written, the last row from the log form
        ps = parse_axis(f"log:1:1e150:{2 * cli._ROW_BLOCK}", "P").tolist() + [1e200]
        argv = ["bounds", "--P", ",".join(map(repr, ps)), "--L", "1", "--sigma2", "1e-10"]
        out = tmp_path / "b.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 * cli._ROW_BLOCK + 2
        assert lines[-1].startswith("9.9999999999999997e+199,1,1e-10,")
        assert np.isfinite(np.array([line.split(",")[3:12] for line in lines[1:]],
                                    dtype=float)).all()
        assert_rows_match_oracle(lines[-1:])

    def test_infinite_cells_are_refused(self, capsys, tmp_path):
        # pc squares P + 2, which overflows to inf here; the row is printed
        # from the log form, to stdout or to the --out file
        argv = ["bounds", "--P", "1e200", "--L", "1", "--sigma2", "1e-10"]
        out = tmp_path / "b.csv"
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert_rows_match_oracle(captured.out.splitlines()[1:])
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert out.read_text(encoding="utf-8") == captured.out

    def test_each_kernel_runs_once_per_block(self, monkeypatch, tmp_path):
        # 2 * _ROW_BLOCK + 1 rows are 3 blocks; a check pass would double the calls
        kernels, calls = cli._BOUNDS_KERNELS, []

        def counted(kernel):
            def run(*grid):
                calls.append(kernel)
                return kernel(*grid)
            return run

        monkeypatch.setattr(cli, "_BOUNDS_KERNELS", tuple(map(counted, kernels)))
        argv = ["bounds", "--P", f"log:1:1e6:{2 * cli._ROW_BLOCK + 1}", "--L", "2",
                "--sigma2", "0.5", "--out", str(tmp_path / "b.csv")]
        assert main(argv) == EXIT_OK
        assert [calls.count(kernel) for kernel in kernels] == [3, 3, 3]

    def test_bits_conversion(self, tmp_path):
        nats_out, bits_out = tmp_path / "n.csv", tmp_path / "b.csv"
        point = ["--P", "5", "--L", "2", "--sigma2", "0.3"]
        main(["bounds", *point, "--out", str(nats_out)])
        main(["bounds", *point, "--units", "bits", "--out", str(bits_out)])
        _, nats_rows = read_csv(nats_out)
        _, bits_rows = read_csv(bits_out)
        for col in ("upper_total", "pc_amp", "cc_phase"):
            assert float(bits_rows[0][col]) == pytest.approx(
                float(nats_rows[0][col]) / LN2, rel=1e-14
            )
        assert bits_rows[0]["units"] == "bits"


class TestGdofCommand:
    def test_anchor_rows(self, tmp_path):
        out = tmp_path / "g.csv"
        main(["gdof", "--alpha", "0.5,0.8", "--beta", "0,0.1", "--out", str(out)])
        _, rows = read_csv(out)
        anchor = next(r for r in rows if r["alpha"] == "0.5" and r["beta"] == "0")
        assert float(anchor["d_outer"]) == 0.75
        assert float(anchor["d_inner_combined"]) == 0.75
        assert float(anchor["d_exact"]) == 0.75
        assert anchor["regime_of_exactness"] == "pc"
        open_row = next(r for r in rows if r["alpha"].startswith("0.8") and r["beta"].startswith("0.1"))
        assert open_row["d_exact"] == ""
        assert open_row["regime_of_exactness"] == ""

    def test_readme_negative_beta_list(self, tmp_path):
        # the README's example: a comma list starting with '-' is a value
        out = tmp_path / "gdof.csv"
        assert main(["gdof", "--alpha", "log:0.01:3:50", "--beta", "-2,-1,0,1,2",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 250
        assert sorted({float(r["beta"]) for r in rows}) == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_awgn_row(self, tmp_path):
        out = tmp_path / "g.csv"
        main(["gdof", "--alpha", "0", "--beta", "-2", "--out", str(out)])
        _, rows = read_csv(out)
        for col in ("d_outer", "d_inner_pc", "d_inner_cc", "d_inner_combined", "d_exact"):
            assert float(rows[0][col]) == 1.0


class TestRegimesCommand:
    def test_classification_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["regimes", "--P", "2", "--L", "1", "--sigma2", "0.2,1,2", "--out", str(out)])
        _, rows = read_csv(out)
        by_sigma = {r["sigma2"]: r for r in rows}
        assert by_sigma["0.20000000000000001"]["regime"] == "near-awgn"
        assert float(by_sigma["0.20000000000000001"]["gap"]) == pytest.approx(1.4189385332046727)
        assert by_sigma["1"]["regime"] == "general"
        assert by_sigma["1"]["gap"] == ""
        assert by_sigma["2"]["regime"] == "near-onc"
        assert float(by_sigma["2"]["gap"]) == pytest.approx(0.2)


class TestRiccatiCommand:
    def test_report(self, capsys):
        assert main(["riccati", "--x", "3", "--ratio", "1"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "3.7912878474779199" in text
        assert "converged" in text
        assert "posterior-CRB entropy bound" in text

    def test_zero_power(self, capsys):
        assert main(["riccati", "--x", "0", "--ratio", "2"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "closed-form fixed point     : 0" in text
        assert "undefined at x = 0" in text

    def test_bound_where_2rx_underflows(self, capsys):
        # r/x = 1e50 needs far more than --max-iter steps; J* is 1e-175, so
        # the closed-form check alone would pass J = 0 here
        self.test_failed_iteration_exits_2(["--x", "1e-200", "--ratio", "1e-150"], capsys)

    @pytest.mark.parametrize("x, ratio", [("5e-324", "5e-324"), ("5e-324", "1e-320")])
    def test_subnormal_fixed_point_off_by_ulps_exits_2(self, x, ratio, capsys):
        # the map stalls an ulp of x short of a subnormal J*: 27-50% off it
        self.test_failed_iteration_exits_2(["--x", x, "--ratio", ratio], capsys)

    def test_large_ratio(self, capsys):
        assert main(["riccati", "--x", "1", "--ratio", "1e6"]) == EXIT_OK
        text = capsys.readouterr().out
        closed = next(l for l in text.splitlines() if l.startswith("closed-form"))
        assert float(closed.split(":")[1]) == pytest.approx(1000.500125, abs=1e-6)

    @pytest.mark.parametrize("x, ratio, digest", [
        ("3", "1", "aeecea3f476ba6e7d73d0c0732268b414a9d353e598c0982aac2d7750d058b3f"),
        # a trace shorter than 10 rows
        ("0.1", "1e-3", "11de05bc181b36963050e0cd1babde641a27617b571676b7ba85b1a1e3fa6955"),
        ("1", "1e6", "e4424767b9e6e7048baf5dd322c159804537f785306922ca4dcb06ad4974b540"),
    ])
    def test_report_bytes(self, x, ratio, digest, capsys):
        # the whole report, the iteration trace included
        assert _sha256_of(["riccati", "--x", x, "--ratio", ratio], capsys) == digest

    @pytest.mark.parametrize("argv", [
        ["--x", "1", "--ratio", "1", "--max-iter", "3"],  # no convergence
        # the step count grows like sqrt(r/x), past --max-iter from here on
        ["--x", "1", "--ratio", "2.795042811515355e16"],
        ["--x", "5e-324", "--ratio", "0.1"],
        ["--x", "1", "--ratio", "1e17"],
        ["--x", "1", "--ratio", "1e200"],
    ])
    def test_failed_iteration_exits_2(self, argv, capsys):
        assert main(["riccati", *argv]) == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("riccati: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("x, ratio", [
        ("1", "1e8"),  # 1.4e5 steps at a contraction ratio near 1
        ("0", "0.1"),  # J = 0 is an exact fixed point
        # x^2 + 4 x r overflows, J* does not
        ("1e300", "1e300"), ("1e200", "1"), ("1.7e308", "5e-324"),
    ])
    def test_converged_j_matches_oracle(self, x, ratio, capsys):
        assert main(["riccati", "--x", x, "--ratio", ratio]) == EXIT_OK
        text = capsys.readouterr().out
        line = next(l for l in text.splitlines() if l.startswith("converged"))
        assert float(line.split("=")[1]) == pytest.approx(
            _oracles.riccati_fixed_point(float(x), float(ratio)), rel=1e-11, abs=0.0
        )

    def test_inputs_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("x=3\nratio=1\n", encoding="utf-8")
        assert main(["riccati", "--config", str(cfg)]) == EXIT_OK
        from_config = capsys.readouterr().out
        assert main(["riccati", "--x", "3", "--ratio", "1"]) == EXIT_OK
        assert from_config == capsys.readouterr().out


def _sha256_of(argv, capsys):
    assert main(argv) == EXIT_OK
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


# The gdof argvs of TestGridBytes and the sha256 of their output, also run
# with numpy's CPU dispatch targets turned off (tests/test_dispatch.py).
# Every region boundary of alpha = k/4, beta = k/8 - 2:
GDOF_LATTICE = (
    ["gdof", "--alpha=" + ",".join(repr(k / 4) for k in range(13)),
     "--beta=" + ",".join(repr(k / 8 - 2.0) for k in range(33))],
    "d5fb6dce32109ca121301a69a026590d77d1db8091efb0c5244eb747b559a96d",
)
# every region boundary of alpha = k/16, beta = k/64 - 2: 12,593 rows, more
# than two row blocks
GDOF_LATTICE_OVER_BLOCKS = (
    ["gdof", "--alpha=" + ",".join(repr(k / 16) for k in range(49)),
     "--beta=" + ",".join(repr(k / 64 - 2.0) for k in range(257))],
    "f2ff21fa7df86323864062e8f031dd87a0b5ce37295b1cd18340a653a1bf18aa",
)
# signed zeros, subnormals and values near the float range's end
GDOF_EDGE = (
    ["gdof", "--alpha", "-0,0,5e-324,0.5,1e300", "--beta=-0,0,-5e-324,5e-324,-1,1e300"],
    "35ee2567deb690a3a16c9c300fd1d555e013025793ace6751a2d30a2d835db37",
)
GDOF_PINS = (GDOF_LATTICE, GDOF_LATTICE_OVER_BLOCKS, GDOF_EDGE)


class TestGridBytes:
    """Output pinned to the bytes of the one-point implementation that the
    grid evaluation replaced."""

    def test_gdof_lattice(self, capsys):
        argv, digest = GDOF_LATTICE
        assert _sha256_of(argv, capsys) == digest

    def test_regimes_on_both_thresholds(self, capsys):
        # sigma2 = 1/(2P) at P = 2 and 3, (2 pi / e) L ln(L + 1) at L = 1 and 2,
        # and the float just below each
        sigma2 = ("0.16666666666666663,0.16666666666666666,0.24999999999999997,0.25,"
                  "1.6021783080071899,1.60217830800719,5.078785075320534,5.078785075320535")
        argv = ["regimes", "--P", "1,1.5,2,3", "--L", "1,2", "--sigma2", sigma2]
        assert _sha256_of(argv, capsys) == (
            "818f4d2ff606bc9e53b08872d7c225b0456131dafefa2ec87d9b998afebf3250"
        )

    def test_gdof_lattice_over_blocks(self, capsys):
        argv, digest = GDOF_LATTICE_OVER_BLOCKS
        assert 49 * 257 > 2 * cli._ROW_BLOCK
        assert _sha256_of(argv, capsys) == digest

    def test_regimes_on_both_thresholds_over_blocks(self, capsys):
        # sigma2 on 1/(2P) for each P and on (2 pi / e) L ln(L + 1) for each L,
        # and the float just below each: 12,288 rows, more than two row blocks
        ps = [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0, 100.0]
        ls = range(1, 25)
        sigma2 = []
        for p in ps:
            edge = 1.0 / (2.0 * p)
            sigma2 += [math.nextafter(edge, 0.0), edge]
        for big_l in ls:
            threshold = 2.0 * math.pi / math.e * math.log(big_l + 1.0)
            edge = threshold * big_l  # the least sigma2 with sigma2 / L >= threshold
            while edge / big_l < threshold:
                edge = math.nextafter(edge, math.inf)
            while math.nextafter(edge, 0.0) / big_l >= threshold:
                edge = math.nextafter(edge, 0.0)
            sigma2 += [math.nextafter(edge, 0.0), edge]
        assert len(ps) * len(ls) * len(sigma2) > 2 * cli._ROW_BLOCK
        argv = ["regimes", "--P", ",".join(map(repr, ps)), "--L", ",".join(map(str, ls)),
                "--sigma2", ",".join(map(repr, sigma2)), "--units", "bits"]
        assert _sha256_of(argv, capsys) == (
            "e2262fd010e44dbb8d6ed63d63025fa4bca673443782f4a624ff9b7718974bd8"
        )

    @pytest.mark.parametrize("argv, digest", [
        (["bounds", "--P", "-0,0,1e-300,1,1e150", "--L", "1,2,1000,9007199254740991",
          "--sigma2", "-0,0,0.5,1e10", "--units", "bits"],
         "1445e2b4c0ae0c04af12427685ab5054a30eb0f2a2724848362e47861743f93b"),
        (["regimes", "--P", "-0,0,1,1e300", "--L", "1,2,9007199254740991",
          "--sigma2", "-0,0,5e-324,1e300"],
         "1b26b19e5716d41860564c2d90889f8da13aba2c4297834604174edd08de2835"),
        GDOF_EDGE,
    ])
    def test_edge_valued_axis_cells(self, argv, digest, capsys):
        # signed zeros, subnormals, the largest integer L and values near the
        # float range's ends, each formatted as an axis cell
        assert _sha256_of(argv, capsys) == digest

    def test_refusal_names_the_largest_integer_l(self, capsys):
        # P/L is not a normal float and r = L/sigma2 overflows; the row prints
        argv = ["bounds", "--P", "1e-300", "--L", "9007199254740991", "--sigma2", "1e-300"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()[1:]
        assert lines[0].startswith("1e-300,9007199254740991,1e-300,")
        assert_rows_match_oracle(lines)

    # nan with the default payload, its negation and a nan with payload 1
    NANS = np.array([0x7FF8000000000000, -0x0008000000000000, 0x7FF0000000000001],
                    dtype=np.int64).view(np.float64)

    def test_column_cells_format_short_columns(self):
        assert cli._fmt_cells(np.array([-0.0, 0.0, -0.0])) == ["-0", "0", "-0"]
        assert cli._fmt_cells(self.NANS) == ["", "", ""]
        rng = np.random.default_rng(3)
        for _ in range(20):
            pool = np.concatenate([rng.standard_normal(5) * 10.0 ** rng.integers(-300, 300, 5),
                                   [0.0, -0.0, 5e-324, 1.0], self.NANS])
            col = rng.choice(pool, size=int(rng.integers(1, 60)))
            want = ["" if math.isnan(v) else format(v, ".17g") for v in col.tolist()]
            assert cli._fmt_cells(col) == want

    @pytest.mark.parametrize("n_distinct", [cli._TEXT_ROWS, cli._TEXT_ROWS + 1])
    def test_column_cells_format_each_value(self, n_distinct):
        # a block column of _ROW_BLOCK rows, formatted whole and slice by
        # slice, each cell as format(v, ".17g") and each nan as ""
        rng = np.random.default_rng(n_distinct)
        k = n_distinct - 6
        pool = np.concatenate([[-0.0, 0.0, 5e-324], self.NANS,
                               rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)])
        col = rng.permutation(np.concatenate([pool, rng.choice(pool, cli._ROW_BLOCK - n_distinct)]))
        assert np.unique(col.view(np.int64)).size == n_distinct
        want = ["" if math.isnan(v) else format(v, ".17g") for v in col.tolist()]
        assert_same_lines(cli._fmt_cells(col), want)
        got = [cell for lo in range(0, col.size, cli._TEXT_ROWS)
               for cell in cli._fmt_cells(col[lo : lo + cli._TEXT_ROWS])]
        assert_same_lines(got, want)


class TestBlockWriter:
    """Grid kernels run once per block of cli._ROW_BLOCK rows, and the rows
    are formatted, joined and written in slices of cli._TEXT_ROWS rows."""

    @staticmethod
    def per_row_csv(ps, big_l, s2):
        # every cell formatted on its own, as format(v, ".17g")
        p = np.array(ps)
        columns = []
        for kernel in (bounds_mod._upper_outer, bounds_mod._lower_partially_coherent,
                       bounds_mod._lower_coherent_combining):
            columns.extend(kernel(p, np.full_like(p, big_l), np.full_like(p, s2)))
        lines = [",".join(["P", "L", "sigma2", "upper_total", "upper_amp", "upper_phase",
                           "pc_total", "pc_amp", "pc_phase", "cc_total", "cc_amp", "cc_phase",
                           "units"])]
        for value, row in zip(ps, np.array(columns).T.tolist()):
            cells = [format(v, ".17g") for v in row]
            lines.append(",".join([format(value, ".17g"), str(big_l), format(s2, ".17g"),
                                   *cells, "nats"]))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("to_file", [False, True])
    def test_two_blocks_and_one_row(self, to_file, tmp_path, capsys):
        n = 2 * cli._ROW_BLOCK + 1
        spec = f"log:1e-3:1e9:{n}"
        argv = ["bounds", "--P", spec, "--L", "4", "--sigma2", "0.3"]
        want = self.per_row_csv(parse_axis(spec, "P").tolist(), 4, 0.3)
        if to_file:
            out = tmp_path / "b.csv"
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            got = out.read_bytes()
        else:
            assert main(argv) == EXIT_OK
            got = capsys.readouterr().out.encode("utf-8")
        assert got.count(b"\n") == n + 1
        assert_same_lines(got, want.encode("utf-8"))

    def test_rows_across_slice_edges(self, capsys):
        # two slice edges inside one block
        n = 2 * cli._TEXT_ROWS + 1
        spec = f"log:1e-3:1e9:{n}"
        assert main(["bounds", "--P", spec, "--L", "4", "--sigma2", "0.3"]) == EXIT_OK
        assert_same_lines(capsys.readouterr().out,
                          self.per_row_csv(parse_axis(spec, "P").tolist(), 4, 0.3))

    @pytest.mark.parametrize("n, units", [
        (2 * cli._TEXT_ROWS + 1, "nats"), (2 * cli._ROW_BLOCK + 1, "bits"),
    ])
    def test_regimes_across_slice_and_block_edges(self, n, units, capsys):
        # near-awgn below sigma2 = 1/(2P), near-onc from (2 pi / e) L ln(L + 1),
        # general between; every cell formatted on its own
        spec = f"log:1e-6:1e3:{n}"
        argv = ["regimes", "--P", "100", "--L", "2", "--sigma2", spec, "--units", units]
        assert main(argv) == EXIT_OK
        lines = ["P,L,sigma2,regime,gap,units"]
        for s2 in parse_axis(spec, "sigma2").tolist():
            regime = gdof_mod.classify_regime(ChannelParams(100.0, 2, s2))
            gap = convert_rate(gdof_mod.regime_gap_nats(regime), Units(units))
            gap_text = "" if math.isnan(gap) else format(gap, ".17g")
            lines.append(",".join(["100", "2", format(s2, ".17g"), regime.value, gap_text, units]))
        assert_same_lines(capsys.readouterr().out, "\n".join(lines) + "\n")
        assert {line.split(",")[3] for line in lines[1:]} == {"near-awgn", "general", "near-onc"}

    @pytest.mark.parametrize("n, known_from", [
        (2 * cli._TEXT_ROWS + 1, 2 * cli._TEXT_ROWS),
        (2 * cli._ROW_BLOCK + 1, cli._ROW_BLOCK + 1),
    ])
    def test_gdof_blank_d_exact_across_slice_edges(self, n, known_from, capsys):
        # at alpha = 0.75, d_exact is known for beta < -1 (awgn) and for
        # beta >= 0.75 (nc), and blank between.  Rows 0 .. 1022 are awgn, so
        # the blank run starts one row before the first slice edge and covers
        # the edges up to `known_from`, from where the rows are nc.
        edge = cli._TEXT_ROWS
        betas = (np.linspace(-3.0, -1.5, edge - 1).tolist()
                 + np.linspace(-1.0, 0.7, known_from - edge + 1).tolist()
                 + np.linspace(0.75, 2.0, n - known_from).tolist())
        argv = ["gdof", "--alpha", "0.75", "--beta=" + ",".join(map(repr, betas))]
        assert main(argv) == EXIT_OK
        lines = ["alpha,beta,d_outer,d_inner_pc,d_inner_cc,d_inner_combined,d_exact,"
                 "regime_of_exactness"]
        for beta in betas:
            point = GdofPoint(0.75, beta)
            exact = gdof_mod.gdof_exact_if_known(point)
            totals = [f(point).total for f in (gdof_mod.gdof_outer, gdof_mod.gdof_inner_pc,
                                                gdof_mod.gdof_inner_cc,
                                                gdof_mod.gdof_inner_combined)]
            lines.append(",".join([*(format(v, ".17g") for v in [0.75, beta, *totals]),
                                   "" if exact is None else format(exact.total, ".17g"),
                                   "" if exact is None else exact.regime]))
        out = capsys.readouterr().out
        assert_same_lines(out, "\n".join(lines) + "\n")
        blank = [row.split(",")[6] == "" for row in out.splitlines()[1:]]
        assert blank[edge - 2 : edge + 1] == [False, True, True]
        assert blank[known_from - 1 : known_from + 1] == [True, False]
        assert blank[-1] is False

    def test_working_memory(self, tmp_path):
        # a 28,000-row grid, the size of the bounds-grid benchmark workload;
        # joined whole, its text and cell lists take ~29 MiB traced
        argv = ["bounds", "--P", "log:1:1e12:100", "--L", "1,2,3,5,8,13,21",
                "--sigma2", "log:1e-6:1e2:40", "--out", str(tmp_path / "b.csv")]
        assert traced_peak_mib(main, argv) < 12.0
        assert (tmp_path / "b.csv").read_text(encoding="utf-8").count("\n") == 28_001

    def test_kernels_run_per_block(self, tmp_path):
        # the same grid with its kernels run one row block at a time and its
        # text made one slice at a time; with the nine float columns held
        # whole it traces ~6.6 MiB, and with each block's text ~4.3 MiB
        argv = ["bounds", "--P", "log:1:1e12:100", "--L", "1,2,3,5,8,13,21",
                "--sigma2", "log:1e-6:1e2:40", "--out", str(tmp_path / "b.csv")]
        assert traced_peak_mib(main, argv) < 2.5

    @pytest.mark.parametrize("n_alpha, n_beta", [(300, 150), (600, 600)])
    def test_gdof_memory_does_not_grow_with_the_grid(self, n_alpha, n_beta, tmp_path):
        # the shape of the gdof-grid benchmark workload (45,000 rows), and a
        # grid 8 times larger: region boundaries plus uniform points.  With the
        # region columns and the axis mesh held whole they trace ~8 and ~64 MiB.
        rng = np.random.default_rng(5)
        alphas = [k / 4 for k in range(13)] + rng.uniform(0.0, 3.0, n_alpha - 13).tolist()
        betas = [k / 8 - 2.0 for k in range(33)] + rng.uniform(-2.0, 2.0, n_beta - 33).tolist()
        out = tmp_path / "g.csv"
        argv = ["gdof", "--alpha=" + ",".join(map(repr, alphas)),
                "--beta=" + ",".join(map(repr, betas)), "--out", str(out)]
        assert traced_peak_mib(main, argv) < 3.0
        with out.open(encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == n_alpha * n_beta + 1

    @pytest.mark.parametrize("argv", [
        ["bounds", "--P", "log:1:1e6:200000", "--L", "1", "--sigma2", "1"],
        ["gdof", "--alpha", "log:1e-3:3:200000", "--beta", "0.5"],
    ])
    def test_memory_does_not_keep_axis_texts(self, argv, tmp_path):
        # a 200,000-value axis is held as one float array; with its formatted
        # cells kept as well (a list of strings and a list of floats per axis)
        # it traces ~22 MiB
        out = tmp_path / "grid.csv"
        assert traced_peak_mib(main, [*argv, "--out", str(out)]) < 10.0
        with out.open(encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 200_001


class TestVerifyCommand:
    def test_passes_and_reproduces(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = ["verify", "--seed", "42", "--samples", "10000"]
        assert main([*spec, "--out", str(a)]) == EXIT_OK
        assert main([*spec, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        _, rows = read_csv(a)
        assert rows and all(r["status"] == "pass" for r in rows)
        notes = {r["note"] for r in rows}
        assert "analytic-limit" in notes

    def test_negative_control(self, tmp_path):
        out = tmp_path / "bad.csv"
        assert main(["verify", "--seed", "42", "--samples", "10000",
                     "--tolerance-scale", "0", "--out", str(out)]) == EXIT_VERIFY_FAIL
        _, rows = read_csv(out)
        assert any(r["status"] == "fail" for r in rows)

    def test_rejects_small_samples(self):
        assert main(["verify", "--samples", "100"]) == EXIT_USAGE


class TestConfigAndErrors:
    def test_config_file_with_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# sweep config\nP=1,10\nL=1\nsigma2=0.5\nunits=bits\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["bounds", "--config", str(cfg), "--units", "nats",
                     "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out)
        assert len(rows) == 2
        assert rows[0]["units"] == "nats"  # flag beats config

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus=1\n", encoding="utf-8")
        assert main(["bounds", "--config", str(cfg), "--P", "1", "--L", "1",
                     "--sigma2", "1"]) == EXIT_USAGE

    def test_missing_axis_is_usage_error(self):
        assert main(["bounds", "--P", "1", "--L", "1"]) == EXIT_USAGE

    def test_bad_axis_is_usage_error(self):
        assert main(["bounds", "--P", "log:0:1:3", "--L", "1", "--sigma2", "1"]) == EXIT_USAGE

    def test_io_error_exit_code(self, tmp_path):
        missing = tmp_path / "no-such-dir" / "x.csv"
        assert main(["bounds", "--P", "1", "--L", "1", "--sigma2", "1",
                     "--out", str(missing)]) == EXIT_IO

    @pytest.mark.parametrize("argv", [
        ["bounds", "--P", "nan", "--L", "1", "--sigma2", "1"],
        ["bounds", "--P", "inf", "--L", "1", "--sigma2", "1"],
        ["bounds", "--P", "1", "--L", "1", "--sigma2", "-1"],
        ["bounds", "--P", "1", "--L", "inf", "--sigma2", "1"],
        ["bounds", "--P", "1", "--L", "1000000000.5", "--sigma2", "1"],
        ["bounds", "--P", "1", "--L", "9007199254740993", "--sigma2", "1"],  # 2^53 + 1
        ["bounds", "--P", "log:1:inf:3", "--L", "1", "--sigma2", "1"],
        ["regimes", "--P", "nan", "--L", "1", "--sigma2", "1"],
        ["gdof", "--alpha", "-1", "--beta", "0"],
        ["gdof", "--alpha", "0", "--beta", "nan"],
        ["riccati", "--x", "-1", "--ratio", "1"],
        ["riccati", "--x", "nan", "--ratio", "1"],
        ["riccati", "--x", "1", "--ratio", "0"],
        ["riccati", "--x", "1.7e308", "--ratio", "1.7e308"],  # J* overflows
        ["verify", "--seed", "-1", "--samples", "10000"],
        ["verify", "--tolerance-scale", "inf"],
        ["verify", "--tolerance-scale", "nan"],
        ["verify", "--tolerance-scale", "-1"],
        ["riccati", "--x", "1", "--ratio", "1", "--max-iter", "0"],
        ["riccati", "--x", "1"],
        ["bounds", "--P", "1", "--L", "1", "--sigma2", "1", "--threads", "2"],
        ["gdof", "--alpha", "0", "--beta", "0", "--seed", "1"],
        ["verify", "--units", "bits"],
        ["bounds", "--P", "1", "--L", "1", "--sigma", "1", "--unit", "bits"],  # prefixes
        ["riccati", "--x", "3", "--r", "1"],
    ])
    def test_out_of_domain_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("owpnlab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, line", [
        ("bounds", b"units=bogus"),
        ("bounds", b"seed=3"),
        ("bounds", b"threads=2"),
        ("verify", b"seed=abc"),
        ("verify", b"samples=1e5"),
        ("verify", b"threads=2"),
        ("verify", b"units=bits"),
        ("verify", b"tolerance_scale=x"),
        ("riccati", b"max_iter=x"),
        ("riccati", b"config=other.txt"),
        ("gdof", b"no equals sign"),
        ("gdof", b"\xff\xfe=1"),  # not UTF-8
    ])
    def test_bad_config_line_is_usage_error(self, command, line, tmp_path, capsys):
        base = {
            "bounds": ["--P", "1", "--L", "1", "--sigma2", "1"],
            "verify": [],
            "riccati": ["--x", "1", "--ratio", "1"],
            "gdof": ["--alpha", "0", "--beta", "0"],
        }[command]
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(line + b"\n")
        assert main([command, *base, "--config", str(cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("owpnlab: ") and captured.err.count("\n") == 1

    def test_log_range_count_capped_before_generation(self):
        assert main(["bounds", "--P", "log:1:10:99999999999", "--L", "1",
                     "--sigma2", "1"]) == EXIT_USAGE

    def test_grid_cap(self):
        assert main(["bounds", "--P", "log:1:10:500", "--L",
                     ",".join(str(i) for i in range(1, 200)),
                     "--sigma2", "log:0.1:10:200"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["bounds", "--P", "log:1:2:10000000", "--L", "1", "--sigma2", "log:1:2:10000000"],
        ["gdof", "--alpha", "log:1:2:10000000", "--beta", "log:1:2:10000000"],
        ["regimes", "--P", "1,2", "--L", "log:1:1e6:10000000", "--sigma2", "nan"],
    ])
    def test_grid_cap_before_any_axis_is_expanded(self, argv, capsys):
        # each axis is within the cap, the grid is not; a bad value too
        # leaves the exit code at 1
        codes = []
        peak = traced_peak_mib(lambda: codes.append(main(argv)))
        assert codes == [EXIT_USAGE]
        assert capsys.readouterr().err.startswith("owpnlab: grid size ")
        assert peak < 1.0


# Any argv over the five subcommands exits with a documented code and never
# raises.  One flag of a valid argv gets a drawn value or is left out.  Grids
# stay at most 3 x 3 x 3 and verify is always given fewer than 10000 samples,
# so no example starts a Monte Carlo run.
_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "-2,-1,0", "1e308", "5e-324", "0"]),
    st.sampled_from([
        "", ",", "abc", "1.5", "log:1:10:3", "log:0:1:2", "log:1:inf:2", "log:1:10",
        "log:1:10:0", "log:1e-300:1e300:3", "log:1:10:99999999999",
    ]),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=3)
    .map(lambda vs: ",".join(repr(v) for v in vs)),
    st.integers(min_value=-5, max_value=10**6).map(str),
    st.none(),
)


def _command(name, flags, extra=()):
    """A valid argv for one subcommand, `flags` mapping each flag to a valid
    value, with one flag given a drawn value or left out."""
    def build(choice):
        target, drawn = choice
        argv = [name, *extra]
        for flag, valid in flags.items():
            value = drawn if flag == target else valid
            if value is not None:
                argv += [flag, value]
        return argv

    return st.tuples(st.sampled_from(list(flags)), _VALUES).map(build)


_GRID = {"--P": "0,1,1e3", "--L": "1,4", "--sigma2": "0,0.5", "--units": "bits"}
_TABLES = [
    ("bounds", _GRID, ()),
    ("regimes", _GRID, ()),
    ("gdof", {"--alpha": "0,0.5", "--beta": "-1,0"}, ()),
    ("riccati", {"--x": "1", "--ratio": "2"}, ("--max-iter", "50")),
    ("verify", {"--seed": "1", "--tolerance-scale": "0"}, ("--samples", "9999")),
]
_ARGV = st.one_of(
    *(_command(name, flags, extra) for name, flags, extra in _TABLES),
    _command("bogus", {"--P": "1"}),
)


@pytest.mark.parametrize("name, flags, extra", _TABLES)
def test_valid_argv_tables_parse(name, flags, extra):
    # the base argv of each table parses, so drawn examples reach the command
    argv = [name, *extra]
    for flag, value in flags.items():
        argv += [flag, value]
    assert build_parser().parse_args(argv).command == name


@given(_ARGV)
@settings(max_examples=300, deadline=None)
def test_any_argv_exits_with_documented_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, EXIT_IO)


@pytest.mark.parametrize("alpha", ["log:1e-300:1.7e308:5", "log:1.7e308:1e-300:5"])
def test_log_range_at_the_float_range_ends_exits_ok(alpha):
    # the ratio of the endpoints overflows, or underflows, the float range
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gdof", "--alpha", alpha, "--beta", "0"])
    assert code == EXIT_OK and err.getvalue() == ""
    alphas = [float(line.split(",")[0]) for line in out.getvalue().splitlines()[1:]]
    assert len(alphas) == 5 and all(0.0 < a < math.inf for a in alphas)
    assert alphas == sorted(alphas)


# Over the whole float range every cell a bounds call prints is finite and
# both lower bounds lie below the outer bound.
_DECADES = st.floats(min_value=0.0, max_value=300.0).map(lambda e: 10.0**e)
_SIGMA2 = st.floats(min_value=-300.0, max_value=10.0).map(lambda e: 10.0**e)


@given(
    st.lists(st.one_of(_DECADES, st.just(0.0)), min_size=1, max_size=3),
    st.lists(st.sampled_from([1, 2, 16, 1000, 1000000, 2**53 - 1]), min_size=1, max_size=2),
    st.lists(st.one_of(_SIGMA2, st.sampled_from([5e-324, 1e-320, 1e-310])), min_size=1,
             max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_bounds_finite_and_sandwiched_or_refused(ps, ls, s2s):
    argv = ["bounds", "--P", ",".join(map(repr, ps)), "--L", ",".join(map(str, ls)),
            "--sigma2", ",".join(map(repr, s2s))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_OK and err.getvalue() == ""
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 + len(ps) * len(ls) * len(s2s)
    for line in lines[1:]:
        cells = np.array(line.split(",")[3:12], dtype=float)
        assert np.all(np.isfinite(cells)), line
        upper, pc, cc = cells[0], cells[3], cells[6]
        assert max(pc, cc) <= upper + 1e-9, line


def test_readme_lists_each_subcommands_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = {
        m.group(1): set(re.findall(r"`(--[\w-]+)`", m.group(2)))
        for m in re.finditer(r"^\| `(\w+)` \| (.*) \|$", readme, re.MULTILINE)
    }
    declared = {
        name: set(re.findall(r"\[(--[\w-]+)", sub.format_usage()))
        for name, sub in build_parser().commands.items()
    }
    assert listed == declared


def test_top_level_help_holds_no_developer_notes(capsys):
    # the help text says what the tool does; the module's implementation
    # notes, which name private identifiers such as _ROW_BLOCK, stay out
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert "verification" in text and "Exit codes" in text
    assert not re.findall(r"(?<![\w-])_\w+", text)
