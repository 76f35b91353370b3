"""The CSV products across numpy's CPU dispatch.

numpy picks its SIMD loops at import, from the CPU it finds, and
``NPY_DISABLE_CPU_FEATURES`` turns dispatch targets off for one process.
Each test starts one child interpreter with a target off, set in the child's
environment only, and runs the commands in it in-process.  `verify` and
`gdof` must print the same bytes; `bounds` may move in its last digits,
because numpy's SIMD `exp`/`log`/`expm1`/`log1p`/`power` differ by 1 ulp.
"""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import owpnlab
from owpnlab.cli import EXIT_OK, main
from test_cli import GDOF_PINS

GOLDEN = Path(__file__).parent / "golden" / "verify_seed42.csv"
VERIFY_ARGV = ["verify", "--seed", "42"]
# bounds cells with X86_V4 off against the default dispatch, relative; fixed
# before the test was written, at about 10 times the largest change measured
# (1.1e-14)
BOUNDS_REL = 1e-13

# Runs each argv of a JSON list read from stdin and writes [exit code, stdout]
# for each as a JSON list.
_CHILD = """
import contextlib, io, json, sys
from owpnlab.cli import main
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        results.append([main(argv), out.getvalue()])
json.dump(results, sys.stdout)
"""


def _simd_extensions() -> dict:
    # np.show_runtime()'s 'simd_extensions', read as bench/run.py reads it
    text = io.StringIO()
    with contextlib.redirect_stdout(text), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        np.show_runtime()
    match = re.search(r"'simd_extensions': (\{[^{}]*\})", text.getvalue())
    return ast.literal_eval(match.group(1)) if match else {}


SIMD = _simd_extensions()
TARGETS = [*SIMD.get("found", []), *SIMD.get("not_found", [])]


def _run_without(target: str, argvs: list[list[str]]) -> list[tuple[int, str]]:
    # each argv's exit code and stdout, in one child with `target` turned off
    if target not in SIMD.get("found", []):
        pytest.skip(f"numpy found no {target} on this host")
    paths = [str(Path(owpnlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=target,
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs), env=env,
                           capture_output=True, text=True, timeout=120, check=False)
    assert child.returncode == 0, child.stderr
    return [tuple(result) for result in json.loads(child.stdout)]


@pytest.mark.parametrize("target", TARGETS or [pytest.param("none", marks=pytest.mark.skip(
    reason="numpy reports no dispatch target on this host"))])
def test_verify_and_gdof_bytes_with_a_target_off(target):
    results = _run_without(target, [VERIFY_ARGV, *(argv for argv, _ in GDOF_PINS)])
    (code, verify), *gdof = results
    assert code == EXIT_OK
    assert verify == GOLDEN.read_text(encoding="utf-8")
    for (argv, digest), (code, text) in zip(GDOF_PINS, gdof):
        assert code == EXIT_OK
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, argv[:2]


def test_bounds_cells_with_x86_v4_off(monkeypatch):
    # the bounds-grid benchmark argv for seed 1: 28,000 rows
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    argv = list(importlib.import_module("workloads").make("bounds-grid", 1).argv)
    [(code, moved)] = _run_without("X86_V4", [argv])
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        assert main(argv) == EXIT_OK
    assert code == EXIT_OK
    want, got = here.getvalue().splitlines(), moved.splitlines()
    assert len(got) == len(want) == 28_001 and got[0] == want[0]
    for line_want, line_got in zip(want[1:], got[1:]):
        cells_want, cells_got = line_want.split(","), line_got.split(",")
        # the axis cells and units are the same text
        assert cells_got[:3] + cells_got[12:] == cells_want[:3] + cells_want[12:]
        for a, b in zip(map(float, cells_got[3:12]), map(float, cells_want[3:12])):
            assert abs(a - b) <= BOUNDS_REL * abs(b), (line_want, line_got)
