import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import owpnlab


def test_public_names():
    names = owpnlab.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    for name in names:
        assert getattr(owpnlab, name) is not None, name
    for gone in ("FisherState", "riccati_step", "transmit", "sample_phase_path", "BoundKind",
                 "GdofFamily", "phase_rate_upper"):
        assert not hasattr(owpnlab, gone)


@pytest.mark.parametrize("fn, args", [
    (owpnlab.simulate_fading_integral, (math.nan, 8, 1000, 1)),
    (owpnlab.simulate_fading_integral, (math.inf, 8, 1000, 1)),
    (owpnlab.estimate_log_abs_sq, (math.nan, 1000, 1)),
    (owpnlab.estimate_log_abs_sq, (math.inf, 1000, 1)),
    (owpnlab.immse_entropy_quadrature, (math.nan,)),
    (owpnlab.immse_entropy_quadrature, (math.inf,)),
    (owpnlab.riccati_fixed_point, (math.nan, 1.0)),
    (owpnlab.riccati_fixed_point, (math.inf, 1.0)),
    (owpnlab.riccati_fixed_point, (1.0, math.nan)),
    (owpnlab.riccati_fixed_point, (1.0, math.inf)),
    (owpnlab.iterate_fixed_point, (math.nan, 1.0)),
    (owpnlab.iterate_fixed_point, (math.inf, 1.0)),
    (owpnlab.iterate_fixed_point, (1.0, math.nan)),
    (owpnlab.iterate_fixed_point, (1.0, math.inf)),
])
def test_non_finite_scalars_raise(fn, args):
    # at once, before any numerics: a nan passes a `< 0.0` check, and the
    # iteration would run max_iter steps on it
    with pytest.raises(ValueError):
        fn(*args)


def test_benchmark_entry_points(monkeypatch, tmp_path):
    # bench/ calls the package by name: every traced function must resolve, the
    # traced MC estimators must take n_samples, and the mc-oracles workload
    # must run and write its keys
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    for dotted in tracing.TRACED:
        module_name, fn_name = dotted.split(".")
        fn = getattr(importlib.import_module(f"owpnlab.{module_name}"), fn_name)
        assert callable(fn), dotted
        if dotted in tracing.MC_ESTIMATORS:
            assert "n_samples" in inspect.signature(fn).parameters, dotted
    # the steps tag reads result[1]
    j, steps = owpnlab.riccati.iterate_fixed_point(3.0, 1.0)
    assert type(j) is float and type(steps) is int

    mc_oracles = importlib.import_module("mc_oracles")
    monkeypatch.setattr(mc_oracles, "SAMPLES", 20_000)
    out = tmp_path / "r.json"
    assert mc_oracles.main(["--seed", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == {"moments", "mi"}
    assert len(result["moments"]) == len(mc_oracles.F_POINTS)
    assert len(result["mi"]) == len(mc_oracles.MI_POINTS)
    for row in result["moments"]:
        assert set(row) == {"L", "sigma2", "kappa", "phi", "m2", "m2_se", "re", "re_se"}
    for row in result["mi"]:
        assert set(row) == {"P", "L", "sigma2", "pc_amp", "pc_phase", "outer",
                            "amp_mi", "amp_se", "phase_mi", "phase_se"}
        assert all(math.isfinite(v) for v in row.values())


def test_only_the_engine_draws():
    # every normal and every gamma is drawn by sim._row_blocks from a
    # generator of sim.substream, the one place that makes a bit generator,
    # which only sim._chunks calls, and only sim._row_blocks walks the
    # chunks, so every estimator shares one draw layout and one key
    calls = {"standard_normal": set(), "standard_gamma": set(), "SFC64": set(),
             "substream": set(), "_chunks": set()}
    for path in sorted(Path(owpnlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in calls:
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                calls[name].add(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert calls == {
        "standard_normal": {"sim._row_blocks"},
        "standard_gamma": {"sim._row_blocks"},
        "SFC64": {"sim.substream"},
        "substream": {"sim._chunks"},
        "_chunks": {"sim._row_blocks"},
    }


def test_cli_import_loads_no_sampler_and_no_bin_edges():
    # The grid subcommands draw nothing and bin nothing: `import owpnlab.cli`
    # must not load numpy.random, which only sim.substream reaches, nor
    # owpnlab._amplitude_bins, which amplitude_channel_mi imports when called.
    # In a fresh interpreter (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6, one
    # pinned CPU, medians of 15), importing numpy.random too raised the peak
    # RSS by 5.6 MB (3.3 MB of it from `secrets`, which loads OpenSSL) and the
    # import time by about 10 ms; importing _amplitude_bins too added about
    # 0.1 MB and 1-3 ms.
    code = ("import sys, owpnlab.cli; "
            "print(sorted({'numpy.random', 'owpnlab._amplitude_bins'} & set(sys.modules)))")
    paths = [str(Path(owpnlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120, check=False)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
