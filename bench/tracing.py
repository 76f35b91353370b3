"""Traced invocation and per-layer metrics.

Child mode runs one workload invocation in this (fresh) interpreter with the
package's public functions wrapped from outside, keeps one span per call in
memory (name, start, end, parent span, tag, raised) and writes them out at
exit:

    PYTHONPATH=src python3 bench/tracing.py SPANS.npz owpnlab bounds --P 1 ...
    PYTHONPATH=src python3 bench/tracing.py SPANS.npz mc-oracles --seed 1 ...

The parent calls `layer_metrics` on the span file.  A layer's self time is
its spans' durations minus the part covered by their child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Wrapped public functions, as "<module>.<function>" of the owpnlab package.
TRACED = (
    "cli.main",
    "cli.parse_axis",
    "model.derive_constants",
    "bounds.upper_outer",
    "bounds.lower_partially_coherent",
    "bounds.lower_coherent_combining",
    "riccati.crb_argument",
    "riccati.iterate_fixed_point",
    "riccati.immse_entropy_quadrature",
    "gdof.gdof_outer",
    "gdof.gdof_inner_pc",
    "gdof.gdof_inner_cc",
    "gdof.gdof_inner_combined",
    "gdof.gdof_exact_if_known",
    "sim.simulate_fading_integral",
    "sim.estimate_F_moments",
    "sim.estimate_log_abs_sq",
    "mioracle.amplitude_channel_mi",
    "mioracle.phase_channel_mi",
    "mioracle.histogram_mi",
)
GDOF_REGIONS = TRACED[9:14]
MC_ESTIMATORS = TRACED[14:19]

# derive_constants tag bits
_HIT = 1  # the process had seen this L before
_NEW_SERIES_L = 2  # series branch (L >= 2, 0 < sigma2 <= 1) with an L it had not


class Tracer:
    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.tag = array("q")
        self.raised = array("b")
        self._stack = [-1]

    def wrap(self, name_id: int, fn, pre_tag=None, post_tag=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.tag.append(pre_tag(args, kwargs) if pre_tag else 0)
            self.raised.append(0)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if post_tag:
                self.tag[idx] = post_tag(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(TRACED), name=self.name, start=self.start, end=self.end,
                 parent=self.parent, tag=self.tag, raised=self.raised)


def _derive_constants_tag():
    seen: set[int] = set()
    seen_series: set[int] = set()

    def tag(args, kwargs):
        params = args[0] if args else kwargs["params"]
        big_l, s2 = params.oversampling, params.freq_noise_var
        flags = _HIT if big_l in seen else 0
        seen.add(big_l)
        if big_l >= 2 and 0.0 < s2 <= 1.0 and big_l not in seen_series:
            seen_series.add(big_l)
            flags |= _NEW_SERIES_L
        return flags

    return tag


def _n_samples_tag(fn):
    import inspect

    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments["n_samples"]


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function wherever the package binds it by name: its
    own module, modules that import it with `from ... import`, and the
    package namespace."""
    import importlib

    import owpnlab.cli  # noqa: F401 - imports every module that binds a traced name

    modules = [m for key, m in sys.modules.items() if key == "owpnlab" or key.startswith("owpnlab.")]
    for name_id, dotted in enumerate(TRACED):
        module_name, fn_name = dotted.split(".")
        fn = getattr(importlib.import_module(f"owpnlab.{module_name}"), fn_name)
        pre = post = None
        if dotted == "model.derive_constants":
            pre = _derive_constants_tag()
        elif dotted == "riccati.iterate_fixed_point":
            post = lambda result: result[1]  # noqa: E731 - steps
        elif dotted in MC_ESTIMATORS:
            pre = _n_samples_tag(fn)
        traced = tracer.wrap(name_id, fn, pre, post)
        for module in modules:
            if getattr(module, fn_name, None) is fn:
                setattr(module, fn_name, traced)


def child_main(argv: list[str]) -> int:
    spans_path, program, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        if program == "owpnlab":
            import owpnlab.cli

            return owpnlab.cli.main(args)
        import mc_oracles

        return mc_oracles.main(args)
    finally:
        tracer.save(spans_path)


# ---------------------------------------------------------------------------
# parent side


def layer_metrics(spans_path: str) -> dict[str, float]:
    """Per-layer counts and self times from one traced invocation.  Layers the
    invocation never called report 0."""
    with np.load(spans_path) as d:
        names = [str(n) for n in d["names"]]
        name, start, end, parent, tag, raised = (d[k] for k in ("name", "start", "end", "parent", "tag", "raised"))
    dur = (end - start) / 1e9
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_s = dur - covered
    ids = {n: i for i, n in enumerate(names)}

    def sel(*fns: str) -> np.ndarray:
        return np.isin(name, [ids[f] for f in fns])

    def calls(*fns: str) -> int:
        return int(np.count_nonzero(sel(*fns)))

    def self_of(*fns: str) -> float:
        return float(self_s[sel(*fns)].sum())

    def tag_sum(fn: str) -> int:
        # n_samples for the MC estimators, steps for iterate_fixed_point
        return int(tag[sel(fn)].sum())

    def errors(module: str) -> int:
        return int(raised[sel(*[f for f in names if f.startswith(module + ".")])].sum())

    def per_1e5(fn: str) -> float:
        n = tag_sum(fn)
        return self_of(fn) / n * 1e5 if n else 0.0

    dc = sel("model.derive_constants")
    dc_calls = int(np.count_nonzero(dc))
    new_l = dc & ((tag & _NEW_SERIES_L) != 0)
    m: dict[str, float] = {
        "model.derive_constants.calls": dc_calls,
        "model.derive_constants.self_s": self_of("model.derive_constants"),
        "model.derive_constants.hit_frac":
            int(np.count_nonzero(dc & ((tag & _HIT) != 0))) / dc_calls if dc_calls else 0.0,
        "model.derive_constants.errors": errors("model"),
        "model.derive_constants.new_L_calls": int(np.count_nonzero(new_l)),
        "model.derive_constants.new_L_self_s": float(self_s[new_l].sum()),
    }
    for fn in ("bounds.upper_outer", "bounds.lower_partially_coherent", "bounds.lower_coherent_combining"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.self_s"] = self_of(fn)
    m["bounds.errors"] = errors("bounds")
    m.update({
        "riccati.crb_argument.calls": calls("riccati.crb_argument"),
        "riccati.crb_argument.self_s": self_of("riccati.crb_argument"),
        "riccati.iterate_fixed_point.calls": calls("riccati.iterate_fixed_point"),
        "riccati.iterate_fixed_point.self_s": self_of("riccati.iterate_fixed_point"),
        "riccati.iterate_fixed_point.steps": tag_sum("riccati.iterate_fixed_point"),
        "riccati.immse_entropy_quadrature.self_s": self_of("riccati.immse_entropy_quadrature"),
        "riccati.errors": errors("riccati"),
        "gdof.regions.calls": calls(*GDOF_REGIONS),
        "gdof.regions.self_s": self_of(*GDOF_REGIONS),
        "gdof.errors": errors("gdof"),
    })
    for fn in ("sim.simulate_fading_integral", "sim.estimate_F_moments",
               "mioracle.amplitude_channel_mi", "mioracle.phase_channel_mi"):
        m[f"{fn}.samples"] = tag_sum(fn)
        m[f"{fn}.self_s"] = self_of(fn)
        m[f"{fn}.s_per_1e5"] = per_1e5(fn)
    m.update({
        "sim.estimate_log_abs_sq.self_s": self_of("sim.estimate_log_abs_sq"),
        "sim.errors": errors("sim"),
        "mioracle.histogram_mi.self_s": self_of("mioracle.histogram_mi"),
        "mioracle.errors": errors("mioracle"),
        "cli.main.wall_s": float(dur[sel("cli.main")].sum()),
        "cli.self_s": self_of("cli.main"),
        "cli.parse_axis.self_s": self_of("cli.parse_axis"),
        "mc.samples": sum(tag_sum(fn) for fn in MC_ESTIMATORS),
    })
    return m


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
