"""owpnlab benchmark: end-to-end metrics of one workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload bounds-grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it builds nothing, and runs the package from
`src/`.  Every invocation is a fresh interpreter at the default `--threads 1`.
With `--trace 0` each round runs bench/reference.py, one set-up sample and
one untraced invocation, and the run reports wall time relative to the
reference, set-up time and peak memory (plus raw wall time and throughput in
the report); with `--trace 1` each round runs one untraced and one traced
invocation and reports the per-layer metrics.  Each output is checked; a
failed check or a non-zero exit counts in `failed`.  `--workload all`
interleaves every workload round by round.

The report goes to stdout; its last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Metric names and units are
the ones in BENCHMARK.json.  Exit code 2 means the checkout is unusable, and
then no result is printed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up samples are spread over the run, one in each round, so that a slow
# spell of the host touches only some of them.
SETUP_MIN = 8
# Timings that must be steady are divided by the wall time of reference.py
# measured next to them.  setup_s is that ratio times this nominal reference
# time, i.e. seconds on a host where reference.py takes 0.5 s.
REF_NOMINAL_S = 0.5
# Units of the report's metrics that BENCHMARK.json does not list.
REPORT_UNITS = {"wall_s": "s", "work_per_s": "1/s", "oracle_err_max": "rel"}
# Invocations are killed after this, leaving room under the 180 s a
# single-workload run may take for the checks after the last one.
HARD_LIMIT_S = 150.0


@dataclass
class Outcome:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    output: str


@dataclass
class Record:
    """Everything one workload's invocations produced in this run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    around: list[tuple[float, float]] = field(default_factory=list)  # references before and after
    layers: list[dict] = field(default_factory=list)
    overhead: list[float] = field(default_factory=list)
    output: str = ""

    def add(self, outcome: Outcome, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        self.output = outcome.output


class Spawner:
    """Runs children through bench/spawn.py, started while this process is
    still small: a child's ru_maxrss counts the memory of its forking parent."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], out_path: Path, timeout: float) -> Outcome:
        out_path.unlink(missing_ok=True)
        self.proc.stdin.write(json.dumps({"cmd": cmd, "timeout": max(timeout, 0.1)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        try:
            output = out_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            output = ""
        return Outcome(reply["returncode"], reply["wall_s"], reply["maxrss_kb"] / 1024.0, output)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def program_argv(w) -> tuple[list[str], str]:
    """The child's argv after the interpreter, and the traced-mode program name."""
    if w.name == "mc-oracles":
        return [str(BENCH / "mc_oracles.py"), *w.argv], "mc-oracles"
    return ["-m", "owpnlab.cli", *w.argv], "owpnlab"


def environment() -> dict:
    import numpy as np

    text = io.StringIO()
    with contextlib.redirect_stdout(text), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        np.show_runtime()
    match = re.search(r"'simd_extensions': (\{[^{}]*\})", text.getvalue())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd": ast.literal_eval(match.group(1)) if match else None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


class SetupTimer:
    """Times fresh interpreters importing owpnlab.cli, each paired with the
    reference time measured just before it.  The first import is not timed:
    it leaves the bytecode cache warm, as later runs find it."""

    def __init__(self, spawner: Spawner, out_path: Path, deadline: float) -> None:
        self.spawner, self.out_path, self.deadline = spawner, out_path, deadline
        self.times: list[float] = []
        self.refs: list[float] = []
        self.problems: list[str] = []
        self._run()

    def sample(self, n: int, ref: float) -> None:
        for _ in range(n if not self.problems else 0):
            wall = self._run()
            if wall is None:
                return
            self.times.append(wall)
            self.refs.append(ref)

    def seconds(self) -> float:
        """Median set-up time in seconds at the reference speed."""
        return statistics.median(t / r for t, r in zip(self.times, self.refs)) * REF_NOMINAL_S

    def _run(self) -> float | None:
        outcome = self.spawner.run([sys.executable, "-c", "import owpnlab.cli"], self.out_path,
                                   self.deadline - time.perf_counter())
        if outcome.returncode != 0:
            self.problems.append(f"import owpnlab.cli exited with {outcome.returncode}")
            return None
        return outcome.wall_s


def reference(spawner: Spawner, out: Path, deadline: float) -> float:
    ref = spawner.run([sys.executable, str(BENCH / "reference.py")], out, deadline - time.perf_counter())
    if ref.returncode != 0:
        raise RuntimeError(f"bench/reference.py exited with {ref.returncode}")
    return ref.wall_s


def run_rounds(spawner: Spawner, names, seed, seconds, trace, setup: SetupTimer | None, tmp: Path,
               deadline: float) -> dict[str, Record]:
    import workloads
    from tracing import layer_metrics

    loads = {name: workloads.make(name, seed) for name in names}
    records = {name: Record() for name in names}
    budget = seconds * len(names)
    rounds = []
    # Children run as reference, set-up sample, invocation, reference, ... so
    # that every invocation lies between two references, also with --workload
    # all, where the reference after one workload's invocation is the one
    # before the next workload's.
    ref = None if trace else reference(spawner, tmp / "ref.out", deadline)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for name, w in loads.items():
            rec = records[name]
            out = tmp / f"{name}.out"
            args, program = program_argv(w)
            if not trace:
                setup.sample(1, ref)
            untraced = spawner.run([sys.executable, *args, "--out", str(out)], out, deadline - time.perf_counter())
            rec.add(untraced, workloads.check(w, untraced.returncode, untraced.output))
            rec.wall.append(untraced.wall_s)
            rec.rss.append(untraced.peak_rss_mb)
            if not trace:
                after = reference(spawner, out, deadline)
                rec.around.append((ref, after))
                ref = after
            else:
                spans = tmp / f"{name}.spans.npz"
                spans.unlink(missing_ok=True)
                traced = spawner.run([sys.executable, str(BENCH / "tracing.py"), str(spans), program,
                                 *w.argv, "--out", str(out)], out, deadline - time.perf_counter())
                problems = workloads.check(w, traced.returncode, traced.output)
                if spans.exists():
                    layers = layer_metrics(str(spans))
                    spans.unlink()
                    if layers["mc.samples"] != w.samples:
                        problems.append(f"traced MC budget {layers['mc.samples']} differs from the "
                                        f"{w.samples} that samples_per_s assumes (workloads.py)")
                    layers["cli.rows"] = max(traced.output.count("\n") - 1, 0) if program == "owpnlab" else 0
                    layers["cli.out_bytes"] = len(traced.output.encode()) if program == "owpnlab" else 0
                    rows = layers["cli.rows"]
                    layers["gdof.regions.us_per_point"] = (
                        layers["gdof.regions.self_s"] / rows * 1e6 if layers["gdof.regions.calls"] else 0.0)
                    rec.layers.append(layers)
                    rec.overhead.append(traced.wall_s - untraced.wall_s)
                else:
                    problems.append("traced run wrote no spans")
                rec.add(traced, problems)
        now = time.perf_counter()
        rounds.append(now - round_start)
        if now - start + statistics.median(rounds) > budget or now + statistics.median(rounds) > deadline:
            if setup:
                setup.sample(SETUP_MIN - len(setup.times), ref)
            return records


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(w, rec: Record, setup: SetupTimer) -> dict[str, float]:
    wall = statistics.median(rec.wall)
    return {
        # each invocation against the references just before and just after it
        "wall_ref": statistics.median(t / ((a + b) / 2) for t, (a, b) in zip(rec.wall, rec.around)),
        "wall_s": wall,
        "setup_s": setup.seconds() if setup.times else 0.0,
        "work_per_s": w.work / wall,
        "peak_rss_mb": statistics.median(rec.rss),
    }


def per_layer(rec: Record, oracle: dict | None) -> dict[str, float]:
    # "mc.samples" only checks the MC budget behind samples_per_s
    out = {key: statistics.median(d[key] for d in rec.layers) for key in rec.layers[0] if key != "mc.samples"}
    out["trace.overhead_s"] = statistics.median(rec.overhead)
    out["oracle_err_max"] = oracle["oracle_err_max"] if oracle else 0.0
    out["model.derive_constants.oracle_err_max"] = oracle["derive_constants"] if oracle else 0.0
    return out


def print_report(w, rec: Record, setup, metrics: dict, units: dict, oracle: dict | None, trace: bool) -> None:
    n = len(rec.wall)
    print(f"== {w.name} (seed {w.seed}): {rec.attempted} invocations, {rec.failed} failed, "
          f"failed_frac {rec.failed / max(rec.attempted, 1):.3g}")
    for problem in rec.problems[:5]:
        print(f"   FAILED CHECK: {problem}")
    if not trace:
        q1, q3 = quartiles(rec.wall)
        notes = {
            "wall_ref": f"median over invocations of wall / bench/reference.py wall around it "
                        f"(reference median {statistics.median(a for a, _ in rec.around):.4g} s)",
            "wall_s": f"median of {n} (quartiles {q1:.4g} .. {q3:.4g}); walls {[round(t, 3) for t in rec.wall]}, "
                      f"references before {[round(a, 3) for a, _ in rec.around]}",
            "setup_s": f"median of {len(setup.times)} imports of owpnlab.cli at the reference speed "
                       f"(raw median {statistics.median(setup.times) if setup.times else 0.0:.4g} s)",
            "work_per_s": f"{w.work_unit}_per_s: {w.work} {w.work_unit} / wall_s",
            "peak_rss_mb": f"median of {n}; ru_maxrss of the child",
        }
    else:
        notes = {"mioracle.phase_channel_mi.self_s": "includes its binning: it calls private _plugin_mi",
                 "trace.overhead_s": "traced minus untraced wall, median of pairs"}
    shown = dict(metrics)
    if oracle:
        shown.setdefault("oracle_err_max", oracle["oracle_err_max"])
        notes["oracle_err_max"] = (f"worst of {oracle['rows']} rows x 9 cells vs tests/_oracles.py, "
                                   f"at {oracle['where']}")
    for key, value in shown.items():
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"   {key:44s} {text:14s} {units[key]:6s} {notes.get(key, '')}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/owpnlab/cli.py", "tests/_oracles.py", "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not an owpnlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    with contextlib.closing(Spawner()) as spawner:
        # numpy and the package are imported only now that the spawner runs
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        import workloads

        if args.workload not in (*workloads.WORKLOADS, "all"):
            parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        deadline = time.perf_counter() + max(HARD_LIMIT_S, args.seconds * len(names) + 30.0)
        print("env " + json.dumps(environment()))
        with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
            setup = None if args.trace else SetupTimer(spawner, Path(tmp) / "setup.out", deadline)
            records = run_rounds(spawner, names, args.seed, args.seconds, args.trace, setup, Path(tmp), deadline)
    setup_problems = setup.problems if setup else []
    correct = not setup_problems
    attempted = failed = 0
    result: dict[str, dict] = {}
    for problem in setup_problems:
        print(f"FAILED: {problem}")
    for name, rec in records.items():
        w = workloads.make(name, args.seed)
        attempted += rec.attempted
        failed += rec.failed
        correct &= rec.failed == 0 and (not args.trace or bool(rec.layers))
        # only an output that passed its check has the cells the oracle reads
        passed = rec.output and rec.failed == 0
        oracle = workloads.oracle_errors(w, rec.output) if passed and w.name.startswith("bounds") else None
        if args.trace and not rec.layers:
            print(f"== {name}: no traced invocation finished")
            continue
        metrics = per_layer(rec, oracle) if args.trace else end_to_end(w, rec, setup)
        print_report(w, rec, setup, metrics, {**REPORT_UNITS, **units}, oracle,
                     bool(args.trace))
        prefix = f"{name}:" if args.workload == "all" else ""
        result.update({prefix + k: {"value": metrics[k], "unit": units[k]} for k in units})
    print("env loadavg_end " + json.dumps(list(os.getloadavg())))
    print(json.dumps({"correct": bool(correct), "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
