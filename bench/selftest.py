"""Checker self-test: each workload's output check must pass the program's
real output and reject three corruptions of it.

    python3 bench/selftest.py

  perturbed digit  the leading significant digit of one seed-chosen value,
                   once in each column the check pins down completely
  dropped row      one seed-chosen data row (mc-oracles: one MI point) removed
  non-zero exit    the real output, reported with exit code 1

Prints one line per case and exits 1 if any check passes a corrupted output
or fails the real one.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, program_argv

# The workloads' inputs and the corrupted cells are drawn from this seed.
SEED = 1

# Columns whose every cell the check pins: a changed leading digit there is
# always rejected.  Other columns are only bounded by inequalities.
PINNED = {
    "bounds-grid": ("P", "L", "sigma2", "upper_total", "pc_total", "cc_total"),
    "bounds-new-L": ("P", "L", "sigma2", "upper_total", "pc_total", "cc_total"),
    "gdof-grid": ("alpha", "beta", "d_inner_combined"),
    "verify": ("measured", "expected", "deviation"),
    "mc-oracles": ("kappa", "phi", "m2", "re"),
}


def perturb_digit(cell: str) -> str:
    match = re.search(r"[1-9]", cell)
    if match is None:  # an all-zero cell such as "0"
        return cell.replace("0", "1", 1)
    i = match.start()
    return cell[:i] + str(int(cell[i]) % 9 + 1) + cell[i + 1:]


def corrupt_csv(text: str, column: str, rng: random.Random) -> str:
    lines = text.split("\n")
    col = lines[0].split(",").index(column)
    row = rng.randrange(1, len(lines) - 1)
    cells = lines[row].split(",")
    cells[col] = perturb_digit(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def drop_csv_row(text: str, rng: random.Random) -> str:
    lines = text.split("\n")
    del lines[rng.randrange(1, len(lines) - 1)]
    return "\n".join(lines)


def corrupt_json(text: str, key: str, rng: random.Random) -> str:
    result = json.loads(text)
    entry = rng.choice(result["moments"])
    entry[key] = float(perturb_digit(repr(entry[key])))
    return json.dumps(result)


def drop_json_point(text: str, rng: random.Random) -> str:
    result = json.loads(text)
    del result["mi"][rng.randrange(len(result["mi"]))]
    return json.dumps(result)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    ok = True

    def expect(name: str, case: str, problems: list[str], should_fail: bool) -> None:
        nonlocal ok
        good = bool(problems) == should_fail
        ok &= good
        verdict = ("rejected" if problems else "accepted") + ("" if good else "  <-- WRONG")
        print(f"{name:13s} {case:34s} {verdict:10s} {problems[0] if problems else ''}")

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        for name in workloads.WORKLOADS:
            w = workloads.make(name, SEED)
            rng = random.Random(f"selftest/{name}/{SEED}")
            out = Path(tmp) / "out"
            cmd = [sys.executable, *program_argv(w)[0], "--out", str(out)]
            rc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=170, check=False).returncode
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            expect(name, "real output", workloads.check(w, rc, text), False)
            is_json = name == "mc-oracles"
            for column in PINNED[name]:
                bad = corrupt_json(text, column, rng) if is_json else corrupt_csv(text, column, rng)
                expect(name, f"perturbed digit in {column}", workloads.check(w, rc, bad), True)
            bad = drop_json_point(text, rng) if is_json else drop_csv_row(text, rng)
            expect(name, "dropped row", workloads.check(w, rc, bad), True)
            expect(name, "non-zero exit", workloads.check(w, 1, text), True)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
