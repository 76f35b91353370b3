"""Fixed reference program: the yardstick for this host's speed.

The benchmark runs it in a fresh interpreter between workload invocations
and reports each invocation's wall time in units of the reference runs just
before and after it (`wall_ref`).  On a shared virtual machine the speed of
a vCPU can drift by 20-30% within seconds to minutes; both programs drift
together, so the ratio is steadier than either time.  It never imports
owpnlab, so no change to the package can move it.  Its three parts follow
the workloads: small frozen dataclasses with validation and branchy
piecewise arithmetic, as in the GDoF regions; scalar float math and decimal
formatting, as in the bounds grids; numpy normal draws, cumulative sums and
complex exponentials, as in the Monte Carlo oracles.

    python3 bench/reference.py
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("non-finite point")


def _piecewise(p: _Point) -> float:
    branches = []
    if p.b >= min(p.a, 1.0):
        branches.append(0.0)
    if p.a <= 1.0 and 2.0 * p.a - 1.0 <= p.b <= p.a:
        branches.append((p.a - p.b) / 2.0)
    if -1.0 <= p.b <= min(2.0 * p.a - 1.0, 1.0):
        branches.append((1.0 - p.b) / 4.0)
    if p.b <= -1.0:
        branches.append(0.5)
    return max(branches) if branches else 0.0


def main() -> None:
    total = 0.0
    for i in range(40_000):
        total += _piecewise(_Point((i % 300) / 100.0, (i % 401) / 100.0 - 2.0))
    cells = []
    for i in range(1, 60_001):
        x = math.log(i + 2.0) + 0.5 * math.sqrt(i / 7.0) - math.exp(-i / 9e4)
        cells.append(format(x, ".17g"))
    if total <= 0.0 or len(",".join(cells)) < 60_000:
        raise SystemExit(1)
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
    paths = np.cumsum(rng.normal(0.0, 0.03, size=(600, 2000)), axis=1)
    if not np.isfinite(np.mean(np.exp(1j * paths))):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
