"""The mc-oracles workload: acceptance criteria 4 and 6's Monte Carlo
cross-checks, called through the package's public functions, with their
numbers written as JSON for the benchmark's output check.

    PYTHONPATH=src python3 bench/mc_oracles.py --seed 1 --out r.json
"""

from __future__ import annotations

import argparse
import json
import math

from owpnlab import bounds, mioracle, model, sim

# (L, sigma2) of criterion 4 and (P, L, sigma2) of criterion 6
F_POINTS = ((2, 4.0 * math.log(2.0)), (4, 1.0), (16, 0.1))
MI_POINTS = ((20.0, 4, 0.5), (100.0, 1, 0.01))
# n_samples of every estimator call: the acceptance-scale budget
SAMPLES = 500_000


def run(seed: int) -> dict:
    moments = []
    for idx, (big_l, s2) in enumerate(F_POINTS):
        params = model.ChannelParams(1.0, big_l, s2)
        _, kappa, phi = model.derive_constants(params)
        est = sim.estimate_F_moments(params, SAMPLES, seed + idx)
        moments.append({
            "L": big_l, "sigma2": s2, "kappa": kappa, "phi": phi,
            "m2": est.m2.mean, "m2_se": est.m2.std_error,
            "re": est.mean_real.mean, "re_se": est.mean_real.std_error,
        })
    mis = []
    for idx, (p, big_l, s2) in enumerate(MI_POINTS):
        params = model.ChannelParams(p, big_l, s2)
        pc = bounds.lower_partially_coherent(params).rate_split
        amp = mioracle.amplitude_channel_mi(params, SAMPLES, seed + 100 + idx)
        phase = mioracle.phase_channel_mi(params, SAMPLES, seed + 200 + idx)
        mis.append({
            "P": p, "L": big_l, "sigma2": s2,
            "pc_amp": pc.amplitude_rate, "pc_phase": pc.phase_rate,
            "outer": bounds.upper_outer(params).total,
            "amp_mi": amp.value, "amp_se": amp.std_error,
            "phase_mi": phase.value, "phase_se": phase.std_error,
        })
    return {"moments": moments, "mi": mis}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
