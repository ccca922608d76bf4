#!/usr/bin/env python3
"""Heterogeneous formation benchmark: the hierarchical gain is designed as
if the agents were identical, then deployed on agents with perturbed
damping and mass. Reports the relative cost gap per seed and its median."""

import argparse

import numpy as np

from hlqr.bench import BenchConfig, run_bench


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--hetero", type=float, default=0.5,
                    help="half-width of the damping/mass perturbation")
    ap.add_argument("--seeds", type=int, nargs="+", default=[100])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    gaps = []
    for seed in args.seeds:
        config = BenchConfig(N=args.n, seed=seed, hetero=args.hetero, out=args.out)
        report = run_bench(config)
        print(report.to_csv(), end="")
        mb, hrl = report.rows
        if mb.status == "ok" and hrl.status == "ok":
            gap = (hrl.J - mb.J) / mb.J
            gaps.append(gap)
            print(f"# seed {seed}: rel cost gap {gap:.3%}")
    if len(gaps) > 1:
        print(f"# median over {len(gaps)} seeds: {np.median(gaps):.3%}")


if __name__ == "__main__":
    main()
