"""Limit-shape convergence at desk scale.

For the three conjugacy-invariant regimes the pilot manifest calibrates
(``experiments.PILOT_REGIMES``), runs a geometric ladder of sizes and
tabulates the mean sup distance between the rescaled profile and the limit
curve with the matching fixed-point fraction. The means should fall roughly
like a power of n; the pilot manifest freezes thresholds from exactly this
kind of run.

Usage: python demos/02_limit_shape_convergence.py [--trials 20] [--seed 7]
"""

import argparse

from permshape.experiments import PILOT_LADDER, PILOT_REGIMES, ExperimentConfig, run_experiment


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ladder", default=",".join(map(str, PILOT_LADDER)))
    args = parser.parse_args()
    ladder = tuple(int(x) for x in args.ladder.split(","))

    print(f"{'regime':20s}" + "".join(f"  n={n:<8d}" for n in ladder))
    for name, regime in PILOT_REGIMES.items():
        cfg = ExperimentConfig(
            regime=regime, n_ladder=ladder, trials=args.trials, seed=args.seed,
            measurements=("shape_distance",),
        )
        _, summary = run_experiment(cfg)
        means = [summary.get(n, "shape_distance").mean for n in ladder]
        print(f"{name:20s}" + "".join(f"  {m:<10.5f}" for m in means))
    print("\nmean sup distance per rung; each row should decrease left to right")


if __name__ == "__main__":
    main()
