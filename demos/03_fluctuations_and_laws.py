"""Fluctuation classes and laws of large numbers for monotone subsequences.

Three exhibits:
  1. Rescaled row counts from cycle-sparse ensembles (one long cycle vs
     uniform) share a limit law; the two-sample KS distance is small.
  2. Involution ensembles: the rescaled row count of a perfect matching
     looks like that of a uniform involution (same universality class),
     while the rescaled first row of a matching sits visibly lower - a
     different class. Sample means tell the story.
  3. The theta-log regime: many fixed points, one long cycle. The row count
     obeys ell / sqrt(n - m) -> 2 and the first row tracks the planted
     fixed points: lambda1 * log(n) / (theta n) -> 1.

Usage: python demos/03_fluctuations_and_laws.py [--trials 300] [--n 2000]
"""

import argparse

import numpy as np

from permshape.experiments import (
    ExperimentConfig,
    ks_two_sample,
    lambda2_window,
    rescale_statistic,
    run_experiment,
)
from permshape.samplers import RegimeSpec


def tw_sample(regime, mode, n, trials, seed):
    cfg = ExperimentConfig(regime=regime, n_ladder=(n,), trials=trials, seed=seed,
                           measurements=("ell", "lambda1"))
    records, _ = run_experiment(cfg)
    return np.array([rescale_statistic(r, mode) for r in records])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=123)
    args = parser.parse_args()
    n, trials, seed = args.n, args.trials, args.seed

    print("1. cycle-sparse ensembles, centered row count (tw2 rescaling)")
    a = tw_sample(RegimeSpec(ensemble="n_cycle"), "tw2", n, trials, seed)
    b = tw_sample(RegimeSpec(ensemble="uniform"), "tw2", n, trials, seed + 1)
    print(f"   one long cycle: mean {a.mean():+.3f}   uniform: mean {b.mean():+.3f}"
          f"   KS distance {ks_two_sample(a, b):.3f}")

    print("2. involution ensembles (tw1 rescaling of the row count)")
    c = tw_sample(RegimeSpec(ensemble="uniform_involution"), "tw1", n, trials, seed + 2)
    matching = RegimeSpec(ensemble="composite", core="fpf_involution", fix_rule="constant", c=1)
    d = tw_sample(matching, "tw1", n, trials, seed + 3)
    e = tw_sample(matching, "tw4", n, trials, seed + 3)
    print(f"   uniform involutions ell: mean {c.mean():+.3f}   matchings ell: mean {d.mean():+.3f}"
          f"   KS {ks_two_sample(c, d):.3f}")
    print(f"   matchings lambda1 (tw4 rescaling): mean {e.mean():+.3f} - a lower, distinct class")

    print("3. theta-log regime laws of large numbers (n=20000, 40 trials)")
    regime = RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="theta_log", theta=1.0)
    cfg = ExperimentConfig(regime=regime, n_ladder=(20_000,), trials=40, seed=seed + 4,
                           measurements=("ell", "lambda1", "lambda2"))
    records, _ = run_experiment(cfg)
    lln = np.mean([rescale_statistic(r, "lln") for r in records])
    tl = np.mean([rescale_statistic(r, "theta_log_l1") for r in records])
    frac = lambda2_window(records)
    print(f"   ell/sqrt(n-m) = {lln:.4f} (limit 2)")
    print(f"   lambda1*log(n)/(theta n) = {tl:.4f} (limit 1)")
    print(f"   fraction of trials with lambda2/sqrt(n) in (1.75, 4.25) = {frac:.2f}")


if __name__ == "__main__":
    main()
