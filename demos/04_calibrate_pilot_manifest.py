"""Regenerate the pilot-run manifest that calibrates Monte Carlo thresholds.

The limit theorems give no rates, so the acceptance thresholds for the
shape-distance ladders are data measured here, not constants in code: run
the three reference regimes on their ladder (``experiments.PILOT_REGIMES``
and ``PILOT_LADDER``), record per-rung mean and 95th-percentile shape
distances, and store thresholds with a 1.6x margin on the top rung. The
acceptance suite (and anyone reproducing the numbers) reads
src/permshape/data/pilot_manifest.json.

Usage: python demos/04_calibrate_pilot_manifest.py [--trials 50] [--seed 31415926]
"""

import argparse
from pathlib import Path

from permshape.experiments import (
    PILOT_LADDER,
    PILOT_REGIMES,
    ExperimentConfig,
    json_text,
    run_experiment,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=31_415_926)
    parser.add_argument("--margin", type=float, default=1.6)
    args = parser.parse_args()

    manifest = {
        "schema_version": 1,
        "pilot_seed": args.seed,
        "trials": args.trials,
        "n_ladder": list(PILOT_LADDER),
        "margin": args.margin,
        "regimes": {},
    }
    for name, regime in PILOT_REGIMES.items():
        cfg = ExperimentConfig(regime=regime, n_ladder=PILOT_LADDER, trials=args.trials,
                               seed=args.seed, measurements=("shape_distance",))
        _, summary = run_experiment(cfg)
        means = [summary.get(n, "shape_distance").mean for n in PILOT_LADDER]
        p95s = [summary.get(n, "shape_distance").q95 for n in PILOT_LADDER]
        manifest["regimes"][name] = {
            "mean_D": means,
            "p95_D": p95s,
            "threshold_mean_top": round(args.margin * means[-1], 6),
            "threshold_p95_top": round(args.margin * p95s[-1], 6),
        }
        print(f"{name}: mean D along ladder = {[round(v, 5) for v in means]}")

    out = Path(__file__).resolve().parent.parent / "src" / "permshape" / "data" / "pilot_manifest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json_text(manifest))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
