"""Tour of the exact machinery: shapes, height profiles, and the limit curve.

Walks one permutation through the pipeline (cycle statistics, fixed-point
surgery, Schensted shape), then renders the height profile of a diagram in
both coordinate conventions and compares a rescaled random profile against
the limit curve. Writes plot-ready CSVs next to this script.
"""

from pathlib import Path

import numpy as np

from permshape import (
    Permutation,
    YoungDiagram,
    cycle_stats,
    height_profile,
    limit_curve,
    omega,
    plant_fixed_points,
    remove_fixed_points,
    scaled_sup_distance,
    schensted_shape,
)
from permshape.experiments import csv_text
from permshape.samplers import derive_rng, sample_fpf_involution
from permshape.shape_geom import profile_rows, scaled_kinks

OUT = Path(__file__).resolve().parent

p = Permutation([5, 3, 2, 1, 4, 6])
print(f"word:            {p.to_text()}")
print(f"cycle stats:     {cycle_stats(p)}")
fixed, reduced = remove_fixed_points(p)
assert plant_fixed_points(fixed, reduced) == p  # the split loses nothing
fixed_set = tuple(int(v) + 1 for v in fixed)
print(f"fixed points:    {fixed_set}, remainder {reduced.to_text()}")
print(f"shape:           {schensted_shape(p).to_text()}")
print()

d = YoungDiagram((7, 5, 2, 1, 1))
at_0, at_7, at_minus_5 = height_profile(d, [0, 7, -5]).tolist()
print(f"diagram {d.to_text()}: L(0)={at_0} (twice the Durfee square), "
      f"L(7)={at_7}, L(-5)={at_minus_5}")
csv = OUT / "profile_75211.csv"
csv.write_text(csv_text(("t", "L"), profile_rows(d)))
print(f"wrote {csv}")
print()

print(f"limit curve: omega(0) = {omega(0.0):.5f} = 2/pi, omega(+-1) = {omega(1.0)}")
print(f"with fixed-point fraction p=1/2 the curve flattens to "
      f"{limit_curve(0.0, 0.5):.5f} at 0 and meets |s| at {np.sqrt(0.5):.5f}")
print()

rng = derive_rng(1)
n = 10_000
sigma = sample_fpf_involution(n, rng)
shape = schensted_shape(sigma)
dist = scaled_sup_distance(shape, n, 0)
print(f"one fixed-point-free involution, n={n}: sup distance to the limit curve = {dist:.4f}")
csv = OUT / "scaled_profile_fpf.csv"
csv.write_text(csv_text(("s", "F", "Phi"), zip(*scaled_kinks(shape, n, 0))))
print(f"wrote {csv} (columns: s, rescaled profile, limit curve)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.plot(data[:, 0], data[:, 1], lw=1, label="rescaled profile")
    ax.plot(data[:, 0], data[:, 2], lw=1.5, ls="--", label="limit curve")
    ax.set_xlim(-1.6, 1.6)
    ax.legend()
    fig.savefig(OUT / "scaled_profile_fpf.png", dpi=120, bbox_inches="tight")
    print(f"wrote {OUT / 'scaled_profile_fpf.png'}")
except ImportError:
    print("matplotlib not installed; skipped the picture")
