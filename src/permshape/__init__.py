"""Robinson-Schensted shapes of conjugacy-invariant random permutations.

Exact permutation/partition machinery, seeded ensemble samplers, height
profiles with limit-shape distances, brute-force oracles, and a
reproducible Monte Carlo experiment harness.
"""

import os

# permshape makes no BLAS call, yet importing numpy starts OpenBLAS's thread
# pool, whose extra thread spins for about 0.12 s of CPU in every process
# (import numpy: 0.26 s of CPU, 0.14 s with one thread, on a 2-vCPU Xeon). So
# pin the pool to one thread before the first import below loads numpy. An
# explicit setting of any value is kept, and a process that imported numpy
# before permshape keeps the pool it has. Child processes inherit the setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .diagram import YoungDiagram
from .experiments import (
    ExperimentConfig,
    SummaryStats,
    TrialRecord,
    ks_two_sample,
    lambda2_window,
    rescale_statistic,
    run_experiment,
    run_trial,
    summarize,
)
from .oracles import (
    CheckResult,
    GreeneReport,
    check_fixed_point_bounds,
    check_profile_distance_bound,
    greene_report,
)
from .perm import (
    CycleStats,
    Permutation,
    conjugate,
    cycle_stats,
    cycle_type,
    plant_fixed_points,
    remove_fixed_points,
)
from .rsk import lds, lis, lis_lds, schensted_shape
from .samplers import (
    RegimeSpec,
    derive_rng,
    sample_fpf_involution,
    sample_in_cycle_type,
    sample_regime,
    sample_uniform,
    sample_uniform_involution,
)
from .shape_geom import (
    bound_dominates_distance,
    height_profile,
    limit_curve,
    omega,
    profile_distance_bound,
    scaled_sup_distance,
    sup_profile_distance,
)

__version__ = "0.1.0"
