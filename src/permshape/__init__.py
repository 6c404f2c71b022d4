"""Robinson-Schensted shapes of conjugacy-invariant random permutations.

Exact permutation/partition machinery, seeded ensemble samplers, height
profiles with limit-shape distances, brute-force oracles, and a
reproducible Monte Carlo experiment harness.
"""

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
    greene_bruteforce,
    greene_report,
)
from .perm import (
    CycleStats,
    Permutation,
    conjugate,
    cycle_stats,
    plant_fixed_points,
    remove_fixed_points,
    square,
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
