"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Monte Carlo thresholds come
from the pilot manifest (src/permshape/data/pilot_manifest.json); everything
else is pinned here at its stated tolerance.
"""

import math
import time

import numpy as np

from permshape._kernels import BACKEND
from permshape.experiments import (
    PILOT_LADDER,
    PILOT_REGIMES,
    ExperimentConfig,
    ks_two_sample,
    lambda2_window,
    load_pilot_manifest,
    rescale_statistic,
    run_experiment,
    write_outputs,
)
from permshape.rsk import lis_lds, schensted_shape
from permshape.samplers import RegimeSpec, derive_rng, sample_uniform
from permshape.verify import (
    suite_convention,
    suite_fixpoint,
    suite_greene,
    suite_profile_bound,
)

ACCEPT_SEED = 271_828_182


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_criterion_1_greene_exactness():
    t0 = time.perf_counter()
    rep = suite_greene(seed=ACCEPT_SEED)
    elapsed = time.perf_counter() - t0
    exhaustive = sum(math.factorial(n) for n in range(1, 7))
    assert exhaustive == 873
    ok = rep["ok"] and rep["checked"] == 873 + 400 and elapsed < 60.0
    report("criterion-1 greene-exactness", ok,
           f"checked={rep['checked']}, failures={len(rep['failures'])}, {elapsed:.1f}s")


def test_criterion_2_profile_bound_never_violated():
    t0 = time.perf_counter()
    rep = suite_profile_bound(pairs=10_000, seed=ACCEPT_SEED)
    elapsed = time.perf_counter() - t0
    ok = rep["ok"] and elapsed < 60.0
    report("criterion-2 profile-distance-bound", ok,
           f"pairs=10000, violations={len(rep['failures'])}, min_slack={rep['min_slack']:.4f}, {elapsed:.1f}s")


def test_criterion_3_fixed_point_bounds_never_violated():
    rep = suite_fixpoint(draws=10_000, seed=ACCEPT_SEED)
    ok = rep["ok"] and rep["checked"] == 10_000
    report("criterion-3 fixed-point-bounds", ok,
           f"draws={rep['checked']}, violations={len(rep['failures'])}")


def test_criterion_4_convention_reconciliation():
    rep = suite_convention(seed=ACCEPT_SEED)
    report("criterion-4 convention-reconciliation", rep["ok"] and rep["tol"] == 1e-12,
           f"worst_gap={rep['worst_gap']:.3e} <= 1e-12")


def test_criterion_5_shape_distance_ladders():
    manifest = load_pilot_manifest()
    details = []
    ok = True
    for name, regime in PILOT_REGIMES.items():
        cfg = ExperimentConfig(
            regime=regime, n_ladder=PILOT_LADDER, trials=50, seed=ACCEPT_SEED,
            measurements=("shape_distance",),
        )
        _, summary = run_experiment(cfg)
        means = [summary.get(n, "shape_distance").mean for n in PILOT_LADDER]
        p95_top = summary.get(PILOT_LADDER[-1], "shape_distance").q95
        calib = manifest["regimes"][name]
        decreasing = all(b < a for a, b in zip(means, means[1:]))
        under_mean = means[-1] <= calib["threshold_mean_top"]
        under_p95 = p95_top <= calib["threshold_p95_top"]
        ok = ok and decreasing and under_mean and under_p95
        details.append(f"{name}: means={[round(v, 4) for v in means]} top<= {calib['threshold_mean_top']}")
    report("criterion-5 shape-distance-ladder", ok, "; ".join(details))


def _tw_sample(regime: RegimeSpec, mode: str, seed: int, n: int = 2_000, trials: int = 500):
    cfg = ExperimentConfig(regime=regime, n_ladder=(n,), trials=trials, seed=seed,
                           measurements=("ell", "lambda1"))
    records, _ = run_experiment(cfg)
    return [rescale_statistic(r, mode) for r in records]


def test_criterion_6_universality_consistency():
    # tw2: uniform n-cycles vs uniform permutations (both cycle-sparse)
    a = _tw_sample(RegimeSpec(ensemble="n_cycle"), "tw2", ACCEPT_SEED)
    b = _tw_sample(RegimeSpec(ensemble="uniform"), "tw2", ACCEPT_SEED + 1)
    ks_tw2 = ks_two_sample(a, b)
    # tw1: uniform involutions vs composite fpf cores with m = O(1)
    # (both square to the identity)
    c = _tw_sample(RegimeSpec(ensemble="uniform_involution"), "tw1", ACCEPT_SEED + 2)
    d = _tw_sample(
        RegimeSpec(ensemble="composite", core="fpf_involution", fix_rule="constant", c=1),
        "tw1", ACCEPT_SEED + 3,
    )
    ks_tw1 = ks_two_sample(c, d)
    ok = ks_tw2 <= 0.1 and ks_tw1 <= 0.1
    report("criterion-6 universality-consistency", ok,
           f"KS tw2={ks_tw2:.4f} <= 0.1, KS tw1={ks_tw1:.4f} <= 0.1")


def test_criterion_7_law_of_large_numbers():
    regime = RegimeSpec(ensemble="composite", core="n_cycle", fix_rule="theta_log", theta=1.0)
    cfg = ExperimentConfig(
        regime=regime, n_ladder=(100_000,), trials=50, seed=ACCEPT_SEED,
        measurements=("ell", "lambda1", "lambda2"),
    )
    records, _ = run_experiment(cfg)
    mean_lln = float(np.mean([rescale_statistic(r, "lln") for r in records]))
    mean_l1 = float(np.mean([rescale_statistic(r, "theta_log_l1", theta=1.0) for r in records]))
    frac = lambda2_window(records)
    ok = 1.9 <= mean_lln <= 2.1 and 0.9 <= mean_l1 <= 1.1 and frac >= 0.9
    report("criterion-7 law-of-large-numbers", ok,
           f"ell/sqrt(n-m)={mean_lln:.4f}, lambda1*logn/(theta n)={mean_l1:.4f}, "
           f"lambda2-window={frac:.2f}")


def test_criterion_8_performance():
    rng = derive_rng(ACCEPT_SEED, 8)
    p5 = sample_uniform(100_000, rng)
    t0 = time.perf_counter()
    shape = schensted_shape(p5)
    shape_time = time.perf_counter() - t0
    assert shape.n == 100_000

    p6 = sample_uniform(1_000_000, rng)
    t0 = time.perf_counter()
    length = lis_lds(p6)[0]
    lis_time = time.perf_counter() - t0
    assert 1500 < length < 2500  # sanity: about 2 sqrt(n)

    ok = shape_time < 2.0 and lis_time < 1.0
    report("criterion-8 performance", ok,
           f"shape(1e5)={shape_time:.3f}s < 2s, lis(1e6)={lis_time:.3f}s < 1s, "
           f"backend={BACKEND}")


def test_criterion_9_determinism(tmp_path):
    regime = RegimeSpec(ensemble="composite", core="fpf_involution", fix_rule="linear", p=0.5)
    cfg = ExperimentConfig(
        regime=regime, n_ladder=(50, 120), trials=8, seed=ACCEPT_SEED,
        measurements=("shape_distance", "ell", "lambda1", "lambda2"),
    )
    runs = []
    for workers in (1, 2, 3):
        records, summary = run_experiment(cfg, workers=workers)
        written = write_outputs(records, summary, tmp_path / f"workers_{workers}")
        runs.append(tuple(path.read_bytes() for path in written))
    csv_match = runs[0][0] == runs[1][0] == runs[2][0]
    json_match = runs[0][1] == runs[1][1] == runs[2][1]
    ok = csv_match and json_match
    report("criterion-9 determinism", ok,
           f"byte-identical records.csv and summary.json across workers 1/2/3: {ok}")
