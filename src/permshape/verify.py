"""Verification suites: exact combinatorial checks runnable from the CLI.

Each suite returns a report dict with an "ok" flag and enough witness data
to triage a failure (witnesses are JSON-serializable). A failing suite means
a falsified combinatorial fact or a broken implementation - either way it
should never happen on a healthy build.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable

import numpy as np

from ._kernels import cycle_lengths
from .diagram import YoungDiagram
from .oracles import (
    CheckResult,
    check_fixed_point_bounds,
    check_profile_distance_bound,
    greene_report,
)
from .perm import Permutation
from .rsk import schensted_shape
from .samplers import RegimeSpec, derive_rng, sample_regime, sample_uniform
from .shape_geom import scaled_height_unit, scaled_kinks

# suite -> (name of its function here, the size keyword it takes or None).
# The function is looked up by name when the suite runs, so a rebinding of
# it in this module (a test double, the benchmark's tracer) takes effect.
SUITES: dict[str, tuple[str, str | None]] = {
    "greene": ("suite_greene", None),
    "fixpoint": ("suite_fixpoint", "draws"),
    "profile-bound": ("suite_profile_bound", "pairs"),
    "convention": ("suite_convention", None),
    "samplers": ("suite_samplers", "draws"),
}


def _until_fifth_failure(results: Iterable[CheckResult]) -> list[CheckResult]:
    """The results up to and including the fifth failure, where a suite stops."""
    done, failed = [], 0
    for res in results:
        done.append(res)
        failed += not res.ok
        if failed == 5:
            break
    return done


def _report(suite: str, done: list[CheckResult], **extra) -> dict:
    failures = [res.witness for res in done if not res.ok]
    return {"suite": suite, "ok": not failures, "checked": len(done), **extra,
            "failures": failures}


def _partial_sums(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The first n partial sums of parts, whose trailing parts are zero."""
    return tuple(itertools.accumulate(parts + (0,) * (n - len(parts))))


def suite_greene(seed: int = 0) -> dict:
    """Partial sums of the Schensted shape against the subset-scan oracle:
    on every permutation up to n = 6 (873 of them), then on 200 uniform
    draws each at n = 7 and n = 8."""

    def check(p: Permutation) -> CheckResult:
        shape = schensted_shape(p)
        report = greene_report(p)
        if _partial_sums(shape.parts, p.n) != report.increasing_invariants:
            return CheckResult(False, {"sigma": p.to_text(), "family": "increasing"})
        if _partial_sums(shape.conjugate().parts, p.n) != report.decreasing_invariants:
            return CheckResult(False, {"sigma": p.to_text(), "family": "decreasing"})
        return CheckResult(True)

    rng = derive_rng(seed, 1)
    exhaustive = (Permutation(word) for n in range(1, 7)
                  for word in itertools.permutations(range(1, n + 1)))
    drawn = (sample_uniform(n, rng) for n in (7, 8) for _ in range(200))
    return _report("greene", _until_fifth_failure(map(check, itertools.chain(exhaustive, drawn))))


def _five_sampler_draws(count: int, seed: int):
    """Round-robin draws from all five sampler families, of sizes up to 200."""
    rng = derive_rng(seed, 2)
    uniform, involution, matching = map(RegimeSpec, ("uniform", "uniform_involution",
                                                     "fpf_involution"))
    composite = RegimeSpec("composite", core="fpf_involution", fix_rule="linear", p=0.3)
    # family -> (its regime, the size it draws at) at a drawn size n
    families = (
        lambda n: (uniform, n),
        lambda n: (involution, n),
        lambda n: (matching, n + n % 2),
        lambda n: (RegimeSpec("uniform_in_cycle_type", cycle_type=_random_cycle_type(n, rng)), n),
        lambda n: (composite, n),
    )
    for k in range(count):
        spec, n = families[k % 5](int(rng.integers(1, 201)))
        yield sample_regime(spec, n, rng)


def _random_cycle_type(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    parts = []
    rest = n
    while rest > 0:
        c = int(rng.integers(1, rest + 1))
        parts.append(c)
        rest -= c
    return tuple(sorted(parts, reverse=True))


def suite_fixpoint(draws: int = 10_000, seed: int = 0) -> dict:
    """Fixed-point removal shape inequalities across all sampler families,
    on draws of sizes up to 200."""
    perms = _five_sampler_draws(draws, seed)
    return _report("fixpoint", _until_fifth_failure(map(check_fixed_point_bounds, perms)))


def suite_profile_bound(pairs: int = 10_000, seed: int = 0) -> dict:
    """Partition bound dominates the exact profile distance, in exact
    arithmetic, on shapes of uniform draws of up to 300 cells."""
    rng = derive_rng(seed, 3)

    def shape() -> YoungDiagram:
        return schensted_shape(sample_uniform(int(rng.integers(0, 301)), rng))

    done = _until_fifth_failure(check_profile_distance_bound(shape(), shape())
                                for _ in range(pairs))
    slacks = [res.witness["slack"] for res in done if res.ok]
    return _report("profile-bound", done, min_slack=min(slacks, default=float("inf")))


def suite_convention(seed: int = 0) -> dict:
    """The kink values of F_n that every scaled distance is made from agree
    with the unit-cell route G_n, to 1e-12, at every kink of the window of
    each of 100 shapes of uniform draws. Both are piecewise linear with
    kinks only there, so agreement on the kinks is agreement everywhere."""
    rng = derive_rng(seed, 4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 2000))
        d = schensted_shape(sample_uniform(n, rng))
        s, f, _ = scaled_kinks(d, n, 0)
        worst = max(worst, float(np.max(np.abs(f - scaled_height_unit(d, n, s)))))
    return {"suite": "convention", "ok": worst <= 1e-12, "worst_gap": worst, "tol": 1e-12}


# false-alarm rate of each family's chi-square test in the samplers suite
SAMPLERS_ALPHA = 1e-3


def suite_samplers(draws: int = 100_000, seed: int = 0) -> dict:
    """Every sampler family against its exact law at small sizes.

    Each family is uniform on the permutations of S_n (n <= 4) whose cycle
    type lies in a known set. One batch of draws per family is compared with
    that law over the whole support by a one-sample chi-square test at
    alpha = 1e-3; a draw outside the support makes the statistic infinite.
    With six families a healthy build fails a run with probability
    1 - (1 - 1e-3)^6, about 0.6%.
    """
    # 2 * gammaincinv(dof / 2, 1 - alpha) is the expression scipy.stats.chi2.ppf
    # evaluates (chi2_gen._ppf in scipy 1.17), so each critical value is
    # bit-identical to chi2.ppf's for the suite's 2, 5, 9 and 23 degrees of
    # freedom; scipy.special.chdtri differs in the last digit. Loading
    # scipy.stats for it would add about 47 MB and 0.75 s to the process.
    # Imported here, not at the top, as every CLI call imports this module.
    from scipy.special import gammaincinv

    results = []
    for spec, n, cycle_types in (
        (RegimeSpec("uniform"), 4, {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}),
        (RegimeSpec("uniform_involution"), 4, {(1, 1, 1, 1), (2, 1, 1), (2, 2)}),
        (RegimeSpec("fpf_involution"), 4, {(2, 2)}),
        (RegimeSpec("n_cycle"), 4, {(4,)}),
        (RegimeSpec("uniform_in_cycle_type", cycle_type=(2, 1)), 3, {(2, 1)}),
        (RegimeSpec("composite", core="fpf_involution", fix_rule="linear", p=0.5), 4,
         {(2, 1, 1)}),
    ):
        support = [w for w in itertools.permutations(range(n))
                   if tuple(sorted(cycle_lengths(w), reverse=True)) in cycle_types]
        rng = derive_rng(seed, 5, len(results))
        drawn = Counter(tuple(sample_regime(spec, n, rng).zero_based.tolist())
                        for _ in range(draws))
        observed = np.array([drawn[w] for w in support], dtype=np.float64)
        expected = draws / len(support)
        stat = float(np.sum((observed - expected) ** 2) / expected)
        if observed.sum() < draws:  # a draw fell outside the support
            stat = math.inf
        crit = float(2.0 * gammaincinv((len(support) - 1) / 2, 1.0 - SAMPLERS_ALPHA))
        results.append({"family": spec.ensemble, "n": n, "ok": stat <= crit, "stat": stat,
                        "crit": crit})
    ok = all(r["ok"] for r in results)
    return {"suite": "samplers", "ok": ok, "draws": draws, "families": results}


def run_suite(name: str, seed: int = 0, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    function, size_keyword = SUITES[name]
    if kwargs.get(size_keyword, 1) < 1:
        raise ValueError(f"{size_keyword} must be at least 1, got {kwargs[size_keyword]}")
    return globals()[function](seed=seed, **kwargs)
