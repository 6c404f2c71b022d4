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
from typing import Iterable, Iterator

import numpy as np

from ._kernels import concat_words, cycle_lengths, greene_invariants_batch, insertion_shape_batch
from .diagram import widen
from .oracles import BatchCheck, check_fixed_point_bounds_batch, check_profile_distance_bound_batch
from .perm import Permutation
from .rsk import schensted_shape
from .samplers import ENSEMBLES, RegimeSpec, derive_rng, sample_regime, sample_uniform
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


# the most items a suite checks in one batch, so that its memory stays
# bounded at any size: a batch of profile-bound pairs holds 4096 words of up
# to 300 letters
BATCH = 2048


def _until_fifth_failure(checks: Iterable[BatchCheck]) -> Iterator[tuple[BatchCheck, int]]:
    """Each batch a suite checks with the number of its items checked, up to
    and including the fifth failure, where the suite stops. A batch is let
    go once the next one is drawn, so memory stays bounded at any size."""
    failed = 0
    for check in checks:
        bad = np.flatnonzero(~check.ok)
        if failed + bad.shape[0] >= 5:
            yield check, int(bad[4 - failed]) + 1
            return
        failed += bad.shape[0]
        yield check, check.ok.shape[0]


def _report(suite: str, done: Iterable[tuple[BatchCheck, int]]) -> dict:
    """A suite's report on the batches it checked: the witnesses of the
    failures among the items it checked, in order, and how many it checked."""
    failures, checked = [], 0
    for check, count in done:
        failures += [check.witness(int(k)) for k in np.flatnonzero(~check.ok[:count])]
        checked += count
    return {"suite": suite, "ok": not failures, "checked": checked, "failures": failures}


def suite_greene(seed: int = 0) -> dict:
    """Partial sums of the Schensted shape against the subset-scan oracle:
    on every permutation up to n = 6 (873 of them), then on 200 uniform
    draws each at n = 7 and n = 8. All of them are peeled in one kernel
    call and scanned in another; the partial sums of the shape and of its
    conjugate are compared with the invariants on tables padded to n = 8,
    where both stay n past a word's length."""
    rng = derive_rng(seed, 1)
    words = [*(row for n in range(1, 7)
               for row in np.array(list(itertools.permutations(range(n))), dtype=np.int64)),
             *(sample_uniform(n, rng).zero_based for n in (7, 8) for _ in range(200))]
    letters, offsets = concat_words(words)
    invariants = greene_invariants_batch(letters, offsets)
    width = invariants.shape[2]
    parts = widen(insertion_shape_batch(letters, offsets), width)
    columns = (parts[:, :, None] > np.arange(width)).sum(axis=1)
    increasing = (np.cumsum(parts, axis=1) != invariants[:, 0]).any(axis=1)
    decreasing = (np.cumsum(columns, axis=1) != invariants[:, 1]).any(axis=1)

    def witness(k: int) -> dict:
        return {"sigma": Permutation.from_zero_based(words[k]).to_text(),
                "family": "increasing" if increasing[k] else "decreasing"}

    return _report("greene", _until_fifth_failure([BatchCheck(~(increasing | decreasing),
                                                              witness)]))


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
    on draws of sizes up to 200, checked ``BATCH`` draws at a time."""
    perms = _five_sampler_draws(draws, seed)
    checks = (check_fixed_point_bounds_batch(*concat_words(
        [p.zero_based for p in itertools.islice(perms, BATCH)]))
        for _ in range(0, draws, BATCH))
    return _report("fixpoint", _until_fifth_failure(checks))


def suite_profile_bound(pairs: int = 10_000, seed: int = 0) -> dict:
    """Partition bound dominates the exact profile distance, in exact
    arithmetic, on shapes of uniform draws of up to 300 cells, peeled and
    checked ``BATCH`` pairs at a time. ``min_slack`` is the least slack of
    the pairs that passed, null when none did."""
    rng = derive_rng(seed, 3)

    def checks():
        for start in range(0, pairs, BATCH):
            words = [sample_uniform(int(rng.integers(0, 301)), rng).zero_based
                     for _ in range(2 * min(BATCH, pairs - start))]
            shapes = insertion_shape_batch(*concat_words(words))
            yield check_profile_distance_bound_batch(shapes[0::2], shapes[1::2])

    slacks = []  # the least slack of the checked pairs that pass, a batch each

    def checked():
        for check, count in _until_fifth_failure(checks()):
            slacks.append(check.slack[:count][check.ok[:count]].min(initial=math.inf))
            yield check, count

    report = _report("profile-bound", checked())
    least = min(slacks, default=math.inf)
    return {**report, "min_slack": float(least) if least < math.inf else None}


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


# false-alarm rate of each regime_chi_square test
SAMPLERS_ALPHA = 1e-3


def _support(spec: RegimeSpec, n: int) -> np.ndarray:
    """The words of S_n, in lexicographic order, of the cycle types spec draws:
    one walk of all of S_n, word k on the points from k * n; each type tested once."""
    words = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    lengths = cycle_lengths((words + n * np.arange(len(words))[:, None]).ravel())
    cells = (np.cumsum(lengths) - lengths) // max(n, 1) * (n + 1) + lengths
    types, which = np.unique(np.bincount(cells, minlength=words.size + len(words))
                             .reshape(len(words), n + 1), axis=0, return_inverse=True)
    row_test = ENSEMBLES[spec.ensemble][2]
    tested = [row_test(spec, n, {k: c for k, c in enumerate(row) if c}) for row in types.tolist()]
    return words[np.array(tested)[which.ravel()]]


def _chi_square_tail(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with dof >= 1 degrees of freedom and x > 0,
    in closed form: the sum of e^(-x/2) (x/2)^a / a! over a = 0, 1, ..,
    dof/2 - 1 at even dof; erfc(sqrt(x/2)) plus that sum over a = 1/2, 3/2,
    .. at odd. Each term is taken whole from its log, as e^(-x/2) alone is 0
    in double precision past x = 1490 while the sum is not."""
    half, a = x / 2, dof % 2 / 2
    tail = math.erfc(math.sqrt(half)) if dof % 2 else 0.0
    log_half = math.log(half)
    for _ in range(dof // 2):
        tail += math.exp(a * log_half - half - math.lgamma(a + 1))
        a += 1
    return tail


def chi_square_quantile(dof: int, alpha: float) -> float:
    """The least double x whose chi-square tail at dof degrees of freedom is
    at most alpha (0 < alpha < 1), by bisection on the closed-form tail:
    within 1e-13 relative of scipy.stats.chi2.ppf(1 - alpha, dof)."""
    lo, hi = 0.0, float(dof)
    while _chi_square_tail(hi, dof) > alpha:
        lo, hi = hi, 2 * hi
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if _chi_square_tail(mid, dof) > alpha:
            lo = mid
        else:
            hi = mid
    return hi


def regime_chi_square(spec: RegimeSpec, n: int, draws: int, rng: np.random.Generator) -> dict:
    """``draws`` draws of spec at size n against its exact law, uniform on the
    permutations of S_n whose cycle type its regime-table row says it draws,
    by a one-sample chi-square test over that whole support at alpha = 1e-3.
    A draw outside the support makes the statistic infinite. A support of one
    permutation leaves no degree of freedom: the critical value is 0, so the
    test passes exactly when every draw is that permutation."""
    support = [tuple(w) for w in _support(spec, n).tolist()]
    drawn = Counter(tuple(sample_regime(spec, n, rng).zero_based.tolist()) for _ in range(draws))
    observed = np.array([drawn[w] for w in support], dtype=np.float64)
    expected = draws / len(support)
    stat = float(np.sum((observed - expected) ** 2) / expected)
    if observed.sum() < draws:  # a draw fell outside the support
        stat = math.inf
    dof = len(support) - 1
    crit = chi_square_quantile(dof, SAMPLERS_ALPHA) if dof else 0.0
    return {"family": spec.ensemble, "n": n, "ok": stat <= crit, "stat": stat, "crit": crit}


def suite_samplers(draws: int = 100_000, seed: int = 0) -> dict:
    """Six sampler families against their exact laws at n <= 4, by
    ``regime_chi_square``, each on a stream of its own. With six families a
    healthy build fails a run with probability 1 - (1 - 1e-3)^6, about 0.6%.
    """
    cases = ((RegimeSpec("uniform"), 4), (RegimeSpec("uniform_involution"), 4),
             (RegimeSpec("fpf_involution"), 4), (RegimeSpec("n_cycle"), 4),
             (RegimeSpec("uniform_in_cycle_type", cycle_type=(2, 1)), 3),
             (RegimeSpec("composite", core="fpf_involution", fix_rule="linear", p=0.5), 4))
    results = [regime_chi_square(spec, n, draws, derive_rng(seed, 5, case))
               for case, (spec, n) in enumerate(cases)]
    return {"suite": "samplers", "ok": all(r["ok"] for r in results), "draws": draws,
            "families": results}


def run_suite(name: str, seed: int = 0, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    function, size_keyword = SUITES[name]
    if kwargs.get(size_keyword, 1) < 1:
        raise ValueError(f"{size_keyword} must be at least 1, got {kwargs[size_keyword]}")
    return globals()[function](seed=seed, **kwargs)
