"""Verification suites: exact combinatorial checks runnable from the CLI.

Each suite returns a report dict with an "ok" flag and enough witness data
to triage a failure (witnesses are JSON-serializable). A failing suite means
a falsified combinatorial fact or a broken implementation - either way it
should never happen on a healthy build.
"""

from __future__ import annotations

import itertools

import numpy as np

from .diagram import YoungDiagram
from .oracles import check_fixed_point_bounds, check_profile_distance_bound, greene_report
from .perm import Permutation, conjugate
from .rsk import schensted_shape
from .samplers import RegimeSpec, derive_rng, sample_regime, sample_uniform
from .shape_geom import scaled_height, scaled_height_unit

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


def _partial_sums(parts: tuple[int, ...], upto: int) -> list[int]:
    out, acc = [], 0
    for i in range(upto):
        acc += parts[i] if i < len(parts) else 0
        out.append(acc)
    return out


def suite_greene(exhaustive_max: int = 6, random_sizes: tuple[int, ...] = (7, 8),
                 random_count: int = 200, seed: int = 0) -> dict:
    """Partial sums of the Schensted shape against the subset-scan oracle,
    exhaustively up to exhaustive_max and on random draws beyond."""
    failures: list[dict] = []
    checked = 0

    def check(p: Permutation):
        nonlocal checked
        checked += 1
        shape = schensted_shape(p)
        conj = shape.conjugate()
        report = greene_report(p)
        if tuple(_partial_sums(shape.parts, p.n)) != report.increasing_invariants:
            failures.append({"sigma": p.to_text(), "family": "increasing"})
        elif tuple(_partial_sums(conj.parts, p.n)) != report.decreasing_invariants:
            failures.append({"sigma": p.to_text(), "family": "decreasing"})

    for n in range(1, exhaustive_max + 1):
        for word in itertools.permutations(range(1, n + 1)):
            check(Permutation(word))
            if failures:
                break
    rng = derive_rng(seed, 1)
    for n in random_sizes:
        for _ in range(random_count):
            check(sample_uniform(n, rng))
    return {"suite": "greene", "ok": not failures, "checked": checked, "failures": failures[:5]}


def _five_sampler_draws(count: int, max_n: int, seed: int):
    """Round-robin draws from all five sampler families."""
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
        spec, n = families[k % 5](int(rng.integers(1, max_n + 1)))
        yield sample_regime(spec, n, rng)


def _random_cycle_type(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    parts = []
    rest = n
    while rest > 0:
        c = int(rng.integers(1, rest + 1))
        parts.append(c)
        rest -= c
    return tuple(sorted(parts, reverse=True))


def suite_fixpoint(draws: int = 10_000, max_n: int = 200, seed: int = 0) -> dict:
    """Fixed-point removal shape inequalities across all sampler families."""
    failures = []
    checked = 0
    for p in _five_sampler_draws(draws, max_n, seed):
        checked += 1
        res = check_fixed_point_bounds(p)
        if not res.ok:
            failures.append(res.witness)
            if len(failures) >= 5:
                break
    return {"suite": "fixpoint", "ok": not failures, "checked": checked, "failures": failures}


def random_shape_pair(rng: np.random.Generator, max_n: int) -> tuple[YoungDiagram, YoungDiagram]:
    a = schensted_shape(sample_uniform(int(rng.integers(0, max_n + 1)), rng))
    b = schensted_shape(sample_uniform(int(rng.integers(0, max_n + 1)), rng))
    return a, b


def suite_profile_bound(pairs: int = 10_000, max_n: int = 300, seed: int = 0) -> dict:
    """Partition bound dominates the exact profile distance, in exact arithmetic."""
    failures = []
    min_slack = float("inf")
    rng = derive_rng(seed, 3)
    for _ in range(pairs):
        a, b = random_shape_pair(rng, max_n)
        res = check_profile_distance_bound(a, b)
        if not res.ok:
            failures.append(res.witness)
            if len(failures) >= 5:
                break
        else:
            min_slack = min(min_slack, res.witness["slack"])
    return {
        "suite": "profile-bound",
        "ok": not failures,
        "checked": pairs,
        "min_slack": min_slack,
        "failures": failures,
    }


def suite_convention(n_diagrams: int = 100, n_svalues: int = 100, seed: int = 0,
                     tol: float = 1e-12) -> dict:
    """The two scaled profile evaluations agree through the coordinate map."""
    rng = derive_rng(seed, 4)
    worst = 0.0
    for _ in range(n_diagrams):
        n = int(rng.integers(1, 2000))
        d = schensted_shape(sample_uniform(n, rng))
        width = max(d.part(1), d.num_rows) / (2.0 * np.sqrt(n)) + 1.5
        s = rng.uniform(-width, width, size=n_svalues)
        gap = np.abs(scaled_height(d, n, s) - scaled_height_unit(d, n, s))
        worst = max(worst, float(gap.max()))
    return {"suite": "convention", "ok": worst <= tol, "worst_gap": worst, "tol": tol}


def _chi_square_homogeneity(counts_a: dict, counts_b: dict, alpha: float = 1e-3) -> tuple[bool, float, float]:
    """Two-sample chi-square over the union of observed cells."""
    # imported here, not at the top: scipy.stats takes about a second to load,
    # and every CLI call imports this module
    from scipy.stats import chi2

    cells = sorted(set(counts_a) | set(counts_b))
    a = np.array([counts_a.get(c, 0) for c in cells], dtype=np.float64)
    b = np.array([counts_b.get(c, 0) for c in cells], dtype=np.float64)
    tot = a + b
    na, nb = a.sum(), b.sum()
    expected_a = tot * na / (na + nb)
    expected_b = tot * nb / (na + nb)
    stat = float(np.sum((a - expected_a) ** 2 / expected_a + (b - expected_b) ** 2 / expected_b))
    dof = max(len(cells) - 1, 1)
    crit = float(chi2.ppf(1.0 - alpha, dof))
    return stat <= crit, stat, crit


def suite_samplers(draws: int = 100_000, seed: int = 0) -> dict:
    """Conjugacy invariance of every sampler family at small sizes.

    For each family: draw two independent batches, conjugate the second by a
    fixed permutation, and compare the two empirical laws over the whole
    symmetric group by a chi-square homogeneity test (alpha = 1e-3 per cell
    count of the full group at n <= 4).
    """
    results = []
    # the group is S_4, or S_3 for the one cycle type drawn at n = 3
    rhos = {4: Permutation([2, 4, 1, 3]), 3: Permutation([3, 1, 2])}
    for spec, n in (
        (RegimeSpec("uniform"), 4),
        (RegimeSpec("uniform_involution"), 4),
        (RegimeSpec("fpf_involution"), 4),
        (RegimeSpec("n_cycle"), 4),
        (RegimeSpec("uniform_in_cycle_type", cycle_type=(2, 1)), 3),
        (RegimeSpec("composite", core="fpf_involution", fix_rule="linear", p=0.5), 4),
    ):
        rng_a = derive_rng(seed, 5, len(results), 0)
        rng_b = derive_rng(seed, 5, len(results), 1)
        counts_a: dict = {}
        counts_b: dict = {}
        for _ in range(draws):
            wa = sample_regime(spec, n, rng_a).word.tobytes()
            counts_a[wa] = counts_a.get(wa, 0) + 1
            wb = conjugate(sample_regime(spec, n, rng_b), rhos[n]).word.tobytes()
            counts_b[wb] = counts_b.get(wb, 0) + 1
        ok, stat, crit = _chi_square_homogeneity(counts_a, counts_b)
        results.append({"family": spec.ensemble, "n": n, "ok": ok, "stat": stat, "crit": crit})
    ok = all(r["ok"] for r in results)
    return {"suite": "samplers", "ok": ok, "draws": draws, "families": results}


def run_suite(name: str, seed: int = 0, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    function, size_keyword = SUITES[name]
    if kwargs.get(size_keyword, 1) < 1:
        raise ValueError(f"{size_keyword} must be at least 1, got {kwargs[size_keyword]}")
    return globals()[function](seed=seed, **kwargs)
