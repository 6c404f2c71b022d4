"""Brute-force ground truth, independent of the fast paths it checks.

``greene_report`` recovers the partial sums of the Schensted shape from
first principles: it scans all position subsets and keeps, for each i, the
largest subset whose restricted word has no decreasing subsequence of length
i + 1. That characterization (a word decomposes into at most i increasing
subsequences iff its longest decreasing subsequence has length at most i) is
the oracle's single mathematical step. ``max_union_of_increasing`` is its
independent check: an explicit backtracking enumeration of unions.

The subset scan runs compiled (``_kernels.greene_invariants``), with its
own bisection, so it shares no search code with the patience kernels it
checks; the Python scan ``_kernels._greene_py`` is its reference and its
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import greene_invariants
from .diagram import YoungDiagram
from .perm import Permutation, remove_fixed_points
from .rsk import schensted_shape
from .shape_geom import bound_dominates_distance, profile_distance_bound, sup_profile_distance

@dataclass(frozen=True)
class GreeneReport:
    """Maximal sizes of unions of i increasing (resp. decreasing) subsequences."""

    increasing_invariants: tuple[int, ...]
    decreasing_invariants: tuple[int, ...]


def greene_report(p: Permutation) -> GreeneReport:
    """All Greene invariants of p by a single scan over position subsets.

    Every nonempty subset is visited once, depth first, as its prefix plus
    one later position. So its patience piles (the LIS on the values, the
    LDS on the reversed values) are its prefix's piles with one letter
    placed, and the placement is undone on the way back. A ValueError past
    ``GREENE_MAX_N`` = 16 letters; the scan needs distinct letters, as p has.
    """
    return GreeneReport(*greene_invariants(p.zero_based))


def max_union_of_increasing(p: Permutation, i: int) -> int:
    """Independent route: enumerate explicit unions of <= i increasing
    subsequences by backtracking pile assignment (no Dilworth step).

    Exponential; intended for cross-validating greene_report at n <= 8.
    """
    word = p.zero_based.tolist()
    n = p.n

    def decomposable(values: list[int]) -> bool:
        piles: list[int] = []

        def place(idx: int) -> bool:
            if idx == len(values):
                return True
            x = values[idx]
            tried: set[int] = set()
            for j in range(len(piles)):
                if piles[j] < x and piles[j] not in tried:
                    tried.add(piles[j])
                    saved = piles[j]
                    piles[j] = x
                    if place(idx + 1):
                        return True
                    piles[j] = saved
            if len(piles) < i:
                piles.append(x)
                if place(idx + 1):
                    return True
                piles.pop()
            return False

        return place(0)

    best = 0
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size <= best:
            continue
        values = [word[k] for k in range(n) if mask >> k & 1]
        if decomposable(values):
            best = size
    return best


# -- exact inequality checkers ----------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact verification; witness pinpoints the first failure."""

    ok: bool
    witness: dict | None = None


def check_fixed_point_bounds(p: Permutation) -> CheckResult:
    """Check the shape inequalities relating p to its fixed-point-free part.

    With m fixed points, shape a = shape(p), shape b = shape(remainder),
    A_i = a_1 + ... + a_i and B_i = b_1 + ... + b_i (B_0 = 0), the check is
    one interlacing:
      m + B_{i-1} <= A_i <= m + B_i for every i >= 1,
    whose i = 1 case is m <= a_1 <= m + b_1. Two further bounds follow from
    it on any pair of partitions, so they are not checked apart:
      3. max over j >= 2 of |sum_{k=2..j} (a_k - b_k)| <= b_1. The sum is
         (A_j - B_j) - (a_1 - b_1), with A_j - B_j in [m - b_j, m] and
         a_1 - b_1 in [m - b_1, m], so it lies in [-b_j, b_1], and b_j <= b_1.
      4. rows(b) <= rows(a) <= rows(b) + 1. An i past both shapes gives
         |a| = m + |b|; i = rows(b) + 1 then gives A_i >= |a|, so
         rows(a) <= rows(b) + 1; i = rows(a) gives |a| <= m + B_i, so
         B_i = |b| and rows(b) <= rows(a) (rows(a) = 0 forces |b| = 0).
    Past max(rows) + 1 the condition repeats, so i stops there. Returns the
    first i that fails (``first_row_bounds`` at i = 1, else
    ``partial_sum_bounds``), or pass.
    """
    fixed, reduced = remove_fixed_points(p)
    m = fixed.shape[0]
    a = schensted_shape(p)
    b = schensted_shape(reduced)
    sum_a = sum_b = 0  # A_i and B_{i-1} at the test
    for i in range(1, max(a.num_rows, b.num_rows) + 2):
        sum_a += a.part(i)
        if not (m + sum_b <= sum_a <= m + sum_b + b.part(i)):
            witness = {"lambda1": sum_a} if i == 1 else {"index": i}
            return CheckResult(False, {
                "inequality": "first_row_bounds" if i == 1 else "partial_sum_bounds",
                "sigma": p.to_text(),
                "shape_sigma": a.to_text(),
                "shape_reduced": b.to_text(),
                "fixed_points": m,
                **witness,
            })
        sum_b += b.part(i)
    return CheckResult(True)


def check_profile_distance_bound(a: YoungDiagram, b: YoungDiagram) -> CheckResult:
    """Exact check that the partition bound dominates the profile distance."""
    distance, bound = sup_profile_distance(a, b), profile_distance_bound(a, b)
    if bound_dominates_distance(a, b):
        return CheckResult(True, {"slack": bound - distance})
    return CheckResult(False, {"a": a.to_text(), "b": b.to_text(), "distance": distance,
                               "bound": bound})
