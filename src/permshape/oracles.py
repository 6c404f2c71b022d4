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

    With m fixed points, shape a = shape(p), shape b = shape(remainder):
      1. m <= a_1 <= m + b_1
      2. for i >= 2: m + sum(b_1..b_{i-1}) <= sum(a_1..a_i) <= m + sum(b_1..b_i)
      3. max over j >= 2 of |sum_{k=2..j} (a_k - b_k)| <= b_1
      4. rows(b) <= rows(a) <= rows(b) + 1
    Returns the first violated inequality with its indices, or pass.
    """
    fixed, reduced = remove_fixed_points(p)
    m = fixed.shape[0]
    a = schensted_shape(p)
    b = schensted_shape(reduced)
    a1, b1 = a.part(1), b.part(1)

    def fail(name: str, **kw) -> CheckResult:
        data = {
            "inequality": name,
            "sigma": p.to_text(),
            "shape_sigma": a.to_text(),
            "shape_reduced": b.to_text(),
            "fixed_points": m,
        }
        data.update(kw)
        return CheckResult(False, data)

    if not (m <= a1 <= m + b1):
        return fail("first_row_bounds", lambda1=a1)
    upper = max(a.num_rows, b.num_rows) + 2
    sum_a = a1
    sum_b_prev = 0  # sum of first i-1 parts of b
    tail = 0  # running sum_{k=2..i} (a_k - b_k)
    max_abs_tail = 0
    for i in range(2, upper + 1):
        sum_a += a.part(i)
        sum_b_prev += b.part(i - 1)
        if not (m + sum_b_prev <= sum_a <= m + sum_b_prev + b.part(i)):
            return fail("partial_sum_bounds", index=i)
        tail += a.part(i) - b.part(i)
        max_abs_tail = max(max_abs_tail, abs(tail))
    if max_abs_tail > b1:
        return fail("tail_sum_bound", max_abs_tail=max_abs_tail)
    if not (b.num_rows <= a.num_rows <= b.num_rows + 1):
        return fail("row_count_bounds", rows_sigma=a.num_rows, rows_reduced=b.num_rows)
    return CheckResult(True)


def check_profile_distance_bound(a: YoungDiagram, b: YoungDiagram) -> CheckResult:
    """Exact check that the partition bound dominates the profile distance."""
    ok = bound_dominates_distance(a, b)
    if ok:
        return CheckResult(True, {"slack": profile_distance_bound(a, b) - sup_profile_distance(a, b)})
    return CheckResult(
        False,
        {
            "a": a.to_text(),
            "b": b.to_text(),
            "distance": sup_profile_distance(a, b),
            "bound": profile_distance_bound(a, b),
        },
    )
