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
from typing import Callable

import numpy as np

from ._kernels import greene_invariants, insertion_shape_batch
from .diagram import YoungDiagram, widen
from .perm import Permutation
from .shape_geom import profile_pairs_batch

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


class BatchCheck:
    """Outcomes of one exact check over a batch of items: ``ok[k]`` is item
    k's verdict and ``witness(k)`` its witness, built when asked for. A plain
    class, as a dataclass costs every CLI start about 0.4 ms to build."""

    __slots__ = ("ok", "witness")

    def __init__(self, ok: np.ndarray, witness: Callable[[int], dict | None]):
        self.ok = ok
        self.witness = witness

    def result(self, k: int) -> CheckResult:
        return CheckResult(bool(self.ok[k]), self.witness(k))


def _diagram(parts: np.ndarray) -> YoungDiagram:
    """The diagram of one row of zero-padded parts."""
    return YoungDiagram.from_parts(parts[:np.count_nonzero(parts)])


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
    ``partial_sum_bounds``), or pass. A batch of one for
    ``check_fixed_point_bounds_batch``.
    """
    return check_fixed_point_bounds_batch(p.zero_based, np.array([0, p.n])).result(0)


def check_fixed_point_bounds_batch(letters: np.ndarray, offsets: np.ndarray) -> BatchCheck:
    """``check_fixed_point_bounds`` of each 0-based permutation of a batch
    (see ``_kernels.insertion_shape_batch``), with one shape peel for the
    permutations and one for their remainders.

    A remainder is the restriction to the points that move, whose shape
    depends only on the relative order of its letters, so it is peeled
    without the relabeling ``perm.remove_fixed_points`` does. All i are
    checked at once on the partial sums padded to one width, one column
    past the longest shape, where the condition already repeats.
    """
    lengths = np.diff(offsets)
    word_of = np.repeat(np.arange(lengths.shape[0]), lengths)
    fixed = letters == np.arange(letters.shape[0]) - offsets[word_of]
    m = np.bincount(word_of[fixed], minlength=lengths.shape[0])[:, None]
    rest_offsets = np.zeros_like(offsets)
    np.cumsum(lengths - m[:, 0], out=rest_offsets[1:])
    a = insertion_shape_batch(letters, offsets)
    b = insertion_shape_batch(letters[~fixed], rest_offsets)
    width = max(a.shape[1], b.shape[1]) + 1
    a, b = widen(a, width), widen(b, width)
    sum_a, sum_b = np.cumsum(a, axis=1), np.cumsum(b, axis=1)
    bad = (m + sum_b - b > sum_a) | (sum_a > m + sum_b)  # sum_b - b is B_{i-1}
    first = bad.argmax(axis=1)

    def witness(k: int) -> dict | None:
        i = int(first[k]) + 1
        if not bad[k, i - 1]:
            return None
        return {
            "inequality": "first_row_bounds" if i == 1 else "partial_sum_bounds",
            "sigma": Permutation.from_zero_based(letters[offsets[k]:offsets[k + 1]]).to_text(),
            "shape_sigma": _diagram(a[k]).to_text(),
            "shape_reduced": _diagram(b[k]).to_text(),
            "fixed_points": int(m[k, 0]),
            **({"lambda1": int(sum_a[k, 0])} if i == 1 else {"index": i}),
        }

    return BatchCheck(~bad.any(axis=1), witness)


def check_profile_distance_bound(a: YoungDiagram, b: YoungDiagram) -> CheckResult:
    """Exact check that the partition bound dominates the profile distance; a
    batch of one for ``check_profile_distance_bound_batch``."""
    return check_profile_distance_bound_batch(a.parts_array()[None],
                                              b.parts_array()[None]).result(0)


class ProfileBoundCheck(BatchCheck):
    """A ``BatchCheck`` that also holds each pair's bound minus its distance."""

    __slots__ = ("slack",)

    def __init__(self, ok: np.ndarray, witness: Callable[[int], dict], slack: np.ndarray):
        super().__init__(ok, witness)
        self.slack = slack


def check_profile_distance_bound_batch(a_parts: np.ndarray,
                                       b_parts: np.ndarray) -> ProfileBoundCheck:
    """``check_profile_distance_bound`` of each pair of a batch of
    zero-padded part tables, all read off one ``profile_pairs_batch`` pass. A
    passing pair's witness is its slack; a failing pair's names both
    diagrams, with the distance and the bound."""
    distance, bound, ok = profile_pairs_batch(a_parts, b_parts)
    slack = bound - distance

    def witness(k: int) -> dict:
        if ok[k]:
            return {"slack": float(slack[k])}
        return {"a": _diagram(a_parts[k]).to_text(), "b": _diagram(b_parts[k]).to_text(),
                "distance": float(distance[k]), "bound": float(bound[k])}

    return ProfileBoundCheck(ok, witness, slack)
