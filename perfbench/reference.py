"""Plain-Python references the benchmark checks the program's outputs against.

Nothing here imports permshape. Each function is written from the
definition it computes, with another algorithm than the program's where one
exists (classical row insertion, not row peeling; a profile counted cell by
cell, not by binary search), so a fault in the program's kernels or geometry
cannot hide in its own check. Words are 1-based one-line notation.
"""

from __future__ import annotations

import math
from bisect import bisect_left


def lis(word) -> int:
    """Longest strictly increasing subsequence, by patience sorting."""
    tops: list[int] = []
    for x in word:
        j = bisect_left(tops, x)
        if j == len(tops):
            tops.append(x)
        else:
            tops[j] = x
    return len(tops)


def lds(word) -> int:
    """Longest strictly decreasing subsequence: the LIS of the reversed word."""
    return lis(list(word)[::-1])


def schensted_rows(word, max_rows: int | None = None) -> list[int]:
    """Row lengths of the insertion tableau by classical Schensted insertion.

    Each letter enters row 1 and bumps the smallest larger entry into the
    next row. With ``max_rows`` the letters bumped out of the last kept row
    are dropped; rows above it never see them, so the first ``max_rows``
    lengths stay exact.
    """
    rows: list[list[int]] = []
    for x in word:
        r = 0
        while max_rows is None or r < max_rows:
            if r == len(rows):
                rows.append([x])
                break
            row = rows[r]
            j = bisect_left(row, x)
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
            r += 1
    return [len(row) for row in rows]


def conjugate(parts: list[int]) -> list[int]:
    """Column lengths of a diagram given by its row lengths."""
    return [sum(1 for p in parts if p >= j) for j in range(1, (parts[0] if parts else 0) + 1)]


def height_profile(parts: list[int], lo: int, hi: int) -> list[int]:
    """L(t) = |t| + 2 * #{cells on diagonal t} for t = lo..hi, cell by cell.

    The cell in row i and column j (both 1-based) lies on diagonal j - i.
    """
    cells: dict[int, int] = {}
    for i, length in enumerate(parts, start=1):
        for j in range(1, length + 1):
            cells[j - i] = cells.get(j - i, 0) + 1
    return [abs(t) + 2 * cells.get(t, 0) for t in range(lo, hi + 1)]


def vkls(s: float) -> float:
    """The Vershik-Kerov-Logan-Shepp curve (2/pi)(s asin s + sqrt(1 - s^2)), |s| outside."""
    if abs(s) >= 1.0:
        return abs(s)
    return 2.0 / math.pi * (s * math.asin(s) + math.sqrt(1.0 - s * s))


def limit_curve(s: float, p: float) -> float:
    """The VKLS curve scaled to a fixed-point fraction p: r * vkls(s / r), r = sqrt(1 - p)."""
    if p >= 1.0:
        return abs(s)
    r = math.sqrt(1.0 - p)
    return r * vkls(s / r)


def scaled_sup_distance(parts: list[int], n: int, m: int) -> float:
    """Largest gap between the rescaled profile and the limit curve for m/n.

    Scans the documented grid of ``shape_geom.scaled_sup_distance``: every
    integer diagonal t in [-T, T], T = max(lambda_1, rows) + ceil(2 sqrt(n)),
    and the midpoints between neighbours, at s = t / (2 sqrt(n)).
    """
    c = 2.0 * math.sqrt(n)
    big_t = max(parts[0], len(parts)) + math.ceil(c)
    heights = height_profile(parts, -big_t, big_t)
    p = m / n
    worst = 0.0
    for k, t in enumerate(range(-big_t, big_t + 1)):
        worst = max(worst, abs(heights[k] / c - limit_curve(t / c, p)))
        if t < big_t:
            mid = (heights[k] + heights[k + 1]) * 0.5 / c
            worst = max(worst, abs(mid - limit_curve((t + 0.5) / c, p)))
    return worst


def cycle_counts(word) -> tuple[int, int, int]:
    """(cycles, fixed points, 2-cycles) by following each unvisited orbit."""
    n = len(word)
    seen = [False] * (n + 1)
    cycles = fixed = two = 0
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = word[j - 1]
            length += 1
        cycles += 1
        fixed += length == 1
        two += length == 2
    return cycles, fixed, two


def is_permutation(word) -> bool:
    return sorted(word) == list(range(1, len(word) + 1))


def is_involution(word) -> bool:
    return all(word[w - 1] == i for i, w in enumerate(word, start=1))
