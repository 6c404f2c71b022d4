"""Height profiles of Young diagrams, the VKLS limit curve, and sup distances.

Coordinate conventions
----------------------
The canonical internal convention is *integer diagonal coordinates*: the
diagram is drawn in the rotated (Russian) orientation, the cell in row i and
column j sits on diagonal t = j - i, and the boundary profile is

    L(t) = |t| + 2 * #{cells on diagonal t},

an integer-valued, 1-Lipschitz, piecewise-linear function with kinks at the
integers, equal to |t| for t >= lambda_1 and t <= -lambda'_1, and satisfying
L(t) == t (mod 2) at integer t.

The alternative *unit-cell coordinates* draw each cell as a unit square
before rotating, so kinks sit at multiples of sqrt(2)/2 and both axes are
compressed by sqrt(2): L_cell(x) = L(x * sqrt(2)) / sqrt(2). The unit-cell
route does not use that map: ``height_unit_cells`` reads L_cell off the
cells as the upper envelope of |x| and of one tent per row, the top of the
rectangle the row spans with the rows above it. Both scaled evaluations
used by the limit statements,

    F_n(s) = L(2 s sqrt(n)) / (2 sqrt(n))          (integer convention)
    G_n(s) = L_cell(s sqrt(2 n)) / sqrt(2 n)       (unit-cell convention)

are the same function of s under that map; ``scaled_height`` and
``scaled_height_unit`` implement the two routes independently so the
reconciliation can be tested numerically rather than assumed. Both take a
float s, giving a float, or an array of s, giving an array.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .diagram import YoungDiagram

SQRT2 = math.sqrt(2.0)


# -- exact integer profile ------------------------------------------------


def height_profile(d: YoungDiagram, ts: np.ndarray) -> np.ndarray:
    """Exact L(t) at integer t, vectorized.

    Row i has a cell on diagonal t iff lambda_i - i >= t and i >= 1 - t.
    lambda_i - i strictly decreases in i, so the rows with lambda_i - i >= t
    are the first K(t), and diagonal t holds max(0, K(t) + min(t, 0)) cells.
    """
    ts = np.asarray(ts, dtype=np.int64)
    parts = d.parts_array()
    diag = parts - np.arange(1, parts.size + 1, dtype=np.int64)
    k = np.searchsorted(-diag, -ts, side="right")
    return np.abs(ts) + 2 * np.maximum(0, k + np.minimum(ts, 0))


def height_interp(d: YoungDiagram, x: float | np.ndarray) -> float | np.ndarray:
    """L at real x by linear interpolation between the integer kinks; x is
    a float, giving a float, or an array, giving an array."""
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    t0 = np.floor(xs)
    frac = xs - t0
    t = t0.astype(np.int64)
    L = height_profile(d, np.concatenate([t, t + 1])).astype(np.float64)
    out = L[: t.size] * (1.0 - frac) + L[t.size :] * frac
    return float(out[0]) if np.ndim(x) == 0 else out


def height_unit_cells(d: YoungDiagram, x: float | np.ndarray) -> float | np.ndarray:
    """Profile in unit-cell coordinates (kinks at multiples of sqrt(2)/2),
    from the cells: the upper envelope of |x| and of a tent of slope 1
    under each row's last cell, whose top corner sits at
    ((lambda_i - i) / sqrt(2), (lambda_i + i) / sqrt(2)). A tent dips below
    |x| outside its row's span, so the envelope needs no cut-off. x is a
    float, giving a float, or an array, giving an array."""
    xs = np.asarray(x, dtype=np.float64)
    parts = d.parts_array()
    i = np.arange(1, parts.size + 1, dtype=np.int64)
    tents = (parts + i) / SQRT2 - np.abs(xs[..., None] - (parts - i) / SQRT2)
    out = np.maximum(np.abs(xs), tents.max(axis=-1, initial=-np.inf))
    return float(out) if out.ndim == 0 else out


def scaled_height(d: YoungDiagram, n: int, s: float | np.ndarray) -> float | np.ndarray:
    """F_n(s) = L(2 s sqrt(n)) / (2 sqrt(n)) in integer coordinates."""
    c = 2.0 * math.sqrt(n)
    return height_interp(d, np.multiply(s, c)) / c


def scaled_height_unit(d: YoungDiagram, n: int,
                       s: float | np.ndarray) -> float | np.ndarray:
    """Same rescaled profile evaluated through unit-cell coordinates."""
    c = math.sqrt(2.0 * n)
    return height_unit_cells(d, np.multiply(s, c)) / c


# -- limit curve -----------------------------------------------------------


def omega(s):
    """The Vershik-Kerov-Logan-Shepp curve.

    (2/pi)(s arcsin s + sqrt(1-s^2)) on |s| < 1 and |s| outside; even,
    convex, 1-Lipschitz, with omega(s) >= |s| and equality iff |s| >= 1.
    Accepts scalars or arrays.
    """
    arr = np.asarray(s, dtype=np.float64)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    out = np.abs(a)
    inside = out < 1.0
    si = a[inside]
    out[inside] = (2.0 / np.pi) * (si * np.arcsin(si) + np.sqrt(1.0 - si * si))
    return float(out[0]) if scalar else out


def limit_curve(s, p: float):
    """Rescaled comparison curve for a profile with fixed-point fraction p.

    sqrt(1-p) * omega(s / sqrt(1-p)) for p < 1, |s| for p = 1. The bump has
    support |s| <= sqrt(1-p), matching a fixed-point-free core of (1-p)n
    cells, and equals |s| outside, so the discrepancy against any profile of
    n cells vanishes far from the origin.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"fixed-point fraction p={p} outside [0, 1]")
    arr = np.asarray(s, dtype=np.float64)
    if p == 1.0:
        out = np.abs(arr)
        return float(out) if arr.ndim == 0 else out
    r = math.sqrt(1.0 - p)
    out = r * omega(arr / r)
    return float(out) if arr.ndim == 0 else out


# -- scaled sup distance against the limit curve ---------------------------


def _check_scaling(d: YoungDiagram, n: int, m: int) -> None:
    """d must have n >= 1 cells and m must be a fixed-point count of n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if d.n != n:
        raise ValueError(f"size mismatch: diagram has {d.n} cells, n={n}")
    if not 0 <= m <= n:
        raise ValueError(f"fixed-point count m={m} outside [0, {n}]")


def _scaled_kinks(d: YoungDiagram, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, F_n(s), limit_curve(s, m/n)) as arrays on the profile kinks
    2 s sqrt(n) = t for the integers t in [-(rows + W), lambda_1 + W],
    W = ceil(2 sqrt(n)), outside which both functions equal |s|."""
    _check_scaling(d, n, m)
    c = 2.0 * math.sqrt(n)
    w = math.ceil(c)
    t = np.arange(-(d.num_rows + w), d.part(1) + w + 1, dtype=np.int64)
    s = t / c
    return s, height_profile(d, t) / c, limit_curve(s, m / n)


def scaled_sup_distance(d: YoungDiagram, n: int, m: int) -> float:
    """Sup-norm gap between the rescaled profile of d and the limit curve.

    Computes sup over s of |F_n(s) - limit_curve(s, m/n)| as the maximum over
    the kinks of ``_scaled_kinks``, the rows ``scaled_rows`` gives. Outside
    their window both functions equal |s| exactly. Between two kinks F_n has
    slope +1 or -1 and the limit curve, being 1-Lipschitz, a slope in
    [-1, 1], so their difference is monotone on each segment and its largest
    absolute value sits at a kink: the kink scan is the exact sup up to
    rounding.
    """
    _, f, phi = _scaled_kinks(d, n, m)
    return float(np.max(np.abs(f - phi)))


# -- pairwise profile distance and its partition bound ---------------------


def _max_profile_gap(a: YoungDiagram, b: YoungDiagram) -> int:
    """max over integer t of |L_a(t) - L_b(t)| (exact integer)."""
    T_neg = max(a.num_rows, b.num_rows)
    T_pos = max(a.part(1), b.part(1))
    t = np.arange(-T_neg, T_pos + 1, dtype=np.int64)
    return int(np.abs(height_profile(a, t) - height_profile(b, t)).max())


def sup_profile_distance(a: YoungDiagram, b: YoungDiagram) -> float:
    """Exact sup-norm between two profiles in unit-cell units.

    Both profiles are piecewise linear with kinks on the same integer grid,
    so the sup over the reals is attained at an integer; dividing the integer
    maximum by sqrt(2) lands in unit-cell units.
    """
    return _max_profile_gap(a, b) / SQRT2


def _tail_sum_maxima(a: YoungDiagram, b: YoungDiagram) -> np.ndarray:
    """K_l = max_{m >= l+1} |sum_{k=l+1..m} (a_k - b_k)| for l = 0..L."""
    L = max(a.num_rows, b.num_rows)
    diff = np.zeros(L + 1, dtype=np.int64)
    pa, pb = a.parts_array(), b.parts_array()
    diff[1 : 1 + pa.size] += pa
    diff[1 : 1 + pb.size] -= pb
    prefix = np.cumsum(diff)  # prefix[m] = sum_{k<=m}(a_k - b_k), prefix[0] = 0
    # suffix extrema of prefix over m >= l+1 (beyond L the sums are constant)
    suf_max = np.maximum.accumulate(prefix[::-1])[::-1]
    suf_min = np.minimum.accumulate(prefix[::-1])[::-1]
    ks = np.zeros(L + 1, dtype=np.int64)
    ks[:-1] = np.maximum(suf_max[1:] - prefix[:-1], prefix[:-1] - suf_min[1:])
    return ks


def profile_distance_bound(a: YoungDiagram, b: YoungDiagram) -> float:
    """min over l >= 0 of 2 sqrt(K_l) + sqrt(2) l, with K_l the largest
    absolute partial sum of part differences beyond the first l rows.

    Dominates sup_profile_distance for every pair of diagrams; trailing
    zero parts are included, and l beyond the longer diagram never helps.
    """
    ks = _tail_sum_maxima(a, b)
    ls = np.arange(ks.shape[0], dtype=np.float64)
    return float(np.min(2.0 * np.sqrt(ks.astype(np.float64)) + SQRT2 * ls))


def bound_dominates_distance(a: YoungDiagram, b: YoungDiagram) -> bool:
    """Exact (integer-arithmetic) check that the partition bound dominates
    the profile distance: for every l, M <= 2l or (M - 2l)^2 <= 8 K_l,
    where M is the integer profile gap maximum.

    Equivalent to profile_distance_bound >= sup_profile_distance with both
    sides squared and rationalized, so float ties cannot blur the verdict.
    """
    m_gap = _max_profile_gap(a, b)
    ks = _tail_sum_maxima(a, b)
    for l, k in enumerate(ks):
        r = m_gap - 2 * l
        if r > 0 and r * r > 8 * int(k):
            return False
    return True


# -- dump helpers for plotting / CLI ---------------------------------------


def profile_rows(d: YoungDiagram) -> Iterator[tuple[int, int]]:
    """(t, L(t)) rows over the support window, one integer t per row."""
    t = np.arange(-(d.num_rows + 1), d.part(1) + 2, dtype=np.int64)
    return zip(t.tolist(), height_profile(d, t).tolist())


def scaled_rows(d: YoungDiagram, n: int, m: int) -> Iterator[tuple[float, float, float]]:
    """(s, F_n(s), limit_curve(s, m/n)) rows on the kinks that
    ``scaled_sup_distance`` scans. The arguments are checked at the call."""
    return zip(*(a.tolist() for a in _scaled_kinks(d, n, m)))
