"""Exact permutation arithmetic and cycle statistics.

Permutations live on {1, ..., n} in one-line notation: ``word[i]`` is the
image of ``i+1``. Internally everything is a 0-based int64 numpy array;
all public input and output is 1-based. Values are immutable after
construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import cycle_lengths


class Permutation:
    """A permutation of {1..n} in one-line notation; n = 0 is the empty one.

    A sampler that lays out a cycle type states the (length, count) runs it
    laid out, which ``cycle_type`` folds in place of a walk; a permutation
    built from a word states none.
    """

    __slots__ = ("_zero", "_runs")

    def __init__(self, word: Sequence[int] | np.ndarray):
        arr = np.asarray(word)
        if arr.ndim != 1:
            raise ValueError("one-line notation must be a flat sequence")
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"one-line notation must be integers, not {arr.dtype}")
        zero = arr.astype(np.int64, copy=False) - 1
        n = zero.shape[0]
        # the range check comes first, so counting allocates n slots, not max(word)
        if n and (zero.min() < 0 or zero.max() >= n
                  or not (np.bincount(zero, minlength=n) == 1).all()):
            raise ValueError("word is not a bijection of {1..n}")
        zero.flags.writeable = False
        self._zero = zero
        self._runs = None

    @classmethod
    def from_zero_based(cls, arr: np.ndarray,
                        runs: tuple[int, ...] | None = None) -> "Permutation":
        """Wrap a 0-based image array, without validation or a copy.

        The permutation takes ownership of ``arr`` and marks it read-only, so
        pass an array built for it that nothing else writes to. An array that
        is not a contiguous int64 one is converted first. ``runs``, when given,
        are the array's cycles as flat (length, count) pairs, which the caller
        knows from how it laid the cycles out; they are not checked.
        """
        p = cls.__new__(cls)
        zero = np.ascontiguousarray(arr, dtype=np.int64)
        zero.flags.writeable = False
        p._zero = zero
        p._runs = runs
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls.from_zero_based(np.arange(n, dtype=np.int64))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse whitespace-separated 1-based one-line notation, e.g. "5 3 2 1 4 6"."""
        return cls([int(tok) for tok in text.split()])

    def to_text(self) -> str:
        return " ".join(str(v) for v in self.word)

    @property
    def n(self) -> int:
        return self._zero.shape[0]

    @property
    def word(self) -> np.ndarray:
        """1-based one-line notation (fresh array), the text view; computations
        read ``zero_based``."""
        return self._zero + 1

    @property
    def zero_based(self) -> np.ndarray:
        """0-based image array (read-only view)."""
        return self._zero

    def __call__(self, i: int) -> int:
        """Image of 1-based i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"argument {i} outside 1..{self.n}")
        return int(self._zero[i - 1]) + 1

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._zero, other._zero))

    def __hash__(self) -> int:
        return hash((self.n, self._zero.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 12:
            return f"Permutation([{', '.join(str(v) for v in self.word)}])"
        return f"Permutation(n={self.n})"

    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.int64)
        inv[self._zero] = np.arange(self.n, dtype=np.int64)
        return Permutation.from_zero_based(inv)


@dataclass(frozen=True)
class CycleStats:
    """All cycle-derived scalars the limit statements condition on.

    fixed_points_of_square = fixed_points + 2 * two_cycles always, since the
    square fixes exactly the 1- and 2-cycles of the original.
    """

    n: int
    num_cycles: int
    fixed_points: int
    two_cycles: int
    fixed_points_of_square: int


def cycle_type(p: Permutation) -> dict[int, int]:
    """Cycle length -> number of cycles of that length, for the lengths p has:
    its stated runs, folded, or else the lengths of an O(n) walk, counted."""
    if p._runs is None:
        lengths, counts = np.unique(cycle_lengths(p.zero_based), return_counts=True)
        return dict(zip(lengths.tolist(), counts.tolist()))
    ct: dict[int, int] = {}
    for length, count in zip(p._runs[::2], p._runs[1::2]):
        if count:
            ct[length] = ct.get(length, 0) + count
    return ct


def cycle_stats(p: Permutation) -> CycleStats:
    """Cycles, fixed points, 2-cycles and fixed points of the square, by ``cycle_type``."""
    ct = cycle_type(p)
    fixed, two = ct.get(1, 0), ct.get(2, 0)
    return CycleStats(p.n, sum(ct.values()), fixed, two, fixed + 2 * two)


def conjugate(p: Permutation, r: Permutation) -> Permutation:
    """r p r^{-1}, using (r p r^{-1})(r(i)) = r(p(i))."""
    if p.n != r.n:
        raise ValueError(f"size mismatch: {p.n} vs {r.n}")
    pz, rz = p.zero_based, r.zero_based
    out = np.empty(p.n, dtype=np.int64)
    out[rz] = rz[pz]
    return Permutation.from_zero_based(out)


def remove_fixed_points(p: Permutation) -> tuple[np.ndarray, Permutation]:
    """Split p into its fixed points, a sorted 0-based int64 array, and the
    remainder: the restriction of p to the other points, relabeled to
    {1..k} by the unique order-preserving bijection, which has no fixed
    points. ``plant_fixed_points`` undoes the split exactly.
    """
    z = p.zero_based
    idx = np.arange(p.n, dtype=np.int64)
    fixed_mask = z == idx
    rest = idx[~fixed_mask]
    return idx[fixed_mask], Permutation.from_zero_based(np.searchsorted(rest, z[rest]))


def plant_fixed_points(fixed: np.ndarray, core: Permutation) -> Permutation:
    """The permutation of size len(fixed) + core.n that fixes the distinct
    0-based points ``fixed``, in any order, and acts as ``core`` on the
    other points, relabeled order-preservingly; the inverse of
    ``remove_fixed_points``. A point outside 0..n-1, or given twice, is an
    error. The result states the core's runs, if it states any, and (1, m)."""
    n = fixed.shape[0] + core.n
    if fixed.shape[0] and (fixed.min() < 0 or fixed.max() >= n):
        raise ValueError(f"fixed points outside 0..{n - 1}")
    mask = np.zeros(n, dtype=bool)
    mask[fixed] = True
    rest = np.flatnonzero(~mask)
    if rest.shape[0] != core.n:
        raise ValueError("a fixed point is given twice")
    out = np.empty(n, dtype=np.int64)
    out[fixed] = fixed
    out[rest] = rest[core.zero_based]
    runs = None if core._runs is None else (*core._runs, 1, fixed.shape[0])
    return Permutation.from_zero_based(out, runs)
