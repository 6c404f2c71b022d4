"""The shape map: Schensted row insertion, fast LIS/LDS.

Only row lengths of the insertion tableau are kept (the limit statements
need the shape, never the filling), which keeps memory linear and makes sizes of
1e5..1e6 practical. ``lis_lds`` is the cheap path when an experiment needs
only the first row and the number of rows: one pass over the word runs the
LIS and the LDS patience chains side by side. Each chain grows its pile
count in a well-predicted branch, not by a data-dependent add, so the next
search need not wait for the last one, and the two chains' searches overlap:
the pair costs about 1.3 times one LIS. ``lis``/``lds`` give one of the
two from that same pass, and ``leading_parts`` the first few rows: by Greene's theorem
lambda_1 + ... + lambda_k is the largest union of k increasing
subsequences, and the row peeling finds these parts exactly after k passes.
"""

from __future__ import annotations

from ._kernels import insertion_shape, lis_lds_lengths, lis_length, warm_up
from .diagram import YoungDiagram
from .perm import Permutation

__all__ = ["schensted_shape", "leading_parts", "lis", "lds", "lis_lds", "warm_up"]


def schensted_shape(p: Permutation) -> YoungDiagram:
    """Shape of the insertion tableau of the word p(1), ..., p(n)."""
    return YoungDiagram.from_parts(insertion_shape(p.word))


def leading_parts(p: Permutation, k: int) -> tuple[int, ...]:
    """The first min(k, rows) parts of the Schensted shape of p.

    A plain tuple, since a prefix of the shape is not the shape of p.
    """
    return tuple(insertion_shape(p.word, max_rows=k).tolist())


def lis(p: Permutation) -> int:
    """Length of the longest increasing subsequence (first part of the shape)."""
    return lis_length(p.word)


def lds(p: Permutation) -> int:
    """Length of the longest decreasing subsequence (number of rows of the shape)."""
    return lis_lds(p)[1]


def lis_lds(p: Permutation) -> tuple[int, int]:
    """(lis(p), lds(p)): the first part and the number of rows of the shape,
    from one pass over the word."""
    return lis_lds_lengths(p.word)
