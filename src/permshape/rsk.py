"""The shape map: Schensted row insertion, fast LIS/LDS.

Only row lengths of the insertion tableau are kept (the limit statements
need the shape, never the filling), which keeps memory linear and makes sizes of
1e5..1e6 practical. ``schensted_shape`` is the one map from a permutation to
its rows; with ``max_rows`` it peels only the first few, and by Greene's
theorem lambda_1 + ... + lambda_k is the largest union of k increasing
subsequences, which the row peeling finds exactly after k passes. ``lis_lds``
is the cheap path when an experiment needs only the first row and the number
of rows: one pass over the word runs the LIS and the LDS patience chains side
by side. Each chain grows its pile count in a well-predicted branch, not by a
data-dependent add, so the next search need not wait for the last one, and
the two chains' searches overlap: the pair costs about 1.3 times one LIS.
``lis``/``lds`` give one of the two from that same pass.

Every kernel reads the permutation's own 0-based array: the shape, LIS and
LDS depend only on the relative order of the letters.
"""

from __future__ import annotations

from ._kernels import insertion_shape, lis_lds_lengths, lis_length, warm_up
from .diagram import YoungDiagram
from .perm import Permutation

__all__ = ["schensted_shape", "lis", "lds", "lis_lds", "warm_up"]


def schensted_shape(p: Permutation, max_rows: int | None = None) -> YoungDiagram:
    """Shape of the insertion tableau of the word p(1), ..., p(n), or the
    diagram of its first min(max_rows, rows) rows."""
    return YoungDiagram.from_parts(insertion_shape(p.zero_based, max_rows=max_rows))


def lis(p: Permutation) -> int:
    """Length of the longest increasing subsequence (first part of the shape)."""
    return lis_length(p.zero_based)


def lds(p: Permutation) -> int:
    """Length of the longest decreasing subsequence (number of rows of the shape)."""
    return lis_lds(p)[1]


def lis_lds(p: Permutation) -> tuple[int, int]:
    """(lis(p), lds(p)): the first part and the number of rows of the shape,
    from one pass over the word."""
    return lis_lds_lengths(p.zero_based)
