"""Hot loops for patience sorting, Schensted row insertion, and cycle scans.

The fast path is the C source ``_kernels.c`` next to this module. On first
use the system C compiler ``cc`` builds it into a per-user cache
(``$XDG_CACHE_HOME/permshape`` or ``~/.cache/permshape``), keyed by a hash
of the source and flags, and ``ctypes`` loads it; a build removes the
libraries of other sources from the cache. When no compiler is found, the
build fails, or the source is missing, the pure-Python kernels run instead,
with a warning; they are also the reference the compiled ones are tested
against. ``BACKEND`` names the one in use: ``"c"`` or ``"python"``, and
``info()`` also gives the library file and the shape kernel's band width.

All kernels take plain int64 numpy arrays so they stay picklable across
worker processes. The wrappers make each buffer a contiguous int64 (or
uint8) array and pass its raw address: ctypes' own array checks would cost
more than the kernel on the short words of the exact suites.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")

# Every buffer is passed as the address of a contiguous array of the dtype
# the kernel reads (arr.ctypes.data). The caller keeps the array bound to a
# name until the call returns: an address does not keep its array alive.
_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_SIGNATURES = {
    "ps_lis_lds": ([_ptr, _i64, _ptr, _ptr, _ptr], None),
    "ps_shape": ([_ptr, _i64, _i64, _ptr, _ptr, _ptr], _i64),
    "ps_cycle_scan": ([_ptr, _i64, _ptr, _ptr], None),
}


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` to ``target``, publishing it with one atomic rename,
    and remove the other ``kernels-*.so`` files next to it.

    Concurrent builders each write their own temporary file, so a process
    never loads a half-written library. A process that has already loaded a
    removed library keeps its mapping.
    """
    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, "-x", "c", "-"],
            input=source, check=True, capture_output=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in target.parent.glob("kernels-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)


@functools.cache
def _library() -> ctypes.CDLL | None:
    """The compiled kernels, built on first call; None means pure Python."""
    try:
        source = _SOURCE.read_bytes()
        key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
        cache = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
        target = Path(cache) / "permshape" / f"kernels-{key}.so"
        try:
            lib = ctypes.CDLL(str(target))
        except OSError:
            # not built yet, or removed by a build of another source
            _build(source, target)
            lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", b"") or b""
        warnings.warn(
            f"permshape: compiled kernels unavailable, using pure Python ({exc}) "
            + detail.decode(errors="replace"),
            RuntimeWarning, stacklevel=2,
        )
        return None
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def __getattr__(name: str):
    if name == "BACKEND":
        return "python" if _library() is None else "c"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.cache
def _band_width(lib: ctypes.CDLL) -> int:
    return ctypes.c_int64.in_dll(lib, "ps_band_width").value


def info() -> dict[str, str | int | None]:
    """The backend in use, its library file (None for pure Python), and the
    rows the shape kernel peels in one pass (1 for the pure-Python one)."""
    lib = _library()
    if lib is None:
        return {"backend": "python", "library": None, "band_width": 1}
    return {"backend": "c", "library": lib._name, "band_width": _band_width(lib)}


def _lis_py(values):
    from bisect import bisect_left

    tops: list[int] = []
    for x in values:
        j = bisect_left(tops, x)
        if j == len(tops):
            tops.append(x)
        else:
            tops[j] = x
    return len(tops)


def _check_max_rows(max_rows):
    if max_rows is not None and max_rows < 1:
        raise ValueError(f"max_rows must be at least 1, got {max_rows}")


def _shape_py(values, max_rows=None):
    from bisect import bisect_left

    _check_max_rows(max_rows)
    row_lengths = []
    cur = list(values)
    while cur and (max_rows is None or len(row_lengths) < max_rows):
        tops: list[int] = []
        bumped: list[int] = []
        for x in cur:
            j = bisect_left(tops, x)
            if j == len(tops):
                tops.append(x)
            else:
                bumped.append(tops[j])
                tops[j] = x
        row_lengths.append(len(tops))
        cur = bumped
    return np.asarray(row_lengths, dtype=np.int64)


def _cycle_scan_py(zero_based):
    n = len(zero_based)
    seen = bytearray(n)
    num_cycles = fixed = two = 0
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = 1
            j = int(zero_based[j])
            length += 1
        num_cycles += 1
        if length == 1:
            fixed += 1
        elif length == 2:
            two += 1
    return num_cycles, fixed, two


def lis_length(values: np.ndarray) -> int:
    """Length of the longest strictly increasing subsequence of distinct ints."""
    return lis_lds_lengths(values)[0]


def lis_lds_lengths(values: np.ndarray) -> tuple[int, int]:
    """(longest strictly increasing, longest strictly decreasing) subsequence
    lengths of an int word. The compiled kernel runs both patience chains in
    one pass over the word, the decreasing one on ~x."""
    n = values.shape[0]
    if n == 0:
        return 0, 0
    lib = _library()
    if lib is None:
        xs = values.tolist()
        return _lis_py(xs), _lis_py(xs[::-1])
    v = np.ascontiguousarray(values, dtype=np.int64)
    inc = np.empty(n, dtype=np.int64)
    dec = np.empty(n, dtype=np.int64)
    out = np.empty(2, dtype=np.int64)
    lib.ps_lis_lds(v.ctypes.data, n, inc.ctypes.data, dec.ctypes.data, out.ctypes.data)
    return int(out[0]), int(out[1])


def insertion_shape(values: np.ndarray, max_rows: int | None = None) -> np.ndarray:
    """Row lengths of the Schensted insertion tableau of a distinct-int word.

    With ``max_rows`` only the first ``min(max_rows, rows)`` of them: the
    rows are peeled in order, so k rows cost only the passes that place
    them, not the Theta(n^1.5) bumps of the whole tableau.
    The compiled kernel peels a band of up to ``info()["band_width"]`` rows
    in one pass, each row a step behind the one above it, so the binary
    searches of the band's rows overlap on the core instead of running one
    after another; the shape is the same as the one-row-a-pass reference.
    """
    _check_max_rows(max_rows)
    n = values.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lib = _library()
    if lib is None:
        return _shape_py(values.tolist(), max_rows)
    limit = n if max_rows is None else min(n, max_rows)
    v = np.ascontiguousarray(values, dtype=np.int64)
    rows = np.empty(limit, dtype=np.int64)
    # the r-th row of a band (r = 1..band) has at most n / r piles
    band = min(limit, _band_width(lib))
    tops = np.empty(sum(n // r for r in range(1, band + 1)), dtype=np.int64)
    cur = np.empty(n, dtype=np.int64)
    nrows = lib.ps_shape(v.ctypes.data, n, limit, rows.ctypes.data, cur.ctypes.data,
                         tops.ctypes.data)
    return rows[:nrows].copy()


def cycle_scan(zero_based: np.ndarray) -> tuple[int, int, int]:
    """(number of cycles, fixed points, 2-cycles) of a 0-based permutation array."""
    n = zero_based.shape[0]
    if n == 0:
        return 0, 0, 0
    if zero_based.min() < 0 or zero_based.max() >= n:
        raise ValueError("cycle_scan needs images in [0, n)")
    lib = _library()
    if lib is None:
        return _cycle_scan_py(zero_based)
    v = np.ascontiguousarray(zero_based, dtype=np.int64)
    seen = np.zeros(n, dtype=np.uint8)
    out = np.empty(3, dtype=np.int64)
    lib.ps_cycle_scan(v.ctypes.data, n, seen.ctypes.data, out.ctypes.data)
    return int(out[0]), int(out[1]), int(out[2])


def warm_up() -> None:
    """Build or load the compiled kernels now, so later timings exclude it."""
    w = np.array([2, 0, 1], dtype=np.int64)
    lis_lds_lengths(w)
    insertion_shape(w)
    cycle_scan(w)
