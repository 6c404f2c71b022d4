"""Hot loops for patience sorting, Schensted row insertion, cycle scans and
the Greene subset scan.

The fast path is the C source ``_kernels.c`` next to this module. On first
use the system C compiler ``cc`` builds it into a per-user cache
(``$XDG_CACHE_HOME/permshape`` or ``~/.cache/permshape``), keyed by a hash
of the source and flags, and ``ctypes`` loads it; a build removes the
libraries of other sources from the cache. When no compiler is found, the
build fails, or the source is missing, the pure-Python kernels run instead,
with a warning; they are also the reference the compiled ones are tested
against. ``BACKEND`` names the one in use: ``"c"`` or ``"python"``, and
``info()`` also gives the library file and the shape kernel's band width.

All kernels take plain integer numpy arrays so they stay picklable across
worker processes; a word of another dtype, or a uint64 one past the int64
range, is a ValueError on either backend. Each wrapper allocates one int64
scratch array for everything its kernel writes and passes raw addresses:
that array's, and the word's only where copying a long word into the
scratch would cost O(n). So a call on the short words of the exact suites
costs little more than its kernel: each address lookup costs about 2 us on
a 2-vCPU Xeon, and ctypes' own array checks would cost more.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")

# Every buffer is passed as the address of a contiguous int64 array
# (arr.ctypes.data). The caller keeps the array bound to a name until the
# call returns: an address does not keep its array alive.
_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_SIGNATURES = {
    "ps_lis_lds": ([_ptr, _i64, _ptr], None),
    "ps_shape": ([_ptr, _i64, _i64, _ptr], _i64),
    "ps_cycle_scan": ([_ptr, _i64, _ptr], None),
    "ps_greene": ([_ptr, _i64], None),
}
# the letters ps_greene's fixed pile arrays hold (GREENE_MAX_N in _kernels.c)
GREENE_MAX_N = 16


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` to ``target``, publishing it with one atomic rename,
    and remove the other ``kernels-*.so`` files next to it.

    Concurrent builders each write their own temporary file, so a process
    never loads a half-written library. A process that has already loaded a
    removed library keeps its mapping. A failed compile is an OSError that
    carries the compiler's stderr.
    """
    # imported here, not at the top: only a cold cache compiles, and the
    # import costs about 5 ms of every warm start
    import subprocess

    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *_CFLAGS, "-o", tmp, "-x", "c", "-"],
                              input=source, capture_output=True)
        if done.returncode != 0:
            raise OSError(f"{cc} exited {done.returncode}: "
                          + done.stderr.decode(errors="replace").strip())
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
    except OSError as exc:
        warnings.warn(f"permshape: compiled kernels unavailable, using pure Python ({exc})",
                      RuntimeWarning, stacklevel=2)
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
def _constant(lib: ctypes.CDLL, name: str) -> int:
    """An int64 constant the compiled kernels export, such as ``ps_band_width``."""
    return ctypes.c_int64.in_dll(lib, name).value


def info() -> dict[str, str | int | None]:
    """The backend in use, its library file (None for pure Python), and the
    rows the shape kernel peels in one pass (1 for the pure-Python one)."""
    lib = _library()
    if lib is None:
        return {"backend": "python", "library": None, "band_width": 1}
    return {"backend": "c", "library": lib._name, "band_width": _constant(lib, "ps_band_width")}


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


def _check_word(values: np.ndarray) -> None:
    """Reject a word that the compiled kernels' int64 view would change: a
    dtype that is not integer, or a uint64 value of 2**63 or more."""
    if values.dtype.kind not in "iu":
        raise ValueError(f"the kernels read integer words, not dtype {values.dtype}")
    if values.dtype == np.uint64 and values.size and values.max() >= 2**63:
        raise ValueError("the kernels read words below 2**63")


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


def cycle_lengths(zero_based) -> list[int]:
    """The cycle lengths of a 0-based permutation (any sequence of ints),
    each cycle counted from its smallest point, in the order of those."""
    seen = bytearray(len(zero_based))
    lengths = []
    for start in range(len(zero_based)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = 1
            j = int(zero_based[j])
            length += 1
        lengths.append(length)
    return lengths


def _cycle_scan_py(zero_based):
    lengths = cycle_lengths(zero_based)
    return len(lengths), lengths.count(1), lengths.count(2)


def _greene_py(word):
    """(increasing, decreasing) Greene invariants of a word of distinct ints
    (``greene_invariants`` checks them), by the subset scan ``ps_greene`` runs."""
    from bisect import bisect_left

    n = len(word)
    # best_inc[d] = largest subset size whose restricted LDS is exactly d
    best_inc = [0] * (n + 1)
    best_dec = [0] * (n + 1)
    # pile tops; slots at and past the pile count are scratch
    tops_inc = [0] * n
    tops_dec = [0] * n

    def extend(start: int, size: int, k_inc: int, k_dec: int) -> None:
        for i in range(start, n):
            x = word[i]
            j_inc = bisect_left(tops_inc, x, 0, k_inc)
            j_dec = bisect_left(tops_dec, -x, 0, k_dec)
            old_inc, old_dec = tops_inc[j_inc], tops_dec[j_dec]
            tops_inc[j_inc], tops_dec[j_dec] = x, -x
            lis_len = k_inc + (j_inc == k_inc)
            lds_len = k_dec + (j_dec == k_dec)
            if size > best_inc[lds_len]:
                best_inc[lds_len] = size
            if size > best_dec[lis_len]:
                best_dec[lis_len] = size
            if i + 1 < n:
                extend(i + 1, size + 1, lis_len, lds_len)
            tops_inc[j_inc], tops_dec[j_dec] = old_inc, old_dec

    extend(0, 1, 0, 0)
    inc, dec = [], []
    run_inc = run_dec = 0
    for i in range(1, n + 1):
        run_inc = max(run_inc, best_inc[i])
        run_dec = max(run_dec, best_dec[i])
        inc.append(run_inc)
        dec.append(run_dec)
    return tuple(inc), tuple(dec)


def lis_length(values: np.ndarray) -> int:
    """Length of the longest strictly increasing subsequence of an int word;
    repeated letters are allowed, and a repeat never extends it."""
    return lis_lds_lengths(values)[0]


def lis_lds_lengths(values: np.ndarray) -> tuple[int, int]:
    """(longest strictly increasing, longest strictly decreasing) subsequence
    lengths of an int word. The compiled kernel runs both patience chains in
    one pass over the word, the decreasing one on ~x."""
    _check_word(values)
    n = values.shape[0]
    lib = _library()
    if lib is None:
        xs = values.tolist()
        return _lis_py(xs), _lis_py(xs[::-1])
    v = np.ascontiguousarray(values, dtype=np.int64)
    scratch = np.empty(2 + 2 * n, dtype=np.int64)
    lib.ps_lis_lds(v.ctypes.data, n, scratch.ctypes.data)
    ki, kd = scratch[:2].tolist()
    return ki, kd


def insertion_shape(values: np.ndarray, max_rows: int | None = None) -> np.ndarray:
    """Row lengths of the Schensted insertion tableau of an int word.

    Any int64 word is read with strict increase along the rows: a letter
    bumps the first top >= it (``bisect_left``), so a repeated letter never
    lengthens a row. With ``max_rows`` only the first ``min(max_rows, rows)``
    row lengths: the rows are peeled in order, so k rows cost only the
    passes that place them, not the Theta(n^1.5) bumps of the whole tableau.
    The compiled kernel peels a band of up to ``info()["band_width"]`` rows
    in one pass, each row a step behind the one above it, so the searches of
    the band's rows overlap on the core instead of running one after
    another. Each bumped letter carries the column it left, and past the
    first band a row looks for its landing column in the few slots left of
    that column before it searches the whole row. The shape is the same as
    the one-row-a-pass reference ``_shape_py``.
    """
    _check_word(values)
    _check_max_rows(max_rows)
    n = values.shape[0]
    lib = _library()
    if lib is None:
        return _shape_py(values.tolist(), max_rows)
    limit = n if max_rows is None else min(n, max_rows)
    v = np.ascontiguousarray(values, dtype=np.int64)
    # the row lengths, cur (a letter and its column each), and the tops of a
    # band: its r-th row (r = 1..band) has at most n / r piles, after the
    # pad slots of its hinted search
    band = min(limit, _constant(lib, "ps_band_width"))
    pad = _constant(lib, "ps_hint_window")
    scratch = np.empty(limit + 2 * n + sum(n // r + pad for r in range(1, band + 1)),
                       dtype=np.int64)
    nrows = lib.ps_shape(v.ctypes.data, n, limit, scratch.ctypes.data)
    return scratch[:nrows].copy()


def cycle_scan(zero_based: np.ndarray) -> tuple[int, int, int]:
    """(number of cycles, fixed points, 2-cycles) of a 0-based permutation array."""
    _check_word(zero_based)
    n = zero_based.shape[0]
    if n and (zero_based.min() < 0 or zero_based.max() >= n):
        raise ValueError("cycle_scan needs images in [0, n)")
    lib = _library()
    if lib is None:
        return _cycle_scan_py(zero_based)
    v = np.ascontiguousarray(zero_based, dtype=np.int64)
    # the three counts, then n seen bytes
    scratch = np.zeros(3 + (n + 7) // 8, dtype=np.int64)
    lib.ps_cycle_scan(v.ctypes.data, n, scratch.ctypes.data)
    num_cycles, fixed, two = scratch[:3].tolist()
    return num_cycles, fixed, two


def greene_invariants(values: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greene invariants of a word of at most ``GREENE_MAX_N`` distinct ints:
    the largest union of i increasing, and of i decreasing, subsequences,
    for i = 1..n. A repeated letter is a ValueError: the scan would count
    weakly monotone unions, not the insertion shape's partial sums.

    The subset scan is exponential: it visits all 2**n - 1 nonempty subsets,
    each as its prefix plus one later position, so a subset's patience piles
    are its prefix's piles with one letter placed.
    """
    _check_word(values)
    n = values.shape[0]
    if n > GREENE_MAX_N:
        raise ValueError(f"n={n} too large for the subset scan (max {GREENE_MAX_N})")
    word = values.tolist()
    if len(set(word)) < n:
        raise ValueError(f"the subset scan reads words of distinct letters, got {word}")
    lib = _library()
    if lib is None:
        return _greene_py(word)
    # the word, then the best subset sizes for each LDS and LIS length
    scratch = np.empty(3 * n + 2, dtype=np.int64)
    scratch[:n] = values
    lib.ps_greene(scratch.ctypes.data, n)
    out = scratch.tolist()
    return tuple(out[n + 1:2 * n + 1]), tuple(out[2 * n + 2:])


def warm_up() -> None:
    """Build or load the compiled kernels now, so later timings exclude it."""
    w = np.array([2, 0, 1], dtype=np.int64)
    lis_lds_lengths(w)
    insertion_shape(w)
    cycle_scan(w)
