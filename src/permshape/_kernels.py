"""Hot loops for patience sorting, Schensted row insertion, the cycle walk,
the Greene subset scan, and the shuffle that cycle-type draws lay out.

The fast path is the C source ``_kernels.c`` next to this module. On first
use the system C compiler ``cc`` builds it into a per-user cache
(``$XDG_CACHE_HOME/permshape`` or ``~/.cache/permshape``), keyed by a hash
of the source and flags, and ``ctypes`` loads it; a build removes the
libraries of other sources from the cache. When no compiler is found, the
build fails, or the source is missing, the pure-Python kernels run instead,
with a warning; they are also the reference the compiled ones are tested
against. ``BACKEND`` names the one in use: ``"c"`` or ``"python"``, and
``info()`` also gives the library file and the shape kernel's band width.

All kernels read the permutation's own int64 array (``zero_based``), a plain
numpy array, so they stay picklable across worker processes; any word but a
flat int64 array is a ValueError on either backend. ``ALL_ROWS`` is the row
limit that peels every row. Each wrapper allocates one int64 scratch array
for everything its kernel writes and passes two raw addresses: that array's
and the word's, which is read in place (a contiguous word is never copied).
The scratch goes by ``_address`` (0.35 us on a 2-vCPU Xeon, ``arr.ctypes.data``
0.8), the word by ``arr.ctypes.data``, as a ``Permutation``'s is read-only.

The shape peel and the Greene scan also take a batch of words, their
letters back to back and the offsets that cut them (``concat_words``):
``insertion_shape_batch`` and ``greene_invariants_batch`` loop the kernel
over the words in one call, and the one-word ``insertion_shape`` and
``greene_invariants`` are batches of one. On that Xeon ``insertion_shape``
takes about 5 us on an 8-letter word, of which the ctypes call with its
kernel takes 0.7 us, so the exact suites, which check thousands of short
words, peel and scan each batch in one call: the shapes of all 362,880
words of S_9 take about 45 ms, where one call a word took 1.6 s.

``lay_out_cycles`` draws a uniform member of a conjugacy class on numpy's
own arrangement: the compiled kernel shuffles exactly as
``Generator.permutation`` does, reading and advancing a PCG64 generator's
state in place, and numpy's shuffle is the reference and the path of every
other bit generator.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import operator
import os
import struct
import sys
import tempfile
import warnings
from bisect import bisect_left
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_kernels.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")

# Every buffer is passed as the address of a contiguous int64 array
# (``_address`` or arr.ctypes.data). The caller keeps the array bound to a
# name until the call returns: an address does not keep its array alive.
_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64
_SIGNATURES = {
    "ps_lis_lds": ([_ptr, _i64, _ptr], None),
    "ps_shape_batch": ([_ptr, _i64, _i64, _i64, _ptr], _i64),
    "ps_cycle_scan": ([_ptr, _i64, _ptr], _i64),
    "ps_greene_batch": ([_ptr, _i64, _i64, _ptr], None),
    "ps_cycle_layout": ([_ptr, _ptr, _i64, _i64, _ptr], _i64),
    "ps_pcg64_peek": ([_ptr, _ptr], None),
}
# the letters the Greene scan's fixed pile arrays hold (GREENE_MAX_N in _kernels.c)
GREENE_MAX_N = 16
# the max_rows that peels every row of the insertion shape
ALL_ROWS = sys.maxsize


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` to ``target``, publishing it with one atomic rename,
    and remove the other ``kernels-*.so`` files next to it.

    Concurrent builders each write their own temporary file, so a process
    never loads a half-written library. A process that has already loaded a
    removed library keeps its mapping. A missing ``cc`` is the
    FileNotFoundError of running it, and a failed compile is an OSError that
    carries the compiler's stderr.
    """
    # imported here, not at the top: only a cold cache compiles, and the
    # import costs about 5 ms of every warm start
    import subprocess

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run(["cc", *_CFLAGS, "-o", tmp, "-x", "c", "-"],
                              input=source, capture_output=True)
        if done.returncode != 0:
            raise OSError(f"cc exited {done.returncode}: "
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


def _check_word(values: np.ndarray) -> None:
    """Reject a word that is not a flat int64 array, the one dtype the kernels read."""
    if getattr(values, "dtype", None) != np.int64 or values.ndim != 1:
        raise ValueError(f"the kernels read int64 words, one axis, not {np.ndim(values)}-d "
                         f"{getattr(values, 'dtype', type(values).__name__)}")


def _check_max_rows(max_rows):
    try:
        max_rows = operator.index(max_rows)
    except TypeError:
        raise ValueError(f"max_rows must be an integer, got {max_rows!r}") from None
    if max_rows < 1:
        raise ValueError(f"max_rows must be at least 1, got {max_rows}")


def _shape_py(values, max_rows=ALL_ROWS):
    _check_max_rows(max_rows)
    row_lengths = []
    cur = list(values)
    while cur and len(row_lengths) < max_rows:
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


def _cycle_lengths_py(zero_based) -> list[int]:
    """The reference cycle walk (``cycle_lengths``) over a sequence of ints."""
    seen = bytearray(len(zero_based))
    lengths = []
    for start in range(len(zero_based)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = 1
            j = int(zero_based[j])
            length += 1
        lengths.append(length)
    return lengths


def _greene_py(word):
    """(increasing, decreasing) Greene invariants of a word of distinct ints
    (``greene_invariants`` checks them), by the subset scan ``greene_scan`` runs
    in ``_kernels.c``."""
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
    """Length of the longest strictly increasing subsequence of an int64 word;
    repeated letters are allowed, and a repeat never extends it."""
    return lis_lds_lengths(values)[0]


def lis_lds_lengths(values: np.ndarray) -> tuple[int, int]:
    """(longest strictly increasing, longest strictly decreasing) subsequence
    lengths of an int64 word. The compiled kernel runs four patience chains
    in one pass: an increasing and a decreasing one (on ~x) over each half of
    the word, the left half read forward and the right half backward, and
    joins each pair of halves by their pile tops."""
    _check_word(values)
    n = values.shape[0]
    lib = _library()
    if lib is None:
        # the first row of the reference peel, for the word and its reverse
        xs = values.tolist()
        return sum(_shape_py(xs, 1).tolist()), sum(_shape_py(xs[::-1], 1).tolist())
    v = np.ascontiguousarray(values)
    # the two lengths, then the piles of the four chains, ceil(n / 2) each
    scratch = np.empty(2 + 4 * ((n + 1) // 2), dtype=np.int64)
    lib.ps_lis_lds(v.ctypes.data, n, _address(scratch))
    ki, kd = scratch[:2].tolist()
    return ki, kd


def insertion_shape(values: np.ndarray, max_rows: int = ALL_ROWS) -> np.ndarray:
    """Row lengths of the Schensted insertion tableau of an int64 word.

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
    that column before it searches the whole row. When the word is an
    involution of 0..n-1, the compiled kernel inserts only its fixed points
    and the smaller letter of each pair, in the order of the pairs' larger
    letters, and puts the larger letter at the end of the row below the row
    where that insertion ended (Beissinger's rule): about half the row
    entries of the plain peel. The shape is the same as the
    one-row-a-pass reference ``_shape_py``. The word is a batch of one for
    ``insertion_shape_batch``'s kernel, read in place.
    """
    _check_word(values)
    _check_max_rows(max_rows)
    n = values.shape[0]
    widest, _, rows = _peel(values, (0, n), n, min(n, max_rows), max_rows)
    return rows[:widest].copy()


def insertion_shape_batch(letters: np.ndarray, offsets: np.ndarray,
                          max_rows: int = ALL_ROWS) -> np.ndarray:
    """``insertion_shape`` of every word of a batch, in one kernel call.

    Word w is ``letters[offsets[w]:offsets[w + 1]]``; ``concat_words`` builds
    the pair. Row w of the (words, width) result holds the first
    ``min(max_rows, rows)`` row lengths of word w, then zeros, and width is
    the most rows any word has.
    """
    _check_word(letters)
    _check_max_rows(max_rows)
    offsets, longest = _check_offsets(letters, offsets)
    room = int(np.minimum(np.diff(offsets), max_rows).sum())
    widest, nrows, rows = _peel(letters, offsets, longest, room, max_rows)
    # the row lengths come word after word, as the row-major cells of the table
    cells = np.arange(widest) < nrows[:, None]
    table = np.zeros(cells.shape, dtype=np.int64)
    table[cells] = rows[:int(nrows.sum())]
    return table


def _peel(letters, offsets, longest, room, max_rows):
    """The most rows of a word of a checked batch, the row counts of its
    words, and their row lengths one word after another, in the first of
    ``room`` slots: views of the kernel's scratch."""
    count = len(offsets) - 1
    lib = _library()
    if lib is None:
        xs = letters.tolist()
        shapes = [_shape_py(xs[offsets[w]:offsets[w + 1]], max_rows) for w in range(count)]
        nrows = np.array([shape.shape[0] for shape in shapes], dtype=np.int64)
        return int(nrows.max(initial=0)), nrows, np.concatenate([np.empty(0, np.int64), *shapes])
    v = np.ascontiguousarray(letters)
    # the offsets, the row counts, the row lengths, then cur (a letter and
    # its column each) and the tops of a band for the longest word: its r-th
    # row (r = 1..band) has at most longest / r piles, after the pad slots of
    # its hinted search. cur starts at an even slot of the 16-byte aligned
    # scratch, so no 16-byte letter straddles a cache line: from an odd slot,
    # peels ran about 1% slower on a 2-vCPU Xeon.
    room += (2 * count + 1 + room) % 2
    band = min(longest, max_rows, _constant(lib, "ps_band_width"))
    pad = _constant(lib, "ps_hint_window")
    scratch = np.empty(2 * count + 1 + room + 2 * longest
                       + sum(longest // r + pad for r in range(1, band + 1)), dtype=np.int64)
    scratch[:count + 1] = offsets
    widest = lib.ps_shape_batch(v.ctypes.data, count, max_rows, room, _address(scratch))
    return widest, scratch[count + 1:2 * count + 1], scratch[2 * count + 1:]


def cycle_scan(zero_based: np.ndarray) -> tuple[int, int, int]:
    """(number of cycles, fixed points, 2-cycles), read off ``cycle_lengths``
    binned at 1, 2 and 3 or more, so a long cycle takes no bin of its own (the
    package reads ``perm.cycle_type``; ``perfbench``'s tracer times this)."""
    lengths = cycle_lengths(zero_based)
    _, fixed, two, _ = np.bincount(np.minimum(lengths, 3), minlength=4).tolist()
    return len(lengths), fixed, two


def cycle_lengths(zero_based: np.ndarray) -> np.ndarray:
    """The int64 cycle lengths of a 0-based int64 word of letters in [0, n), in
    the order of the cycles' smallest points; a walk ends at a letter already seen."""
    _check_word(zero_based)
    n = zero_based.shape[0]
    if n and zero_based.view(np.uint64).max() >= n:  # as uint64 a negative letter is past n
        raise ValueError("the cycle walk needs images in [0, n)")
    lib = _library()
    if lib is None:
        return np.array(_cycle_lengths_py(zero_based), dtype=np.int64)
    v = np.ascontiguousarray(zero_based)
    # the lengths, then n seen bytes: only those are zeroed
    scratch = np.empty(n + (n + 7) // 8, dtype=np.int64)
    scratch[n:] = 0
    return scratch[:lib.ps_cycle_scan(v.ctypes.data, n, _address(scratch))]


def greene_invariants(values: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greene invariants of a word of at most ``GREENE_MAX_N`` distinct ints:
    the largest union of i increasing, and of i decreasing, subsequences,
    for i = 1..n. A repeated letter is a ValueError: the scan would count
    weakly monotone unions, not the insertion shape's partial sums.

    The subset scan is exponential: it visits all 2**n - 1 nonempty subsets,
    each as its prefix plus one later position, so a subset's patience piles
    are its prefix's piles with one letter placed. The word is a batch of
    one for ``greene_invariants_batch``'s kernel.
    """
    _check_word(values)
    n = values.shape[0]
    table = _greene_table(values, (0, n), n)
    return tuple(table[0, 0].tolist()), tuple(table[0, 1].tolist())


def greene_invariants_batch(letters: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``greene_invariants`` of every word of a batch (see
    ``insertion_shape_batch``), in one kernel call: a (words, 2, width)
    array, width the longest word, whose [w, 0] and [w, 1] rows are the
    increasing and the decreasing invariants of word w for i = 1..width.
    Past a word's n letters both stay n, the partial sums of its shape and
    of the conjugate shape padded with zero parts."""
    _check_word(letters)
    return _greene_table(letters, *_check_offsets(letters, offsets))


def _greene_table(letters, offsets, longest):
    """The Greene invariants of a batch whose offsets are checked; a word of
    more than ``GREENE_MAX_N`` letters, or with a repeated one, is a
    ValueError."""
    if longest > GREENE_MAX_N:
        raise ValueError(f"n={longest} too large for the subset scan (max {GREENE_MAX_N})")
    count = len(offsets) - 1
    lib = _library()
    if lib is None:
        # as the compiled scan lays it out: [w, 0, 0] flags a repeated letter
        table = np.zeros((count, 2, longest + 1), dtype=np.int64)
        xs = letters.tolist()
        for w in range(count):
            word = xs[offsets[w]:offsets[w + 1]]
            n = len(word)
            table[w, 0, 0] = len(set(word)) < n
            table[w, :, 1:n + 1] = _greene_py(word)
            table[w, :, n + 1:] = n
    else:
        v = np.ascontiguousarray(letters)
        # the offsets, then each word's increasing and decreasing invariants,
        # from slot 0 to slot longest
        scratch = np.empty(count + 1 + 2 * count * (longest + 1), dtype=np.int64)
        scratch[:count + 1] = offsets
        lib.ps_greene_batch(v.ctypes.data, count, longest, _address(scratch))
        table = scratch[count + 1:].reshape(count, 2, longest + 1)
    repeats = np.flatnonzero(table[:, 0, 0])
    if repeats.size:
        w = repeats[0]
        raise ValueError("the subset scan reads words of distinct letters, "
                         f"got {letters[offsets[w]:offsets[w + 1]].tolist()}")
    return table[:, :, 1:].copy()


def concat_words(words) -> tuple[np.ndarray, np.ndarray]:
    """The batch of a sequence of int64 word arrays: their letters back to
    back, and the offsets where each word starts and the last one ends."""
    offsets = np.zeros(len(words) + 1, dtype=np.int64)
    np.cumsum([len(w) for w in words], out=offsets[1:])
    letters = np.concatenate(words) if len(words) else np.empty(0, dtype=np.int64)
    return letters, offsets


def _check_offsets(letters: np.ndarray, offsets) -> tuple[np.ndarray, int]:
    """The offsets as an int64 array, and the longest word they cut; offsets
    that do not cut letters into words are a ValueError."""
    offsets = np.asarray(offsets)
    if offsets.dtype != np.int64 or offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("a batch needs a nonempty int64 array of offsets")
    lengths = np.diff(offsets)
    if offsets[0] != 0 or offsets[-1] != letters.shape[0] or (lengths < 0).any():
        raise ValueError("offsets must rise from 0 to the number of letters")
    return offsets, int(lengths.max(initial=0))


# numpy's bitgen_t of a bit generator, the pointer its capsule holds
_bitgen_pointer = ctypes.PYFUNCTYPE(_ptr, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _address(arr: np.ndarray) -> int:
    """The address of a writable contiguous array's data, 0 for an empty one:
    about 0.35 us, where ``arr.ctypes.data`` takes 0.8."""
    return ctypes.addressof(ctypes.c_char.from_buffer(arr)) if arr.size else 0


def _pcg64_fields(lib: ctypes.CDLL, bit_generator: np.random.PCG64) -> list[int]:
    """A PCG64 bit generator's state as the compiled shuffle reads it: the
    128-bit state and increment, has_uint32 and uinteger."""
    out = np.empty(6, dtype=np.int64)
    lib.ps_pcg64_peek(_bitgen_pointer(bit_generator.capsule, b"BitGenerator"), _address(out))
    lo_state, hi_state, lo_inc, hi_inc, has_uint32, uinteger = out.view(np.uint64).tolist()
    return [hi_state << 64 | lo_state, hi_inc << 64 | lo_inc, has_uint32, uinteger]


@functools.cache
def _reads_pcg64(lib: ctypes.CDLL) -> bool:
    """Whether the compiled shuffle reads numpy's PCG64 state as numpy lays it
    out: a fresh generator with a buffered upper half, read through the
    struct, against its ``bit_generator.state``. On a mismatch cycle-type
    draws take numpy's own shuffle, with a warning."""
    rng = np.random.Generator(np.random.PCG64(20240229))
    rng.random(dtype=np.float32)
    state = rng.bit_generator.state
    want = [state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]]
    if _pcg64_fields(lib, rng.bit_generator) == want:
        return True
    warnings.warn("permshape: numpy's PCG64 state is not laid out as the compiled shuffle "
                  "reads it; cycle-type draws use numpy's shuffle", RuntimeWarning, stacklevel=3)
    return False


@functools.cache
def _int64_packer(count: int):
    # a format string built per call would cost more than the packing
    return struct.Struct(f"{count}q").pack


def lay_out_cycles(runs, n: int, rng: np.random.Generator) -> np.ndarray:
    """The 0-based word of a uniform member of a conjugacy class: the cycles
    of ``runs``, flat (length, count) pairs (a tuple of ints or an int64
    array) of positive lengths whose lengths times counts sum to n, filled
    left to right, in the order given, into the arrangement
    ``rng.permutation(n)``, each element mapping to the next and a cycle's
    last to its first.

    With a PCG64 generator (exactly ``np.random.PCG64``) the compiled kernel
    shuffles and lays out in one call, reading and advancing the generator's
    state in place under its lock: word and state are numpy's. Its
    arrangement is its own, freed before it returns, so the word is the one
    n-slot array left. Other bit generators, n above 2**32 and the
    pure-Python backend take numpy's shuffle (``_lay_out_cycles_py``), the
    reference.
    """
    lib = _library()
    bit_generator = rng.bit_generator
    if lib is None or type(bit_generator) is not np.random.PCG64 or n > 2**32 \
            or not _reads_pcg64(lib):
        return _lay_out_cycles_py(runs, n, rng)
    packed = (np.ascontiguousarray(runs, dtype=np.int64).tobytes() if isinstance(runs, np.ndarray)
              else _int64_packer(len(runs))(*runs))
    word = np.empty(n, dtype=np.int64)
    with bit_generator.lock:
        failed = lib.ps_cycle_layout(_bitgen_pointer(bit_generator.capsule, b"BitGenerator"),
                                     packed, len(packed) // 16, n, _address(word))
    if failed == -2:
        _check_runs(runs, n)  # raises the ValueError that names the runs
    if failed:
        raise MemoryError(f"no room for the arrangement of {n} elements")
    return word


def _check_runs(runs, n: int) -> np.ndarray:
    """The runs as (length, count) rows; runs that do not tile n, with a
    length below 1, a count below 0 or a sum other than n, are a ValueError."""
    rows = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    if (rows[:, 0] < 1).any() or (rows[:, 1] < 0).any() \
            or sum(length * count for length, count in rows.tolist()) != n:
        raise ValueError(f"cycle runs {np.ravel(runs).tolist()} do not tile n={n}")
    return rows


def _lay_out_cycles_py(runs, n, rng):
    # numpy's shuffle, then each element mapped to the next in the
    # arrangement and a cycle's last to its first
    lengths = np.repeat(*_check_runs(runs, n).T)
    arrangement = rng.permutation(n)
    ends = np.cumsum(lengths)
    word = np.empty(n, dtype=np.int64)
    word[arrangement[:-1]] = arrangement[1:]
    word[arrangement[ends - 1]] = arrangement[ends - lengths]
    return word


def warm_up() -> None:
    """Build or load the compiled kernels now, so later timings exclude it."""
    w = np.array([2, 0, 1], dtype=np.int64)
    lis_lds_lengths(w)
    insertion_shape(w)
    cycle_lengths(w)
