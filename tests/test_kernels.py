import contextlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permshape
from permshape import _kernels, experiments, rsk
from permshape._kernels import (
    ALL_ROWS,
    BACKEND,
    _cycle_lengths_py,
    _greene_py,
    _shape_py,
    concat_words,
    cycle_lengths,
    cycle_scan,
    greene_invariants,
    greene_invariants_batch,
    insertion_shape,
    insertion_shape_batch,
    lis_lds_lengths,
    lis_length,
)
from permshape.oracles import GreeneReport, greene_report
from permshape.perm import Permutation
from permshape.samplers import RegimeSpec, derive_rng, sample_regime


def _first_row(xs):
    # the LIS reference: the first row of the reference peel (0 with no rows)
    return sum(_shape_py(xs, 1).tolist())


compiled = pytest.mark.skipif(BACKEND != "c", reason="compiled kernels unavailable")
INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# rows the compiled shape kernel peels in one pass
K = _kernels.info()["band_width"]

# words at the edges of the fused LIS/LDS pass, which splits a word at
# n // 2 and joins the pile tops of its halves: every permutation of n <= 7;
# words whose whole LIS (or LDS) lies in one half, of even and odd length;
# equal letters on both sides of the midpoint, which the join must not chain;
# and the extreme letters at both ends, where -x would overflow and ~x does not
JOIN_EDGE_WORDS = [
    *(list(w) for n in range(8) for w in itertools.permutations(range(n))),
    [5, 6, 7, 8, 9, 4, 3, 2, 1, 0], [9, 8, 7, 6, 5, 0, 1, 2, 3, 4],
    [5, 6, 7, 8, 9, 9, 4, 3, 2, 1, 0], [9, 8, 7, 6, 5, 0, 0, 1, 2, 3, 4],
    [4, 3, 2, 1, 0, 5, 6, 7, 8, 9], [0, 1, 2, 3, 4, 9, 8, 7, 6, 5, 5],
    [3, 3], [3, 3, 3], [0, 1, 2, 2, 3, 4], [0, 1, 2, 7, 2, 3, 4], [4, 3, 2, 2, 1, 0],
    [1, 5, 5, 1], [2, 1, 2, 1], [1, 2, 1, 2, 1],
    [INT64_MIN], [INT64_MAX], [INT64_MAX, INT64_MIN], [INT64_MIN, INT64_MAX],
    [INT64_MIN, INT64_MAX, INT64_MIN], [INT64_MAX, INT64_MIN, INT64_MAX],
    [INT64_MIN, INT64_MIN, INT64_MAX, INT64_MAX], [INT64_MAX, INT64_MAX, INT64_MIN, INT64_MIN],
    [INT64_MIN, 0, 1, 2, INT64_MAX], [INT64_MAX, 2, 1, 0, INT64_MIN],
    [INT64_MIN, 3, -1, 7, INT64_MIN], [INT64_MAX, -3, 1, -7, INT64_MAX],
]


def with_examples(inputs):
    """Hypothesis examples for a one-argument property test, one per input."""
    def decorate(test):
        for value in inputs:
            test = example(value)(test)
        return test
    return decorate


# (kind, n, seed): a random permutation of size n, or a monotone word
words = st.tuples(
    st.sampled_from(["random", "increasing", "decreasing"]),
    st.integers(0, 10_000),
    st.integers(0, 2**32 - 1),
)


def _zero_based(kind, n, seed):
    if kind == "increasing":
        return np.arange(n, dtype=np.int64)
    if kind == "decreasing":
        return np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.random.default_rng(seed).permutation(n).astype(np.int64)


def _received(xs):
    """(row, letter, column it left, row length, landing column) of every
    letter a row receives from the row above, by a one-row-a-pass peel."""
    out = []
    cur = [(x, None) for x in xs]
    row = 0
    while cur:
        tops, bumped = [], []
        for x, col in cur:
            j = bisect_left(tops, x)
            if col is not None:
                out.append((row, x, col, len(tops), j))
            if j == len(tops):
                tops.append(x)
            else:
                bumped.append((tops[j], j))
                tops[j] = x
        cur, row = bumped, row + 1
    return out


def _hint_window():
    """The slots left of a bumped letter's column that the compiled shape
    kernel checks, after its first band, before it searches the whole row."""
    return _kernels._constant(_kernels._library(), "ps_hint_window")


@compiled
class TestCompiledMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(words)
    @example(("random", 0, 0))
    @example(("random", 1, 0))
    @example(("increasing", 10_000, 0))
    @example(("decreasing", 10_000, 0))
    @example(("decreasing", 2000, 0))
    def test_all_kernels(self, spec):
        kind, n, _ = spec
        perm = _zero_based(*spec)
        word = perm + 1
        assert lis_length(word) == _first_row(word.tolist())
        assert lis_length(word[::-1]) == _first_row(word[::-1].tolist())
        assert lis_lds_lengths(word) == (_first_row(word.tolist()),
                                         _first_row(word[::-1].tolist()))
        shape = insertion_shape(word)
        assert shape.dtype == np.int64
        # a monotone word has a one-row or one-column shape; the reference
        # peel costs n^2 / 2 bisects on a decreasing word (5 s at n = 1e4),
        # so it checks monotone words only up to 2000 letters
        closed_form = {"increasing": [n] if n else [], "decreasing": [1] * n}
        if kind in closed_form:
            assert shape.tolist() == closed_form[kind]
        if kind == "random" or n <= 2000:
            assert shape.tolist() == _shape_py(word.tolist()).tolist()
        # the package hands the kernels the 0-based array: same relative order
        assert lis_lds_lengths(perm) == lis_lds_lengths(word)
        assert insertion_shape(perm).tolist() == shape.tolist()
        _assert_walk(perm)

    @given(st.lists(st.integers(-4, 4) | st.sampled_from([INT64_MIN, INT64_MAX])
                    | st.integers(INT64_MIN, INT64_MAX), max_size=60))
    @example([INT64_MIN, INT64_MAX, INT64_MIN, 0, INT64_MAX, -1])
    @example([INT64_MAX, INT64_MAX, INT64_MIN, INT64_MIN])
    @with_examples(JOIN_EDGE_WORDS)
    def test_arbitrary_int_words(self, xs):
        # strict increase, as bisect_left: repeated values never extend a
        # row; the fused pass's decreasing chains run on ~x, which does not
        # overflow at INT64_MIN or INT64_MAX, and its join of the two halves
        # is strict too
        word = np.asarray(xs, dtype=np.int64)
        assert lis_length(word) == _first_row(xs)
        assert lis_lds_lengths(word) == (_first_row(xs), _first_row(xs[::-1]))
        assert insertion_shape(word).tolist() == _shape_py(xs).tolist()

    @settings(max_examples=25, deadline=None)
    @given(words)
    @example(("random", 0, 0))
    @example(("random", 1, 0))
    @example(("increasing", 10_000, 0))
    @example(("decreasing", 10_000, 0))
    @example(("decreasing", 100, 0))
    def test_row_prefix(self, spec):
        # the first k rows peeled are the first k parts of the whole shape:
        # every k up to 64, and the last rows and two past them
        word = _zero_based(*spec) + 1
        full = insertion_shape(word).tolist()
        rows = len(full)
        for k in sorted({*range(1, min(rows, 64) + 1), rows, rows + 1, rows + 2} - {0}):
            prefix = insertion_shape(word, max_rows=k)
            assert prefix.dtype == np.int64
            assert prefix.tolist() == full[:k]
        # the reference's whole shape is checked above; its prefixes here
        for k in (1, 2, 3):
            assert _shape_py(word.tolist(), max_rows=k).tolist() == full[:k]

    @given(st.lists(st.integers(-2**62, 2**62), max_size=60))
    @example([2, 2, 1, 1, 3, 2, -5, 2])
    def test_row_prefix_arbitrary_int_words(self, xs):
        word = np.asarray(xs, dtype=np.int64)
        full = _shape_py(xs).tolist()
        for k in range(1, len(full) + 3):
            assert insertion_shape(word, max_rows=k).tolist() == full[:k]
            assert _shape_py(xs, max_rows=k).tolist() == full[:k]

    @pytest.mark.parametrize("rows", [K - 1, K, K + 1, 2 * K + 1])
    @pytest.mark.parametrize("seed", range(3))
    def test_band_edges(self, rows, seed):
        # increasing run of decreasing blocks, the longest `rows` long: the
        # shape has exactly that many rows; then prefixes at the band's edges
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, rows + 1, size=40)
        sizes[rng.integers(0, sizes.size)] = rows
        word = np.concatenate([np.arange(start + size, start, -1)
                               for start, size in zip(np.cumsum(sizes) - sizes, sizes)])
        full = _shape_py(word.tolist()).tolist()
        assert len(full) == rows
        assert insertion_shape(word).tolist() == full
        for k in range(1, 2 * K + 2):
            assert insertion_shape(word, max_rows=k).tolist() == full[:k]

    @pytest.mark.parametrize("n", [K - 1, K, K + 1, 2 * K, 2 * K + 1, 100, 3000])
    def test_band_edge_row_limits(self, n):
        word = np.random.default_rng(n).permutation(n).astype(np.int64)
        full = _shape_py(word.tolist()).tolist()
        for k in (1, K - 1, K, K + 1, 2 * K, 2 * K + 1):
            assert insertion_shape(word, max_rows=k).tolist() == full[:k]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 500).flatmap(lambda n: st.lists(
        st.integers(-n // 4, n // 4) | st.integers(-2**62, 2**62), max_size=500)))
    def test_long_words_with_repeats(self, xs):
        word = np.asarray(xs, dtype=np.int64)
        full = _shape_py(xs).tolist()
        assert insertion_shape(word).tolist() == full
        for k in (K - 1, K, K + 1, 2 * K):
            assert insertion_shape(word, max_rows=k).tolist() == full[:k]

    @pytest.mark.parametrize("n", [1000, 3000])
    @pytest.mark.parametrize("seed", range(3))
    def test_far_landings_past_the_first_band(self, n, seed):
        # past the first band a row checks the slots left of the column a
        # letter left, and searches the rest of the row only when they all
        # hold tops >= the letter: these words send letters there, negative
        # ones too, so a pad slot that is not INT64_MIN would count
        word = np.random.default_rng(seed).permutation(n).astype(np.int64) - n // 2
        assert any(row >= K and min(col, length) - j > _hint_window()
                   for row, _, col, length, j in _received(word.tolist()))
        full = _shape_py(word.tolist()).tolist()
        assert len(full) >= 2 * K + 1
        assert insertion_shape(word).tolist() == full
        for k in range(1, 2 * K + 2):
            assert insertion_shape(word, max_rows=k).tolist() == full[:k]

    @pytest.mark.parametrize("xs", [
        [INT64_MIN] * 12,
        [INT64_MIN] * 3 + [9, 8, 7, 6, 5, 4, 3, 2, 1] + [INT64_MIN] * 6,
        [5, 4, INT64_MIN, 3, 2, INT64_MIN, 1, 0, INT64_MIN, -1, INT64_MIN] * 3,
        [x for run in range(8) for x in (INT64_MIN, *range(run, -run - 1, -1))],
    ])
    def test_int64_min_in_short_rows_past_the_first_band(self, xs):
        # INT64_MIN is the one letter the pad slots left of a row's tops
        # count against: it lands in column 0 of rows shorter than the window
        assert any(row >= K and x == INT64_MIN and length < _hint_window()
                   for row, x, _, length, _ in _received(xs))
        word = np.asarray(xs, dtype=np.int64)
        full = _shape_py(xs).tolist()
        assert len(full) >= 2 * K + 1
        assert insertion_shape(word).tolist() == full
        for k in range(1, 2 * K + 2):
            assert insertion_shape(word, max_rows=k).tolist() == full[:k]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, n + 1))))
    def test_partial_sums_against_greene(self, word):
        # Greene: lambda_1 + ... + lambda_k is the largest union of k
        # increasing subsequences, and likewise for the conjugate and
        # decreasing ones; the oracle finds both by scanning subsets
        shape = insertion_shape(np.asarray(word, dtype=np.int64)).tolist()
        conj = [sum(part > j for part in shape) for j in range(len(word))]
        report = greene_report(Permutation(word))
        n = len(word)
        assert tuple(np.cumsum(shape + [0] * (n - len(shape)))) == report.increasing_invariants
        assert tuple(np.cumsum(conj)) == report.decreasing_invariants

    def test_cycle_scan_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_scan(np.array([0, 2], dtype=np.int64))

    def test_greene_scan_on_every_small_permutation(self):
        for n in range(8):
            for word in itertools.permutations(range(n)):
                assert greene_invariants(np.asarray(word, dtype=np.int64)) == _greene_py(word)

    @pytest.mark.parametrize("n, draws", [(8, 200), (9, 200), (10, 200), (16, 5)])
    def test_greene_scan_on_uniform_draws(self, n, draws):
        rng = np.random.default_rng(n)
        for _ in range(draws):
            word = rng.permutation(n).astype(np.int64)
            assert greene_invariants(word) == _greene_py(word.tolist())

    @given(st.lists(st.integers(-3, 3) | st.sampled_from([INT64_MIN, INT64_MAX]), max_size=10,
                    unique=True))
    @example([INT64_MIN, INT64_MAX, 0, -1])
    def test_greene_scan_on_distinct_extreme_letters(self, xs):
        # the decreasing piles hold ~x, which does not overflow at INT64_MIN
        # or INT64_MAX
        assert greene_invariants(np.asarray(xs, dtype=np.int64)) == _greene_py(xs)


@contextlib.contextmanager
def running(backend):
    """The compiled kernels, or the pure-Python ones in their place."""
    if backend == "c" and BACKEND != "c":
        pytest.skip("compiled kernels unavailable")
    with pytest.MonkeyPatch.context() as mp:
        if backend == "python":
            mp.setattr(_kernels, "_library", lambda: None)
        yield


def _batch(words):
    return concat_words([np.asarray(w, dtype=np.int64) for w in words])


def _assert_shape_batch(words, max_rows):
    # each row of the table is the word's one-word peel and its reference,
    # padded with zeros to the most rows of any word
    table = insertion_shape_batch(*_batch(words), max_rows)
    shapes = [_shape_py(w, max_rows).tolist() for w in words]
    assert table.dtype == np.int64
    assert table.shape == (len(words), max(map(len, shapes), default=0))
    for w, shape, row in zip(words, shapes, table.tolist()):
        assert row == shape + [0] * (table.shape[1] - len(shape)), w
        assert insertion_shape(np.asarray(w, dtype=np.int64), max_rows).tolist() == shape, w


def _assert_greene_batch(words):
    # each word's increasing and decreasing invariants, both staying n past
    # its n letters up to the longest word
    table = greene_invariants_batch(*_batch(words))
    width = max(map(len, words), default=0)
    assert table.shape == (len(words), 2, width)
    for w, rows in zip(words, table.tolist()):
        pad = [len(w)] * (width - len(w))
        inc, dec = _greene_py(w)
        assert rows == [[*inc, *pad], [*dec, *pad]], w
        assert greene_invariants(np.asarray(w, dtype=np.int64)) == (inc, dec), w


ROW_LIMITS = [1, 2, 5, ALL_ROWS]
# a ragged batch: the join's edge words with an empty word after each
RAGGED = [w for xs in JOIN_EDGE_WORDS for w in (xs, [])]


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("max_rows", ROW_LIMITS)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4) | st.sampled_from([INT64_MIN, INT64_MAX])
                         | st.integers(INT64_MIN, INT64_MAX), max_size=40), max_size=10))
@example([[], [3, 1, 2], [], [], [5, 4, 3, 2, 1, 0], [7]])
def test_shape_batch_is_the_one_word_peel_of_each_word(backend, max_rows, words):
    with running(backend):
        _assert_shape_batch(words, max_rows)


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("max_rows", ROW_LIMITS)
def test_shape_batch_on_the_join_edge_words(backend, max_rows):
    with running(backend):
        _assert_shape_batch(RAGGED, max_rows)


@pytest.mark.parametrize("backend", ["c", "python"])
@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6) | st.sampled_from([INT64_MIN, INT64_MAX]),
                         max_size=9, unique=True), max_size=10))
@example([[], [2, 0, 1], [], [INT64_MIN, INT64_MAX, 0, -1]])
def test_greene_batch_is_the_one_word_scan_of_each_word(backend, words):
    with running(backend):
        _assert_greene_batch(words)


@pytest.mark.parametrize("backend", ["c", "python"])
def test_greene_batch_on_the_join_edge_words(backend):
    # the pure-Python scan takes about 1 ms a word at n = 7, so it reads
    # the words of up to 5 letters
    top = 7 if backend == "c" else 5
    with running(backend):
        _assert_greene_batch([w for w in RAGGED if len(set(w)) == len(w) <= top])


@pytest.mark.parametrize("backend", ["c", "python"])
def test_batches_check_their_words_and_offsets(backend):
    letters, offsets = _batch([[2, 0, 1], [1, 0]])
    with running(backend):
        for bad in (offsets[1:], offsets[:-1], offsets[::-1], offsets.astype(np.int32),
                    np.array([0, 4, 3, 5])):
            with pytest.raises(ValueError, match="offsets"):
                insertion_shape_batch(letters, bad)
            with pytest.raises(ValueError, match="offsets"):
                greene_invariants_batch(letters, bad)
        for kernel in (insertion_shape_batch, greene_invariants_batch):
            with pytest.raises(ValueError, match="kernels read int64 words"):
                kernel(letters.astype(np.float64), offsets)
        with pytest.raises(ValueError, match="max_rows"):
            insertion_shape_batch(letters, offsets, 0)
        # the word with a repeat is named, wherever it sits in the batch
        with pytest.raises(ValueError, match=r"distinct letters, got \[4, 5, 4\]"):
            greene_invariants_batch(*_batch([[2, 0, 1], [], [4, 5, 4], [1, 0]]))
        with pytest.raises(ValueError, match="too large"):
            greene_invariants_batch(*_batch([[0], list(range(17))]))
        empty = concat_words([])
        assert insertion_shape_batch(*empty).shape == (0, 0)
        assert greene_invariants_batch(*empty).shape == (0, 2, 0)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _standard_tableaux(parts):
    """f_lambda, n! over the product of the hook lengths, in integers."""
    columns = [sum(p > j for p in parts) for j in range(parts[0])] if parts else []
    hooks = math.prod(parts[i] - j + columns[j] - i - 1
                      for i in range(len(parts)) for j in range(parts[i]))
    return math.factorial(sum(parts)) // hooks


@pytest.mark.parametrize("backend, top", [("c", 8), ("python", 6)])
def test_the_shapes_of_all_of_s_n_count_tableau_pairs(backend, top):
    # RS is a bijection onto pairs of standard tableaux of one shape, so one
    # batched peel of all of S_n gives each shape lambda f_lambda^2 times
    with running(backend):
        for n in range(top + 1):
            words = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
            table = insertion_shape_batch(words.ravel(), np.arange(words.shape[0] + 1) * n)
            shapes, counts = np.unique(table, axis=0, return_counts=True)
            got = {tuple(int(p) for p in row if p): int(c) for row, c in zip(shapes, counts)}
            assert got == {parts: _standard_tableaux(parts) ** 2 for parts in _partitions(n)}


def _involutions(n):
    """Every involution of 0..n-1, as a list: the smallest point free so far
    is fixed or paired with a larger free point."""
    def extend(word, free):
        if not free:
            yield list(word)
            return
        a, rest = free[0], free[1:]
        yield from extend(word, rest)
        for b in rest:
            word[a], word[b] = b, a
            yield from extend(word, [f for f in rest if f != b])
            word[a], word[b] = a, b
    return extend(list(range(n)), list(range(n)))


def _pair_up(n, fixed, order):
    """The involution of 0..n-1 that fixes the points of ``fixed`` and pairs
    the others as they come in ``order``; a last unpaired point is fixed."""
    word = list(range(n))
    rest = [x for x in order if x not in fixed]
    for a, b in zip(rest[0::2], rest[1::2]):
        word[a], word[b] = b, a
    return word


# an involution of 0..n-1 with a random set of fixed points
involutions = st.integers(0, 400).flatmap(lambda n: st.builds(
    _pair_up, st.just(n), st.sets(st.integers(0, max(n - 1, 0)), max_size=n),
    st.permutations(range(n))))


@pytest.mark.parametrize("backend", ["c", "python"])
def test_the_shapes_of_all_involutions_count_standard_tableaux(backend):
    # RS maps involutions bijectively onto standard tableaux (P = Q), so one
    # batched peel of every involution of S_n, n <= 10, gives each shape
    # lambda f_lambda times; the compiled kernel peels them by Beissinger's
    # rule, half the insertions of the row peel
    words = [w for n in range(11) for w in _involutions(n)]
    assert len(words) == sum((1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496))
    with running(backend):
        table = insertion_shape_batch(*_batch(words))
        got = Counter((len(w), tuple(p for p in row if p)) for w, row in zip(words, table.tolist()))
        assert got == {(n, parts): _standard_tableaux(parts)
                       for n in range(11) for parts in _partitions(n)}
        for max_rows in ROW_LIMITS:
            _assert_shape_batch(words, max_rows)


@pytest.mark.parametrize("backend", ["c", "python"])
@settings(max_examples=40, deadline=None)
@given(st.lists(involutions, max_size=6))
@example([[i ^ 1 for i in range(300)], [], [i ^ 1 for i in range(299)] + [299],
          [i ^ 1 for i in range(300)] + list(range(319, 299, -1))])
def test_involutions_with_random_fixed_points(backend, words):
    # the adjacent transpositions (0 1)(2 3)... have two rows of n / 2 cells:
    # row 1 reads only n / 2 letters, and the tags fill row 2; with a
    # reversed block after them, rows 3 and below hold cells too
    with running(backend):
        for max_rows in ROW_LIMITS:
            _assert_shape_batch(words, max_rows)


def _near_involutions(seed):
    """Words one step from an involution of 0..n-1, which the compiled peel
    must tell apart from one: a pair broken into a 3-cycle late in the word,
    the 1-based word, the remainder without its fixed points in its original
    labels, as oracles.check_fixed_point_bounds_batch peels it, and a letter
    below 0 or at n or past it, at the start, middle or end."""
    rng = np.random.default_rng(seed)
    n = 200
    order = rng.permutation(n).tolist()
    word = np.array(_pair_up(n, set(order[:20]), order), dtype=np.int64)
    a = np.flatnonzero(word > np.arange(n))[-1]
    fixed = word == np.arange(n)
    c = np.flatnonzero(fixed)[-1]
    broken = word.copy()
    broken[[a, word[a], c]] = word[a], c, a
    out = [broken, word + 1, word[~fixed]]
    for k in (0, n // 2, n - 1):
        for bad in (-1, n, INT64_MIN, INT64_MAX):
            w = word.copy()
            w[k] = bad
            out.append(w)
    return [w.tolist() for w in out]


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("seed", range(3))
def test_near_involutions_take_the_row_peel(backend, seed):
    words = _near_involutions(seed)
    for w in words:
        assert any(not 0 <= x < len(w) or w[x] != k for k, x in enumerate(w)), w
    with running(backend):
        for max_rows in ROW_LIMITS:
            _assert_shape_batch([w for xs in words for w in (xs, [])], max_rows)


# measurements of one trial -> the kernel passes it makes; a trial that peels
# does so once, through schensted_shape
TRIAL_PASSES = {
    ("ell", "lambda1"): {"lis_lds": 1},
    ("ell", "lambda1", "lambda2"): {"lis_lds": 1, "schensted_shape": 1, "insertion_shape": 1},
    ("shape_distance",): {"schensted_shape": 1, "insertion_shape": 1},
    ("shape_distance", "ell", "lambda1", "lambda2"): {"schensted_shape": 1,
                                                      "insertion_shape": 1},
}


@pytest.mark.parametrize("measurements", list(TRIAL_PASSES))
def test_run_trial_makes_one_monotone_pass(monkeypatch, measurements):
    # ell and lambda1 come from one fused pass, never from lis or lds, and
    # from no pass at all when the shape was peeled whole
    calls = Counter()
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "permshape" or key.startswith("permshape."))]
    for name in ("lis_lds", "lis", "lds", "schensted_shape", "insertion_shape"):
        original = getattr(rsk, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    regime = RegimeSpec(ensemble="uniform")
    rec = experiments.run_trial(regime, 3000, 4, 29, measurements)
    assert calls == TRIAL_PASSES[measurements]
    monkeypatch.undo()
    p = sample_regime(regime, 3000, derive_rng(29, 3000, 4))
    if "ell" in measurements:
        assert (rec.lambda1, rec.ell) == (rsk.lis(p), rsk.lds(p))


# the longest permutations the closed-form cycle tests draw: the pure-Python
# scan takes about a second a million points
LONG_N = 10**6 if BACKEND == "c" else 10**4


@settings(max_examples=20, deadline=None)
@given(st.integers(1, LONG_N), st.integers(0, LONG_N))
@example(LONG_N, 1)
@example(LONG_N, LONG_N // 2)
@example(LONG_N - 1, 0)
@example(1, 0)
def test_cycle_scan_closed_forms(n, k):
    # on the backend that runs: the shift i -> i + k mod n has gcd(n, k)
    # cycles of length n / gcd(n, k), the reversal floor(n/2) 2-cycles and
    # n mod 2 fixed points, and the identity n fixed points
    points = np.arange(n, dtype=np.int64)
    cycles = math.gcd(n, k)
    length = n // cycles
    assert cycle_scan((points + k) % n) == (cycles, cycles * (length == 1),
                                            cycles * (length == 2))
    assert cycle_scan(points[::-1]) == (n // 2 + n % 2, n % 2, n // 2)
    assert cycle_scan(points) == (n, n, 0)


def _assert_walk(word):
    # the backend's cycle lengths are the reference walk's, and the counts
    # are read off them
    lengths = _cycle_lengths_py(word.tolist())
    assert cycle_lengths(word).tolist() == lengths
    assert cycle_scan(word) == (len(lengths), lengths.count(1), lengths.count(2))


@pytest.mark.parametrize("backend", ["c", "python"])
def test_cycle_walk_on_every_small_permutation(backend):
    # each S_n for n <= 7 as the rows of one array; over all of S_n a
    # k-cycle, k <= n, occurs n! / k times, so the n! words hold n! H_n
    # cycles, n! fixed points and n! / 2 2-cycles
    with running(backend):
        for n in range(8):
            totals = np.zeros(3, dtype=np.int64)
            for word in np.array(list(itertools.permutations(range(n))), dtype=np.int64):
                _assert_walk(word)
                totals += cycle_scan(word)
            f = math.factorial(n)
            assert totals.tolist() == [sum(f // k for k in range(1, n + 1)),
                                       f * (n >= 1), f // 2 * (n >= 2)]


@pytest.mark.parametrize("backend", ["c", "python"])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1000).flatmap(lambda n: st.permutations(range(n))))
@example([])
@example([0])
@example(list(range(1, 1000)) + [0])
def test_cycle_walk_on_permutations(backend, xs):
    with running(backend):
        _assert_walk(np.asarray(xs, dtype=np.int64))


@pytest.mark.parametrize("backend", ["c", "python"])
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
@example([0, 0])
@example([1, 1, 0])
@example([0] * 1025)
def test_cycle_walk_on_words_that_are_not_bijections(backend, xs):
    # the range check lets them through, and each walk stops at the first
    # letter seen before, as the reference's does
    with running(backend):
        _assert_walk(np.asarray(xs, dtype=np.int64))


@pytest.mark.parametrize("backend", ["c", "python"])
def test_cycle_walk_on_long_random_words(backend):
    rng = np.random.default_rng(10**5)
    with running(backend):
        for _ in range(2):
            _assert_walk(rng.permutation(10**5))
        _assert_walk(rng.integers(0, 10**5, 10**5))


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("xs", [[-1, 0], [0, 5], [0, 2], [-1], [1], [INT64_MIN, 0],
                                [1, 0, INT64_MAX]])
def test_cycle_walk_refuses_a_letter_out_of_range(backend, xs):
    # a negative letter must not index from the end, nor one past n fault
    with running(backend):
        for walk in (cycle_lengths, cycle_scan):
            with pytest.raises(ValueError, match=r"images in \[0, n\)"):
                walk(np.array(xs, dtype=np.int64))


def cycle_runs(n):
    """Run layouts of ``lay_out_cycles`` at size n, flat (length, count)
    pairs: the n-cycle, matchings (a fixed point last at odd n), n // 3 pairs
    then fixed points, and a random composition of n, each part a run of one."""
    rng = np.random.default_rng(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 6), replace=False)) if n else []
    parts = np.diff([0, *cuts, n]).tolist() if n else []
    k = n // 3
    return [(n, 1) if n else (), (2, n // 2, 1, n % 2), (2, k, 1, n - 2 * k),
            tuple(v for part in parts for v in (part, 1))]


# the cycle types (1, 3, 1) and (5, 5, 1), out of order, as runs of one and
# with equal lengths as one run, and a run of no cycles
OUT_OF_ORDER = [((1, 1, 3, 1, 1, 1), 5), ((5, 1, 5, 1, 1, 1), 11), ((5, 2, 1, 1), 11),
                ((2, 0, 1, 3), 3)]
LAYOUTS = [(runs, n) for n in (0, 1, 2, 3, 4, 10, 1000, 10**5)
           for runs in cycle_runs(n)] + OUT_OF_ORDER
# both sides of each power of two up to 2^17, where the shuffle's index mask
# changes: the n-cycle, the matching (even n) and n // 3 pairs then fixed points
BUCKET_EDGES = sorted({v for k in range(1, 18) for v in (2**k - 1, 2**k, 2**k + 1)})
BUCKET_EDGE_LAYOUTS = [(runs, n) for n in BUCKET_EDGES
                       for runs in ((n, 1), (2, n // 2), (2, n // 3, 1, n - 2 * (n // 3)))
                       if runs != (2, n // 2) or n % 2 == 0]


def assert_layout_is_numpys(runs, n, seed, pending, bit_generator=np.random.PCG64):
    """``lay_out_cycles`` against numpy's shuffle (``_lay_out_cycles_py``):
    the word, the state after it, and the next number drawn."""
    rngs = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if pending:
        # leaves the upper half of a 64-bit output buffered (has_uint32 = 1)
        for rng in rngs:
            rng.random(dtype=np.float32)
    got = _kernels.lay_out_cycles(runs, n, rngs[0])
    assert got.dtype == np.int64 and got.flags.writeable
    assert got.tolist() == _kernels._lay_out_cycles_py(runs, n, rngs[1]).tolist()
    assert _plain(rngs[0].bit_generator.state) == _plain(rngs[1].bit_generator.state)
    assert rngs[0].random() == rngs[1].random()


def _plain(state):
    # a bit generator's state with its arrays (MT19937's key, Philox's
    # counter) as lists, so that states compare with ==
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


@compiled
@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("runs, n", LAYOUTS + BUCKET_EDGE_LAYOUTS)
def test_cycle_layout_is_numpys_shuffle(runs, n, pending):
    for seed in range(3 if n >= 10**5 else 10):
        assert_layout_is_numpys(runs, n, seed, pending)


@compiled
def test_a_compiled_layout_leaves_only_its_word():
    # the word is n int64 slots; the arrangement, n uint32 slots with no
    # pad, is let go when the call returns
    n = 10**6
    rng = np.random.default_rng(6)
    _kernels.lay_out_cycles((4, 1), 4, rng)  # loads the library, checks the state
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        word = _kernels.lay_out_cycles((n, 1), n, rng)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert word.shape == (n,)
    assert 0 <= current - start - 8 * n <= 4096
    assert peak - start <= 12 * n + 65536


class PCG64Subclass(np.random.PCG64):
    pass


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                           np.random.PCG64DXSM, PCG64Subclass])
def test_other_bit_generators_take_numpys_shuffle(bit_generator):
    # the kernel reads only the state struct of exactly np.random.PCG64
    for runs, n in LAYOUTS:
        for pending in (False, True):
            assert_layout_is_numpys(runs, n, 5, pending, bit_generator)


def test_pure_python_backend_takes_numpys_shuffle(monkeypatch):
    monkeypatch.setattr(_kernels, "_library", lambda: None)
    for runs, n in LAYOUTS[::3]:
        assert_layout_is_numpys(runs, n, 7, True)


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("n", [0, 1])
def test_cycle_layout_of_at_most_one_element_draws_nothing(monkeypatch, backend, n):
    if backend == "python":
        monkeypatch.setattr(_kernels, "_library", lambda: None)
    elif BACKEND != "c":
        pytest.skip("compiled kernels unavailable")
    for pending in (False, True):
        rng = np.random.default_rng(3)
        if pending:
            rng.random(dtype=np.float32)
        before = rng.bit_generator.state
        assert _kernels.lay_out_cycles((n, 1) if n else (), n, rng).tolist() == list(range(n))
        assert rng.bit_generator.state == before


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("runs, n", [((0, 1), 0), ((2, 3), 5), ((3, 1, 0, 2), 3),
                                     ((1, -1, 2, 1), 1), ((3, 2**62, 1, 1), 4), ((4, 1), 3)])
def test_runs_that_do_not_tile_n_are_refused(monkeypatch, backend, runs, n):
    # before the kernel writes anything or draws from the stream
    if backend == "python":
        monkeypatch.setattr(_kernels, "_library", lambda: None)
    elif BACKEND != "c":
        pytest.skip("compiled kernels unavailable")
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    for given in (runs, np.asarray(runs, dtype=np.int64)):
        with pytest.raises(ValueError, match="do not tile"):
            _kernels.lay_out_cycles(given, n, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("runs, n", [((3, 1, 5), 3), ((2.5, 2), 4), ((2.0, 2), 4)])
def test_runs_of_odd_count_or_floats_are_refused(monkeypatch, backend, runs, n):
    # the kernel would read (3, 1) and drop the 5, and an int64 cast would
    # read 2.5 as 2: both tile n, so both are refused before any draw
    if backend == "python":
        monkeypatch.setattr(_kernels, "_library", lambda: None)
    elif BACKEND != "c":
        pytest.skip("compiled kernels unavailable")
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    for given in (runs, np.asarray(runs)):
        with pytest.raises(ValueError, match="do not tile"):
            _kernels.lay_out_cycles(given, n, rng)
    assert rng.bit_generator.state == before


@compiled
def test_a_pcg64_state_read_wrong_takes_numpys_shuffle(monkeypatch):
    # as if numpy kept each 128-bit value high half first (its emulated
    # 128-bit type): the guard must see it and send every draw to numpy
    read = _kernels._pcg64_fields

    def read_swapped(lib, bit_generator):
        state, inc, *rest = read(lib, bit_generator)
        return [(v >> 64) | (v & (2**64 - 1)) << 64 for v in (state, inc)] + rest

    spec = RegimeSpec(ensemble="n_cycle")
    draws = [sample_regime(spec, 50, derive_rng(2, t)).word.tolist() for t in range(3)]
    assert _kernels._reads_pcg64(_kernels._library())
    monkeypatch.setattr(_kernels, "_pcg64_fields", read_swapped)
    _kernels._reads_pcg64.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="PCG64 state"):
            assert_layout_is_numpys((4, 1), 4, 0, False)
        for runs, n in LAYOUTS[::2]:
            assert_layout_is_numpys(runs, n, 9, True)
        assert [sample_regime(spec, 50, derive_rng(2, t)).word.tolist()
                for t in range(3)] == draws
    finally:
        _kernels._reads_pcg64.cache_clear()


@pytest.mark.parametrize("max_rows", [0, 2.5])
@pytest.mark.parametrize("word", [[], [1], [3, 1, 2], [4, 3, 2, 1, 0]])
def test_row_limit_must_be_positive(word, max_rows):
    # on the backend that runs, and on the pure-Python reference; a
    # fractional limit is no row count either
    with pytest.raises(ValueError, match="max_rows"):
        insertion_shape(np.asarray(word, dtype=np.int64), max_rows=max_rows)
    with pytest.raises(ValueError, match="max_rows"):
        _shape_py(word, max_rows=max_rows)


@pytest.mark.parametrize("backend", ["c", "python"])
def test_empty_word(monkeypatch, backend):
    # the kernels' general path covers n = 0: no pile, no row
    if backend == "python":
        monkeypatch.setattr(_kernels, "_library", lambda: None)
    elif BACKEND != "c":
        pytest.skip("compiled kernels unavailable")
    empty = np.empty(0, dtype=np.int64)
    assert lis_lds_lengths(empty) == (0, 0)
    assert cycle_scan(empty) == (0, 0, 0)
    for max_rows in (ALL_ROWS, 1, 5):
        shape = insertion_shape(empty, max_rows)
        assert shape.dtype == np.int64 and shape.shape == (0,)


@pytest.mark.parametrize("backend", ["c", "python"])
@pytest.mark.parametrize("word", [np.array([0.2, 0.5]), np.array([1.7, 0.2]),
                                  np.array([True, False]),
                                  np.array([2**63, 1], dtype=np.uint64),
                                  np.array([2, 0, 1], dtype=np.uint64),
                                  np.array([2, 0, 1], dtype=np.int32), [2, 0, 1], (2, 0, 1),
                                  np.array([[1, 0], [0, 1]]), np.int64(0)],
                         ids=["float", "float-cycle", "bool", "uint64-past-int64", "uint64",
                              "int32", "list", "tuple", "2-d", "scalar"])
def test_kernels_reject_words_an_int64_view_would_change(monkeypatch, backend, word):
    # cast to int64, the first four would read as other words on the compiled
    # backend; the kernels read int64 words only, so both backends refuse
    # every other dtype, even one whose values an int64 view would keep, a
    # list or tuple of ints, and an int64 array of two axes (once read as
    # the word of its first row) or none
    if backend == "python":
        monkeypatch.setattr(_kernels, "_library", lambda: None)
    elif BACKEND != "c":
        pytest.skip("compiled kernels unavailable")
    for kernel in (lis_lds_lengths, insertion_shape, cycle_scan, cycle_lengths,
                   greene_invariants):
        with pytest.raises(ValueError, match="kernels read int64 words"):
            kernel(word)


@pytest.mark.parametrize("backend", ["c", "python"])
def test_greene_scan_sizes(monkeypatch, backend):
    # an empty word has no invariants; past 16 letters the scan refuses
    if backend == "python":
        monkeypatch.setattr(_kernels, "_library", lambda: None)
    elif BACKEND != "c":
        pytest.skip("compiled kernels unavailable")
    assert greene_report(Permutation([])) == GreeneReport((), ())
    assert greene_report(Permutation([1])) == GreeneReport((1,), (1,))
    with pytest.raises(ValueError, match="too large"):
        greene_report(Permutation.identity(17))


@pytest.mark.parametrize("backend", ["c", "python"])
def test_greene_scan_rejects_a_repeated_letter(monkeypatch, backend):
    # on [1, 1] the scan would give increasing invariants (2, 2), not the
    # shape's partial sums (1, 2)
    if backend == "python":
        monkeypatch.setattr(_kernels, "_library", lambda: None)
    elif BACKEND != "c":
        pytest.skip("compiled kernels unavailable")
    with pytest.raises(ValueError, match="distinct letters"):
        greene_invariants(np.array([1, 1], dtype=np.int64))


@compiled
def test_greene_fallback_gives_the_same_reports(monkeypatch):
    rng = np.random.default_rng(5)
    perms = [Permutation.from_zero_based(rng.permutation(n)) for n in range(11) for _ in range(5)]
    compiled_reports = [greene_report(p) for p in perms]
    monkeypatch.setattr(_kernels, "_library", lambda: None)
    assert [greene_report(p) for p in perms] == compiled_reports


@compiled
def test_concurrent_builds_into_empty_cache(tmp_path):
    # each builder publishes by atomic rename, so every process loads a
    # whole library and no temporary file is left behind
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(Path(permshape.__file__).parents[1]))
    script = ("from permshape import _kernels; import numpy as np; "
              "print(_kernels.BACKEND, _kernels.insertion_shape(np.array([3, 1, 4, 2, 5])))")
    procs = [subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(3)]
    results = [p.communicate(timeout=120) for p in procs]
    assert [(out, err) for out, err in results] == [("c [3 2]\n", "")] * 3
    built = list((tmp_path / "permshape").iterdir())
    assert [p.suffix for p in built] == [".so"]


@compiled
def test_build_removes_the_libraries_of_other_sources(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "permshape"
    source = _kernels._SOURCE.read_text()
    try:
        for variant in ("first", "second"):
            path = tmp_path / f"{variant}.c"
            path.write_text(f"{source}\n/* {variant} */\n")
            monkeypatch.setattr(_kernels, "_SOURCE", path)
            _kernels._library.cache_clear()
            assert _kernels.BACKEND == "c"
            built = sorted(cache.iterdir())
            assert len(built) == 1 and _kernels.info()["library"] == str(built[0])
    finally:
        _kernels._library.cache_clear()
    # a process whose library was removed by another source's build builds
    # it again, and removes that one in turn
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(Path(permshape.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", "from permshape import _kernels; "
                           "print(_kernels.BACKEND, _kernels.info()['library'])"],
                          env=env, capture_output=True, text=True, timeout=120)
    backend, library = done.stdout.split()
    assert (backend, done.stderr) == ("c", "")
    assert [str(p) for p in cache.iterdir()] == [library] != [str(built[0])]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_failed_build_warns_with_the_compiler_errors(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    broken = tmp_path / "broken.c"
    broken.write_text("int ps_broken( {\n")
    monkeypatch.setattr(_kernels, "_SOURCE", broken)
    _kernels._library.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="pure Python") as caught:
            assert _kernels.BACKEND == "python"
        assert "error" in str(caught[0].message)
        assert list((tmp_path / "permshape").iterdir()) == []
    finally:
        _kernels._library.cache_clear()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_source_compiles_without_warnings(tmp_path):
    # an object is built, as only code generation sizes the stack frames:
    # the caller passes every array a kernel writes, so no frame is large
    done = subprocess.run(["cc", "-std=c11", "-Wall", "-Wextra", "-pedantic", "-Werror",
                           "-Wvla", "-Wframe-larger-than=1024", "-O2", "-c", "-o",
                           str(tmp_path / "kernels.o"), str(_kernels._SOURCE)],
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


def test_no_kernel_allocates():
    # so no kernel can fail for want of memory
    source = _kernels._SOURCE.read_text()
    assert re.findall(r"\b(?:malloc|calloc|realloc|free|alloca)\s*\(", source) == []


# the involution peel's edge words: involutions of n = 0, 1 and 2, the
# adjacent transpositions, whose tags fill row 2, the reversal, an involution
# of 40 rows, one with fixed points and its near misses, and letters out of
# range, at either end, for the check that picks the peel
INVOLUTION_EDGE_WORDS = [
    [], [0], [0, 1], [1, 0],
    [i ^ 1 for i in range(40)], list(range(39, -1, -1)),
    _pair_up(300, set(range(0, 300, 7)), np.random.default_rng(0).permutation(300).tolist()),
    *_near_involutions(0),
    [-1], [1], [0, 2], [2, 1, 0, -1], [1, 0, 3], [INT64_MIN, 0], [1, 0, INT64_MAX],
    [INT64_MAX, 1, 0], [3, 2, 1, 0, 4, 5, 2**32 + 6],
]

# run in a child process on a library built with a sanitizer: each compiled
# kernel on the join's edge words, against the pure-Python references, the
# shape batch on the involution peel's edge words, the cycle walk on words
# that are not bijections, and the cycle layout against numpy's shuffle; a
# fault aborts the child
SANITIZER_SCRIPT = """
import ctypes, json, sys
import numpy as np
from permshape import _kernels
lib = ctypes.CDLL(sys.argv[1])
for name, (argtypes, restype) in _kernels._SIGNATURES.items():
    fn = getattr(lib, name)
    fn.argtypes, fn.restype = argtypes, restype
_kernels._library = lambda: lib
first_row = lambda ys: sum(_kernels._shape_py(ys, 1).tolist())
words, involutions, layouts = json.load(sys.stdin)
for xs in words:
    word = np.asarray(xs, dtype=np.int64)
    assert _kernels.lis_lds_lengths(word) == (first_row(xs), first_row(xs[::-1])), xs
    assert _kernels.insertion_shape(word).tolist() == _kernels._shape_py(xs).tolist(), xs
    if sorted(xs) == list(range(len(xs))):
        assert _kernels.cycle_lengths(word).tolist() == _kernels._cycle_lengths_py(xs), xs
    if len(set(xs)) == len(xs) and len(xs) <= 5:
        assert _kernels.greene_invariants(word) == _kernels._greene_py(xs), xs
# the cycle walk on in-range words that are not bijections: each walk
# marks its start, a new letter, so the kernel writes at most n lengths
for xs in ([0, 0], [1, 1, 0], [0] * 1025, [1024] * 1025, [2, 0, 0, 2]):
    word = np.asarray(xs, dtype=np.int64)
    assert _kernels.cycle_lengths(word).tolist() == _kernels._cycle_lengths_py(xs), xs
# both batch entry points, on the words as one ragged batch with an empty
# word after each, and the shape batch on the involution edge words so
ragged = [w for xs in words for w in (xs, [])]
batch = lambda ws: _kernels.concat_words([np.asarray(w, dtype=np.int64) for w in ws])
for ws in (ragged, [w for xs in involutions for w in (xs, [])]):
    for max_rows in (1, 2, 5, _kernels.ALL_ROWS):
        table = _kernels.insertion_shape_batch(*batch(ws), max_rows).tolist()
        for xs, row in zip(ws, table):
            shape = _kernels._shape_py(xs, max_rows).tolist()
            assert row == shape + [0] * (len(row) - len(shape)), xs
distinct = [xs for xs in ragged if len(set(xs)) == len(xs) <= 5]
table = _kernels.greene_invariants_batch(*batch(distinct)).tolist()
for xs, rows in zip(distinct, table):
    pad = [len(xs)] * (len(rows[0]) - len(xs))
    assert rows == [list(part) + pad for part in _kernels._greene_py(xs)], xs
# the cycle layout on every run shape, with and without a buffered half,
# against numpy's shuffle: the word, the state after it and the next number
for runs, n in layouts:
    for pending in (False, True):
        rngs = [np.random.default_rng(n) for _ in range(2)]
        if pending:
            for rng in rngs:
                rng.random(dtype=np.float32)
        got = _kernels.lay_out_cycles(runs, n, rngs[0]).tolist()
        assert got == _kernels._lay_out_cycles_py(runs, n, rngs[1]).tolist(), (runs, n)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state, (runs, n)
        assert rngs[0].random() == rngs[1].random(), (runs, n)
for runs, n in [((0, 1), 0), ((2, 3), 5), ((1, -1, 2, 1), 1), ((3, 2**62, 1, 1), 4)]:
    try:
        _kernels.lay_out_cycles(runs, n, np.random.default_rng(0))
    except ValueError:
        continue
    raise AssertionError(runs)
print("ok")
"""

# the layouts the sanitized children run: n = 0 to 3, the edges of the
# shuffle's first mask buckets, and n = 1000 and both sides of 1024, the
# edge of a later one; each prefetches up to the arrangement's last slot
SANITIZER_LAYOUTS = [(runs, n) for n in (0, 1, 2, 3, 4, 5, 7, 8, 9, 1000, 1023, 1024, 1025)
                     for runs in cycle_runs(n)] + OUT_OF_ORDER


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernels_run_clean_under_the_undefined_behaviour_sanitizer(tmp_path):
    # guards the order reversal ~x (-x overflows on INT64_MIN) and the
    # indices of the fused pass's join; the child aborts on the first fault
    library = tmp_path / "kernels-ubsan.so"
    built = subprocess.run(["cc", "-O1", "-fsanitize=undefined", "-fno-sanitize-recover=all",
                            "-shared", "-fPIC", "-o", str(library), str(_kernels._SOURCE)],
                           capture_output=True, text=True)
    assert (built.returncode, built.stderr) == (0, "")
    env = dict(os.environ, PYTHONPATH=str(Path(permshape.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", SANITIZER_SCRIPT, str(library)],
                          input=json.dumps([JOIN_EDGE_WORDS, INVOLUTION_EDGE_WORDS, SANITIZER_LAYOUTS]),
                          env=env, capture_output=True,
                          text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernels_stay_in_their_scratch_under_the_address_sanitizer(tmp_path):
    # every scratch array a wrapper sizes holds all that its kernel writes:
    # a batch's words share the work space of the longest one
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("no AddressSanitizer runtime")
    library = tmp_path / "kernels-asan.so"
    built = subprocess.run(["cc", "-O1", "-fsanitize=address", "-shared", "-fPIC", "-o",
                            str(library), str(_kernels._SOURCE)], capture_output=True, text=True)
    assert (built.returncode, built.stderr) == (0, "")
    env = dict(os.environ, PYTHONPATH=str(Path(permshape.__file__).parents[1]),
               LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0")
    done = subprocess.run([sys.executable, "-c", SANITIZER_SCRIPT, str(library)],
                          input=json.dumps([JOIN_EDGE_WORDS, INVOLUTION_EDGE_WORDS, SANITIZER_LAYOUTS]),
                          env=env, capture_output=True,
                          text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


def test_fallback_without_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path))
    _kernels._library.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="pure Python"):
            assert _kernels.BACKEND == "python"
        assert _kernels.info() == {"backend": "python", "library": None, "band_width": 1}
        word = np.array([3, 1, 4, 2, 5], dtype=np.int64)
        assert lis_length(word) == 3
        assert lis_lds_lengths(word) == (3, 2)
        assert insertion_shape(word).tolist() == [3, 2]
        assert insertion_shape(word, max_rows=1).tolist() == [3]
        with pytest.raises(ValueError, match="max_rows"):
            insertion_shape(word, max_rows=0)
        assert cycle_scan(word - 1) == (2, 1, 0)
    finally:
        _kernels._library.cache_clear()
