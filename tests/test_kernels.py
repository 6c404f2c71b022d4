import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permshape
from permshape import _kernels
from permshape._kernels import (
    BACKEND,
    _cycle_scan_py,
    _lis_py,
    _shape_py,
    cycle_scan,
    insertion_shape,
    lis_length,
)

compiled = pytest.mark.skipif(BACKEND != "c", reason="compiled kernels unavailable")

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


@compiled
class TestCompiledMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(words)
    @example(("random", 0, 0))
    @example(("random", 1, 0))
    @example(("increasing", 10_000, 0))
    @example(("decreasing", 10_000, 0))
    def test_all_kernels(self, spec):
        perm = _zero_based(*spec)
        word = perm + 1
        assert lis_length(word) == _lis_py(word.tolist())
        assert lis_length(word[::-1]) == _lis_py(word[::-1].tolist())
        shape = insertion_shape(word)
        assert shape.dtype == np.int64
        assert shape.tolist() == _shape_py(word.tolist()).tolist()
        assert cycle_scan(perm) == _cycle_scan_py(perm)

    @given(st.lists(st.integers(-2**62, 2**62), max_size=60))
    def test_arbitrary_int_words(self, xs):
        # strict increase, as bisect_left: repeated values never extend a row
        word = np.asarray(xs, dtype=np.int64)
        assert lis_length(word) == _lis_py(xs)
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

    def test_cycle_scan_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_scan(np.array([0, 2], dtype=np.int64))


@pytest.mark.parametrize("word", [[], [1], [3, 1, 2]])
def test_row_limit_must_be_positive(word):
    # on the backend that runs, and on the pure-Python reference
    with pytest.raises(ValueError, match="max_rows"):
        insertion_shape(np.asarray(word, dtype=np.int64), max_rows=0)
    with pytest.raises(ValueError, match="max_rows"):
        _shape_py(word, max_rows=0)


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


def test_fallback_without_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path))
    _kernels._library.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="pure Python"):
            assert _kernels.BACKEND == "python"
        word = np.array([3, 1, 4, 2, 5], dtype=np.int64)
        assert lis_length(word) == 3
        assert insertion_shape(word).tolist() == [3, 2]
        assert insertion_shape(word, max_rows=1).tolist() == [3]
        with pytest.raises(ValueError, match="max_rows"):
            insertion_shape(word, max_rows=0)
        assert cycle_scan(word - 1) == (2, 1, 0)
    finally:
        _kernels._library.cache_clear()
