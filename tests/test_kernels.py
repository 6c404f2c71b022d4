import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permshape
from permshape import _kernels, experiments, rsk
from permshape._kernels import (
    BACKEND,
    _cycle_scan_py,
    _lis_py,
    _shape_py,
    cycle_scan,
    insertion_shape,
    lis_lds_lengths,
    lis_length,
)
from permshape.oracles import greene_report
from permshape.perm import Permutation
from permshape.samplers import RegimeSpec, derive_rng, sample_regime

compiled = pytest.mark.skipif(BACKEND != "c", reason="compiled kernels unavailable")
INT64_MIN, INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# rows the compiled shape kernel peels in one pass
K = _kernels.info()["band_width"]

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
        assert lis_lds_lengths(word) == (_lis_py(word.tolist()), _lis_py(word[::-1].tolist()))
        shape = insertion_shape(word)
        assert shape.dtype == np.int64
        assert shape.tolist() == _shape_py(word.tolist()).tolist()
        # the package hands the kernels the 0-based array: same relative order
        assert lis_lds_lengths(perm) == lis_lds_lengths(word)
        assert insertion_shape(perm).tolist() == shape.tolist()
        assert cycle_scan(perm) == _cycle_scan_py(perm)

    @given(st.lists(st.integers(-4, 4) | st.sampled_from([INT64_MIN, INT64_MAX])
                    | st.integers(INT64_MIN, INT64_MAX), max_size=60))
    @example([INT64_MIN, INT64_MAX, INT64_MIN, 0, INT64_MAX, -1])
    @example([INT64_MAX, INT64_MAX, INT64_MIN, INT64_MIN])
    def test_arbitrary_int_words(self, xs):
        # strict increase, as bisect_left: repeated values never extend a
        # row; the fused pass's decreasing chain runs on ~x, which does not
        # overflow at INT64_MIN or INT64_MAX
        word = np.asarray(xs, dtype=np.int64)
        assert lis_length(word) == _lis_py(xs)
        assert lis_lds_lengths(word) == (_lis_py(xs), _lis_py(xs[::-1]))
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
        for k in (K - 1, K, K + 1, 2 * K):
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
