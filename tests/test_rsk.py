import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permshape.diagram import YoungDiagram
from permshape.perm import Permutation
from permshape.rsk import lds, lis, lis_lds, schensted_shape
from permshape.samplers import CORES, ENSEMBLES, RegimeSpec, derive_rng, sample_regime

# one regime for every ensemble, a composite one for every core
SYMMETRY_REGIMES = [
    *(RegimeSpec(name) for name in ENSEMBLES if name not in ("uniform_in_cycle_type", "composite")),
    RegimeSpec("uniform_in_cycle_type", cycle_type=(3,) * 33333 + (1,)),
    *(RegimeSpec("composite", core=core, fix_rule="power", beta=0.5, c=1.0) for core in CORES),
]

partitions = st.lists(st.integers(1, 12), max_size=10).map(
    lambda xs: YoungDiagram(tuple(sorted(xs, reverse=True)))
)


class TestYoungDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            YoungDiagram((1, 2))
        with pytest.raises(ValueError):
            YoungDiagram((2, 0))

    def test_text_round_trip(self):
        d = YoungDiagram.from_text("3,1,1,1")
        assert d.parts == (3, 1, 1, 1) and d.n == 6
        assert d.to_text() == "3,1,1,1"
        assert YoungDiagram.from_text("").parts == ()

    def test_part_with_implicit_zeros(self):
        d = YoungDiagram((2, 1))
        assert d.part(1) == 2 and d.part(3) == 0
        with pytest.raises(IndexError):
            d.part(0)


class TestConjugate:
    def test_hand_transpose(self):
        assert YoungDiagram((3, 1, 1, 1)).conjugate().parts == (4, 1, 1)

    def test_row_to_column(self):
        assert YoungDiagram((5,)).conjugate().parts == (1, 1, 1, 1, 1)
        assert YoungDiagram(()).conjugate().parts == ()

    @given(partitions)
    def test_involution(self, d):
        assert d.conjugate().conjugate() == d

    @given(partitions)
    def test_preserves_size(self, d):
        assert d.conjugate().n == d.n


class TestSchenstedShape:
    def test_hand_run(self):
        # bump chain 5 -> 3 -> 2 -> 1 builds the first column
        assert schensted_shape(Permutation([5, 3, 2, 1, 4, 6])).parts == (3, 1, 1, 1)

    def test_monotone_words(self):
        assert schensted_shape(Permutation.identity(7)).parts == (7,)
        assert schensted_shape(Permutation(list(range(7, 0, -1)))).parts == (1,) * 7
        assert schensted_shape(Permutation([])).parts == ()

    def test_matches_reference_row_insertion(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(0, 40))
            p = Permutation.from_zero_based(rng.permutation(n))
            expected = _row_insertion_shape(p.word)
            assert schensted_shape(p).parts == expected
            for k in (1, 2, 3):
                head = schensted_shape(p, max_rows=k).parts
                assert head == expected[:k] and all(type(x) is int for x in head)

    def test_shape_of_inverse_is_same(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 17, 100, 500):
            p = Permutation.from_zero_based(rng.permutation(n))
            assert schensted_shape(p.inverse()) == schensted_shape(p)

    @pytest.mark.parametrize("i", range(len(SYMMETRY_REGIMES)),
                             ids=[f"{r.ensemble}-{r.core}" if r.core else r.ensemble
                                  for r in SYMMETRY_REGIMES])
    def test_symmetries_at_scale(self, i):
        # the compiled peel meets its Python reference only at small n; at
        # 1e5 the RS symmetries check it, its bands and window included
        n = 100_000
        p = sample_regime(SYMMETRY_REGIMES[i], n, derive_rng(24, i))
        shape = schensted_shape(p)
        assert schensted_shape(p.inverse()) == shape
        assert lis_lds(p) == (shape.part(1), shape.num_rows)
        # the reversal's shape has lambda1 rows, and peeling costs about
        # sum(i * lambda_i), so it is cheap only for a short first row
        assert shape.part(1) <= 4 * math.sqrt(n)
        reversed_p = Permutation.from_zero_based(p.zero_based[::-1])
        assert schensted_shape(reversed_p) == shape.conjugate()


def _row_insertion_shape(word):
    """Reference Schensted: explicit rows with bumping."""
    from bisect import bisect_left

    rows = []
    for x in word:
        x = int(x)
        for row in rows:
            j = bisect_left(row, x)
            if j == len(row):
                row.append(x)
                break
            x, row[j] = row[j], x
        else:
            rows.append([x])
    return tuple(len(r) for r in rows)


class TestFastPaths:
    def test_lis_example(self):
        assert lis(Permutation([5, 3, 2, 1, 4, 6])) == 3

    def test_lds_example(self):
        assert lds(Permutation([5, 3, 2, 1, 4, 6])) == 4

    def test_monotone(self):
        assert lis(Permutation.identity(9)) == 9
        assert lds(Permutation.identity(9)) == 1
        assert lis(Permutation([])) == 0

    def test_agree_with_shape(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 500))
            p = Permutation.from_zero_based(rng.permutation(n))
            shape = schensted_shape(p)
            assert lis(p) == shape.part(1)
            assert lds(p) == shape.num_rows
