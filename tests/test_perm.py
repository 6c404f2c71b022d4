import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from permshape.perm import (
    CycleStats,
    Permutation,
    conjugate,
    cycle_stats,
    plant_fixed_points,
    remove_fixed_points,
)

perm_words = st.integers(0, 40).flatmap(lambda n: st.permutations(list(range(1, n + 1))))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])
        with pytest.raises(ValueError):
            Permutation([0, 1])
        with pytest.raises(ValueError):
            Permutation([2, 3])

    @pytest.mark.parametrize("word", [[1_000_000_000_000_000], [-3, 1, 2]])
    def test_rejects_out_of_range_letters(self, word):
        # checked before counting, so the count never sizes itself by max(word)
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation(word)

    def test_rejects_non_integer_words(self):
        for word in ([1.7, 2.2], [1.0, 2.0], np.array([2.0, 1.0]), [True], ["1", "2"]):
            with pytest.raises(ValueError):
                Permutation(word)
        assert Permutation(np.array([2, 1], dtype=np.uint8)) == Permutation([2, 1])

    def test_rejects_nested_words(self):
        # past the flat check, [[1, 2]] would fail only as "not a bijection"
        with pytest.raises(ValueError, match="must be a flat sequence"):
            Permutation([[1, 2]])

    def test_empty_and_identity(self):
        assert Permutation([]).n == 0
        assert Permutation.identity(4) == Permutation([1, 2, 3, 4])

    def test_text_round_trip(self):
        p = Permutation.from_text("5 3 2 1 4 6")
        assert p.to_text() == "5 3 2 1 4 6"
        assert Permutation.from_text("") == Permutation.identity(0)
        assert Permutation.from_text(" \n") == Permutation.identity(0)

    def test_call_is_one_based(self):
        p = Permutation([5, 3, 2, 1, 4, 6])
        assert p(1) == 5 and p(6) == 6
        with pytest.raises(IndexError):
            p(0)

    def test_inverse(self):
        p = Permutation([5, 3, 2, 1, 4, 6])
        q = p.inverse()
        assert all(q(p(i)) == i for i in range(1, 7))

    def test_word_is_fresh_and_internal_readonly(self):
        p = Permutation([2, 1])
        w = p.word
        w[0] = 99
        assert p == Permutation([2, 1])
        with pytest.raises(ValueError):
            p.zero_based[0] = 5

    def test_from_zero_based_takes_ownership(self):
        arr = np.random.default_rng(3).permutation(50)
        p = Permutation.from_zero_based(arr)
        assert np.shares_memory(p.zero_based, arr)
        with pytest.raises(ValueError):
            arr[0] = 5


class TestCycleStats:
    def test_paper_example(self):
        # hand decomposition: (1 5 4)(2 3)(6)
        assert cycle_stats(Permutation([5, 3, 2, 1, 4, 6])) == CycleStats(6, 3, 1, 1, 3)

    def test_identity(self):
        assert cycle_stats(Permutation.identity(5)) == CycleStats(5, 5, 5, 0, 5)

    def test_two_transpositions(self):
        assert cycle_stats(Permutation([2, 1, 4, 3])) == CycleStats(4, 2, 0, 2, 4)

    def test_empty(self):
        assert cycle_stats(Permutation([])) == CycleStats(0, 0, 0, 0, 0)

    @given(perm_words)
    def test_square_fixed_point_identity(self, word):
        p = Permutation(word)
        cs = cycle_stats(p)
        assert cs.fixed_points_of_square == cs.fixed_points + 2 * cs.two_cycles
        # the square really has that many fixed points
        z = p.zero_based
        assert int((z[z] == np.arange(p.n)).sum()) == cs.fixed_points_of_square
        assert cs.fixed_points <= cs.num_cycles <= p.n

    @given(perm_words, perm_words)
    def test_conjugation_preserves_cycle_stats(self, w1, w2):
        n = min(len(w1), len(w2))
        p, r = Permutation(_clip(w1, n)), Permutation(_clip(w2, n))
        assert cycle_stats(conjugate(p, r)) == cycle_stats(p)


def _clip(word, n):
    # the values <= n of a permutation word form a permutation of 1..n
    return [v for v in word if v <= n]


class TestSquare:
    # the square of a 0-based permutation z is z[z]; cycle_stats counts its
    # fixed points without forming it
    def test_identity(self):
        p = Permutation.identity(3)
        z = p.zero_based
        assert z[z].tolist() == [0, 1, 2]
        assert cycle_stats(p).fixed_points_of_square == 3

    def test_involution_squares_to_identity(self):
        p = Permutation([2, 1])
        z = p.zero_based
        assert z[z].tolist() == [0, 1]
        assert cycle_stats(p).fixed_points_of_square == 2

    def test_hand_composition(self):
        p = Permutation([5, 3, 2, 1, 4, 6])
        z = p.zero_based
        assert (z[z] + 1).tolist() == [4, 2, 3, 5, 1, 6]
        # fixes 2, 3 and 6: the 2-cycle (2 3) and the fixed point 6
        assert cycle_stats(p).fixed_points_of_square == 3

    @given(perm_words)
    def test_involution_powers(self, word):
        # an involution is a permutation whose square fixes all n points
        p = Permutation(word)
        z = p.zero_based
        involution = bool((z[z] == np.arange(p.n)).all())
        assert involution == (cycle_stats(p).fixed_points_of_square == p.n)


class TestConjugate:
    def test_by_identity(self):
        p = Permutation([3, 1, 2])
        assert conjugate(p, Permutation.identity(3)) == p

    def test_hand_composition(self):
        # via (r p r^-1)(r(i)) = r(p(i))
        assert conjugate(Permutation([2, 1, 3]), Permutation([1, 3, 2])) == Permutation([3, 2, 1])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(Permutation([1]), Permutation([1, 2]))


class TestFixedPointSplit:
    # fixed points come back 0-based; + 1 reads them as the 1-based points of p
    def test_paper_example(self):
        fixed, reduced = remove_fixed_points(Permutation([5, 3, 2, 1, 4, 6]))
        assert fixed.dtype == np.int64 and (fixed + 1).tolist() == [6]
        assert reduced == Permutation([5, 3, 2, 1, 4])

    def test_identity_reduces_to_empty(self):
        fixed, reduced = remove_fixed_points(Permutation.identity(3))
        assert (fixed + 1).tolist() == [1, 2, 3]
        assert reduced.n == 0

    def test_relabel_is_order_preserving(self):
        fixed, reduced = remove_fixed_points(Permutation([3, 4, 1, 2, 5]))
        assert (fixed + 1).tolist() == [5]
        assert reduced == Permutation([3, 4, 1, 2])

    def test_interleaved_relabeling(self):
        # fixed points in the middle force a nontrivial relabeling
        fixed, reduced = remove_fixed_points(Permutation([4, 2, 3, 1]))
        assert (fixed + 1).tolist() == [2, 3]
        assert reduced == Permutation([2, 1])

    @given(perm_words)
    def test_round_trip(self, word):
        p = Permutation(word)
        fixed, reduced = remove_fixed_points(p)
        assert cycle_stats(reduced).fixed_points == 0
        assert plant_fixed_points(fixed, reduced) == p

    def test_round_trip_large(self):
        rng = np.random.default_rng(123)
        p = Permutation.from_zero_based(rng.permutation(1000))
        assert plant_fixed_points(*remove_fixed_points(p)) == p

    def test_plant_ignores_the_order_of_the_points(self):
        core = Permutation([2, 1])
        assert plant_fixed_points(np.array([3, 0]), core) == Permutation([1, 3, 2, 4])
        assert plant_fixed_points(np.array([0, 3]), core) == Permutation([1, 3, 2, 4])

    @pytest.mark.parametrize("point", [-1, 2])
    def test_plant_rejects_a_point_outside_the_permutation(self, point):
        # n = 2 here; numpy would wrap -1 to the last point
        with pytest.raises(ValueError, match="outside"):
            plant_fixed_points(np.array([point]), Permutation([1]))

    def test_plant_rejects_a_point_given_twice(self):
        # else the core's image would be written twice: the word 1 2 2
        with pytest.raises(ValueError, match="twice"):
            plant_fixed_points(np.array([0, 0]), Permutation([1]))
