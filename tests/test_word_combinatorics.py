import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fuplab import word_combinatorics
from fuplab.word_combinatorics import (
    BLOCKS,
    SLACK,
    bound_check,
    count_uncontrolled,
    split_XY,
    t_ladder,
)


def brute_force_uncontrolled(t0, alpha):
    """Exhaustive oracle over all 2^t0 words."""
    alpha = Fraction(alpha)
    return sum(1 for w in product("12", repeat=t0)
               if Fraction("".join(w).count("1"), t0) <= alpha)


def is_controlled(word, alpha):
    """The definition, word by word: the 1-fraction strictly exceeds alpha."""
    return Fraction(word.count("1"), len(word)) > Fraction(alpha)


def code_to_word(code, length):
    """The word of a ``split_XY`` code: a set bit is the letter 1, and the
    lowest bit is the last letter."""
    return "".join("1" if (code >> (length - 1 - k)) & 1 else "2" for k in range(length))


class TestTLadder:
    def test_exact_log_value(self):
        t0, t1 = t_ladder(math.exp(-40.0), 0.8)
        assert (t0, t1) == (8, 32)

    def test_h_near_one_gives_minimum_length(self):
        t0, t1 = t_ladder(0.999999, 0.9)
        assert t0 == 1 and t1 == 4

    def test_t1_is_always_four_t0(self):
        rng = np.random.default_rng(80)
        for _ in range(50):
            h = float(rng.uniform(1e-30, 0.9))
            rho = float(rng.uniform(0.76, 0.99))
            t0, t1 = t_ladder(h, rho)
            assert t1 == 4 * t0 and t0 >= 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            t_ladder(1.5, 0.8)
        with pytest.raises(ValueError):
            t_ladder(0.1, 0.5)


class TestCountUncontrolled:
    def test_tiny_alpha_keeps_only_all_twos(self):
        assert count_uncontrolled(5, Fraction(1, 10)) == 1

    def test_small_case_formula(self):
        # alpha = 0.3, T0 = 4: k <= 1.2 -> C(4,0) + C(4,1) = 5
        assert count_uncontrolled(4, Fraction(3, 10)) == 5

    @pytest.mark.parametrize("t0", range(1, 17))
    def test_against_exhaustive_enumeration(self, t0):
        for alpha in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 10), Fraction(49, 100)):
            assert count_uncontrolled(t0, alpha) == brute_force_uncontrolled(t0, alpha)

    def test_boundary_words_are_uncontrolled(self):
        # strictness: 1-fraction exactly alpha stays uncontrolled
        t0, alpha = 4, Fraction(1, 4)
        assert count_uncontrolled(t0, alpha) == math.comb(4, 0) + math.comb(4, 1)
        assert not is_controlled("1222", alpha)
        assert is_controlled("1122", alpha)

    @pytest.mark.parametrize("alpha", [Fraction(1, 10), Fraction(1, 4), Fraction(3, 10),
                                       Fraction(2, 5), Fraction(49, 100)])
    def test_running_term_equals_the_binomial_sum(self, alpha):
        t0s = list(range(1, 401)) + [1999, 2000, 2009]
        for t0 in t0s:
            kmax = math.floor(alpha * t0)
            assert count_uncontrolled(t0, alpha) == sum(math.comb(t0, k)
                                                        for k in range(kmax + 1)), t0
        # alpha*t0 lands on an integer, so the boundary term is the last one summed
        assert sum((alpha * t0).denominator == 1 for t0 in t0s) >= 4

    def test_float_alpha_is_floored_at_its_exact_binary_value(self):
        # the double 0.3 lies just below 3/10, so 10 * 0.3 floors to 2
        assert Fraction(0.3) < Fraction(3, 10)
        assert count_uncontrolled(10, 0.3) == math.comb(10, 0) + math.comb(10, 1) + math.comb(10, 2)
        assert count_uncontrolled(10, Fraction(3, 10)) == count_uncontrolled(10, 0.3) + math.comb(10, 3)

    def test_monotone_in_alpha(self):
        for t0 in (3, 7, 12):
            counts = [count_uncontrolled(t0, Fraction(k, 100)) for k in range(1, 50)]
            assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestCountX:
    def test_forced_all_two_word(self):
        (row,) = bound_check(0.8, Fraction(1, 10), [math.exp(-10)])
        assert row["T0"] == 2
        assert row["count"] == 1

    def test_eighth_power_structure(self):
        (row,) = bound_check(0.8, Fraction(3, 10), [math.exp(-20.0)])
        single = count_uncontrolled(row["T0"], Fraction(3, 10))
        assert row["count"] == single ** 8

    def test_block_product_against_enumeration(self):
        for t0 in (1, 2, 3):
            for alpha in (Fraction(3, 10), Fraction(2, 5)):
                xs, ys = split_XY(t0, alpha)
                assert xs.size == count_uncontrolled(t0, alpha) ** BLOCKS


class TestSplitXY:
    def test_partition_is_exact(self):
        xs, ys = split_XY(2, Fraction(2, 5))
        assert xs.size + ys.size == 2 ** (8 * 2)
        assert np.intersect1d(xs, ys).size == 0

    def test_t0_one_small_alpha(self):
        xs, ys = split_XY(1, Fraction(2, 5))
        assert xs.size == 1
        assert code_to_word(int(xs[0]), 8) == "22222222"

    def test_matches_wordwise_definition(self):
        # independent oracle: check every code against the block definition
        t0, alpha = 2, Fraction(2, 5)
        xs, _ = split_XY(t0, alpha)
        xs_set = set(int(c) for c in xs)
        for code in range(2 ** (8 * t0)):
            word = code_to_word(code, 8 * t0)
            blocks = [word[i * t0:(i + 1) * t0] for i in range(8)]
            in_x = all(not is_controlled(b, alpha) for b in blocks)
            assert (code in xs_set) == in_x

    def test_large_t0_rejected(self):
        with pytest.raises(ValueError):
            split_XY(4, Fraction(1, 4))


class TestBoundCheck:
    @pytest.mark.parametrize("slack", [SLACK, -1.5])
    def test_row_is_within_when_its_ratio_is_at_most_the_bound_plus_slack(self, monkeypatch,
                                                                          slack):
        # exact counts keep to the bound; a negative slack shows that rows can fall outside
        monkeypatch.setattr(word_combinatorics, "SLACK", slack)
        alpha = Fraction(3, 10)
        rows = bound_check(0.9, alpha, [2.0 ** (-j) for j in range(4, 61, 4)])
        assert {r["within"] for r in rows} == ({True} if slack == SLACK else {True, False})
        for r in rows:
            assert r["within"] == (r["ratio"] <= 4 * math.sqrt(alpha) + slack)

    def test_degenerate_ladder_counts_one(self):
        rows = bound_check(0.9, Fraction(1, 100), [2.0 ** (-j) for j in range(10, 20)])
        assert all(r["count"] == 1 for r in rows)
        assert all(r["ratio"] == 0.0 for r in rows)
        assert all(r["within"] for r in rows)

    def test_headline_parameters_fall_below_bound(self):
        rows = bound_check(0.9, Fraction(4, 100), [2.0 ** (-j) for j in range(40, 61)])
        target = 4 * math.sqrt(0.04) + 0.1
        assert rows[-1]["ratio"] <= target
        # and the tail of the ladder stays below
        assert all(r["within"] for r in rows[-5:])

    def test_deterministic(self):
        ladder = [2.0 ** (-j) for j in range(40, 50)]
        a = bound_check(0.9, Fraction(4, 100), ladder)
        b = bound_check(0.9, Fraction(4, 100), ladder)
        assert a == b


class TestLadderConsistency:
    def test_ratio_depends_only_on_h(self):
        coarse = bound_check(0.9, Fraction(1, 5), [2.0 ** (-j) for j in (20, 24, 28)])
        dense = bound_check(0.9, Fraction(1, 5),
                            [2.0 ** (-j) for j in range(20, 29, 2)])
        dense_by_h = {r["h"]: r["ratio"] for r in dense}
        for row in coarse:
            assert dense_by_h[row["h"]] == row["ratio"]
