from fractions import Fraction

import pytest

from symbpow.rng import SplitRng

from oracles import convex_weights


def test_reproducible():
    a = SplitRng(42, ("suite",))
    b = SplitRng(42, ("suite",))
    assert [a.randint(0, 99) for _ in range(20)] == [b.randint(0, 99) for _ in range(20)]


def test_child_streams_are_independent():
    root = SplitRng(7)
    left = root.child("left")
    right = root.child("right")
    seq_l = [left.randint(0, 9) for _ in range(50)]
    seq_r = [right.randint(0, 9) for _ in range(50)]
    assert seq_l != seq_r
    # deriving a child does not disturb the parent's own stream
    fresh = SplitRng(7)
    fresh.child("left")
    base = SplitRng(7)
    assert [fresh.randint(0, 9) for _ in range(5)] == \
        [base.randint(0, 9) for _ in range(5)]


def test_randint_bounds():
    rng = SplitRng(1)
    vals = [rng.randint(3, 5) for _ in range(200)]
    assert set(vals) == {3, 4, 5}


def test_subset_is_order_stable():
    rng = SplitRng(5)
    picked = rng.subset(range(10), 4)
    assert picked == sorted(picked)
    assert len(set(picked)) == 4


def test_convex_weights_sum_to_one():
    rng = SplitRng(3)
    for n in (1, 2, 5):
        w = convex_weights(rng, n)
        assert len(w) == n
        assert sum(w) == Fraction(1)
        assert all(x >= 0 for x in w)


def test_a_seed_that_is_not_an_int_is_refused():
    """SplitRng(1.5) once drew seed 1's stream without a word."""
    for seed in (1.5, 1.0, "1"):
        with pytest.raises(TypeError):
            SplitRng(seed)
