import numpy as np
import pytest

from ditto import Rng
from ditto.errors import ParameterError


def test_equal_seeds_equal_streams():
    a, b = Rng(123), Rng(123)
    assert np.array_equal(a.uniform(-1, 1, (5, 3)), b.uniform(-1, 1, (5, 3)))
    assert np.array_equal(a.normal(0, 1, (4, 4)), b.normal(0, 1, (4, 4)))
    assert np.array_equal(a.integers(0, 100, 20), b.integers(0, 100, 20))
    assert np.array_equal(a.permutation(50), b.permutation(50))


def test_different_seeds_differ():
    a, b = Rng(1), Rng(2)
    assert not np.array_equal(a.uniform(0, 1, (8, 8)), b.uniform(0, 1, (8, 8)))


def test_child_independent_of_parent_consumption():
    # deriving a child must not depend on how much the parent has drawn
    parent = Rng(9)
    parent.uniform(0, 1, (100,))
    late_child = parent.child("shuffle")
    fresh_child = Rng(9).child("shuffle")
    assert np.array_equal(late_child.uniform(0, 1, (6,)), fresh_child.uniform(0, 1, (6,)))


def test_children_with_different_tags_differ():
    r = Rng(4)
    a = r.child("init").uniform(0, 1, (16,))
    b = r.child("shuffle").uniform(0, 1, (16,))
    assert not np.array_equal(a, b)


def test_nested_children_deterministic():
    a = Rng(11).child("domain.rot15").child("labeled").normal(0, 1, (3, 3))
    b = Rng(11).child("domain.rot15").child("labeled").normal(0, 1, (3, 3))
    assert np.array_equal(a, b)


def test_permutation_is_permutation():
    p = Rng(0).permutation(40)
    assert sorted(p.tolist()) == list(range(40))


def test_choice_without_replacement_unique_and_in_range():
    idx = Rng(3).choice(30, 12, replace=False)
    assert len(idx) == 12
    assert len(set(idx.tolist())) == 12
    assert idx.min() >= 0 and idx.max() < 30


def test_random_scalar_range():
    r = Rng(5)
    vals = [r.random() for _ in range(100)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert len(set(vals)) > 90  # essentially all distinct


@pytest.mark.parametrize("seed", [0.5, True, "3", 3.0, None],
                         ids=["float", "bool", "str", "integral_float", "none"])
def test_seed_that_is_not_an_integer_is_rejected(seed):
    # Rng(0.5) and Rng(True) would draw the streams of seeds 0 and 1
    with pytest.raises(ParameterError, match="seed must be an integer"):
        Rng(seed)


@pytest.mark.parametrize("seed", [-1, np.int64(-3)], ids=["int", "numpy_int"])
def test_negative_seed_is_rejected(seed):
    with pytest.raises(ParameterError, match=f"seed must be >= 0, got {int(seed)}$"):
        Rng(seed)


def test_numpy_integer_seed_draws_the_int_stream():
    for seed in (np.int64(3), np.uint8(3)):
        r = Rng(seed)
        assert r.seed == 3 and type(r.seed) is int
        assert np.array_equal(r.uniform(0, 1, (4,)), Rng(3).uniform(0, 1, (4,)))
