"""Tests for the reproducible random streams."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStream


def test_same_seed_same_sequence():
    a = RandomStream(123)
    b = RandomStream(123)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_seeds_differ():
    a = RandomStream(1)
    b = RandomStream(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_fork_is_deterministic_and_independent():
    root1, root2 = RandomStream(7), RandomStream(7)
    c1, c2 = root1.fork("node-3"), root2.fork("node-3")
    assert [c1.random() for _ in range(10)] == [c2.random() for _ in range(10)]
    other = RandomStream(7).fork("node-4")
    assert [RandomStream(7).fork("node-3").random() for _ in range(5)] != [
        other.random() for _ in range(5)
    ]


def test_fork_does_not_consume_parent_state():
    root = RandomStream(99)
    before = RandomStream(99)
    root.fork("x")
    assert root.random() == before.random()


def test_exponential_mean_close():
    rs = RandomStream(42)
    n = 20_000
    xs = [rs.exponential(10.0) for _ in range(n)]
    assert all(x > 0 for x in xs)
    assert abs(statistics.fmean(xs) - 10.0) < 0.3


def test_exponential_rejects_nonpositive_mean():
    rs = RandomStream(0)
    with pytest.raises(ValueError):
        rs.exponential(0)
    with pytest.raises(ValueError):
        rs.exponential(-1)


def test_uniform_int_bounds_and_coverage():
    rs = RandomStream(5)
    seen = {rs.uniform_int(3, 6) for _ in range(200)}
    assert seen == {3, 4, 5, 6}


def test_uniform_int_empty_range_rejected():
    with pytest.raises(ValueError):
        RandomStream(0).uniform_int(5, 4)


def test_choice_uniformity_and_validation():
    rs = RandomStream(11)
    seen = {rs.choice("abc") for _ in range(100)}
    assert seen == {"a", "b", "c"}
    with pytest.raises(ValueError):
        rs.choice([])


def test_shuffle_preserves_multiset():
    rs = RandomStream(2)
    xs = list(range(10))
    rs.shuffle(xs)
    assert sorted(xs) == list(range(10))


def test_bimodal_int_modes():
    rs = RandomStream(3)
    shorts = 0
    n = 5000
    for _ in range(n):
        x = rs.bimodal_int(8, 1024, short_fraction=0.7, split=32)
        assert 8 <= x <= 1024
        if x <= 32:
            shorts += 1
    assert abs(shorts / n - 0.7) < 0.05


def test_bimodal_validation():
    rs = RandomStream(0)
    with pytest.raises(ValueError):
        rs.bimodal_int(10, 5, 0.5, 7)
    with pytest.raises(ValueError):
        rs.bimodal_int(1, 10, 1.5, 5)


def test_weighted_index_respects_weights():
    rs = RandomStream(8)
    counts = [0, 0, 0]
    n = 9000
    for _ in range(n):
        counts[rs.weighted_index([1, 2, 0])] += 1
    assert counts[2] == 0
    assert abs(counts[0] / n - 1 / 3) < 0.05
    assert abs(counts[1] / n - 2 / 3) < 0.05


def test_weighted_index_validation():
    rs = RandomStream(0)
    with pytest.raises(ValueError):
        rs.weighted_index([0, 0])
    with pytest.raises(ValueError):
        rs.weighted_index([1, -1, 3])


@given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
@settings(max_examples=50, deadline=None)
def test_fork_seed_stable_property(seed, key):
    """Forked seeds depend only on (seed, key), not interpreter state."""
    s1 = RandomStream(seed).fork(key).seed
    s2 = RandomStream(seed).fork(key).seed
    assert s1 == s2


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=50, deadline=None)
def test_exponential_positive_property(mean):
    rs = RandomStream(1)
    assert rs.exponential(mean) > 0


@given(
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_uniform_int_in_bounds_property(low, width):
    rs = RandomStream(low * 31 + width)
    x = rs.uniform_int(low, low + width)
    assert low <= x <= low + width


# -- the draw kernel is the stdlib's, draw for draw ----------------------
#
# RandomStream derives every variate itself (an inlined Fisher-Yates, one
# ``_randbelow``); these pin each derivation to ``random.Random`` on the
# same seed -- results *and* final generator state -- for sizes 0..70,
# which cross the 2**k boundaries where rejection sampling changes width.

KERNEL_SEEDS = range(12)
KERNEL_SIZES = range(71)


def _pair(seed):
    return RandomStream(seed), random.Random(seed)  # lint-sim: ignore[RPV001]


def _same_state(rs, ref):
    assert rs._rng.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_shuffle_matches_stdlib(seed):
    rs, ref = _pair(seed)
    for n in KERNEL_SIZES:
        a, b = list(range(n)), list(range(n))
        rs.shuffle(a)
        ref.shuffle(b)
        assert a == b, n
    _same_state(rs, ref)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_choice_and_uniform_int_match_stdlib(seed):
    rs, ref = _pair(seed)
    for n in KERNEL_SIZES[1:]:
        seq = list(range(n))
        assert rs.choice(seq) == ref.choice(seq), n
        assert rs.uniform_int(-3, n - 4) == ref.randint(-3, n - 4), n
    _same_state(rs, ref)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_bimodal_int_matches_stdlib(seed):
    rs, ref = _pair(seed)
    for split in KERNEL_SIZES[1:]:
        high = split + 1 + split // 2
        got = rs.bimodal_int(1, high, 0.4, split)
        if ref.random() < 0.4:
            want = ref.randint(1, split)
        else:
            want = ref.randint(split + 1, high)
        assert got == want, split
    _same_state(rs, ref)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_float_variates_match_stdlib(seed):
    rs, ref = _pair(seed)
    for n in KERNEL_SIZES[1:]:
        assert rs.exponential(n) == -n * math.log(ref.random())
        # Integer weights (zeros included) keep the cumulative sums exact,
        # so ``choices``' bisection is the same rule as weighted_index.
        weights = [(i * 7 + seed) % 5 for i in range(n)]
        if sum(weights) == 0:
            continue
        assert rs.weighted_index(weights) == ref.choices(
            range(n), weights=weights
        )[0], n
        assert rs.uniform(2.0, 5.0) == 2.0 + 3.0 * ref.random()
    _same_state(rs, ref)
