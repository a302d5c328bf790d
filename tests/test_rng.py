"""Tests for the splittable random stream."""

import math

import numpy as np
import pytest

from tcnsoc.rng import SplitMix64

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64_int(z: int) -> int:
    # pure-int reimplementation of the documented output function
    z &= _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _stream_int(seed: int, n: int) -> list[int]:
    return [_mix64_int((seed + (i + 1) * _GOLDEN) & _MASK) for i in range(n)]


def test_matches_pure_int_oracle():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(20)]
        assert got == _stream_int(seed, 20)


def test_known_answer_seed_zero():
    # first outputs of the reference sequence for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_same_seed_same_sequence():
    a = [SplitMix64(99).next_u64() for _ in range(5)]
    b = [SplitMix64(99).next_u64() for _ in range(5)]
    assert a == b


def test_different_seeds_differ():
    a = [SplitMix64(1).next_u64() for _ in range(8)]
    b = [SplitMix64(2).next_u64() for _ in range(8)]
    assert a != b


def test_scalar_and_vector_draws_agree():
    a = SplitMix64(7)
    b = SplitMix64(7)
    vec = a.uniform(size=50)
    scalars = np.array([b.uniform() for _ in range(50)])
    assert np.array_equal(vec, scalars)


def test_uniform_range_and_mean():
    rng = SplitMix64(123)
    u = rng.uniform(size=100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_uniform_bounds_scaled():
    rng = SplitMix64(5)
    u = rng.uniform(-2.0, 3.0, size=10_000)
    assert u.min() >= -2.0
    assert u.max() < 3.0
    assert abs(u.mean() - 0.5) < 0.05


def test_uniform_shape():
    rng = SplitMix64(5)
    assert isinstance(rng.uniform(), float)
    assert rng.uniform(size=(3, 4)).shape == (3, 4)
    assert rng.uniform(size=7).shape == (7,)


BERNOULLI_PS = (0.3, 0.5, 0.9, 1 - 2**-53, 1.0, 2**-53)


@pytest.mark.parametrize("p", BERNOULLI_PS)
def test_bernoulli_equals_uniform_threshold(p):
    a = SplitMix64(17)
    b = SplitMix64(17)
    for size in ((32, 8, 100), 7, (3, 5), (1,), (2, 1, 9)):
        mask = a.bernoulli(p, size)
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, b.uniform(size=size) < p)
        assert a.counter == b.counter


@pytest.mark.parametrize("p", BERNOULLI_PS + (0.0, 0.1, 0.7))
def test_bernoulli_equals_uniform_threshold_at_the_boundary(p):
    # random draws almost never land next to p * 2**53; feed the raw values that do
    top = 2**53 - 1
    cut = math.ceil(p * 2**53)
    near = [0, 1, cut - 2, cut - 1, cut, cut + 1, top - 1, top]
    raws = np.array([(min(max(m, 0), top) << 11) | (i * 0x2B5 & 0x7FF)
                     for i, m in enumerate(near)], dtype=np.uint64)
    a = SplitMix64(0)
    b = SplitMix64(0)
    a._raw = b._raw = lambda n: raws[:n]
    assert np.array_equal(a.bernoulli(p, raws.size), b.uniform(size=raws.size) < p)


def test_bernoulli_rejects_p_outside_unit_interval():
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            SplitMix64(0).bernoulli(p, 3)


def test_spawn_streams_are_disjoint_and_deterministic():
    parent = SplitMix64(11)
    child1 = parent.spawn()
    child2 = parent.spawn()
    s1 = [child1.next_u64() for _ in range(10)]
    s2 = [child2.next_u64() for _ in range(10)]
    assert s1 != s2

    parent_b = SplitMix64(11)
    child1_b = parent_b.spawn()
    assert [child1_b.next_u64() for _ in range(10)] == s1


def test_spawn_key_is_next_raw_value():
    probe = SplitMix64(31)
    expected_key = probe.next_u64()
    child = SplitMix64(31).spawn()
    assert [child.next_u64() for _ in range(4)] == _stream_int(expected_key, 4)


def test_below_in_range():
    rng = SplitMix64(77)
    draws = [rng.below(10) for _ in range(2_000)]
    assert min(draws) >= 0
    assert max(draws) <= 9
    assert len(set(draws)) == 10  # all buckets hit at this sample size


def test_below_rejects_nonpositive():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.below(-3)


def test_permutation_is_valid():
    rng = SplitMix64(13)
    for n in (0, 1, 2, 5, 64, 257):
        perm = rng.permutation(n)
        assert sorted(perm.tolist()) == list(range(n))


def test_permutation_seeded_reproducible():
    p1 = SplitMix64(4).permutation(50)
    p2 = SplitMix64(4).permutation(50)
    p3 = SplitMix64(5).permutation(50)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_permutation_positions_cover():
    # every element lands in every position at least once over many shuffles
    rng = SplitMix64(21)
    n = 4
    counts = np.zeros((n, n), dtype=int)
    for _ in range(1_000):
        perm = rng.permutation(n)
        for pos, val in enumerate(perm):
            counts[val, pos] += 1
    assert counts.min() > 0
    # no cell further than 30% from the uniform expectation
    expected = 1_000 / n
    assert np.all(np.abs(counts - expected) < 0.3 * 1_000)


def test_uint64_wraparound_seed():
    # seeds beyond 64 bits reduce modulo 2**64
    a = [SplitMix64(2**64 + 3).next_u64() for _ in range(4)]
    b = [SplitMix64(3).next_u64() for _ in range(4)]
    assert a == b
