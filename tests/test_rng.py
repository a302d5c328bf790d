"""Tests for the splittable random stream."""

import hashlib
import math

import numpy as np
import pytest
from helpers import below, permutation_oracle

from tcnsoc.data import DEFAULT_CELL, build_hybrid, fit_normalization
from tcnsoc.model import TcnConfig, build_model
from tcnsoc.rng import SplitMix64
from tcnsoc.simulate import EcmConfig, generate_profile, simulate_ecm

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


def _stream_int(seed: int, n: int, start: int = 0) -> list[int]:
    return [_mix64_int((seed + (i + 1) * _GOLDEN) & _MASK) for i in range(start, start + n)]


def test_matches_pure_int_oracle():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        rng = SplitMix64(seed)
        got = [rng.next_u64() for _ in range(20)]
        assert got == _stream_int(seed, 20)
    # array draws, on both sides of the 2**16-entry golden-step table, with a
    # wrapping key and a counter past 32 bits; then a scalar draw after them
    for seed, counter in ((2**64 - 1, 0), (2**64 - 1, 2**32 + 7), (42, 2**32 + 7)):
        rng = SplitMix64(seed)
        rng.counter = counter
        for n in (1, 2**16, 2**16 + 1):
            start = rng.counter
            assert rng._raw(n).tolist() == _stream_int(seed, n, start)
        assert rng.next_u64() == _stream_int(seed, 1, rng.counter - 1)[0]


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
    # int or float bounds: each scalar is a Python float equal to its array draw
    for low, high in ((-2.4, -1.4), (0.0, 2.0 * math.pi), (220.0, 420.0), (1, 4), (-3, 2.5)):
        vec = a.uniform(low, high, size=50)
        scalars = [b.uniform(low, high) for _ in range(50)]
        assert all(type(u) is float for u in scalars)
        assert np.array_equal(vec, scalars)
    # bounds that broadcast against the shape: each row draws (lo, hi) pairs in order
    ranges = [(8.0, 25.0), (3.2, 5.0), (0.0, 2.0 * math.pi), (-3.2, -1.8)]
    rows = a.uniform(*np.transpose(ranges), (6, len(ranges)))
    assert rows.tobytes() == np.array([[b.uniform(lo, hi) for lo, hi in ranges]
                                       for _ in range(6)]).tobytes()


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


def test_bernoulli_known_answer():
    # a (batch, filters, window) dropout mask of the train shape; the stream
    # is defined by its formula, so this digest never changes
    mask = SplitMix64(2020).bernoulli(0.9, (32, 8, 100))
    assert (hashlib.sha256(mask.tobytes()).hexdigest()
            == "828cc0c6fd4f3d44f28393ee8a34c79ce33be5d87c1e79862d7449d532756757")


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


@pytest.mark.parametrize("p", [0.0, 2**-53, 0.5, 1 - 2**-53, 1.0])
def test_bernoulli_consumes_one_raw_value_per_draw(p):
    # the stream after a mask is the stream after uniform draws of its size
    for size in ((32, 8, 100), 7, (1,)):
        a = SplitMix64(19)
        b = SplitMix64(19)
        a.bernoulli(p, size)
        b.uniform(size=size)
        assert a.counter == b.counter == int(np.prod(size))
        assert a.next_u64() == b.next_u64()


def test_bernoulli_at_one_skips_its_draws_without_mixing_them(monkeypatch):
    def no_raw(self, n):
        raise AssertionError("bernoulli(1.0) mixed raw values")

    monkeypatch.setattr(SplitMix64, "_raw", no_raw)
    stream = SplitMix64(19)
    assert stream.bernoulli(1.0, (4, 5)).all()
    assert stream.counter == 20


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


@pytest.mark.parametrize("counts", [[3, 1, 5], [0, 2], [], [70_000]])
def test_spawned_uniforms_are_each_childs_leading_draws(counts):
    parent, oracle = SplitMix64(2**64 - 3), SplitMix64(2**64 - 3)
    want = [oracle.spawn().uniform(size=count) for count in counts]
    got = parent.spawned_uniforms(counts)
    assert got.tobytes() == np.concatenate([np.empty(0), *want]).tobytes()
    assert parent.counter == oracle.counter == len(counts)


def test_below_in_range():
    rng = SplitMix64(77)
    draws = [below(rng, 10) for _ in range(2_000)]
    assert min(draws) >= 0
    assert max(draws) <= 9
    assert len(set(draws)) == 10  # all buckets hit at this sample size


def test_below_rejects_nonpositive():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        below(rng, 0)
    with pytest.raises(ValueError):
        below(rng, -3)


def test_permutation_is_valid():
    rng = SplitMix64(13)
    for n in (0, 1, 2, 5, 64, 257):
        perm = rng.permutation(n)
        assert sorted(perm.tolist()) == list(range(n))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 309, 36000])
def test_permutation_matches_numpy_swap_oracle(n):
    for seed in (0, 7, 2**64 - 1):
        got = SplitMix64(seed).permutation(n)
        want = permutation_oracle(SplitMix64(seed), n)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


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


def test_every_seed_keeps_one_rule():
    # SplitMix64(True) ran as seed 1, and a float seed raised a bare TypeError
    message = "^seed must be an int or a numpy integer, not a bool, got "
    for seed in (True, np.True_, 1.5, "1", None):
        with pytest.raises(ValueError, match=message):
            SplitMix64(seed)
    with pytest.raises(ValueError, match=message + "True$"):
        generate_profile("urban", 30.0, seed=True)
    with pytest.raises(ValueError, match=message + "1.5$"):
        build_model(TcnConfig(stacks=1, input_window=10, kernel_size=2), seed=1.5)
    cycle = simulate_ecm(generate_profile("urban", 30.0, seed=1), EcmConfig(), DEFAULT_CELL,
                         0.9, dt=0.1)
    with pytest.raises(ValueError, match=message + "True$"):
        build_hybrid([cycle], fit_normalization([cycle]), 10, seed=True)
    # negative, full-width and numpy seeds run as their value mod 2**64
    for seed in (-1, 2**64 - 1, np.uint64(2**63 + 5), np.int64(-7)):
        assert SplitMix64(seed).key == int(seed) & _MASK
    assert SplitMix64(-1).next_u64() == SplitMix64(2**64 - 1).next_u64()
