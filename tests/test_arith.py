"""Modular arithmetic, rounding, the noise sampler, and prime generation."""

import math
from fractions import Fraction
from random import Random

from mvphe.arith import (
    NoiseSampler,
    balance,
    is_probable_prime,
    random_prime,
    round_nearest,
)


def test_balanced_mod_range_and_congruence():
    rng = Random(101)
    for _ in range(10_000):
        q = rng.choice([7, 13, 97, 12289, (1 << 31) - 1])
        x = rng.randrange(-q * q, q * q)
        b = balance(x, q)
        assert (b - x) % q == 0
        assert -q / 2 < b <= q / 2


def test_balanced_mod_is_ring_homomorphism():
    rng = Random(102)
    q = 12289
    for _ in range(10_000):
        a = rng.randrange(-(1 << 64), 1 << 64)
        b = rng.randrange(-(1 << 64), 1 << 64)
        assert balance(a + b, q) == balance(balance(a, q) + balance(b, q), q)
        assert balance(a * b, q) == balance(balance(a, q) * balance(b, q), q)


def test_exact_rational_arithmetic():
    # (a/b + c/d)*d*b == a*d + c*b as big integers
    rng = Random(103)
    for _ in range(200):
        a, c = (rng.getrandbits(256) - (1 << 255) for _ in range(2))
        b, d = (rng.getrandbits(256) | 1 for _ in range(2))
        assert (Fraction(a, b) + Fraction(c, d)) * d * b == a * d + c * b


def test_round_nearest_examples():
    assert round_nearest(Fraction(-3, 2)) == -1  # tie rounds up
    assert round_nearest(Fraction(5, 3)) == 2
    assert round_nearest(Fraction(1, 2)) == 1
    assert round_nearest(Fraction(-1, 2)) == 0
    assert round_nearest(4) == 4


def test_rounding_against_integer_scan_oracle():
    rng = Random(104)
    for _ in range(2000):
        num = rng.randrange(-(1 << 16), 1 << 16)
        den = rng.randrange(1, 1 << 16)
        x = Fraction(num, den)
        lo = num // den - 2
        floor_oracle = max(k for k in range(lo, lo + 5) if k <= x)
        assert math.floor(x) == floor_oracle
        # nearest-with-ties-up: smallest k minimizing |x-k|, preferring larger
        best = min(range(lo, lo + 5), key=lambda k: (abs(x - k), -k))
        assert round_nearest(x) == best


def test_sampler_degenerate_sigma_zero():
    s = NoiseSampler(0, Random(1), 48)
    assert all(s.sample() == 0 for _ in range(1000))


def test_sampler_statistics_seed42():
    s = NoiseSampler(8, Random(42), 48)
    xs = [s.sample() for _ in range(10_000)]
    mean = sum(xs) / len(xs)
    stdev = math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))
    assert abs(mean) <= 3 * 8 / 100
    assert abs(stdev - 8) <= 0.1 * 8


def test_sampler_never_exceeds_bound():
    s = NoiseSampler(8, Random(7), 48)
    assert all(abs(s.sample()) <= 48 for _ in range(1_000_000))


def test_sampler_default_bound():
    s = NoiseSampler(8, Random(2))
    assert s.bound == 48  # ceil(6*8)
    assert NoiseSampler(Fraction(5, 2), Random(3)).bound == 15


def test_random_prime_8_bits_exhaustive():
    rng = Random(3)
    for _ in range(300):
        p = random_prime(8, rng)
        assert 128 <= p <= 255
        assert all(p % d for d in range(2, 16))


def test_random_prime_trial_division_oracle():
    def is_prime_td(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    rng = Random(5)
    for bits in (8, 12, 16, 20):
        for _ in range(25):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_prime_td(p)


def test_random_prime_deterministic():
    assert random_prime(40, Random(9)) == random_prime(40, Random(9))
    assert random_prime(40, Random(9)) != random_prime(40, Random(10))


def test_is_probable_prime_known_values():
    assert is_probable_prime(2) and is_probable_prime(12289)
    assert not is_probable_prime(1) and not is_probable_prime(561)  # Carmichael
    # a few Mersenne-adjacent composites
    assert not is_probable_prime((1 << 40) - 1)
    assert is_probable_prime((1 << 89) - 1)
