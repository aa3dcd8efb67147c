"""Modular arithmetic, rounding, the noise sampler, and prime generation."""

import math
from fractions import Fraction
from random import Random

from mvphe.arith import (
    _MR_ROUNDS,
    _PROOF_BASES,
    _PSI_13,
    NoiseSampler,
    _miller_rabin_witness,
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
    s = NoiseSampler(0, Random(1))
    assert all(s.sample() == 0 for _ in range(1000))


def test_sampler_statistics_seed42():
    s = NoiseSampler(8, Random(42))
    xs = [s.sample() for _ in range(10_000)]
    mean = sum(xs) / len(xs)
    stdev = math.sqrt(sum((x - mean) ** 2 for x in xs) / len(xs))
    assert abs(mean) <= 3 * 8 / 100
    assert abs(stdev - 8) <= 0.1 * 8


def test_sampler_never_exceeds_bound():
    s = NoiseSampler(8, Random(7))
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


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_random_prime_trial_division_oracle():
    rng = Random(5)
    for bits in (8, 12, 16, 20):
        for _ in range(25):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert _trial_division(p)


def test_random_prime_deterministic():
    assert random_prime(40, Random(9)) == random_prime(40, Random(9))
    assert random_prime(40, Random(9)) != random_prime(40, Random(10))


def test_is_probable_prime_known_values():
    assert is_probable_prime(2) and is_probable_prime(12289)
    assert not is_probable_prime(1) and not is_probable_prime(561)  # Carmichael
    # a few Mersenne-adjacent composites
    assert not is_probable_prime((1 << 40) - 1)
    assert is_probable_prime((1 << 89) - 1)


# psi_k: the least strong pseudoprime to the first k prime bases, k = 1..13
# (psi_8 = psi_7 and psi_10 = psi_11 = psi_9).  Each one is exposed only by
# the (k + 1)-th prime, or, for psi_13, by none of the first thirteen.
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461,
       3317044064679887385961981)


def _swept(n: int) -> bool:
    """The deterministic 64-round sweep, for odd n with no factor <= 37."""
    return not any(_miller_rabin_witness(n, 2 + i * 0x9E3779B97F4A7C15 % (n - 3))
                   for i in range(_MR_ROUNDS))


def test_fixed_bases_refuse_every_psi():
    assert PSI[-1] == _PSI_13
    assert [a for a in _PROOF_BASES if _miller_rabin_witness(PSI[-2], a)] == [41]
    for n in PSI:
        assert not is_probable_prime(n), n
    # psi_13 is past the proof's range and falls to the sweep
    assert not any(_miller_rabin_witness(_PSI_13, a) for a in _PROOF_BASES)


def test_fixed_bases_agree_with_trial_division_below_20000():
    for n in range(20000):
        assert is_probable_prime(n) == _trial_division(n), n


def _chernick(k: int) -> int | None:
    """(6k + 1)(12k + 1)(18k + 1), a Carmichael number when all three are prime."""
    f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    return f[0] * f[1] * f[2] if all(map(_trial_division, f)) else None


def test_fixed_bases_agree_with_sweep_on_odd_numbers():
    rng = Random(131)
    cases = [rng.randrange(1 << (bits - 1), 1 << bits) | 1
             for bits in range(20, 83) for _ in range(5)]
    carmichael = []
    k = 1
    while k < 1 << 23:
        n = _chernick(k)
        if n is not None:
            carmichael.append(n)
            k = k * 3 // 2 + 1
        else:
            k += 1
    assert len(carmichael) >= 10 and carmichael[-1].bit_length() > 70
    for n in cases + carmichael:
        small_factor = any(n % p == 0 for p in _PROOF_BASES[:-1])
        assert is_probable_prime(n) == (not small_factor and _swept(n)), n
    assert not any(map(is_probable_prime, carmichael))
