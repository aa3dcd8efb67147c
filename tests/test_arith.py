"""Modular arithmetic, rounding, the noise sampler, and prime generation."""

import math
from fractions import Fraction
from random import Random

import pytest

from mvphe import arith
from mvphe.arith import (
    _MR_ROUNDS,
    _PROOF_BASES,
    _PSI_13,
    NoiseSampler,
    _miller_rabin_witness,
    _proved_prime,
    balance,
    is_probable_prime,
    random_prime,
    randbelow,
)
from mvphe.errors import ParameterError
from mvphe.keys import PRESETS, preset_params
from oracles import round_nearest, sample_reference


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


def test_randbelow_draws_what_randrange_draws():
    """randbelow(rng, n) returns what Random.randrange(n) returns and leaves
    the generator in the same state, seed by seed, so seeded keys, files and
    digests do not depend on which of the two draws them.  Checked at 1, 2,
    3, 97 (= 2B + 1, the sampler's candidates), 2^48 (its weights), every
    preset's q and 2^k ± 1; and the shifted forms the package uses for
    randrange(a, b) and randint(a, b)."""
    ns = [1, 2, 3, 97, 2 * 48 + 1, 1 << 48]
    ns += [preset_params(name).q for name in sorted(PRESETS)]
    ns += [(1 << k) + d for k in range(1, 66) for d in (-1, 1)]
    for n in ns:
        for seed in range(40):
            mine, ref = Random(f"{n}|{seed}"), Random(f"{n}|{seed}")
            assert ([randbelow(mine, n) for _ in range(5)]
                    == [ref.randrange(n) for _ in range(5)]), (n, seed)
            assert mine.getstate() == ref.getstate()
    for n in (5, 97, 12289, preset_params("toy").q):
        mine, ref = Random(n), Random(n)
        for _ in range(200):
            assert 2 + randbelow(mine, n - 3) == ref.randrange(2, n - 1)
            assert 1 + randbelow(mine, n - 1) == ref.randrange(1, n)
            assert randbelow(mine, 2 * n + 1) - n == ref.randint(-n, n)
        assert mine.getstate() == ref.getstate()


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


@pytest.mark.parametrize("sigma", [8, Fraction(5, 2), Fraction(1, 3)])
def test_sampler_stream_matches_the_reference(sigma):
    """Cached weights change no draw: a sampler's stream is the
    reference's, which computes every weight afresh, and so are two
    samplers at one σ that share the cache, interleaved on one rng."""
    arith._weights.cache_clear()
    s, ref = NoiseSampler(sigma, Random(9)), Random(9)
    assert [s.sample() for _ in range(2000)] == [
        sample_reference(sigma, ref) for _ in range(2000)]
    rng, ref = Random(10), Random(10)
    a, b = NoiseSampler(sigma, rng), NoiseSampler(sigma, rng)
    assert a._weights is b._weights
    got = [(a if i % 3 else b).sample() for i in range(600)]
    assert got == [sample_reference(sigma, ref) for _ in range(600)]
    assert rng.getstate() == ref.getstate()


def test_sampler_construction_computes_no_weight(monkeypatch):
    """A sampler fills its weights only as draws need them, so a σ whose
    2·⌈6σ⌉ + 1 candidates no table could hold costs nothing to build; a
    bound past 2^12 keeps its weights out of the shared cache."""
    arith._weights.cache_clear()
    exps = []
    real_exp = math.exp
    monkeypatch.setattr(arith.math, "exp", lambda x: exps.append(x) or real_exp(x))
    s = NoiseSampler(1 << 40, Random(4))
    assert s._weights == {} and exps == []
    assert arith._weights.cache_info().currsize == 0
    x = s.sample()
    assert abs(x) <= s.bound and 0 < len(s._weights) == len(exps)
    assert arith._weights.cache_info().currsize == 0
    t = NoiseSampler(8, Random(4))
    assert t._weights == {} and arith._weights.cache_info().currsize == 1


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


def test_cached_proof_leaves_seeded_primes_unmoved():
    """The fixed-base proof is memoized, the rng branch is not: a seeded
    random_prime draws the same prime before and after a cached proof of
    that prime, and a test with an rng always advances it."""
    p = random_prime(40, Random(9))
    assert is_probable_prime(p) and is_probable_prime(p)
    hits = _proved_prime.cache_info().hits
    assert is_probable_prime(p) and _proved_prime.cache_info().hits == hits + 1
    assert random_prime(40, Random(9)) == p
    rng = Random(11)
    for _ in range(2):
        state = rng.getstate()
        assert is_probable_prime(p, rng=rng) and rng.getstate() != state


def test_is_probable_prime_known_values():
    assert is_probable_prime(2) and is_probable_prime(12289)
    assert not is_probable_prime(1) and not is_probable_prime(561)  # Carmichael
    # a few Mersenne-adjacent composites
    assert not is_probable_prime((1 << 40) - 1)
    # past psi_13 only witnesses drawn from an rng decide
    assert is_probable_prime((1 << 89) - 1, rng=Random(12))
    assert not is_probable_prime(((1 << 61) - 1) * ((1 << 31) - 1), rng=Random(12))


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
    for n in PSI[:-1]:
        assert not is_probable_prime(n), n
    # psi_13 is past the proof's range: refused without an rng, and
    # exposed by drawn witnesses
    assert not any(_miller_rabin_witness(_PSI_13, a) for a in _PROOF_BASES)
    with pytest.raises(ParameterError, match="psi_13"):
        is_probable_prime(_PSI_13)
    assert not is_probable_prime(_PSI_13, rng=Random(13))


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
