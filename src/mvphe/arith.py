"""Exact arithmetic foundation: balanced residues, rationals, noise sampling.

Everything in the scheme core is computed exactly — integers of arbitrary
size and `fractions.Fraction` for rationals.  No floating point enters any
ciphertext or key computation.  The single place a ``float`` appears is in
the noise sampler's acceptance weights, and each weight is rounded to a
fixed integer (a numerator at a fixed power-of-two denominator) before use,
so the sample stream is reproducible bit-for-bit from a seed.  A weight is
computed when a draw first needs it and then kept, one cache per σ
(``_weights``), so a sample is mostly integer draws and a lookup.

Every uniform draw below a bound is ``randbelow``, on the generator's
``getrandbits`` alone: it draws what ``Random.randrange`` draws, without
that method's argument handling.  (``random_prime`` takes its candidates'
bits from ``getrandbits`` directly.)

Without an rng, ``is_probable_prime`` is the fixed-base proof below psi_13,
past every modulus ``Params`` admits, or a refusal; with one, as
``random_prime`` calls it, it tests witnesses drawn from that rng.

The balanced representative convention: an integer x reduced mod an odd
prime q is reported in the interval (−q/2, q/2].  Serialization and all
cross-module arithmetic use this form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import ParameterError

Rational = Union[int, Fraction]


def randbelow(rng, n: int) -> int:
    """Uniform in [0, n) for n >= 1: n.bit_length() bits from
    ``rng.getrandbits``, redrawn while they read n or more.  That is the
    draw of ``Random.randrange(n)``, so a seeded stream gives the same
    values through either."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


_MR_ROUNDS = 64  # error probability <= 4^-64 = 2^-128 per candidate

# Miller–Rabin with the first 13 primes as bases is a proof of primality for
# every n below psi_13 (Sorenson & Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017).
_PROOF_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def _miller_rabin_witness(n: int, a: int) -> bool:
    """True if a witnesses compositeness of odd n > 2."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


@lru_cache(maxsize=64)
def _proved_prime(n: int) -> bool:
    """The fixed-base proof for odd 37 < n < psi_13, memoized: ``Params``
    proves its q on every construction, and a process sees few moduli.
    Only this branch is cached; the rng branch draws its witnesses from the
    caller's stream, which a cache hit would leave unadvanced."""
    # only n = 41 meets its own base; skipping it is exact
    return not any(_miller_rabin_witness(n, a) for a in _PROOF_BASES if a < n)


def is_probable_prime(n: int, rng=None) -> bool:
    """Whether n is prime: trial division by the primes up to 37, then
    Miller–Rabin.  Without ``rng`` a proof: the fixed bases 2..41 decide
    n below psi_13, and a larger n is refused with ParameterError.  With
    ``rng``, _MR_ROUNDS witnesses drawn from it (deterministic under a
    fixed seed): false positives <= 4**-64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if rng is None:
        if n >= _PSI_13:
            raise ParameterError(
                f"without an rng, primality is proved only below psi_13; got n = {n}")
        return _proved_prime(n)
    for _ in range(_MR_ROUNDS):
        if _miller_rabin_witness(n, 2 + randbelow(rng, n - 3)):
            return False
    return True


def balance(x: int, q: int) -> int:
    """Reduce x modulo q into the balanced interval (−q/2, q/2]."""
    r = x % q
    return r - q if r > q // 2 else r


def approx(x: Rational, spec: str) -> str:
    """A nonnegative number for display: ``format(float(x), spec)``, or
    2^k with k = log2 x in ``spec`` for an int past the float range."""
    try:
        return format(float(x), spec)
    except OverflowError:
        return f"2^{math.log2(x):{spec}}"


def six_sigma(sigma: Rational) -> int:
    """⌈6σ⌉, the sampler's truncation bound, as one integer ceiling."""
    num, den = sigma.as_integer_ratio()
    return -(-6 * num // den)


_WEIGHT_SCALE = 1 << 48  # acceptance weights are numerators over 2^48
_SHARED_BOUND = 1 << 12  # samplers up to this bound share one weight cache


@lru_cache(maxsize=16)
def _weights(sigma: Rational) -> dict[int, int]:
    """The acceptance weights of candidates at σ, shared by every sampler
    at that σ: empty when made, each weight stored by the first draw that
    needs it."""
    return {}


class NoiseSampler:
    """Discrete Gaussian on Z restricted to [−⌈6σ⌉, ⌈6σ⌉], rejection-sampled.

    The target mass is proportional to exp(−x² / (2σ²)), i.e. σ is the
    standard deviation of the untruncated distribution.  The truncated tail
    mass is below 2^−26, so the restriction is statistically invisible at
    test scale.  Each acceptance weight is computed the first time a draw
    needs it and kept: samplers whose bound is at most 2^12 share one cache
    per σ (``_weights``), so a process computes each weight once; a larger
    bound keeps its weights with the sampler alone, so memory grows only
    with its own draws.  Either way, building a sampler computes no weight
    and costs the same at every σ.  ``Params`` requires the noise bound
    B >= ⌈6σ⌉, so B bounds every fresh sample; it is the noise hint of a
    fresh ciphertext.

    σ = 0 is the degenerate zero-noise test mode: every sample is 0.

    A sampler owns its ``rng`` and is not safe for concurrent use; create
    one per thread, each with its own seed.
    """

    def __init__(self, sigma: Rational, rng):
        if sigma < 0:
            raise ParameterError("sigma must be >= 0")
        self.sigma = sigma
        self.rng = rng
        self.bound = six_sigma(sigma)
        self._width = 2 * self.bound + 1  # candidates -bound..bound
        s = float(sigma)
        self._two_s2 = 2 * s * s
        self._weights = _weights(sigma) if self.bound <= _SHARED_BOUND else {}

    def sample(self) -> int:
        """One sample, |result| <= bound, reproducible from the rng state."""
        if self.sigma == 0:
            return 0
        rng, bound, width, weights = self.rng, self.bound, self._width, self._weights
        while True:
            x = randbelow(rng, width) - bound
            weight = weights.get(x)
            if weight is None:
                weight = weights[x] = round(
                    _WEIGHT_SCALE * math.exp(-(x * x) / self._two_s2))
            if randbelow(rng, _WEIGHT_SCALE) < weight:
                return x


def random_prime(bits: int, rng) -> int:
    """An odd prime with exactly ``bits`` significant bits.

    Primality is established by Miller–Rabin with certainty >= 1 − 2^−128.
    Deterministic for a fixed rng state.
    """
    if bits < 8:
        raise ParameterError("random_prime needs bits >= 8")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate
