"""Exact arithmetic foundation: balanced residues, rationals, noise sampling.

Everything in the scheme core is computed exactly — integers of arbitrary
size and `fractions.Fraction` for rationals.  No floating point enters any
ciphertext or key computation.  The single place a ``float`` appears is in
building the noise sampler's weight table, and the weights themselves are
then fixed integers (numerators at a fixed power-of-two denominator), so the
sample stream is reproducible bit-for-bit from a seed.

The balanced representative convention: an integer x reduced mod an odd
prime q is reported in the interval (−q/2, q/2].  Serialization and all
cross-module arithmetic use this form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ParameterError

Rational = Union[int, Fraction]

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


def is_probable_prime(n: int, rng=None) -> bool:
    """Miller–Rabin primality test, _MR_ROUNDS rounds: false positives <= 4**-64.

    Witnesses are drawn from ``rng`` when given (keeps callers deterministic
    under a fixed seed).  Without one, n below psi_13 is decided exactly by
    the fixed bases 2..41; larger n get a deterministic sweep of
    _MR_ROUNDS bases.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if rng is None and n < _PSI_13:
        # n > 37 here, so only n = 41 meets its own base; skipping it is exact
        return not any(_miller_rabin_witness(n, a) for a in _PROOF_BASES if a < n)
    for i in range(_MR_ROUNDS):
        if rng is not None:
            a = rng.randrange(2, n - 1)
        else:
            a = 2 + i * 0x9E3779B97F4A7C15 % (n - 3)
        if _miller_rabin_witness(n, a):
            return False
    return True


def balance(x: int, q: int) -> int:
    """Reduce x modulo q into the balanced interval (−q/2, q/2]."""
    r = x % q
    return r - q if r > q // 2 else r


def round_nearest(x: Rational) -> int:
    """Nearest integer to x, half-values rounding toward +infinity."""
    return math.floor(2 * x + 1) // 2


_WEIGHT_BITS = 48  # weight table resolution: weights are numerators over 2^48


class NoiseSampler:
    """Discrete Gaussian on Z restricted to [−B, B], rejection-sampled.

    The target mass is proportional to exp(−x² / (2σ²)), i.e. σ is the
    standard deviation of the untruncated distribution.  With the default
    bound B = ceil(6σ) the truncated tail mass is below 2^−26, so the
    restriction is statistically invisible at test scale.

    σ = 0 is the degenerate zero-noise test mode: every sample is 0.

    A sampler owns its ``rng`` and is not safe for concurrent use; create
    one per thread, each with its own seed.
    """

    def __init__(self, sigma: Rational, rng, bound: int | None = None):
        if sigma < 0:
            raise ParameterError("sigma must be >= 0")
        self.sigma = sigma
        self.rng = rng
        if sigma == 0:
            self.bound = 0
            self._weights = None
            return
        self.bound = int(bound) if bound is not None else math.ceil(6 * Fraction(sigma))
        if self.bound < 1:
            raise ParameterError("bound must be >= 1 for sigma > 0")
        s = float(sigma)
        scale = 1 << _WEIGHT_BITS
        self._weights = [
            round(scale * math.exp(-(x * x) / (2 * s * s))) for x in range(self.bound + 1)
        ]

    def sample(self) -> int:
        """One sample, |result| <= bound, reproducible from the rng state."""
        if self.sigma == 0:
            return 0
        scale = 1 << _WEIGHT_BITS
        while True:
            x = self.rng.randrange(-self.bound, self.bound + 1)
            if self.rng.randrange(scale) < self._weights[abs(x)]:
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
