"""Exact arithmetic foundation: balanced residues, rationals, noise sampling.

Everything in the scheme core is computed exactly — integers of arbitrary
size and `fractions.Fraction` for rationals.  No floating point enters any
ciphertext or key computation.  The single place a ``float`` appears is in
the noise sampler's acceptance weights, and each weight is rounded to a
fixed integer (a numerator at a fixed power-of-two denominator) before use,
so the sample stream is reproducible bit-for-bit from a seed.

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


def approx(x: Rational, spec: str) -> str:
    """A nonnegative number for display: ``format(float(x), spec)``, or
    2^k with k = log2 x in ``spec`` for an int past the float range."""
    try:
        return format(float(x), spec)
    except OverflowError:
        return f"2^{math.log2(x):{spec}}"


_WEIGHT_BITS = 48  # acceptance weights are numerators over 2^48


class NoiseSampler:
    """Discrete Gaussian on Z restricted to [−⌈6σ⌉, ⌈6σ⌉], rejection-sampled.

    The target mass is proportional to exp(−x² / (2σ²)), i.e. σ is the
    standard deviation of the untruncated distribution.  The truncated tail
    mass is below 2^−26, so the restriction is statistically invisible at
    test scale.  Each acceptance weight is computed when a draw needs it,
    so building a sampler costs the same at every σ.  ``Params`` requires
    the noise bound B >= ⌈6σ⌉, so B bounds every fresh sample; it is the
    noise hint of a fresh ciphertext.

    σ = 0 is the degenerate zero-noise test mode: every sample is 0.

    A sampler owns its ``rng`` and is not safe for concurrent use; create
    one per thread, each with its own seed.
    """

    def __init__(self, sigma: Rational, rng):
        if sigma < 0:
            raise ParameterError("sigma must be >= 0")
        self.sigma = sigma
        self.rng = rng
        self.bound = math.ceil(6 * Fraction(sigma))
        s = float(sigma)
        self._two_s2 = 2 * s * s

    def sample(self) -> int:
        """One sample, |result| <= bound, reproducible from the rng state."""
        if self.sigma == 0:
            return 0
        scale = 1 << _WEIGHT_BITS
        while True:
            x = self.rng.randrange(-self.bound, self.bound + 1)
            weight = round(scale * math.exp(-(x * x) / self._two_s2))
            if self.rng.randrange(scale) < weight:
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
