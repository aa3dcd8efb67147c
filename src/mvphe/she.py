"""Encryption, decryption, and the homomorphic operations.

A plaintext is a vector of ell − n bits.  Its encryption is

    c = (y ‖ p·floor(q/2) + e) · C   (mod q, balanced)

where y is a uniformly random head vector, e a discrete-Gaussian noise
vector, and C the secret key's encryption matrix.  Decryption computes
w = c·S_dec (mod q, balanced), S_dec being the last ell − n columns of
C^{-1}, and rounds each w_j to the nearest multiple of floor(q/2), mod 2.
Correct as long as the noise stays below floor(q/2)/2 in infinity norm.

Every ciphertext carries a ``noise_hint``: an upper bound on the infinity
norm of its noise, maintained through each operation by the tracked
formulas below.  The hint is advisory — decryption works off the actual
vector and merely warns when the hint crosses q/4 — and it is deliberately
excluded from equality comparisons and serialized only as a convenience.

Addition is entrywise (hint: h1 + h2 + 1).  Multiplication contracts the
evaluation-key tensor with the gadget transforms of the two ciphertexts
and floors; the hint is the per-product bound ``keys._product_hint`` at
max(h1, h2), linear in the carry bound k_max certified by the evaluation
key.  The whole pipeline is exact integer/rational arithmetic; the only
rounding anywhere is the final floor, by design.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Sequence

from .arith import NoiseSampler, Rational, approx, balance, round_nearest
from .errors import DepthError, ParameterError
from .keys import EvalKey, Params, SecretKey
from .keys import _carry_product, _product_hint
from .linalg import Matrix, vec_mat

__all__ = [
    "Ciphertext", "PublicKey", "encrypt", "decrypt", "noise_of",
    "eval_add", "eval_mult", "pk_keygen", "pk_encrypt",
]


@dataclass
class Ciphertext:
    """A length-ell vector over Z_q (balanced), at a multiplicative level.

    ``level`` counts consumed depth: fresh encryptions are level 0 and a
    product of levels l1, l2 sits at l1 + l2 + 1.  ``noise_hint`` is the
    tracked noise bound; it does not participate in equality.
    """

    vec: list[int]
    level: int
    q: int
    noise_hint: Rational | None = field(default=None, compare=False)

    def __post_init__(self):
        self.vec = [balance(x, self.q) for x in self.vec]

    def __len__(self) -> int:
        return len(self.vec)


def _check_message(params: Params, m: Sequence[int]) -> list[int]:
    m = list(m)
    if len(m) != params.message_bits:
        raise ParameterError(
            f"message must have {params.message_bits} bits, got {len(m)}"
        )
    if any(b not in (0, 1) for b in m):
        raise ParameterError("message bits must be 0 or 1")
    return m


def _check_ciphertext(params: Params, ct: Ciphertext) -> None:
    """Refuse a ciphertext whose modulus or length does not fit the key."""
    if ct.q != params.q:
        raise ParameterError("ciphertext modulus does not match this key")
    if len(ct.vec) != params.ell:
        raise ParameterError(
            f"ciphertext must have {params.ell} entries, got {len(ct.vec)}")


def encrypt(sk: SecretKey, m: Sequence[int], rng: Random, *,
            zero_noise: bool = False) -> Ciphertext:
    """Encrypt a bit vector under the secret key.

    The noise is Gaussian of width σ truncated at ⌈6σ⌉, which ``Params``
    keeps at most B, so B is the fresh noise hint.  ``zero_noise`` drops
    the Gaussian term (debugging/test calibration); the hint is then 0 and
    decryption is exact.
    """
    p = sk.params
    q = p.q
    m = _check_message(p, m)
    y = [rng.randrange(q) for _ in range(p.n)]
    band = [b * (q // 2) for b in m]
    if not zero_noise:
        sampler = NoiseSampler(p.sigma, rng)
        band = [x + sampler.sample() for x in band]
    # message + noise on the band after y: S_dec is the last ell − n columns
    # of C^{-1}, so (y ‖ band)·C·S_dec = band and y drops out at decryption
    vec = vec_mat(y + band, sk.C)
    hint = 0 if zero_noise else p.B
    return Ciphertext(vec=vec, level=0, q=q, noise_hint=hint)


def decrypt(sk: SecretKey, ct: Ciphertext) -> list[int]:
    """Recover the plaintext bits.

    Emits a RuntimeWarning when the ciphertext's noise hint exceeds q/4 —
    past that bound rounding to the nearest multiple of floor(q/2) is no
    longer guaranteed to land on the encrypted bit.
    """
    p = sk.params
    q = p.q
    _check_ciphertext(p, ct)
    if ct.noise_hint is not None and ct.noise_hint > Fraction(q, 4):
        warnings.warn(
            f"noise hint {approx(ct.noise_hint, '.4g')} exceeds q/4 = {q / 4:.4g}; "
            "decryption may be incorrect", RuntimeWarning, stacklevel=2)
    half = q // 2
    w = _apply_sdec(sk, ct.vec)
    return [round_nearest(Fraction(wj, half)) % 2 for wj in w]


def _apply_sdec(sk: SecretKey, vec: Sequence[int]) -> list[int]:
    return [balance(x, sk.params.q) for x in vec_mat(vec, sk.S_dec)]


def noise_of(sk: SecretKey, ct: Ciphertext, m: Sequence[int]) -> list[int]:
    """Exact noise vector of ct relative to plaintext m (balanced residues)."""
    p = sk.params
    _check_ciphertext(p, ct)
    m = _check_message(p, m)
    half = p.q // 2
    w = _apply_sdec(sk, ct.vec)
    return [balance(w[j] - m[j] * half, p.q) for j in range(p.ell - p.n)]


def eval_add(ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    """Homomorphic XOR: entrywise sum mod q."""
    if ct1.q != ct2.q or len(ct1.vec) != len(ct2.vec):
        raise ParameterError("ciphertexts come from different parameter sets")
    vec = [a + b for a, b in zip(ct1.vec, ct2.vec)]
    hint = None
    if ct1.noise_hint is not None and ct2.noise_hint is not None:
        hint = ct1.noise_hint + ct2.noise_hint + 1
    return Ciphertext(vec=vec, level=max(ct1.level, ct2.level), q=ct1.q,
                      noise_hint=hint)


def mult_noise_hint(evk: EvalKey, h1: Rational, h2: Rational) -> Fraction:
    """Tracked noise bound for a product of ciphertexts with hints h1, h2."""
    p = evk.params
    return _product_hint(max(h1, h2), evk.k_max, p.q, p.ell)


def eval_mult(evk: EvalKey, ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    """Homomorphic AND via the multiplication key.

    Contracts the key's tensor with the two gadget-transformed ciphertexts
    and floors the result.  Internally runs the factored form in three
    layers, the first two fused in ``keys._carry_product`` so that the
    transforms t_i are never formed.  Quotients and carries: one division
    per ciphertext entry, whose bits give every carry of that entry's
    transform.  Packed products: x = t1·P1 and y = t2·P2, each one
    big-integer multiply-add per ciphertext entry plus a subset sum of
    carry rows, against the key's Kronecker-packed carry tables
    (``evk.packed``, which the first call on a key builds).  The W
    contraction: first z_s = x_s·y_s·u_s, then z·W (``vec_mat``), so the
    k-th output is

        floor( sum_s z_s * W[s,k] )  mod q,

    where u_s is 2/q on the message band and 1 elsewhere.  Each sum is one
    integer numerator over the common denominator q·2^(2u), so the floor
    is one exact integer division.
    """
    p = evk.params
    q = p.q
    _check_ciphertext(p, ct1)
    _check_ciphertext(p, ct2)
    level = ct1.level + ct2.level + 1
    if level > p.L:
        raise DepthError(
            f"multiplication at levels {ct1.level} + {ct2.level} needs depth "
            f"{level} > L = {p.L}"
        )
    T1, T2 = evk.packed
    x = _carry_product(ct1.vec, T1, q, p.u)
    y = _carry_product(ct2.vec, T2, q, p.u)
    # u_s times the common denominator q·2^(2u) (2^u from each transform)
    n, ell = p.n, p.ell
    z = [xs * ys * (2 if n <= s < ell else q)
         for s, (xs, ys) in enumerate(zip(x, y))]
    denom = q << (2 * p.u)
    out = [balance(acc // denom, q) for acc in vec_mat(z, evk.W)]
    hint = None
    if ct1.noise_hint is not None and ct2.noise_hint is not None:
        hint = mult_noise_hint(evk, ct1.noise_hint, ct2.noise_hint)
    return Ciphertext(vec=out, level=level, q=q, noise_hint=hint)


# ---------------------------------------------------------------------------
# public-key mode
# ---------------------------------------------------------------------------

#: Public-key slack eps; public-key files store it, so it stays 1/10.
PK_EPS = Fraction(1, 10)


def pk_rows(p: Params) -> int:
    """d = ceil((1 + eps)·ell·log2 q), the zero encryptions in a public key."""
    return math.ceil((1 + PK_EPS) * p.ell * p.q_bits)


@dataclass
class PublicKey:
    """Encryptions of zero (C0) and of the unit bit vectors (C_unit).

    d = pk_rows(params) zero encryptions make random subset sums
    statistically close to fresh encryptions of zero; adding the unit-vector
    rows for the set bits of m yields an encryption of m without the secret
    key.
    """

    params: Params
    C0: Matrix
    C_unit: Matrix

    @property
    def d(self) -> int:
        return pk_rows(self.params)


def pk_keygen(sk: SecretKey, rng: Random) -> PublicKey:
    p = sk.params
    zero = [0] * p.message_bits
    C0 = [encrypt(sk, zero, rng).vec for _ in range(pk_rows(p))]
    C_unit = []
    for j in range(p.message_bits):
        e_j = [1 if i == j else 0 for i in range(p.message_bits)]
        C_unit.append(encrypt(sk, e_j, rng).vec)
    return PublicKey(params=p, C0=C0, C_unit=C_unit)


def pk_encrypt(pk: PublicKey, m: Sequence[int], rng: Random) -> Ciphertext:
    """Encrypt with the public key: unit rows for set bits + random zero subset."""
    p = pk.params
    m = _check_message(p, m)
    subset = [rng.randrange(2) for _ in pk.C0]
    vec = vec_mat(m + subset, pk.C_unit + pk.C0)
    hint = (sum(m) + sum(subset)) * p.B
    return Ciphertext(vec=vec, level=0, q=p.q, noise_hint=hint)
