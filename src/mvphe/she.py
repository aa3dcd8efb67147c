"""Encryption, decryption, and the homomorphic operations.

A plaintext is a vector of ell − n bits.  Its encryption is

    c = (y ‖ p·floor(q/2) + e) · C   (mod q, balanced)

where y is a uniformly random head vector, e a discrete-Gaussian noise
vector, and C the secret key's encryption matrix; y, the noise and
``pk_encrypt``'s subset are drawn by ``arith.randbelow``.  Decryption
computes w = c·S_dec (mod q, balanced), S_dec being the last ell − n
columns of C^{-1}, and rounds each w_j to the nearest multiple of
floor(q/2), mod 2, as the integer (2·w_j + floor(q/2)) // (2·floor(q/2)).
Both run on packed rows (``SecretKey.packed``, ``SecretKey.packed_S_dec``).
Correct as long as the noise stays below floor(q/2)/2 in infinity norm.

Every ciphertext carries a ``noise_hint``, and must: an upper bound on the
infinity norm of its noise, set by whatever made the ciphertext and carried
through each operation by the tracked formulas below.  The decryption limit
is floor(q/2)/2 (``keys._reaches_limit``): noise below it always decrypts,
and noise of ceil(floor(q/2)/2) can flip a bit.  The hint is excluded from
equality comparisons.  Files store it.

The hint is the one depth rule.  Multiplication contracts the
evaluation-key tensor with the gadget transforms of the two ciphertexts
and floors, every layer on Kronecker-packed key rows (``eval_mult``); its
hint is the per-product bound ``keys._product_hint`` at
max(h1, h2), linear in the carry bound k_max, and ``eval_mult`` refuses a
product whose hint reaches the limit.  Addition is entrywise (hint:
``keys._sum_hint``) and refuses nothing, so decryption warns when a hint
reaches the limit.  Hints are integers.  The whole pipeline is exact
integer/rational arithmetic; the only rounding of a vector is the final
floor, by design.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import mul
from random import Random
from typing import Iterable, Sequence

from .arith import NoiseSampler, approx, balance, randbelow
from .errors import DepthError, ParameterError
from .keys import EvalKey, Params, SecretKey
from .keys import _carry_product, _product_hint, _reaches_limit, _sum_hint
from .linalg import Matrix, unpack_slots

__all__ = [
    "Ciphertext", "PublicKey", "encrypt", "decrypt", "noise_of",
    "eval_add", "eval_mult", "pk_keygen", "pk_encrypt",
]


@dataclass
class Ciphertext:
    """A length-ell vector over Z_q (balanced).

    ``noise_hint`` is the tracked noise bound, a nonnegative int required
    of every ciphertext; it does not participate in equality.
    """

    vec: list[int]
    q: int
    noise_hint: int = field(compare=False)

    def __post_init__(self):
        # bool is an int subclass, but True is no noise bound
        if type(self.noise_hint) is not int or self.noise_hint < 0:
            raise ParameterError(
                f"noise hint must be a nonnegative int, got {self.noise_hint!r}")
        q = self.q
        half = q // 2
        self.vec = [r - q if (r := x % q) > half else r for x in self.vec]


def _are_bits(xs: Iterable) -> bool:
    """Whether every x is the int 0 or 1: a bool passes, 1.0 does not."""
    return all(isinstance(x, int) and x in (0, 1) for x in xs)


def _check_message(params: Params, m: Sequence[int]) -> list[int]:
    m = list(m)
    if len(m) != params.message_bits:
        raise ParameterError(
            f"message must have {params.message_bits} bits, got {len(m)}"
        )
    if not _are_bits(m):
        raise ParameterError("message bits must be the ints 0 or 1")
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
    decryption is exact.  The product by C runs on the key's packed rows
    (``sk.packed``, which the first encryption under a key builds): ell
    big-integer multiply-adds and one ``unpack_slots``.
    """
    p = sk.params
    q = p.q
    m = _check_message(p, m)
    y = [randbelow(rng, q) for _ in range(p.n)]
    band = [b * (q // 2) for b in m]
    if not zero_noise:
        sampler = NoiseSampler(p.sigma, rng)
        band = [x + sampler.sample() for x in band]
    # message + noise on the band after y: S_dec is the last ell − n columns
    # of C^{-1}, so (y ‖ band)·C·S_dec = band and y drops out at decryption
    rows, width = sk.packed
    vec = unpack_slots(sum(map(mul, y + band, rows)), width, p.ell)
    hint = 0 if zero_noise else p.B
    return Ciphertext(vec=vec, q=q, noise_hint=hint)


def decrypt(sk: SecretKey, ct: Ciphertext) -> list[int]:
    """Recover the plaintext bits.

    Emits a RuntimeWarning when the ciphertext's noise hint reaches the
    decryption limit floor(q/2)/2 — from there on, rounding to the nearest
    multiple of floor(q/2) is no longer guaranteed to land on the encrypted
    bit.  Only sums get there: ``eval_mult`` refuses such a product.
    """
    p = sk.params
    q = p.q
    _check_ciphertext(p, ct)
    half = q // 2
    if _reaches_limit(ct.noise_hint, q):
        warnings.warn(f"noise hint {approx(ct.noise_hint, '.4g')} reaches floor(q/2)/2"
                      f" = {half / 2:.4g}; decryption may be incorrect",
                      RuntimeWarning, stacklevel=2)
    # round(w / half), halves rounding up, as one floor division
    return [(2 * wj + half) // (2 * half) % 2 for wj in _apply_sdec(sk, ct.vec)]


def _apply_sdec(sk: SecretKey, vec: Sequence[int]) -> list[int]:
    """c·S_dec, balanced: one multiply-add per row of S_dec's packed rows
    (``sk.packed_S_dec``) and one ``unpack_slots``."""
    p = sk.params
    rows, width = sk.packed_S_dec
    w = unpack_slots(sum(map(mul, vec, rows)), width, p.message_bits)
    return [balance(x, p.q) for x in w]


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
    return Ciphertext(vec=vec, q=ct1.q,
                      noise_hint=_sum_hint(ct1.noise_hint, ct2.noise_hint))


def mult_noise_hint(evk: EvalKey, h1: int, h2: int) -> int:
    """Tracked noise bound for a product of ciphertexts with hints h1, h2."""
    p = evk.params
    return _product_hint(max(h1, h2), p.ell, p.u, p.q)


def eval_mult(evk: EvalKey, ct1: Ciphertext, ct2: Ciphertext,
              carries: dict | None = None) -> Ciphertext:
    """Homomorphic AND via the multiplication key.

    A product whose hint (``mult_noise_hint``) reaches the decryption limit
    floor(q/2)/2 is refused with DepthError before any work: the one place
    a product is refused, so a circuit runs as deep as its noise allows.

    Contracts the key's tensor with the two gadget-transformed ciphertexts
    and floors the result.  Internally runs the factored form in three
    layers, the first two fused in ``keys._carry_product`` so that the
    transforms t_i are never formed.  Quotients and carries: one division
    per ciphertext entry, whose bits give every carry of that entry's
    transform.  Packed products: x = t1·P1 and y = t2·P2.  Each is first
    t_i·D_i~, one big-integer multiply-add per ciphertext entry plus a
    carry sum of one window lookup per hex digit of its quotient, against
    the key's Kronecker-packed carry tables of ell columns, built from D1s
    and D2s, once when D2s == D1s, and one ``unpack_slots``; then A's
    extension appends its first n entries times E, n multiply-adds against
    E's packed rows and one ``unpack_slots``.  The W contraction
    (``_contract``): z_s = x_s·y_s·u_s, and the k-th output is

        floor( sum_s z_s * W[s,k] )  mod q,

    where u_s is 2/q on the message band and 1 elsewhere.  Each sum is one
    integer numerator over the common denominator q·2^(2u), so the floor
    is one exact integer division, and only the numerator mod q²·2^(2u)
    matters: each z_s is reduced to that first, and the sums are one
    multiply-add per row of W against its packed rows and one
    ``unpack_slots``.  The tables and the packed rows of E and W are one
    cache, ``evk.packed``, which the first call on a key builds after it
    checks the key's four blocks against their one table of shapes and
    ranges (``keys._evalkey_blocks``, which files check too), so a
    misshapen block or one out of range is refused with ParameterError.

    ``carries`` is a memo of carry products that the ANDs of one
    evaluation under this key share (``circuit.eval_homomorphic`` passes
    one per call): a ciphertext already multiplied there, on either side
    when D2s == D1s, reuses its carry product, already extended by E, so a
    wire that feeds several ANDs pays for it once.  Without one, each call
    keeps its own.
    """
    p = evk.params
    _check_ciphertext(p, ct1)
    _check_ciphertext(p, ct2)
    hint = mult_noise_hint(evk, ct1.noise_hint, ct2.noise_hint)
    if _reaches_limit(hint, p.q):
        raise DepthError(f"AND refused: its noise hint {approx(hint, '.4g')} "
                         f"reaches floor(q/2)/2 = {p.q // 2 / 2:.4g}")
    # the constructor balances
    return Ciphertext(vec=_product(evk, ct1.vec, ct2.vec, carries), q=p.q,
                      noise_hint=hint)


def _product(evk: EvalKey, v1: Sequence[int], v2: Sequence[int],
             carries: dict | None = None) -> list[int]:
    """The three layers of ``eval_mult`` on two ciphertext vectors, with no
    hint and no depth refusal: two carry products, then ``_contract``; the
    entries are unbalanced.  A carry product is t·P_i: y = t·D_i~ by
    ``keys._carry_product`` on D_i~'s table, extended by A to
    [y | y[:n]·E] on E's packed rows, both read off the one cache
    ``evk.packed``.  Each is read from ``carries`` (a fresh dict when
    None), or computed, extended and stored there, keyed by (whether the
    table is D1~'s, *the vector): a hit is t·P_i as computed here, and one
    table given twice (D2s == D1s) serves both sides."""
    p = evk.params
    T1, T2, (E_rows, width, cols), _ = evk.packed
    memo = {} if carries is None else carries
    xy = []
    for vec, table, on_P1 in ((v1, T1, True), (v2, T2, T2 is T1)):
        key = (on_P1, *vec)
        if key not in memo:
            y = _carry_product(vec, table, p.q, p.u)
            # E has n rows, so the sum reads y[:n]
            memo[key] = y + unpack_slots(sum(map(mul, y, E_rows)), width, cols)
        xy.append(memo[key])
    return _contract(evk, *xy)


def _contract(evk: EvalKey, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """The W contraction of x = t1·P1 and y = t2·P2: output k is
    floor(sum_s z_s·W[s,k] / denom) mod q, where z_s = x_s·y_s·u_s·q is
    the numerator of u_s·x_s·y_s over denom = q·2^(2u) (2^u from each
    transform) and u_s is as in ``eval_mult``.

    That floor mod q depends only on the sum mod M2 = q·denom, so each z_s
    is reduced mod M2 first and the sums are one multiply-add per row of
    W against its signed packed rows, the last part of the one cache
    ``evk.packed``, read back by one ``unpack_slots``; the entries are
    unbalanced."""
    p = evk.params
    *_, (rows, width, M2, factors) = evk.packed
    z = [xs * ys * f % M2 for xs, ys, f in zip(x, y, factors)]
    denom = M2 // p.q
    return [s % M2 // denom
            for s in unpack_slots(sum(map(mul, z, rows)), width, p.ell)]


# ---------------------------------------------------------------------------
# public-key mode
# ---------------------------------------------------------------------------

#: Public-key slack eps.  Files do not store it; the loader derives d from
#: it, so another eps would refuse every existing public-key file.
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
    """Encrypt with the public key: unit rows for set bits + random zero subset.

    The vector is the column sums of the selected rows of C_unit and C0, all
    zero when no row is selected.
    """
    p = pk.params
    m = _check_message(p, m)
    subset = [randbelow(rng, 2) for _ in pk.C0]
    rows = compress(pk.C_unit + pk.C0, m + subset)
    vec = [*map(sum, zip(*rows))] or [0] * p.ell
    hint = (sum(m) + sum(subset)) * p.B
    return Ciphertext(vec=vec, q=p.q, noise_hint=hint)
