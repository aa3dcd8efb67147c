"""Parameters, secret keys, and construction of the multiplication key.

The scheme encrypts (ell − n)-bit messages into length-ell vectors over Z_q.
A secret key is built from

* a generator polynomial g of degree r_g (monic, nonzero constant term),
  held as its balanced coefficients on ``enumerate_monomials(v, r_g)``,
  constant first and the leading 1 last, the row the key file stores,
* the n monomials h_1..h_n of degree <= r_prime, so that the products
  g·h_i form a basis of the degree-(<= r) slice of the ideal <g>,
* evaluation points z_1..z_t in Z_q^v — the first ell define ciphertexts,
  the remaining t − ell only support multiplication,
* an annihilator matrix S, derived so that [S | I] kills the evaluations of
  every ideal element of degree <= r at z_1..z_ell,
* a random invertible mixing block R1 and a random block R2.

The mixing matrix R is assembled block upper-triangular,

    R = [[ R1, R2^T ],
         [ 0,  I    ]],

with the random R2 block strictly above the diagonal.  This placement is
what keeps homomorphic multiplication correct: the final entrywise floor is
taken after multiplying by R, and the pre-floor vector carries fractional
parts only in its last ell − n coordinates.  With R2 above the diagonal
those coordinates are passed through unscaled, so flooring commutes with the
mixing step; a random block *below* the diagonal would smear the fractional
tails across all coordinates and corrupt the products' decryption, as
tests/test_keys.py::test_random_block_belongs_above_the_diagonal shows.

The multiplication key is the order-3 tensor

    M = T ×1 D1~ ×2 D2~ ×3 (R^T Q^T B^T),      T = U ×1 A ×2 A,

assembled in five steps (unmasking matrices D_i with dyadic masking noise
eps_i, point-extension matrix A, rescaling tensor U, re-expression matrix B,
and the reduction matrix Q that realizes polynomial division back into
degree <= r on evaluations).  M is never materialized: the rank-1 slice
structure lets evaluation run through the two factor matrices P_i = D_i~ · A
and the combined third factor W = B·Q·R.  Neither B nor Q is formed either:
B·Q's rows at the solve points are the X that solves F1p·X = F2, F1p being
the degree-(<= 2r) ideal basis evaluated at z_1..z_n and the extension
points (``_reduction_map``).  E and −S^T are one solve against E1, the
ideal's evaluations at z_1..z_n, carried on to the extension and band
points.  Every system is one ``linalg.solve_mod_q``, with no inverse
formed; ideal evaluations are g(z)·m(z) mod q (``_ideal_rows``), g(z) the
sum of g's coefficients times its monomials at z (``_generator_at``).  Only
F2's division forms g as a polynomial (``mvpoly.Polynomial``), in
``_reduction_map``.

P_i is not formed either, and the key does not store it.  A = [I | A_ext]
with A_ext zero below its first n rows, so P_i = [D_i~ | D_i~[:, :n]·E]
follows from two small blocks: D_i·2^u + eps_i mod q·2^u (ell x ell), whose
bits are D_i~, and E, those n rows.  The key holds those
blocks and W.  AND multiplies the gadget-transformed ciphertexts by P_i
without forming the transforms or P_i.  Every entry of a transform is c·2^s
less a carry, and all the carries of an entry c come from the bits of one
quotient, so y = t·D_i~ is the sum of c times its row of
D_i·2^u + eps_i, less a subset sum of carry rows (``_carry_product``), and
t·P_i = [y | y[:n]·E].  So the carry tables have ell columns, D_i~'s, not
t.  They are built Kronecker-packed once per key object, on its first AND
(``EvalKey.packed``), on the packed rows of the ell x ell identity, which
are A's first ell columns (``_carry_table``): an entry's carry rows sum the
unit rows its bits at u + 1..u + K − 1 select (``mat_mul_exact``), kept as
hex windows, the 16 subset sums of each four, so a carry sum is one lookup
per hex digit of the quotient.  When D2s equals D1s (zero masking, every
preset but ``small``) one table serves both.  E's rows, which extend each
carry product by y[:n]·E (``she._product``), and W's rows are packed on
that first AND too, in the same one cache.  The shapes and ranges of the
key's four blocks are stated once (``_evalkey_blocks``): files check them
on save and load (``serialize._layout``), and that first AND checks them
before it builds anything (``linalg._check_blocks``, the one checker).

The evaluation key is not public: it stores D_i·2^u + eps_i, and rounding
off the u low bits gives D and so S_dec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import compress
from operator import getitem, mul
from random import Random
from typing import NamedTuple, Sequence

from .arith import Rational, balance, is_probable_prime, randbelow, random_prime, six_sigma
from .errors import (
    ConstructionError,
    GenerationFailure,
    ParameterError,
    SingularMatrixError,
)
from .linalg import (
    Matrix,
    _check_blocks,
    balanced_matrix,
    inverse_mod_q,
    mat_mul,
    pack_rows,
    rank_mod_q,
    slot_width,
    solve_mod_q,
    unpack_slots,
    zeros,
)
from .mvpoly import Monomial, Polynomial, enumerate_monomials, grevlex_key, reduce_by_set

RETRY_CAP = 100  # rejection-sampling cap for key generation
_T_BITS = 32  # files record lambda as a u32; every binomial is at most n1 <= t
_Q_BITS_MAX = 64  # below log2(psi_13), so the fixed bases prove every q prime


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """All scheme dimensions and moduli.

    Derived fields satisfy: r = r_prime + r_g, n = C(v+r_prime, r_prime),
    N = C(v+r, r), n1 = C(v + 2r − r_g, 2r − r_g), t = n1 + ell − n,
    n < ell <= N, and t < 2^32, which bounds every binomial the package
    takes (each is at most n1 <= t).  q is an odd prime of at most 64 bits,
    u <= 64 (ell·(u + q_bits) key rows), and q >= B·(n·log2 q)^L.
    """

    lambda_: int
    L: int
    v: int
    r_g: int
    r_prime: int
    ell: int
    q: int
    sigma: Rational
    B: int
    u: int
    # derived by __post_init__, not settable
    r: int = field(init=False)
    n: int = field(init=False)
    N: int = field(init=False)
    n1: int = field(init=False)
    t: int = field(init=False)

    def __post_init__(self):
        _check_dimensions(self.v, self.r_g, self.r_prime)
        r = self.r_g + self.r_prime
        n = math.comb(self.v + self.r_prime, self.r_prime)
        N = math.comb(self.v + r, r)
        n1 = math.comb(self.v + 2 * r - self.r_g, 2 * r - self.r_g)
        t = n1 + self.ell - n
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "t", t)
        self.validate()

    # -- checks ----------------------------------------------------------
    def validate(self) -> None:
        if self.lambda_ < 1 or self.L < 1:
            raise ParameterError("need lambda >= 1 and L >= 1")
        if self.lambda_ >= 1 << _T_BITS:
            raise ParameterError(
                f"need lambda < 2^{_T_BITS}, got lambda = {self.lambda_}")
        if not self.n < self.ell <= self.N:
            raise ParameterError(
                f"need n < ell <= N, got n={self.n}, ell={self.ell}, N={self.N}"
            )
        if self.t >= 1 << _T_BITS:
            raise ParameterError(f"need t < 2^{_T_BITS} points, got t = {self.t}")
        if not 0 <= self.u <= _Q_BITS_MAX:
            raise ParameterError(f"need 0 <= u <= {_Q_BITS_MAX}, got u = {self.u}")
        if self.q_bits > _Q_BITS_MAX:
            raise ParameterError(
                f"q must have at most {_Q_BITS_MAX} bits, got {self.q_bits}")
        if self.q < 3 or self.q % 2 == 0 or not is_probable_prime(self.q):
            raise ParameterError(f"q = {self.q} is not an odd prime")
        if self.sigma < 0:
            raise ParameterError("sigma must be >= 0")
        if self.B < 1:
            raise ParameterError("noise bound B must be >= 1")
        if self.B < six_sigma(self.sigma):
            raise ParameterError("noise bound B must be >= ceil(6*sigma)")
        if _reaches_limit(self.B, self.q):
            raise ParameterError(
                f"decryption needs B < floor(q/2)/2: B={self.B}, q={self.q}"
            )
        # L is a u32 in every file, so refuse a hopeless depth before the
        # exact power: (n·q_bits)^L >= 2^q_bits > q/B
        if self.L * ((self.n * self.q_bits).bit_length() - 1) >= self.q_bits:
            raise ParameterError(
                f"q/B ratio too small for depth L={self.L}: "
                f"(n·log2 q)^L >= 2^{self.q_bits} > q/B"
            )
        if self.q < self.B * (self.n * self.q_bits) ** self.L:
            raise ParameterError(
                f"q/B ratio too small for depth L={self.L}: q < B·(n·log2 q)^L"
            )

    # -- convenience -------------------------------------------------------
    @property
    def q_bits(self) -> int:
        return self.q.bit_length()

    @property
    def message_bits(self) -> int:
        return self.ell - self.n


def _check_dimensions(v: int, r_g: int, r_prime: int) -> None:
    """Refuse a shape before any binomial of it is taken: every binomial is
    at most n1 <= t, and n1 >= 2^min(v, 2r − r_g), so a shape whose t
    cannot fit is refused before a binomial grows past it."""
    if v < 1 or r_g < 1 or r_prime < 1:
        raise ParameterError("need v, r_g, r_prime >= 1")
    if min(v, r_g + 2 * r_prime) >= _T_BITS:
        raise ParameterError(f"need t < 2^{_T_BITS} points: v = {v}, "
                             f"r_g = {r_g}, r_prime = {r_prime}")


# ---------------------------------------------------------------------------
# noise growth
# ---------------------------------------------------------------------------

def _reaches_limit(h: int, q: int) -> bool:
    """Whether noise h reaches the decryption limit floor(q/2)/2, tested as
    2·h >= floor(q/2): a ciphertext decrypts correctly while its noise stays
    below the limit, and a noise of ceil(floor(q/2)/2) can flip a bit."""
    return 2 * h >= q // 2


def _carry_bound(ell: int, u: int, q_bits: int) -> int:
    """2·k_max = ell·(u + q_bits) + 2, twice the certified bound k_max on the
    carries of one multiplication: an integer even where k_max is not."""
    return ell * (u + q_bits) + 2


def _product_hint(h: int, ell: int, u: int, q: int) -> int:
    """Tracked noise bound of a product whose inputs have noise at most h:
    4h + 2·(4h + 1)·k_max + ceil((8h² + 1)/q) + ell, linear in h·k_max, plus
    a term damped by 1/q and the floor's slack ell."""
    return (4 * h + (4 * h + 1) * _carry_bound(ell, u, q.bit_length())
            + (8 * h * h + q) // q + ell)


def _sum_hint(h1: int, h2: int) -> int:
    """Tracked noise bound of a sum whose inputs have noise at most h1, h2."""
    return h1 + h2 + 1


def _auto_q_bits(L: int, ell: int, u: int, B: int) -> int:
    """Smallest q_bits in 16.._Q_BITS_MAX with 2·h_L < floor(q_min/2)/2,
    where h_L is the hint after L levels of (multiply, then add) from B at
    q_min = 2^(q_bits − 1), dropping a size as soon as 2·h reaches the limit.
    This implies both depth checks in ``Params.validate``: h_L >= B, so
    B < floor(q/2)/2; and each level multiplies the hint by more than
    16·k_max > 8·n·q_bits (ell > n), so (q/B) >= (n·q_bits)^L.
    """
    for bits in range(16, _Q_BITS_MAX + 1):
        q_min = 1 << (bits - 1)
        h = B
        for _ in range(L):
            x = _product_hint(h, ell, u, q_min)
            h = _sum_hint(x, x)
            if _reaches_limit(2 * h, q_min):
                break
        else:
            return bits
    raise ParameterError(
        f"no modulus size up to {_Q_BITS_MAX} bits supports depth L={L} "
        "at these dimensions"
    )


#: Named parameter sets.  q_bits values are pinned (not auto-derived) so the
#: file formats stay stable; each satisfies q >= B·(n·log2 q)^L.
PRESETS: dict[str, dict] = {
    # everyday testing scale: 2 message bits, depth 2
    "toy": dict(lambda_=64, L=2, v=2, r_g=1, r_prime=2, ell=8, q_bits=40,
                sigma=8, B=48, u=8),
    # small modulus + wide gadget: the one preset where the dyadic masking
    # blocks eps_i are nonzero, exercising that code path honestly
    "small": dict(lambda_=64, L=1, v=2, r_g=1, r_prime=2, ell=8, q_bits=21,
                  sigma=8, B=48, u=20),
    # depth-3 chains
    "depth3": dict(lambda_=64, L=3, v=2, r_g=1, r_prime=2, ell=8, q_bits=48,
                   sigma=8, B=48, u=8),
    # benchmark shapes: larger ciphertexts at fixed modulus size
    "bench12": dict(lambda_=64, L=1, v=2, r_g=1, r_prime=3, ell=12, q_bits=40,
                    sigma=8, B=48, u=8),
    "bench16": dict(lambda_=64, L=1, v=2, r_g=1, r_prime=4, ell=16, q_bits=40,
                    sigma=8, B=48, u=8),
}


def setup(lambda_: int = 64, L: int = 1, rng: Random | None = None, *,
          v: int = 2, r_g: int = 1, r_prime: int = 2, ell: int | None = None,
          sigma: Rational = 8, B: int | None = None, u: int = 8,
          q_bits: int | None = None) -> Params:
    """Build a consistent Params object from the knobs in the signature:
    ``ell=None`` means n + 2, ``B=None`` ceil(6·sigma) (48 at sigma = 0) and
    ``q_bits=None`` the smallest size that passes a worst-case noise
    simulation for depth L.  The modulus q is a prime of ``q_bits`` bits
    drawn from ``rng``; without one, from a generator seeded by the stamp
    (lambda_, L, v, r_g, r_prime, ell, q_bits), so the result is a pure
    function of its arguments.  A chosen modulus goes to ``Params``
    directly.
    """
    _check_dimensions(v, r_g, r_prime)
    if ell is None:
        ell = math.comb(v + r_prime, r_prime) + 2
    if B is None:
        B = six_sigma(sigma) if sigma else 48
    if q_bits is None:
        q_bits = _auto_q_bits(L, ell, u, B)
    elif q_bits > _Q_BITS_MAX:  # refused before a long prime search
        raise ParameterError(
            f"q must have at most {_Q_BITS_MAX} bits, got {q_bits}")
    if rng is None:
        stamp = f"mvphe-setup|{lambda_}|{L}|{v}|{r_g}|{r_prime}|{ell}|{q_bits}"
        rng = Random(stamp)
    q = random_prime(q_bits, rng)
    return Params(lambda_=lambda_, L=L, v=v, r_g=r_g, r_prime=r_prime, ell=ell,
                  q=q, sigma=sigma, B=B, u=u)


def preset_params(name: str, rng: Random | None = None, **extra) -> Params:
    """``setup`` on a named preset's knobs, ``extra`` taking precedence over
    them."""
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return setup(rng=rng, **{**PRESETS[name], **extra})


# ---------------------------------------------------------------------------
# secret keys
# ---------------------------------------------------------------------------

@dataclass
class SecretKey:
    """Secret key material plus derived encryption/decryption matrices.

    Core fields (g, points, S, R1, R2) determine everything; R, C and
    S_dec are recomputed deterministically on construction and are not
    settable.  g is the list of the generator's balanced coefficients on
    ``enumerate_monomials(v, r_g)``, the constant first and the leading 1
    last, as the key file stores them.  Encryption multiplies by
    C = T^{-1}·R, T = [[I, S^T], [0, I]]; D = C^{-1} unmasks, and its last
    ell − n columns are S_dec.  C is block upper-triangular, so S_dec is
    R1^{-1}·(S^T − R2^T) stacked on I: one n x n solve, which also refuses
    a singular R1 (and so a C without an inverse) with
    SingularMatrixError.  D itself is built on first use (``D``), by
    ``build_evalkey`` alone.

    ``packed`` and ``packed_S_dec`` cache the rows of C and of S_dec
    Kronecker-packed, each on its first product, and ``F1p`` caches the
    ideal evaluations ``build_evalkey`` solves against, which keygen has
    already formed.  Like ``D`` and ``EvalKey.packed`` they are not part
    of the key: equality, repr and files ignore them, and ``replace`` gives
    a key that builds them afresh.  Mutating a field in place leaves them
    stale.
    """

    params: Params
    g: list[int]
    points: list[tuple[int, ...]]
    S: Matrix
    R1: Matrix
    R2: Matrix
    # derived by __post_init__, not settable; D is built on first use
    R: Matrix = field(init=False, repr=False)
    C: Matrix = field(init=False, repr=False)
    S_dec: Matrix = field(init=False, repr=False)

    def __post_init__(self):
        p = self.params
        q = p.q
        n, ell, k = p.n, p.ell, p.ell - p.n
        # R = [[R1, R2^T], [0, I]]  (random block above the diagonal)
        R = zeros(ell, ell)
        for i in range(n):
            for j in range(n):
                R[i][j] = self.R1[i][j] % q
            for j in range(k):
                R[i][n + j] = self.R2[j][i] % q
        for j in range(k):
            R[n + j][n + j] = 1
        self.R = R
        # C = T^{-1}·R = [[R1, R2^T − S^T], [0, I]]
        self.C = [row[:n] + [(x - s) % q for x, s in zip(row[n:], s_col)]
                  for row, s_col in zip(R, zip(*self.S))] + R[n:]
        # S_dec = [R1^{-1}·(S^T − R2^T); I], the last k columns of C^{-1}
        self.S_dec = (solve_mod_q(self.R1, [[-x % q for x in row[n:]]
                                            for row in self.C[:n]], q)
                      + [row[n:] for row in R[n:]])

    @cached_property
    def D(self) -> Matrix:
        """D = C^{-1} = [[R1^{-1}, S_dec's top n rows], [0, I]], built on
        first use: only ``build_evalkey`` reads it."""
        n = self.params.n
        return ([inv + dec for inv, dec in zip(inverse_mod_q(self.R1, self.params.q),
                                               self.S_dec)]
                + [[0] * n + row for row in self.S_dec[n:]])

    @cached_property
    def F1p(self) -> Matrix:
        """The degree-(<= 2r) ideal basis evaluated at the solve points
        z_1..z_n and z_{ell+1}..z_t (``_ideal_rows_2r``): keygen's condition-3
        matrix, which keygen stores here, and ``build_evalkey``'s F1p.  A
        key made otherwise builds it on first use."""
        p = self.params
        points = self.points[:p.n] + self.points[p.ell:]
        monos = enumerate_monomials(p.v, p.r_g)
        return _ideal_rows_2r(p, [_generator_at(self.g, monos, z, p.q)
                                  for z in points], points)

    @cached_property
    def packed(self) -> tuple[list[int], int]:
        """C's rows packed for ``she.encrypt`` (``_pack``), on first use."""
        return self._pack(self.C)

    @cached_property
    def packed_S_dec(self) -> tuple[list[int], int]:
        """S_dec's rows packed for ``she.decrypt`` (``_pack``), on first use."""
        return self._pack(self.S_dec)

    def _pack(self, M: Matrix) -> tuple[list[int], int]:
        """M's rows packed by ``pack_rows`` at one width for C and S_dec: an
        encryption's vector has entries in (−q, q), a ciphertext's in
        (−q/2, q/2), and C's and S_dec's in [0, q), so ell·q² bounds both."""
        width = slot_width(self.params.ell * self.params.q ** 2)
        return pack_rows(M, width), width


def _sample_generator(p: Params, rng: Random) -> list[int]:
    """A monic degree-r_g polynomial with a nonzero constant term, as its
    balanced coefficients on ``enumerate_monomials(v, r_g)``: one draw per
    monomial in that order, then the last, the grevlex-leading monomial of
    degree r_g, is set to 1, and a zero constant is redrawn."""
    q = p.q
    g = [randbelow(rng, q) for _ in range(math.comb(p.v + p.r_g, p.r_g))]
    g[-1] = 1
    if g[0] == 0:
        g[0] = 1 + randbelow(rng, q - 1)
    return [balance(c, q) for c in g]


def _generator_at(g: Sequence[int], monos: Sequence[Monomial],
                  z: Sequence[int], q: int) -> int:
    """g(z) mod q, from g's coefficients on ``monos``, the monomials of
    ``enumerate_monomials(v, r_g)``."""
    return sum(map(mul, g, [math.prod(map(pow, z, m)) for m in monos])) % q


def _sample_point(p: Params, g: Sequence[int], monos: Sequence[Monomial],
                  rng: Random) -> tuple[tuple[int, ...], int]:
    """A point z where g is nonzero, and g(z) (``_generator_at``)."""
    for _ in range(RETRY_CAP * 100):
        z = tuple(randbelow(rng, p.q) for _ in range(p.v))
        gz = _generator_at(g, monos, z, p.q)
        if gz != 0:
            return z, gz
    raise GenerationFailure("could not find a point where g is nonzero")


def _monomial_table(p: Params, points: Sequence[tuple[int, ...]],
                    degree: int) -> Matrix:
    """m(z) mod q for the monomials m of degree <= ``degree`` (rows,
    ascending by degree as ``enumerate_monomials`` lists them, so the first
    N rows have degree <= r and the first n degree <= r_prime) at each
    point z (columns): degree r for the N monomials that span ciphertexts,
    2r − r_g for the n1 that times g span the ideal's degree-(<= 2r) slice.

    The row of m = m'·x_i is the row of m' times the coordinates z_i, one
    multiplication mod q per entry; m' has lower degree, so its row is
    already built."""
    q = p.q
    const, *monos = enumerate_monomials(p.v, degree)
    rows = {const: [1] * len(points)}
    for m in monos:
        i = next(i for i, e in enumerate(m) if e)
        parent = rows[(*m[:i], m[i] - 1, *m[i + 1:])]
        rows[m] = [a * z[i] % q for a, z in zip(parent, points)]
    return list(rows.values())


def _ideal_rows(gz: Sequence[int], table: Matrix, q: int) -> Matrix:
    """(g·m)(z) = g(z)·m(z) mod q for each row m(z) of ``table``, given
    g's values ``gz`` at its points."""
    return [[a * b % q for a, b in zip(gz, row)] for row in table]


def _ideal_rows_2r(p: Params, gz: Sequence[int],
                   points: Sequence[tuple[int, ...]]) -> Matrix:
    """The degree-(<= 2r) ideal basis g·m, m of degree <= 2r − r_g,
    evaluated at ``points``, where g takes the values ``gz``: n1 rows read
    off one monomial table."""
    return _ideal_rows(gz, _monomial_table(p, points, 2 * p.r - p.r_g), p.q)


def _ideal_basis_2r(p: Params, g: Polynomial) -> list[Polynomial]:
    """Basis g*m of the degree-(<= 2r) slice of <g>; length n1, as the
    polynomials that F2's division reduces."""
    monos = enumerate_monomials(p.v, 2 * p.r - p.r_g)
    return [g * Polynomial.monomial(p.v, p.q, m) for m in monos]


def keygen(params: Params, rng: Random) -> SecretKey:
    """Generate a secret key by rejection sampling.

    Point batches are redrawn until (1) evaluation at z_1..z_ell spans all
    of Z_q^ell for degree-<= r polynomials, (2) the ideal basis evaluated at
    z_1..z_n is invertible, and (3) the degree-(<= 2r) ideal basis evaluated
    at (z_1..z_n, z_{ell+1}..z_t) is invertible.  Each full redraw counts
    against a retry cap of RETRY_CAP.  Each check reads a monomial table
    of its points: (1) the degree-(<= r) table, (2) its first n rows times
    g(z), (3) the degree-(<= 2r − r_g) table times g(z) (``_ideal_rows_2r``),
    g(z) as each point's draw computed it, from g's coefficients and the
    monomials of degree <= r_g, enumerated once per call.  Condition 3's
    matrix is the key's ``SecretKey.F1p``, kept for ``build_evalkey``.
    """
    p = params
    q = p.q
    monos = enumerate_monomials(p.v, p.r_g)
    for _ in range(RETRY_CAP):
        g = _sample_generator(p, rng)
        pts, gz = zip(*(_sample_point(p, g, monos, rng) for _ in range(p.ell)))
        table = _monomial_table(p, pts, p.r)
        # condition 1: evaluations of degree-<= r polynomials fill Z_q^ell
        if rank_mod_q(table, q) != p.ell:
            continue
        # condition 2: ideal evaluations at the first n points are a basis
        E = _ideal_rows(gz, table[:p.n], q)
        E1 = [row[: p.n] for row in E]
        if rank_mod_q(E1, q) != p.n:
            continue
        # condition 3: extension points keep the 2r-slice evaluations full rank
        for _ in range(RETRY_CAP):
            extras, gx = zip(*(_sample_point(p, g, monos, rng)
                               for _ in range(p.t - p.ell)))
            sub = pts[: p.n] + extras
            F1p = _ideal_rows_2r(p, gz[: p.n] + gx, sub)
            if rank_mod_q(F1p, q) == p.n1:
                break
        else:
            continue
        pts = list(pts + extras)
        # S annihilates ideal evaluations: row j-n solves E1 * s = -E[:, j]
        S_t = solve_mod_q(E1, [[-x for x in row[p.n:]] for row in E], q)
        S = [list(col) for col in zip(*S_t)]
        for _ in range(RETRY_CAP):
            R1 = [[randbelow(rng, q) for _ in range(p.n)] for _ in range(p.n)]
            if rank_mod_q(R1, q) == p.n:
                break
        else:
            continue
        R2 = [[randbelow(rng, q) for _ in range(p.n)] for _ in range(p.ell - p.n)]
        sk = SecretKey(params=p, g=g, points=pts, S=S, R1=R1, R2=R2)
        sk.F1p = F1p  # condition 3's matrix is build_evalkey's
        return sk
    raise GenerationFailure(
        f"key generation failed after {RETRY_CAP} attempts; parameters degenerate?"
    )


# ---------------------------------------------------------------------------
# gadget decomposition
# ---------------------------------------------------------------------------

def _gadget_width(q: int, u: int) -> int:
    """Bit positions per vector entry in the gadget decomposition."""
    return u + q.bit_length()


class CarryTable(NamedTuple):
    """A factor P = D~·A in the form ``_carry_product`` reads, rows packed
    at one slot width by ``pack_rows``; ``EvalKey.packed`` holds those of
    D1~ and D2~, A the identity."""

    low: list[int]                  # P_red,i, one per ciphertext entry i
    windows: list[list[list[int]]]  # entry i's subset sums of H_i,b, by fours
    width: int                      # bytes per slot
    cols: int


_BITS = bytes.maketrans(b"01", b"\0\1")


def _carry_table(D_scaled: Matrix, A_rows: Sequence[int], width: int,
                 cols: int, q: int, u: int) -> CarryTable:
    """The carry table of P = D~·A for ``_carry_product``, from D_scaled
    (entries in 0..q·2^u − 1, whose u + K bits are D~, K = q_bits) and A's
    rows packed at ``width`` by ``pack_rows``.  ``EvalKey.packed`` passes
    the unit rows of the ell x ell identity, so its tables are those of
    D~ itself, ell columns wide.

    Entry i's rows of P are R_s = bit_s(D_scaled[i])·A, one per position s.
    Their gadget-weighted sum P_red = sum_s 2^s·R_s is D_scaled[i]·A, one
    multiply-add per row of A.  With R_k the row at position u + k and
    S_0 = 0, the carry rows are H_b = S_b + R_(K−1−b) and
    S_(b+1) = 2·S_b + R_(K−1−b), so only the bit rows at positions u + 1..
    u + K − 1 are formed, all entries' in one ``mat_mul_exact``: each
    entry's K − 1 bits are read off one binary format of it, the top
    K − 1 of its u + K digits, and a row's formats transposed give its bit
    rows.  The H_b are kept only as hex windows: window j holds, at each
    index d < 16, the sum of the H_(4j+k) whose bit k is set in d, so the
    carry sum of a quotient is one lookup per hex digit.  The last window
    is shorter when 4 does not divide K − 1.  Every row here is a sum of packed rows, so
    the slot width must hold the entries of t·P for every balanced t,
    |t_k| <= (q·2^u)/2.
    """
    k = q.bit_length() - 1  # carry rows per entry
    low = [sum(map(mul, row, A_rows)) for row in D_scaled]
    digits = f"0{u + k + 1}b"  # bit u + K − 1 first
    R = mat_mul_exact([bits for row in D_scaled for bits in zip(
        *(format(x, digits)[:k].encode().translate(_BITS) for x in row))], A_rows)
    windows = []
    for i in range(0, len(R), k):  # an entry's R_(K−1) down to R_1
        S, H = 0, []
        for r in R[i:i + k]:
            H.append(S + r)
            S = 2 * S + r
        entry = []
        for j in range(0, len(H), 4):
            sums = [0]
            for h in H[j:j + 4]:
                sums += [x + h for x in sums]
            entry.append(sums)
        windows.append(entry)
    return CarryTable(low, windows, width, cols)


_HEX = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _hex_digits(F: int) -> bytes:
    """The hex digits of F >= 0, least significant first, one byte each."""
    return f"{F:x}".encode().translate(_HEX)[::-1]


def _carry_product(vec: Sequence[int], table: CarryTable, q: int, u: int) -> list[int]:
    """t·P for the gadget transform t of a balanced vector, without forming t.

    With M = q·2^u and K = q_bits, the transform's entry at position s is
    bal_M(c·2^s) = c·2^s − M·rho_s(c), where rho_s = 0 for s <= u and
    rho_(u+k)(c) = sign(c)·round(|c|·2^k/q) for k = 1..K−1 (q is odd, so
    there are no ties).  Every rho comes from one quotient
    F = floor(|c|·2^K/q) < 2^(K−1), as rho_(u+k) = (F >> (K−k)) +
    bit_(K−1−k)(F).  Summed against P this gives

        t·P = sum_i c_i·P_red,i − M·sum_i sign(c_i)·sum_(b in bits(F_i)) H_i,b,

    one multiply-add per entry plus a subset sum of its carry rows, taken as
    one window lookup per hex digit of F_i, all on packed integers and read
    back by one ``unpack_slots``.  Entries of ``vec`` must be balanced,
    |c| <= (q − 1)/2, as ``Ciphertext`` keeps them.
    """
    K = q.bit_length()
    carry = 0
    for c, windows in zip(vec, table.windows):
        if c > 0:
            carry += sum(map(getitem, windows, _hex_digits((c << K) // q)))
        elif c < 0:
            carry -= sum(map(getitem, windows, _hex_digits((-c << K) // q)))
    total = sum(map(mul, vec, table.low)) - (carry * q << u)
    return unpack_slots(total, table.width, table.cols)


# ---------------------------------------------------------------------------
# multiplication-key construction
# ---------------------------------------------------------------------------

def build_G(p: Params, g: Polynomial) -> list[Polynomial]:
    """Reduction set: g·m for every monomial m of exact degree r_prime + 1.

    Ordered with the grevlex-largest leading monomial first, so top-reduction
    always finds its divisor at the earliest position.  g is monic (keygen
    draws it so and ``load_secret_key`` refuses any other), hence so is
    every element.
    """
    monos = [m for m in enumerate_monomials(p.v, p.r_prime + 1)
             if sum(m) == p.r_prime + 1]
    monos.sort(key=grevlex_key, reverse=True)
    return [g * Polynomial.monomial(p.v, p.q, m) for m in monos]


def _sample_masking_block(p: Params, rng: Random) -> Matrix:
    """Dyadic masking block (n x (ell−n)), entries k/2^u scaled to ints k.

    Entries are uniform dyadics with |k| <= kmax chosen so each column's
    one-norm stays strictly below B/q.  When the parameters leave no room
    (kmax = 0, as at the toy scale) the block is zero.
    """
    bound = Fraction((1 << p.u) * p.B, p.q * p.n)  # |k| must stay below this
    kmax = math.ceil(bound) - 1
    if kmax <= 0:
        return zeros(p.n, p.ell - p.n)
    return [[randbelow(rng, 2 * kmax + 1) - kmax for _ in range(p.ell - p.n)]
            for _ in range(p.n)]


def _reduction_map(sk: SecretKey) -> tuple[Matrix, Matrix]:
    """B·Q (t x ell), steps 4 and 5, and the extension coefficients E
    (n x (t − ell)), step 2, in two solves mod q.

    F1p (``SecretKey.F1p``) is the degree-(<= 2r) ideal basis evaluated at
    the n1 solve points (z_1..z_n, then the extension points) and F2 its
    remainders under build_G at z_1..z_ell, each read off the monomial
    table at those points as its coefficients times the table's rows, one
    multiply-add per term on packed rows.  The division runs on g formed
    once as a ``Polynomial`` from the key's coefficients.  Their first n rows, the
    degree-(<= r) ideal elements, need no reduction and share their first
    n columns, E1.  One solve against E1 carries them on to the band
    points, as Y_S, and to the extension points, as E, the nonzero rows of
    A = [I | A_ext]; [S | I] kills the ideal at z_1..z_ell, as AND needs,
    exactly when Y_S = −S^T.
    B·Q's rows at the solve points are the X that solves F1p·X = F2: B adds
    the Y that solves F1p·Y = F1[:, n:ell] into exactly the band columns
    from which Q's right-hand side subtracts F1[:, n:ell].  Its rows
    n..ell−1 are Q's pinned unit rows [0 | I], which pass the fractional
    parts of a product straight into the tail of the output, where the
    final floor absorbs them.  The mandatory post-check F1p·X = F2 (mod q),
    equivalent to the paper's F1·Q = F2, runs here.
    """
    p = sk.params
    q, n, k = p.q, p.n, p.ell - p.n
    g = Polynomial(p.v, q, dict(zip(enumerate_monomials(p.v, p.r_g), sk.g)))
    G = build_G(p, g)
    # a remainder has degree <= r: at most N terms, coefficients within
    # ±floor(q/2), which bound every slot
    width = slot_width(p.N * (q // 2) * (q - 1))
    at = dict(zip(enumerate_monomials(p.v, p.r),
                  pack_rows(_monomial_table(p, sk.points[:p.ell], p.r), width)))
    F2 = []
    for b in _ideal_basis_2r(p, g):
        rem = reduce_by_set(b, G, p.r)
        total = sum(c * at[m] for m, c in rem.terms.items())
        F2.append([x % q for x in unpack_slots(total, width, p.ell)])

    def solve(A: Matrix, Y: Matrix, failure: str) -> Matrix:
        try:
            return solve_mod_q(A, Y, q)
        except SingularMatrixError as exc:
            raise ConstructionError(f"{failure}; regenerate the key") from exc

    F1p = sk.F1p
    top = F1p[:n]
    E1 = [row[:n] for row in top]
    # band columns, then extension columns: Y_S should be −S^T, the rest is E
    rhs = [f2[n:] + f1[n:] for f2, f1 in zip(F2, top)]
    YE = solve(E1, rhs, "ideal evaluations at z_1..z_n are singular")
    minus_S_t = [[-x % q for x in col] for col in zip(*sk.S)]
    if [row[:k] for row in YE] != minus_S_t:
        raise ConstructionError("S does not annihilate the ideal at z_1..z_ell")
    X = solve(F1p, F2, "extension-point evaluations lost rank")
    if mat_mul(F1p, X, q) != F2:
        raise ConstructionError("post-check failed: F1p·X != F2 (mod q)")
    unit_rows = [[int(j == i) for j in range(p.ell)] for i in range(p.n, p.ell)]
    return X[:p.n] + unit_rows + X[p.n:], [row[k:] for row in YE]


@dataclass
class EvalKey:
    """Multiplication key in factored form.  It must be kept like the
    secret key: whoever holds it can decrypt.

    ``D1s``/``D2s`` hold D·2^u + eps_i mod q·2^u (ell x ell, entries in
    0..q·2^u − 1), whose u + q_bits bits are D_i~ (row s·ell + j of D_i~
    holds bit s of row j, P_i's row order); ``E`` holds the
    extension coefficients (n x (t − ell), entries in 0..q − 1), the
    nonzero rows of A's extension block; ``W`` is the balanced combined
    third factor B·Q·R mod q.  The two factor matrices are P_i = D_i~·A =
    [D_i~ | D_i~[:, :n]·E] (input_dim x t, entries in 0..n(q − 1)), and
    neither is stored.  The masking keeps |eps_i| < 2^u/(4n), short of the
    rounding boundary 2^(u − 1): so D mod q, and its last ell − n columns
    S_dec, can be read off either D_is.  The full tensor M has dims
    input_dim x input_dim x ell (input_dim = ell·(u + q_bits)); evaluation
    never needs it.

    ``packed`` is the one cache: all that eval_mult multiplies by, built
    together because every AND reads all of it.  It holds the carry
    tables of D1~ and D2~ (``_carry_table``: the packed rows D_is and the
    hex windows of the carry rows H, ell columns wide), one table given
    twice when D2s == D1s; E's rows packed, which extend each carry
    product y = t·D_i~ to t·P_i = [y | y[:n]·E]; and W's rows packed for
    the contraction.  It is built only after each block has passed
    ``_evalkey_blocks``'s shape and range, the one table files check too.
    It is not part of the key: equality, repr and files ignore it, and
    ``replace`` gives a key that builds its own afresh.  Mutating a field
    in place after the first eval_mult leaves it stale.
    """

    params: Params
    D1s: Matrix
    D2s: Matrix
    E: Matrix
    W: Matrix

    @property
    def input_dim(self) -> int:
        return self.params.ell * _gadget_width(self.params.q, self.params.u)

    @cached_property
    def packed(self) -> tuple[CarryTable, CarryTable, tuple, tuple]:
        """All that AND multiplies by, built on first use once the four
        blocks are checked against ``_evalkey_blocks``: (T1, T2, E_packed,
        W_packed).

        T1 and T2 are the carry tables of D1~ and D2~, ``_carry_table``'s
        on the unit rows of the ell x ell identity; one table, given
        twice, when D2s equals D1s.  The unit rows are A's first ell
        columns packed, so each table's low rows are the rows of D_is and
        its carry rows sum the unit rows that D_is's bits at positions
        u + 1..u + q_bits − 1 select (``mat_mul_exact``): neither P_i nor
        D_i~ is formed.  The slot width holds every entry of y = t·D_i~
        for a balanced t: input_dim entries up to (q·2^u)/2 times bits.

        E_packed is E's n rows packed for the extension y[:n]·E, with
        their slot width and t − ell columns: the width holds n entries of
        y times entries of E up to q − 1.

        W_packed is W's rows packed for the contraction, their slot width,
        the modulus M2 = q²·2^(2u) and the factors u_s·q of the z_s (2 on
        the message band, q elsewhere).  The rows are packed signed: W +
        floor(q/2), entries in 0..q − 1, is packed, and the packed row of
        floor(q/2)s is taken off each, at the width of t·M2·floor(q/2), so
        the combination by any z reduced into [0, M2) has every slot
        within that bound.

        Every width needs its block in ``_evalkey_blocks``'s range, and
        every packing its shape, as build_evalkey makes them, so a block
        outside either is refused.
        """
        p = self.params
        q, u, half = p.q, p.u, p.q // 2
        _check_blocks(_evalkey_blocks(p), (self.D1s, self.D2s, self.E, self.W),
                      ParameterError)
        y_bound = self.input_dim * ((q << u) // 2)
        width = slot_width(y_bound)
        # the packed identity: unit row i is 1 in slot i
        unit_rows = [1 << 8 * width * i for i in range(p.ell)]
        T1 = _carry_table(self.D1s, unit_rows, width, p.ell, q, u)
        T2 = (T1 if self.D2s == self.D1s
              else _carry_table(self.D2s, unit_rows, width, p.ell, q, u))
        E_width = slot_width(y_bound * p.n * (q - 1))
        M2 = q * q << (2 * u)
        W_width = slot_width(p.t * M2 * half)
        offset, *W_rows = pack_rows([[half] * p.ell]
                                    + [[w + half for w in row] for row in self.W],
                                    W_width)
        factors = [2 if p.n <= s < p.ell else q for s in range(p.t)]
        return (T1, T2, (pack_rows(self.E, E_width), E_width, p.t - p.ell),
                ([r - offset for r in W_rows], W_width, M2, factors))


def _evalkey_blocks(p: Params) -> tuple[tuple, ...]:
    """(block, rows, cols, lowest entry, highest entry) of each block of an
    evaluation key under ``p``, in file order: the one statement of their
    shapes and ranges, which files (``serialize._layout``) and the first
    AND (``EvalKey.packed``) both check."""
    d_top, half = (p.q << p.u) - 1, p.q // 2
    return (("D1s", p.ell, p.ell, 0, d_top), ("D2s", p.ell, p.ell, 0, d_top),
            ("E", p.n, p.t - p.ell, 0, p.q - 1), ("W", p.t, p.ell, -half, half))


def build_evalkey(sk: SecretKey, rng: Random) -> EvalKey:
    """Construct the multiplication key from a secret key, drawing its
    masking blocks from ``rng``.

    The five steps: (1) the secret key's unmasking matrix D with fresh
    dyadic masking blocks eps_i on its top-right n x (ell − n) block, kept
    as D·2^u + eps_i mod q·2^u from D's residues, (2) the extension
    coefficients E, the nonzero block of the point-extension matrix A, (3)
    rescaling diagonal folded into the rank-1 slice structure, (4)+(5)
    re-expression matrix B times reduction matrix Q, from the X that solves
    F1p·X = F2, F2 being the division remainders of the degree-(<= 2r)
    ideal basis.  One solve against E1 gives E and checks S, refusing a
    key whose E1 is singular or whose S does not annihilate its ideal, and
    the mandatory post-check F1p·X = F2 (mod q) runs on every build
    (``_reduction_map``).  The factors P_i = D_i~·A are left to the first AND.
    """
    p = sk.params
    q = p.q

    # step 1: D·2^u + eps_i mod q·2^u, eps_i on D's top-right block
    modulus, k = q << p.u, p.ell - p.n
    D1s, D2s = [[[((d << p.u) + e) % modulus for d, e in zip(row, [0] * p.n + e_row)]
                 for row, e_row in zip(sk.D, eps + [[0] * k] * k)]
                for eps in (_sample_masking_block(p, rng),
                            _sample_masking_block(p, rng))]

    # steps 2, 4+5: extension coefficients, and B·Q
    BQ, E = _reduction_map(sk)
    W = balanced_matrix(mat_mul(BQ, sk.R, q), q)
    return EvalKey(params=p, D1s=D1s, D2s=D2s, E=E, W=W)


def mat_mul_exact(bits: Matrix, rows: Sequence[int]) -> list[int]:
    """The exact product of 0/1 rows by a matrix given as its packed rows
    (``pack_rows``): for each bit row, the sum of the packed rows it
    selects, 0 when it selects none, with no multiplication: on the unit
    rows ``EvalKey.packed`` passes, each sum packs its bit row."""
    return [sum(compress(rows, b)) for b in bits]
