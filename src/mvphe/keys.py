"""Parameters, secret keys, and construction of the multiplication key.

The scheme encrypts (ell − n)-bit messages into length-ell vectors over Z_q.
A secret key is built from

* a generator polynomial g of degree r_g (monic, nonzero constant term),
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
tails across all coordinates and corrupt decryption (this fails empirically,
not just in the analysis — see the decision notes shipped with the tests).

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
points (``_reduction_map``).  And A = [I | A_ext] with A_ext zero below its
first n rows, so P_i is built as [D_i~ | D_i~[:, :n]·E], E being those n
rows (``_build_E``).  X, E and S each come from one ``linalg.solve_mod_q``;
no inverse is formed and then multiplied.  Their ideal evaluations are
g(z)·m(z) mod q, one monomial table times g's values (``_monomial_table``,
``_ideal_rows``); no product polynomial is formed.  Every entry of P_i
lies in 0..n(q − 1): D_i~ is 0/1 and E has entries in [0, q).  AND
multiplies the gadget-transformed ciphertexts by P_i without forming the
transforms: every entry of a transform is c·2^s less a carry, and all the
carries of an entry c come from the bits of one quotient, so t·P_i is
c·P_red plus a subset sum of carry rows (``_carry_product``).  Those rows
are Kronecker-packed once per key object, on its first AND
(``EvalKey.packed``, ``_carry_table``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import compress
from operator import mul
from random import Random
from typing import NamedTuple, Sequence

from .arith import Rational, is_probable_prime, random_prime
from .errors import (
    ConstructionError,
    GenerationFailure,
    ParameterError,
    SingularMatrixError,
)
from .linalg import (
    Matrix,
    balanced_matrix,
    inverse_mod_q,
    mat_mul,
    pack_rows,
    rank_mod_q,
    slot_width,
    solve_mod_q,
    unpack_slots,
    vec_mat,
    zeros,
)
from .mvpoly import Polynomial, enumerate_monomials, grevlex_key, reduce_by_set

RETRY_CAP = 100  # rejection-sampling cap for key generation
_T_BITS = 32  # key files record the point count t, and matrix shapes, as u32
_Q_BITS_MAX = 64  # below log2(psi_13), so the fixed bases prove every q prime


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Params:
    """All scheme dimensions and moduli.

    Derived fields satisfy: r = r_prime + r_g, n = C(v+r_prime, r_prime),
    N = C(v+r, r), n1 = C(v + 2r − r_g, 2r − r_g), t = n1 + ell − n,
    n < ell <= N, and t < 2^32 (key files record t as a u32).  q is an
    odd prime of at most 64 bits, and u <= 64 (ell·(u + q_bits) key rows).
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
        # every binomial below is at most n1 <= t, and n1 >= 2^min(v, 2r - r_g):
        # refuse a set whose t cannot fit before a binomial grows past it
        if min(self.v, self.r_g + 2 * self.r_prime) >= _T_BITS:
            raise ParameterError(f"need t < 2^{_T_BITS} points: v = {self.v}, "
                                 f"r_g = {self.r_g}, r_prime = {self.r_prime}")
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
        if self.v < 1 or self.r_g < 1 or self.r_prime < 1:
            raise ParameterError("need v, r_g, r_prime >= 1")
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
        if self.sigma > 0 and self.B < math.ceil(6 * Fraction(self.sigma)):
            raise ParameterError("noise bound B must be >= ceil(6*sigma)")
        if not self.B < Fraction(self.q // 2, 2):
            raise ParameterError(
                f"decryption needs B < floor(q/2)/2: B={self.B}, q={self.q}"
            )
        # L is a u32 in every file, so refuse a hopeless depth before the
        # exact power: (n·q_bits)^L >= 2^q_bits > q/B leaves a margin below 1
        if self.L * ((self.n * self.q_bits).bit_length() - 1) >= self.q_bits:
            raise ParameterError(
                f"q/B ratio too small for depth L={self.L}: "
                f"(n·log2 q)^L >= 2^{self.q_bits} > q/B"
            )
        if self.depth_margin() < 1:
            raise ParameterError(
                f"q/B ratio too small for depth L={self.L}: margin "
                f"{float(self.depth_margin()):.3g} < 1"
            )

    # -- convenience -------------------------------------------------------
    @property
    def q_bits(self) -> int:
        return self.q.bit_length()

    @property
    def message_bits(self) -> int:
        return self.ell - self.n

    def depth_margin(self) -> Fraction:
        """(q/B) / (n * log2 q)^L; >= 1 on every valid preset."""
        return Fraction(self.q, self.B) / (self.n * self.q_bits) ** self.L


# ---------------------------------------------------------------------------
# noise growth
# ---------------------------------------------------------------------------

def _carry_bound(ell: int, u: int, q_bits: int) -> Fraction:
    """k_max, the certified bound on the carries of one multiplication."""
    return Fraction(ell * (u + q_bits), 2) + 1


def _product_hint(h: Rational, k_max: Fraction, q: int, ell: int) -> Fraction:
    """Tracked noise bound of a product whose inputs have noise at most h:
    linear in h·k_max, plus a term damped by 1/q and the floor's slack ell."""
    h = Fraction(h)
    return 4 * h + 2 * (4 * h + 1) * k_max + (8 * h * h + 1) / q + ell


def _auto_q_bits(L: int, ell: int, u: int, B: int) -> int:
    """Smallest q_bits in 16.._Q_BITS_MAX with 2·h_L < floor(q_min/2)/2,
    where h_L is the hint after L levels of (multiply, then add) from B at
    q_min = 2^(q_bits − 1).  This implies both depth checks in
    ``Params.validate``: h_L >= B, so B < floor(q/2)/2; and each level
    multiplies the hint by more than 16·k_max > 8·n·q_bits (ell > n), so
    (q/B) >= (n·q_bits)^L.
    """
    for bits in range(16, _Q_BITS_MAX + 1):
        q_min = 1 << (bits - 1)
        k_max = _carry_bound(ell, u, bits)
        h = Fraction(B)
        for _ in range(L):
            h = 2 * _product_hint(h, k_max, q_min, ell) + 1
        if 2 * h < Fraction(q_min // 2, 2):
            return bits
    raise ParameterError(
        f"no modulus size up to {_Q_BITS_MAX} bits supports depth L={L} "
        "at these dimensions"
    )


#: Named parameter sets.  q_bits values are pinned (not auto-derived) so the
#: file formats stay stable; each satisfies the depth-margin requirement.
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


def setup(lambda_: int = 64, L: int = 1, rng: Random | None = None,
          **overrides) -> Params:
    """Build a consistent Params object.

    Dimension knobs (v, r_g, r_prime, ell, sigma, B, u, q_bits, q) may be
    overridden; anything left out is defaulted, with the modulus size chosen
    as the smallest that passes a worst-case noise simulation for depth L.  Without an explicit ``rng`` the modulus is
    drawn from a generator seeded by (lambda_, L, overrides), so the result
    is a pure function of its arguments.
    """
    v = overrides.pop("v", 2)
    r_g = overrides.pop("r_g", 1)
    r_prime = overrides.pop("r_prime", 2)
    n = math.comb(v + r_prime, r_prime)
    ell = overrides.pop("ell", n + 2)
    sigma = overrides.pop("sigma", 8)
    B = overrides.pop("B", math.ceil(6 * Fraction(sigma)) if sigma else 48)
    u = overrides.pop("u", 8)
    q = overrides.pop("q", None)
    q_bits = overrides.pop("q_bits", None)
    if overrides:
        raise ParameterError(f"unknown parameter overrides: {sorted(overrides)}")
    if q is None:
        if q_bits is None:
            q_bits = _auto_q_bits(L, ell, u, B)
        if rng is None:
            stamp = f"mvphe-setup|{lambda_}|{L}|{v}|{r_g}|{r_prime}|{ell}|{q_bits}"
            rng = Random(stamp)
        q = random_prime(q_bits, rng)
    return Params(lambda_=lambda_, L=L, v=v, r_g=r_g, r_prime=r_prime, ell=ell,
                  q=q, sigma=sigma, B=B, u=u)


def preset_params(name: str, rng: Random | None = None, **extra) -> Params:
    """Params for a named preset; ``extra`` overrides preset fields."""
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    kwargs = dict(PRESETS[name])
    kwargs.update(extra)
    lam = kwargs.pop("lambda_")
    L = kwargs.pop("L")
    return setup(lam, L, rng=rng, **kwargs)


# ---------------------------------------------------------------------------
# secret keys
# ---------------------------------------------------------------------------

@dataclass
class SecretKey:
    """Secret key material plus derived encryption/decryption matrices.

    Core fields (g, points, S, R1, R2) determine everything; the derived
    matrices are recomputed deterministically on construction and are not
    settable.  Encryption multiplies by C = T^{-1}·R, T = [[I, S^T], [0, I]];
    D = C^{-1} unmasks, and its last ell − n columns are S_dec.
    """

    params: Params
    g: Polynomial
    points: list[tuple[int, ...]]
    S: Matrix
    R1: Matrix
    R2: Matrix
    # derived by __post_init__, not settable
    R: Matrix = field(init=False, repr=False)
    C: Matrix = field(init=False, repr=False)
    D: Matrix = field(init=False, repr=False)
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
        self.D = inverse_mod_q(self.C, q)
        self.S_dec = [row[n:] for row in self.D]


def _sample_generator(p: Params, rng: Random) -> Polynomial:
    """Monic degree-r_g polynomial with a nonzero constant term."""
    q = p.q
    monos = enumerate_monomials(p.v, p.r_g)
    terms = {m: rng.randrange(q) for m in monos}
    lead = max((m for m in monos if sum(m) == p.r_g), key=grevlex_key)
    terms[lead] = 1
    const = (0,) * p.v
    if terms.get(const, 0) % q == 0:
        terms[const] = rng.randrange(1, q)
    return Polynomial(p.v, q, terms)


def _sample_point(p: Params, g: Polynomial, rng: Random) -> tuple[int, ...]:
    for _ in range(RETRY_CAP * 100):
        z = tuple(rng.randrange(p.q) for _ in range(p.v))
        if g.eval(z) != 0:
            return z
    raise GenerationFailure("could not find a point where g is nonzero")


def _monomial_table(p: Params, points: Sequence[tuple[int, ...]]) -> Matrix:
    """m(z) mod q for the monomials m of degree <= 2r − r_g (rows, ascending
    by degree as ``enumerate_monomials`` lists them, so the first N rows have
    degree <= r and the first n degree <= r_prime) at each point z (columns)."""
    q = p.q
    return [[math.prod(pow(x, e, q) for x, e in zip(z, m)) % q for z in points]
            for m in enumerate_monomials(p.v, 2 * p.r - p.r_g)]


def _ideal_rows(g: Polynomial, points: Sequence[tuple[int, ...]],
                table: Matrix) -> Matrix:
    """(g·m)(z) = g(z)·m(z) mod q for each row m(z) of ``table``."""
    q = g.q
    gz = [g.eval(z) for z in points]
    return [[a * b % q for a, b in zip(gz, row)] for row in table]


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
    of its points: (1) its degree-(<= r) rows, (2) and (3) rows times g(z).
    """
    p = params
    q = p.q
    for _ in range(RETRY_CAP):
        g = _sample_generator(p, rng)
        pts = [_sample_point(p, g, rng) for _ in range(p.ell)]
        table = _monomial_table(p, pts)
        # condition 1: evaluations of degree-<= r polynomials fill Z_q^ell
        if rank_mod_q(table[:p.N], q) != p.ell:
            continue
        # condition 2: ideal evaluations at the first n points are a basis
        E = _ideal_rows(g, pts, table[:p.n])
        E1 = [row[: p.n] for row in E]
        if rank_mod_q(E1, q) != p.n:
            continue
        # condition 3: extension points keep the 2r-slice evaluations full rank
        for _ in range(RETRY_CAP):
            extras = [_sample_point(p, g, rng) for _ in range(p.t - p.ell)]
            sub = pts[: p.n] + extras
            if rank_mod_q(_ideal_rows(g, sub, _monomial_table(p, sub)), q) == p.n1:
                break
        else:
            continue
        pts = pts + extras
        # S annihilates ideal evaluations: row j-n solves E1 * s = -E[:, j]
        S_t = solve_mod_q(E1, [[-x for x in row[p.n:]] for row in E], q)
        S = [list(col) for col in zip(*S_t)]
        for _ in range(RETRY_CAP):
            R1 = [[rng.randrange(q) for _ in range(p.n)] for _ in range(p.n)]
            if rank_mod_q(R1, q) == p.n:
                break
        else:
            continue
        R2 = [[rng.randrange(q) for _ in range(p.n)] for _ in range(p.ell - p.n)]
        return SecretKey(params=p, g=g, points=pts, S=S, R1=R1, R2=R2)
    raise GenerationFailure(
        f"key generation failed after {RETRY_CAP} attempts; parameters degenerate?"
    )


# ---------------------------------------------------------------------------
# gadget decomposition
# ---------------------------------------------------------------------------

def _gadget_width(q: int, u: int) -> int:
    """Bit positions per vector entry in the gadget decomposition."""
    return u + q.bit_length()


def _bitdecomp_numerators(nums: Sequence[int], q: int, u: int) -> list[int]:
    """u + q_bits bits of each numerator's residue mod q·2^u, position-major:
    entry i's bit s is at index s·len(nums) + i, the row order of P."""
    modulus = q << u
    reduced = [num % modulus for num in nums]
    return [(num >> s) & 1 for s in range(_gadget_width(q, u)) for num in reduced]


class CarryTable(NamedTuple):
    """A key factor P regrouped for ``_carry_product``, rows packed at one
    slot width by ``pack_rows``."""

    low: list[int]            # P_red,i, one per ciphertext entry i
    carries: list[list[int]]  # H_i,b for b = 0..q_bits − 2
    width: int                # bytes per slot
    cols: int


def _carry_table(P: Matrix, q: int, u: int) -> CarryTable:
    """Regroup the rows of P (position-major, u + K of them per entry, K =
    q_bits) by the carry identity of ``_carry_product``.

    With R_k the row of entry i at position u + k and S_0 = 0, the rows are
    H_b = S_b + R_(K−1−b) and S_(b+1) = 2·S_b + R_(K−1−b), and
    P_red = sum_(s <= u) 2^s·P[s·ell + i] + 2^(u+1)·S_(K−1).  Each row of P
    is packed once, one entry's rows at a time; the rest are sums of packed
    rows.  The slot width is the one a product with any balanced vector
    needs, since its slots are the entries of t·P with every
    |t_k| <= (q·2^u)/2.
    """
    ell = len(P) // _gadget_width(q, u)
    width = slot_width(len(P) * ((q << u) // 2) * max(map(max, P)))
    low, carries = [], []
    for i in range(ell):
        R = pack_rows(P[i::ell], width)  # position s of entry i; R_k = R[u + k]
        S, H = 0, []
        for r in R[:u:-1]:  # R_(K−1) down to R_1
            H.append(S + r)
            S = 2 * S + r
        low.append(sum(r << s for s, r in enumerate(R[:u + 1])) + (S << (u + 1)))
        carries.append(H)
    return CarryTable(low, carries, width, len(P[0]))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _bits(F: int) -> bytes:
    """The bits of F >= 0, least significant first, one 0/1 byte each."""
    return bin(F)[:1:-1].encode().translate(_BITS)


def _carry_product(vec: Sequence[int], table: CarryTable, q: int, u: int) -> list[int]:
    """t·P for the gadget transform t of a balanced vector, without forming t.

    With M = q·2^u and K = q_bits, the transform's entry at position s is
    bal_M(c·2^s) = c·2^s − M·rho_s(c), where rho_s = 0 for s <= u and
    rho_(u+k)(c) = sign(c)·round(|c|·2^k/q) for k = 1..K−1 (q is odd, so
    there are no ties).  Every rho comes from one quotient
    F = floor(|c|·2^K/q) < 2^(K−1), as rho_(u+k) = (F >> (K−k)) +
    bit_(K−1−k)(F).  Summed against P this gives

        t·P = sum_i c_i·P_red,i − M·sum_i sign(c_i)·sum_(b in bits(F_i)) H_i,b,

    one multiply-add per entry plus a subset sum of its carry rows, all on
    packed integers and read back by one ``unpack_slots``.  Entries of
    ``vec`` must be balanced, |c| <= (q − 1)/2, as ``Ciphertext`` keeps them.
    """
    K = q.bit_length()
    carry = 0
    for c, H in zip(vec, table.carries):
        if c > 0:
            carry += sum(compress(H, _bits((c << K) // q)))
        elif c < 0:
            carry -= sum(compress(H, _bits((-c << K) // q)))
    total = sum(map(mul, vec, table.low)) - (carry * q << u)
    return unpack_slots(total, table.width, table.cols)


# ---------------------------------------------------------------------------
# multiplication-key construction
# ---------------------------------------------------------------------------

def build_G(sk: SecretKey) -> list[Polynomial]:
    """Reduction set: g·m for every monomial m of exact degree r_prime + 1.

    Ordered with the grevlex-largest leading monomial first, so top-reduction
    always finds its divisor at the earliest position.  g is monic (keygen
    draws it so and ``load_secret_key`` refuses any other), hence so is
    every element.
    """
    p = sk.params
    monos = [m for m in enumerate_monomials(p.v, p.r_prime + 1)
             if sum(m) == p.r_prime + 1]
    monos.sort(key=grevlex_key, reverse=True)
    return [sk.g * Polynomial.monomial(p.v, p.q, m) for m in monos]


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
    return [[rng.randint(-kmax, kmax) for _ in range(p.ell - p.n)]
            for _ in range(p.n)]


def _build_D_scaled(sk: SecretKey, eps: Matrix) -> Matrix:
    """The secret key's unmasking matrix D = C^{-1} = R^{-1}·[[I, S^T],[0, I]]
    plus masking, as the exact integer matrix D·2^u (entries of D are
    balanced integers plus dyadic masking with u fractional bits)."""
    p = sk.params
    n = p.n
    scaled = [[x << p.u for x in row] for row in balanced_matrix(sk.D, p.q)]
    for i in range(n):
        for j in range(p.ell - n):
            scaled[i][n + j] += eps[i][j]
    return scaled


def _build_E(F1p: Matrix, n: int, q: int) -> Matrix:
    """Extension coefficients E (n x (t − ell)), step 2.

    The paper's point-extension matrix is A = [I | A_ext] (ell x t), and
    A_ext is zero below its first n rows; E is those rows.  Column k
    expresses evaluation at the extra point z_(ell+k) as a linear
    combination of evaluations at z_1..z_n, valid on ideal elements of
    degree <= r: E solves E1·E = evals, F1p's first n rows split at column n.
    """
    top = F1p[:n]
    return solve_mod_q([row[:n] for row in top], [row[n:] for row in top], q)


def _reduction_map(sk: SecretKey, F1p: Matrix) -> Matrix:
    """B·Q (t x ell): re-expression B and reduction Q, steps 4 and 5, in
    one solve.

    F1p is the degree-(<= 2r) ideal basis evaluated at the n1 solve points
    (z_1..z_n, then the extension points) and F2 its remainders under
    build_G evaluated at z_1..z_ell.  B·Q's rows at the solve points are
    the X that solves F1p·X = F2 (mod q), one elimination over [F1p | F2]:
    B adds the Y that solves F1p·Y = F1[:, n:ell] into exactly the band
    columns from which Q's right-hand side subtracts F1[:, n:ell].  Its
    rows n..ell−1 are Q's pinned unit rows [0 | I], which pass the
    fractional parts of a product straight into the tail of the output,
    where the final floor absorbs them.  The mandatory post-check
    F1p·X = F2 (mod q), equivalent to the paper's F1·Q = F2, runs here.
    """
    p = sk.params
    q = p.q
    G = build_G(sk)
    F2 = []
    for b in _ideal_basis_2r(p, sk.g):
        rem = reduce_by_set(b, G, p.r)
        F2.append([rem.eval(z) % q for z in sk.points[:p.ell]])
    try:
        X = solve_mod_q(F1p, F2, q)
    except SingularMatrixError as exc:
        raise ConstructionError(
            "extension-point evaluations lost rank; regenerate the key"
        ) from exc
    if mat_mul(F1p, X, q) != F2:
        raise ConstructionError("post-check failed: F1p·X != F2 (mod q)")
    unit_rows = [[int(j == i) for j in range(p.ell)] for i in range(p.n, p.ell)]
    return X[:p.n] + unit_rows + X[p.n:]


@dataclass
class EvalKey:
    """Public multiplication key in factored form.

    ``P1``/``P2`` hold D_i~·A = [D_i~ | D_i~[:, :n]·E]: the bit-decomposed
    columns of D_i times A, as plain integers in 0..n(q − 1).  ``W`` is the
    balanced combined third factor B·Q·R mod q.  The full tensor M has dims
    input_dim x input_dim x ell (input_dim = ell·(u + q_bits)); evaluation
    never needs it.

    ``packed`` caches P1 and P2 as the carry tables eval_mult multiplies by
    (``_carry_table``: the packed rows P_red and H of the carry identity).
    It is not part of the key: equality, repr and files ignore it, and
    ``replace`` gives a key that builds its own tables afresh.  Mutating
    P1 or P2 in place after the first eval_mult leaves it stale.
    """

    params: Params
    P1: Matrix
    P2: Matrix
    W: Matrix

    @property
    def input_dim(self) -> int:
        return len(self.P1)

    @property
    def k_max(self) -> Fraction:
        """``_carry_bound`` of these parameters, for the noise hint."""
        p = self.params
        return _carry_bound(p.ell, p.u, p.q_bits)

    @cached_property
    def packed(self) -> tuple[CarryTable, CarryTable]:
        """P1 and P2 as the carry tables of ``_carry_table``, built on
        first use."""
        p = self.params
        return _carry_table(self.P1, p.q, p.u), _carry_table(self.P2, p.q, p.u)


def build_evalkey(sk: SecretKey, rng: Random | None = None) -> EvalKey:
    """Construct the multiplication key from a secret key.

    The five steps: (1) unmasking matrices D_i with fresh dyadic masking
    blocks, (2) the extension coefficients E, the nonzero block of the
    point-extension matrix A, (3) rescaling diagonal folded into the rank-1
    slice structure, (4)+(5) re-expression matrix B times reduction matrix
    Q, from the X that solves F1p·X = F2, F2 being the division
    remainders of the degree-(<= 2r) ideal basis.  The mandatory
    post-check F1p·X = F2 (mod q) runs on every build.
    P_i = D_i~·A = [D_i~ | D_i~[:, :n]·E].  F1p, read off the monomial table
    at the solve points, feeds both E and X.
    """
    p = sk.params
    q = p.q
    rng = rng or Random()

    # step 1: unmasking matrices
    D1s = _build_D_scaled(sk, _sample_masking_block(p, rng))
    D2s = _build_D_scaled(sk, _sample_masking_block(p, rng))

    # step 2: extension coefficients
    solve_points = sk.points[:p.n] + sk.points[p.ell:]
    F1p = _ideal_rows(sk.g, solve_points, _monomial_table(p, solve_points))
    E = _build_E(F1p, p.n, q)

    # steps 4+5
    W = balanced_matrix(mat_mul(_reduction_map(sk, F1p), sk.R, q), q)

    P1 = _bitdecomp_matrix_times(D1s, E, p, q)
    P2 = _bitdecomp_matrix_times(D2s, E, p, q)
    return EvalKey(params=p, P1=P1, P2=P2, W=W)


def mat_mul_exact(A: Matrix, B: Matrix) -> Matrix:
    """Integer matrix product without modular reduction."""
    return [vec_mat(row, B) for row in A]


def _bitdecomp_matrix_times(D_scaled: Matrix, E: Matrix, p: Params, q: int) -> Matrix:
    """Rows of D~·A = [D~ | D~[:, :n]·E], where D~ holds the bit-decomposed
    D columns, position-major."""
    cols = [_bitdecomp_numerators([row[j] for row in D_scaled], q, p.u)
            for j in range(p.ell)]
    D_bits = list(zip(*cols))
    ext = mat_mul_exact([row[:p.n] for row in D_bits], E)
    return [[*row, *ext_row] for row, ext_row in zip(D_bits, ext)]
