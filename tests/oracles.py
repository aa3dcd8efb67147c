"""Test-only oracles: nearest-integer rounding of exact rationals, the
noise sampler computing every weight afresh, the
exact vector–matrix product entry by entry, Gauss–Jordan elimination
entry by entry, the gadget transforms as exact
rationals, the secret key's g as a polynomial and polynomials evaluated
term by term, the degree-(<= r) ideal basis as polynomial products,
encryption in two products from the key's core fields, the unmasking
matrix D = C^{-1} and its S_dec columns from those fields by elimination
entry by entry, a key mixed with
its random block below the diagonal, the re-expression
and reduction matrices B and Q built one at a time as the paper stages
them, the multiplication key as an explicit rational tensor, every stage
of one multiplication carried out with exact rationals, the key factors
P_i = D_i~·A by a plain triple sum and their carry tables packed as a
key that stores P would pack them and regrouped from every bit row in
the gadget's position-major order, AND's W contraction entry by entry on
the unreduced z, a random netlist generator and a
netlist's noise hints gate by gate, the container's integer runs sized by
trial and written one byte at a time, and the noise hints as the exact
rational bounds that the integer rules round up.

Production evaluation never materializes the order-3 tensor M or the
per-stage vectors; these exist so tests can check the factored form against
the paper's literal definitions.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from random import Random
from typing import Sequence

from mvphe.arith import balance
from mvphe.circuit import Circuit, parse_circuit
from mvphe.errors import ConstructionError, ParameterError, SingularMatrixError
from mvphe.keys import (
    PRESETS,
    CarryTable,
    EvalKey,
    Params,
    SecretKey,
    _gadget_width,
    _ideal_basis_2r,
    build_G,
    preset_params,
)
from mvphe.linalg import (
    Matrix,
    inverse_mod_q,
    mat_mul,
    pack_rows,
    slot_width,
    zeros,
)
from mvphe.mvpoly import Polynomial, enumerate_monomials, reduce_by_set


def transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def round_nearest(x: int | Fraction) -> int:
    """Nearest integer to x, half-values rounding toward +infinity: the
    reference for ``decrypt``'s integer rounding."""
    return math.floor(2 * x + 1) // 2


def vec_mat(v: Sequence[int], M: Matrix) -> list[int]:
    """Exact product v·M = sum_i v[i]·M[i] over the integers, unreduced,
    entry by entry: the reference for the package's products on packed
    rows (decryption, encryption, ``mat_mul``, AND's contraction)."""
    out = [0] * len(M[0]) if M else []
    cols = range(len(out))
    for a, row in zip(v, M):
        if a:
            for j in cols:
                out[j] += a * row[j]
    return out


def sample_reference(sigma, rng: Random) -> int:
    """One draw of the truncated discrete Gaussian as ``NoiseSampler``
    draws it, with nothing kept between draws: a candidate x uniform in
    −⌈6σ⌉..⌈6σ⌉ is accepted when a uniform draw below 2^48 falls under
    round(2^48·exp(−x²/2σ²)), its weight computed afresh for every
    candidate.  Both draws are ``rng.randrange``; σ = 0 draws nothing."""
    if sigma == 0:
        return 0
    bound = math.ceil(6 * Fraction(sigma))
    s = float(sigma)
    while True:
        x = rng.randrange(2 * bound + 1) - bound
        weight = round((1 << 48) * math.exp(-(x * x) / (2 * s * s)))
        if rng.randrange(1 << 48) < weight:
            return x


# ---------------------------------------------------------------------------
# elimination, entry by entry
# ---------------------------------------------------------------------------
# Reference copy of the unpacked kernel: linalg._eliminate does the same
# row operations on Kronecker-packed rows.

def eliminate_reference(work: Matrix, ncols: int, q: int) -> list[int]:
    """Gauss–Jordan elimination of ``work`` in place, mod prime q.

    Entries must already lie in [0, q).  Pivots are sought only in the first
    ``ncols`` columns, so trailing columns (an identity, a right-hand side)
    ride along with the row operations.  On return row i holds the i-th
    pivot, scaled to 1 and cleared from every other row; the pivot columns
    are returned in order, and a column without a pivot is skipped.
    """
    n = len(work)
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == n:
            break
        pivot = next((r for r in range(rank, n) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, q)
        row_p = work[rank] = [x * inv % q for x in work[rank]]
        for r in range(n):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % q for x, y in zip(work[r], row_p)]
        pivots.append(col)
    return pivots


# ---------------------------------------------------------------------------
# gadget transforms, in the Fraction form of the paper
# ---------------------------------------------------------------------------

def bitdecomp(vec: Sequence, q: int, u: int) -> list[int]:
    """Bit-decompose a vector of dyadic rationals (denominators | 2^u).

    Each entry x is mapped to the nonnegative representative of x·2^u
    modulo q·2^u and split into u + ceil(log2 q) bits.  The output is
    position-major: entry i's bit at position s lands at index s·len(vec)+i,
    matching the layout of powersoftwo so that the inner-product identity

        <v, w> = <bitdecomp(v), powersoftwo(w)>  (mod q)

    holds exactly.
    """
    nums = []
    for x in vec:
        y = x * (1 << u)
        num = int(y)
        if num != y:
            raise ParameterError(f"entry {x} does not have {u} fractional bits")
        nums.append(num % (q << u))
    return [(num >> s) & 1 for s in range(_gadget_width(q, u)) for num in nums]


def _powersoftwo_numerators(vec: Sequence[int], q: int, u: int) -> list[int]:
    """Numerators over 2^u of w·2^(s−u) balanced mod q, position-major;
    paired with v's bits they give <v, w> mod q.  The package never forms
    this vector: ``keys._carry_product`` multiplies it by a key factor
    from one quotient per entry."""
    width = _gadget_width(q, u)
    modulus = q << u
    half = modulus // 2
    out = []
    for s in range(width):
        for w in vec:
            r = (w << s) % modulus
            out.append(r - modulus if r > half else r)
    return out


#: Parameter sets on which AND's carry form is checked: every preset, a
#: u = 0 set (no fractional gadget bits), and the q = 97 tiny set, whose
#: 7-bit q leaves six carry positions.
CARRY_SETS = {
    **{name: (lambda name=name: preset_params(name)) for name in sorted(PRESETS)},
    "toy-u0": lambda: preset_params("toy", u=0),
    # q_bits − 1 = 40 carry rows: the last hex window is a full one
    "toy-q41": lambda: preset_params("toy", q_bits=41),
    "tiny-q97": lambda: Params(lambda_=8, L=1, v=1, r_g=1, r_prime=1, ell=3,
                               q=97, sigma=1, B=6, u=2),
}


def powersoftwo(vec: Sequence[int], q: int, u: int) -> list[Fraction]:
    """Balanced multiples w·2^(s−u) reduced mod q, position-major.

    Entries are exact rationals with denominator 2^u and magnitude <= q/2.
    """
    return [Fraction(n, 1 << u) for n in _powersoftwo_numerators(vec, q, u)]


# ---------------------------------------------------------------------------
# g and the ideal basis, as polynomials
# ---------------------------------------------------------------------------

def generator(sk: SecretKey) -> Polynomial:
    """The key's g as a polynomial: its coefficients (``SecretKey.g``) on
    the monomials of ``enumerate_monomials(v, r_g)``, in that order."""
    p = sk.params
    return Polynomial(p.v, p.q, dict(zip(enumerate_monomials(p.v, p.r_g), sk.g)))


def evaluate(f: Polynomial, point: Sequence[int]) -> int:
    """f at a point of Z_q^v, as a balanced residue, term by term."""
    if len(point) != f.v:
        raise ParameterError(
            f"point has dimension {len(point)}, polynomial has v={f.v}")
    q = f.q
    acc = 0
    for mono, coeff in f.terms.items():
        term = coeff
        for z, e in zip(point, mono):
            if e:
                term = term * pow(z, e, q) % q
        acc = (acc + term) % q
    return balance(acc, q)


def ideal_basis_r(sk: SecretKey) -> list[Polynomial]:
    """The basis g·h_i of the degree-(<= r) slice of <g>, one polynomial
    product per monomial h_i of degree <= r_prime: the reference for key
    construction, which evaluates it as g(z)·h_i(z) without the products."""
    p = sk.params
    g = generator(sk)
    return [g * Polynomial.monomial(p.v, p.q, m)
            for m in enumerate_monomials(p.v, p.r_prime)]


def ideal_element(sk: SecretKey, coeffs: Sequence[int]) -> Polynomial:
    """sum_i c_i·(g·h_i) over the degree-(<= r) basis (``ideal_basis_r``),
    formed as the one product g·(sum_i c_i·h_i)."""
    p = sk.params
    h = dict(zip(enumerate_monomials(p.v, p.r_prime), coeffs, strict=True))
    return generator(sk) * Polynomial(p.v, p.q, h)


# ---------------------------------------------------------------------------
# encryption, in two products
# ---------------------------------------------------------------------------

def encryption_factors(sk: SecretKey) -> tuple[Matrix, Matrix]:
    """T^{-1} = [[I, −S^T], [0, I]] and R = [[R1, R2^T], [0, I]] mod q,
    assembled entry by entry from the key's core fields."""
    p = sk.params
    q, n, ell = p.q, p.n, p.ell
    T_inv, R = identity(ell), identity(ell)
    for i in range(n):
        for j in range(ell - n):
            T_inv[i][n + j] = -sk.S[j][i] % q
            R[i][n + j] = sk.R2[j][i] % q
        for j in range(n):
            R[i][j] = sk.R1[i][j] % q
    return T_inv, R


def unmasking_reference(sk: SecretKey) -> tuple[Matrix, Matrix]:
    """D = C^{-1} and S_dec, its last ell − n columns: C = T^{-1}·R entry
    by entry from the key's core fields (``encryption_factors``), inverted
    by elimination entry by entry against the identity."""
    p = sk.params
    q, ell = p.q, p.ell
    T_inv, R = encryption_factors(sk)
    work = [[x % q for x in vec_mat(row, R)] + e
            for row, e in zip(T_inv, identity(ell))]
    if eliminate_reference(work, ell, q) != list(range(ell)):
        raise SingularMatrixError(ell)
    D = [row[ell:] for row in work]
    return D, [row[p.n:] for row in D]


def below_diagonal_key(sk: SecretKey) -> SecretKey:
    """A copy of ``sk`` mixed by R = [[R1, 0], [R2, I]], the random block
    below the diagonal, with C = T^{-1}·R, D = C^{-1} and S_dec the last
    ell − n columns of D rebuilt to match: a key that encrypts and decrypts
    as well as ``sk`` but whose products the final floor corrupts."""
    p = sk.params
    q, n = p.q, p.n
    R = identity(p.ell)
    for row, block in zip(R, sk.R1 + sk.R2):
        row[:n] = [x % q for x in block]
    key = replace(sk)
    key.R = R
    key.C = mat_mul(encryption_factors(sk)[0], R, q)
    key.D = inverse_mod_q(key.C, q)
    key.S_dec = [row[n:] for row in key.D]
    return key


def encrypt_reference(sk: SecretKey, m: Sequence[int], rng: Random) -> list[int]:
    """A fresh ciphertext's vector in two products, (y·S_enc + [0 | band])·R
    with S_enc = [I | −S^T] the first n rows of T^{-1}, band = m·floor(q/2)
    + e; y and then the noise (``sample_reference``) are drawn from ``rng``
    as ``encrypt`` draws them."""
    p = sk.params
    q, n, ell = p.q, p.n, p.ell
    y = [rng.randrange(q) for _ in range(n)]
    band = [b * (q // 2) + sample_reference(p.sigma, rng) for b in m]
    T_inv, R = encryption_factors(sk)
    pre = [sum(y[i] * T_inv[i][c] for i in range(n)) for c in range(ell)]
    for j, x in enumerate(band):
        pre[n + j] += x
    return [balance(sum(pre[i] * R[i][c] for i in range(ell)), q)
            for c in range(ell)]


# ---------------------------------------------------------------------------
# re-expression and reduction, staged as in the paper
# ---------------------------------------------------------------------------
# Reference copy of the staged construction: keys._reduction_map computes
# B·Q in one solve without forming either matrix.

def sub_rows(p: Params) -> list[int]:
    """Rows of B and Q that F1p^{-1} solves for: z_1..z_n, then the
    extension points (F1p's columns, in order)."""
    return [*range(p.n), *range(p.ell, p.t)]


def build_B(sk: SecretKey, F1: Matrix, F1p_inv: Matrix) -> Matrix:
    """Re-expression matrix B (t x t).

    Identity except in columns n..ell−1: column j additionally carries the
    coefficients writing evaluation-at-z_j of any degree-(<= 2r) ideal
    element as a combination of its evaluations at z_1..z_n and the extra
    points.
    """
    p = sk.params
    B = identity(p.t)
    beta = mat_mul(F1p_inv, [row[p.n:p.ell] for row in F1], p.q)
    for i, row in zip(sub_rows(p), beta):
        B[i][p.n:p.ell] = row
    return B


def build_Q(sk: SecretKey, F1: Matrix, F2: Matrix, F1p_inv: Matrix) -> Matrix:
    """Reduction matrix Q (t x ell) with F1·Q = F2 (mod q).

    Rows n..ell−1 are pinned to [0 | I]; the remaining rows are solved for.
    The pinning matters beyond uniqueness: those rows multiply the only
    coordinates whose entries are non-integers during multiplication, and
    0/1 coefficients let the fractional parts pass straight into the tail
    of the output where the final floor can absorb them.
    """
    p = sk.params
    q = p.q
    rhs = [[(F2[r][j] - (F1[r][j] if p.n <= j < p.ell else 0)) % q
            for j in range(p.ell)] for r in range(p.n1)]
    X = mat_mul(F1p_inv, rhs, q)
    Q = zeros(p.t, p.ell)
    for j in range(p.n, p.ell):
        Q[j][j] = 1
    for i, row in zip(sub_rows(p), X):
        Q[i] = row
    return Q


def stage_matrices(sk: SecretKey) -> tuple[Matrix, Matrix]:
    """Re-expression matrix B and reduction matrix Q (steps 4 and 5).

    Both derive from F1, the degree-(<= 2r) ideal basis evaluated at all t
    points; F1p^{-1}, the inverse of F1 restricted to z_1..z_n and the
    extension points; and F2, the basis remainders under build_G evaluated
    at z_1..z_ell.  The mandatory post-check F1·Q = F2 (mod q) runs here.
    """
    p = sk.params
    q = p.q
    g = generator(sk)
    basis2 = _ideal_basis_2r(p, g)
    F1 = [[evaluate(b, z) % q for z in sk.points] for b in basis2]
    F1p = [row[:p.n] + row[p.ell:] for row in F1]
    try:
        F1p_inv = inverse_mod_q(F1p, q)
    except SingularMatrixError as exc:
        raise ConstructionError(
            "extension-point evaluations lost rank; regenerate the key"
        ) from exc
    B = build_B(sk, F1, F1p_inv)

    G = build_G(p, g)
    F2 = []
    for b in basis2:
        rem = reduce_by_set(b, G, p.r)
        F2.append([evaluate(rem, z) % q for z in sk.points[: p.ell]])
    Q = build_Q(sk, F1, F2, F1p_inv)
    if mat_mul(F1, Q, q) != F2:
        raise ConstructionError("post-check failed: F1·Q != F2 (mod q)")
    return B, Q


# ---------------------------------------------------------------------------
# order-3 tensors over Q
# ---------------------------------------------------------------------------

class Tensor3:
    """Dense order-3 tensor of exact rationals, stored as frontal slices.

    ``slices[k][i][j]`` is entry (i, j, k); there are dims[2] slices of
    shape dims[0] x dims[1].
    """

    __slots__ = ("dims", "slices")

    def __init__(self, slices: list[list[list[Fraction]]]):
        if not slices or not slices[0] or not slices[0][0]:
            raise ParameterError("tensor needs positive dimensions")
        i1, i2 = len(slices[0]), len(slices[0][0])
        for sl in slices:
            if len(sl) != i1 or any(len(row) != i2 for row in sl):
                raise ParameterError("ragged tensor slices")
        self.dims = (i1, i2, len(slices))
        self.slices = slices

    @classmethod
    def zeros(cls, i1: int, i2: int, i3: int) -> "Tensor3":
        return cls([[[Fraction(0)] * i2 for _ in range(i1)] for _ in range(i3)])

    def entry(self, i: int, j: int, k: int) -> Fraction:
        return self.slices[k][i][j]

    def set_entry(self, i: int, j: int, k: int, value) -> None:
        self.slices[k][i][j] = Fraction(value)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor3)
            and self.dims == other.dims
            and self.slices == other.slices
        )


def n_mode_product(T: Tensor3, M: Sequence[Sequence], mode: int) -> Tensor3:
    """Contract T's ``mode`` index (1, 2 or 3) with the columns of M.

    The result replaces dims[mode-1] with the row count of M; entry-wise it
    is sum_s M[a][s] * T[.., s in position mode, ..], computed exactly.
    """
    if mode not in (1, 2, 3):
        raise ParameterError(f"mode must be 1, 2 or 3, got {mode}")
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if cols != T.dims[mode - 1]:
        raise ParameterError(
            f"matrix has {cols} columns but tensor dim {mode} is {T.dims[mode - 1]}"
        )
    frac = [[Fraction(x) for x in row] for row in M]
    out_dims = list(T.dims)
    out_dims[mode - 1] = rows
    out = Tensor3.zeros(*out_dims)
    for k, sl in enumerate(T.slices):
        for i, row in enumerate(sl):
            for j, x in enumerate(row):
                if x:
                    idx = [i, j, k]
                    s = idx[mode - 1]
                    for a in range(rows):
                        idx[mode - 1] = a
                        out.slices[idx[2]][idx[0]][idx[1]] += frac[a][s] * x
    return out


def bilinear_eval(T: Tensor3, v1: Sequence, v2: Sequence) -> list[Fraction]:
    """[v1 · T_k · v2 for each frontal slice T_k], exactly."""
    i1, i2, _ = T.dims
    if len(v1) != i1 or len(v2) != i2:
        raise ParameterError(
            f"vector lengths ({len(v1)}, {len(v2)}) vs tensor dims ({i1}, {i2})"
        )
    f1 = [Fraction(x) for x in v1]
    f2 = [Fraction(x) for x in v2]
    out = []
    for sl in T.slices:
        acc = Fraction(0)
        for i, row in enumerate(sl):
            if f1[i]:
                acc += f1[i] * sum((x * f2[j] for j, x in enumerate(row) if x), Fraction(0))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# the multiplication key, unfactored
# ---------------------------------------------------------------------------

def factor_matrices(evk: EvalKey) -> tuple[Matrix, Matrix]:
    """P1 and P2, each D_i~·A as a plain triple sum: row s·ell + i of D_i~
    holds bit s of row i of D_is, and A = [I | A_ext] with A_ext's first n
    rows E and the rest zero."""
    p = evk.params
    n, ell, t = p.n, p.ell, p.t
    A = [[int(i == j) for j in range(ell)]
         + (list(evk.E[i]) if i < n else [0] * (t - ell)) for i in range(ell)]
    return bit_factor(evk.D1s, A, p.q, p.u), bit_factor(evk.D2s, A, p.q, p.u)


def bit_factor(Ds: Matrix, A: Matrix, q: int, u: int) -> Matrix:
    """D~·A as a plain triple sum, D~ position-major: row s·ell + i holds
    bit s of row i of Ds, whose entries lie in 0..q·2^u − 1."""
    bits = [[(x >> s) & 1 for x in row]
            for s in range(_gadget_width(q, u)) for row in Ds]
    return [[sum(b[j] * A[j][c] for j in range(len(A))) for c in range(len(A[0]))]
            for b in bits]


def carry_table_from_P(P: Matrix, q: int, u: int) -> CarryTable:
    """The carry table of a factor P packed the way a key that stores P
    packs it: every row by ``pack_rows`` at the slot width that P's largest
    entry needs, then regrouped entry by entry in P's position-major row
    order (row s·ell + i is entry i's bit s), ``keys._carry_table``'s
    identity read off all u + K rows of each entry.

    With R_k the row of entry i at position u + k and S_0 = 0, the carry
    rows are H_b = S_b + R_(K−1−b) and S_(b+1) = 2·S_b + R_(K−1−b), and
    P_red = sum_(s <= u) 2^s·P[s·ell + i] + 2^(u+1)·S_(K−1)."""
    width = slot_width(len(P) * ((q << u) // 2) * max(map(max, P)))
    rows = pack_rows(P, width)
    ell = len(rows) // _gadget_width(q, u)
    low, windows = [], []
    for i in range(ell):
        R = rows[i::ell]  # position s of entry i; R_k = R[u + k]
        S, H = 0, []
        for r in R[:u:-1]:  # R_(K−1) down to R_1
            H.append(S + r)
            S = 2 * S + r
        low.append(sum(r << s for s, r in enumerate(R[:u + 1])) + (S << (u + 1)))
        entry = []
        for j in range(0, len(H), 4):
            sums = [0]
            for h in H[j:j + 4]:
                sums += [x + h for x in sums]
            entry.append(sums)
        windows.append(entry)
    return CarryTable(low, windows, width, len(P[0]))


def contract_reference(evk: EvalKey, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """AND's W contraction as it ran before W was packed: z_s = x_s·y_s·u_s
    times the common denominator q·2^(2u), unreduced (about 220 bits on
    toy), then ``vec_mat(z, W)`` and one floor per output."""
    p = evk.params
    q = p.q
    z = [xs * ys * (2 if p.n <= s < p.ell else q)
         for s, (xs, ys) in enumerate(zip(x, y))]
    denom = q << (2 * p.u)
    return [acc // denom for acc in vec_mat(z, evk.W)]


def u_coeffs(evk: EvalKey) -> list[Fraction]:
    """Diagonal of the rescaling tensor: 2/q on the message band."""
    p = evk.params
    return [Fraction(2, p.q) if p.n <= s < p.ell else Fraction(1)
            for s in range(p.t)]


def evalkey_tensor(evk: EvalKey) -> Tensor3:
    """Materialize M entrywise (O(dim^2 * ell * t))."""
    p = evk.params
    dim = evk.input_dim
    coeffs = u_coeffs(evk)
    P1, P2 = factor_matrices(evk)
    T = Tensor3.zeros(dim, dim, p.ell)
    for k in range(p.ell):
        wk = [evk.W[s][k] for s in range(p.t)]
        sl = T.slices[k]
        for i in range(dim):
            row1 = P1[i]
            out_row = sl[i]
            for j in range(dim):
                row2 = P2[j]
                acc = Fraction(0)
                for s in range(p.t):
                    if wk[s] and row1[s] and row2[s]:
                        acc += coeffs[s] * row1[s] * row2[s] * wk[s]
                out_row[j] = acc
    return T


def mult_intermediates(sk: SecretKey, evk: EvalKey,
                       c1: Sequence[int], c2: Sequence[int]) -> dict:
    """Every intermediate of one homomorphic multiplication.

    Takes B and Q from the secret key through the staged
    ``stage_matrices`` (they are deterministic given sk) and carries the
    pipeline through with exact rationals: transformed inputs, per-slice
    products, re-expression, reduction, mixing, flooring.  Production
    evaluation folds these stages together.
    """
    p = sk.params
    q = p.q
    B, Q = stage_matrices(sk)

    t1 = _powersoftwo_numerators(c1, q, p.u)
    t2 = _powersoftwo_numerators(c2, q, p.u)
    denom = 1 << p.u
    P1, P2 = factor_matrices(evk)
    x1 = [Fraction(sum(a * P1[i][s] for i, a in enumerate(t1)), denom)
          for s in range(p.t)]
    x2 = [Fraction(sum(a * P2[i][s] for i, a in enumerate(t2)), denom)
          for s in range(p.t)]
    coeffs = u_coeffs(evk)
    c_prime = [coeffs[s] * x1[s] * x2[s] for s in range(p.t)]
    c_dprime = [sum(c_prime[s] * B[s][j] for s in range(p.t)) for j in range(p.t)]
    c_tilde = [sum(c_dprime[s] * Q[s][j] for s in range(p.t)) for j in range(p.ell)]
    pre_floor = [sum(c_tilde[i] * sk.R[i][j] for i in range(p.ell))
                 for j in range(p.ell)]
    floored = [balance(math.floor(x), q) for x in pre_floor]
    return {
        "transformed": (x1, x2),
        "sliced": c_prime,
        "reexpressed": c_dprime,
        "reduced": c_tilde,
        "pre_floor": pre_floor,
        "product": floored,
    }


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

def random_circuit(rng: Random, n_inputs: int, n_gates: int, L: int) -> Circuit:
    """Random netlist whose depth ledger fits within L.

    Gates pick random earlier wires; an AND is only emitted when some pair
    of available wires respects the level budget, otherwise the gate
    becomes an XOR.
    """
    if n_inputs < 2 or n_gates < 1 or L < 0:
        raise ParameterError("need at least 2 inputs, 1 gate, and L >= 0")
    lines = [f"in x{i}" for i in range(n_inputs)]
    wires = [f"x{i}" for i in range(n_inputs)]
    level = {w: 0 for w in wires}
    for k in range(n_gates):
        name = f"w{k}"
        want_and = L > 0 and rng.random() < 0.5
        a = rng.choice(wires)
        b = rng.choice(wires)
        if want_and and level[a] + level[b] + 1 <= L:
            lines.append(f"{name} = AND {a} {b}")
            level[name] = level[a] + level[b] + 1
        else:
            lines.append(f"{name} = XOR {a} {b}")
            level[name] = max(level[a], level[b])
        wires.append(name)
    # expose a couple of late wires as outputs
    outs = {wires[-1], rng.choice(wires[n_inputs:])}
    lines.extend(f"out {w}" for w in sorted(outs))
    return parse_circuit("\n".join(lines))


def hint_ledger(circ: Circuit, p: Params, in_hints: Sequence[int]):
    """Every wire's noise hint from the inputs' hints, gate by gate: an XOR
    adds its inputs' hints plus one, an AND is the ceiling of the rational
    product bound at the larger one.  Also returns each AND gate's hint in
    gate order, dead gates included."""
    hint = dict(zip(circ.inputs, in_hints))
    ands = []
    for g in circ.gates:
        a, b = hint[g.a], hint[g.b]
        if g.op == "AND":
            hint[g.out] = math.ceil(product_hint_reference(max(a, b), p.ell, p.u, p.q))
            ands.append(hint[g.out])
        else:
            hint[g.out] = a + b + 1
    return hint, ands


# ---------------------------------------------------------------------------
# container runs, one entry at a time
# ---------------------------------------------------------------------------

def w_run_reference(buf: bytearray, xs: Sequence[int]) -> None:
    """Append the nonempty ``xs`` as one container run.  The width is found
    by trial: w = 1, 2, … until every entry lies in
    −2^(8w−1)..2^(8w−1) − 1.  Then the width byte, and each entry alone as
    its w-byte two's complement, least significant byte first."""
    w = 1
    while not all(-(1 << 8 * w - 1) <= x < 1 << 8 * w - 1 for x in xs):
        w += 1
    buf.append(w)
    for x in xs:
        x %= 1 << 8 * w
        for _ in range(w):
            buf.append(x & 0xFF)
            x >>= 8


# ---------------------------------------------------------------------------
# noise hints as exact rationals
# ---------------------------------------------------------------------------

def product_hint_reference(h, ell: int, u: int, q: int) -> Fraction:
    """The AND hint as the exact rational bound
    4h + 2·(4h + 1)·k_max + (8h² + 1)/q + ell, with the certified carry bound
    k_max = ell·(u + q_bits)/2 + 1; ``keys._product_hint`` is its ceiling."""
    h = Fraction(h)
    k_max = Fraction(ell * (u + q.bit_length()), 2) + 1
    return 4 * h + 2 * (4 * h + 1) * k_max + (8 * h * h + 1) / q + ell


def auto_q_bits_reference(L: int, ell: int, u: int, B: int) -> int:
    """``keys._auto_q_bits`` on rational hints: every size runs all L levels
    of (multiply, then add) from B, and the first whose final hint h has
    2·h < floor(q_min/2)/2 wins.  The hint's denominator grows as
    q^(2^L − 1), so this is for small L only."""
    for bits in range(16, 65):
        q_min = 1 << (bits - 1)
        h = Fraction(B)
        for _ in range(L):
            x = product_hint_reference(h, ell, u, q_min)
            h = x + x + 1
        if 2 * h < Fraction(q_min // 2, 2):
            return bits
    raise ParameterError(f"no modulus size up to 64 bits supports depth L={L}")
