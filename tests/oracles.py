"""Test-only oracles: the gadget transforms as exact rationals, the
degree-(<= r) ideal basis as polynomial products, encryption in two
products from the key's core fields, the re-expression and
reduction matrices B and Q built one at a time as the paper stages them,
the multiplication key as an explicit rational tensor, every stage of one
multiplication carried out with exact rationals, a random netlist
generator, and the container's integer encoding written one entry at a
time.

Production evaluation never materializes the order-3 tensor M or the
per-stage vectors; these exist so tests can check the factored form against
the paper's literal definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random
from typing import Sequence

from mvphe.arith import NoiseSampler, balance
from mvphe.circuit import Circuit, parse_circuit
from mvphe.errors import ConstructionError, ParameterError, SingularMatrixError
from mvphe.keys import (
    PRESETS,
    EvalKey,
    Params,
    SecretKey,
    _bitdecomp_numerators,
    _gadget_width,
    _ideal_basis_2r,
    build_G,
    preset_params,
    setup,
)
from mvphe.linalg import Matrix, inverse_mod_q, mat_mul, zeros
from mvphe.mvpoly import Polynomial, enumerate_monomials, reduce_by_set


def transpose(A: Matrix) -> Matrix:
    return [list(col) for col in zip(*A)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
        nums.append(num)
    return _bitdecomp_numerators(nums, q, u)


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
    "tiny-q97": lambda: setup(8, 1, v=1, r_g=1, r_prime=1, ell=3, q=97,
                              sigma=1, B=6, u=2),
}


def powersoftwo(vec: Sequence[int], q: int, u: int) -> list[Fraction]:
    """Balanced multiples w·2^(s−u) reduced mod q, position-major.

    Entries are exact rationals with denominator 2^u and magnitude <= q/2.
    """
    return [Fraction(n, 1 << u) for n in _powersoftwo_numerators(vec, q, u)]


# ---------------------------------------------------------------------------
# the ideal basis, as products
# ---------------------------------------------------------------------------

def ideal_basis_r(sk: SecretKey) -> list[Polynomial]:
    """The basis g·h_i of the degree-(<= r) slice of <g>, one polynomial
    product per monomial h_i of degree <= r_prime: the reference for key
    construction, which evaluates it as g(z)·h_i(z) without the products."""
    p = sk.params
    return [sk.g * Polynomial.monomial(p.v, p.q, m)
            for m in enumerate_monomials(p.v, p.r_prime)]


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


def encrypt_reference(sk: SecretKey, m: Sequence[int], rng: Random) -> list[int]:
    """A fresh ciphertext's vector in two products, (y·S_enc + [0 | band])·R
    with S_enc = [I | −S^T] the first n rows of T^{-1}, band = m·floor(q/2)
    + e; y and then the noise are drawn from ``rng`` as ``encrypt`` draws
    them."""
    p = sk.params
    q, n, ell = p.q, p.n, p.ell
    y = [rng.randrange(q) for _ in range(n)]
    sampler = NoiseSampler(p.sigma, rng)
    band = [b * (q // 2) + sampler.sample() for b in m]
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
    basis2 = _ideal_basis_2r(p, sk.g)
    F1 = [[b.eval(z) % q for z in sk.points] for b in basis2]
    F1p = [row[:p.n] + row[p.ell:] for row in F1]
    try:
        F1p_inv = inverse_mod_q(F1p, q)
    except SingularMatrixError as exc:
        raise ConstructionError(
            "extension-point evaluations lost rank; regenerate the key"
        ) from exc
    B = build_B(sk, F1, F1p_inv)

    G = build_G(sk)
    F2 = []
    for b in basis2:
        rem = reduce_by_set(b, G, p.r)
        F2.append([rem.eval(z) % q for z in sk.points[: p.ell]])
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
    T = Tensor3.zeros(dim, dim, p.ell)
    for k in range(p.ell):
        wk = [evk.W[s][k] for s in range(p.t)]
        sl = T.slices[k]
        for i in range(dim):
            row1 = evk.P1[i]
            out_row = sl[i]
            for j in range(dim):
                row2 = evk.P2[j]
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
    x1 = [Fraction(sum(a * evk.P1[i][s] for i, a in enumerate(t1)), denom)
          for s in range(p.t)]
    x2 = [Fraction(sum(a * evk.P2[i][s] for i, a in enumerate(t2)), denom)
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


# ---------------------------------------------------------------------------
# container integers, one entry at a time
# ---------------------------------------------------------------------------

def w_int_reference(buf: bytearray, x: int) -> None:
    """Append x as the container encodes every integer: sign byte (0 or 1),
    u32 little-endian byte count, little-endian magnitude (none for 0)."""
    sign = 1 if x < 0 else 0
    mag = abs(x)
    raw = mag.to_bytes((mag.bit_length() + 7) // 8, "little") if mag else b""
    buf.append(sign)
    buf += len(raw).to_bytes(4, "little")
    buf += raw
