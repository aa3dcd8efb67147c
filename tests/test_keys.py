"""Parameter setup, key generation, and multiplication-key construction."""

import hashlib
import math
import warnings
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from mvphe import (
    PRESETS,
    Params,
    Polynomial,
    SecretKey,
    build_evalkey,
    encrypt,
    enumerate_monomials,
    keygen,
    keys,
    preset_params,
    reduce_by_set,
    setup,
    she,
)
from mvphe.errors import ConstructionError, GenerationFailure, ParameterError
from mvphe.keys import (
    _carry_product,
    _carry_table,
    _ideal_basis_2r,
    _ideal_rows,
    _monomial_table,
    build_G,
)
from mvphe.linalg import inverse_mod_q, mat_mul, rank_mod_q, vec_mat
from mvphe.mvpoly import grevlex_key, monomial_divides
from mvphe.serialize import load_secret_key, save_secret_key
from mvphe.arith import balance
from oracles import (
    CARRY_SETS,
    Tensor3,
    _powersoftwo_numerators,
    bilinear_eval,
    bitdecomp,
    build_B,
    build_Q,
    encryption_factors,
    evalkey_tensor,
    ideal_basis_r,
    mult_intermediates,
    n_mode_product,
    powersoftwo,
    transpose,
    u_coeffs,
)


# --- Params / setup -----------------------------------------------------

def test_toy_preset_dimensions():
    p = preset_params("toy")
    assert (p.v, p.r_g, p.r_prime) == (2, 1, 2)
    assert p.r == 3
    assert p.n == 6 and p.ell == 8
    assert p.n1 == math.comb(7, 5) == 21
    assert p.t == 23
    assert p.q_bits == 40
    # dimension formulas cross-checked by enumeration
    assert p.n == len(enumerate_monomials(p.v, p.r_prime))
    assert p.N == len(enumerate_monomials(p.v, p.r))
    assert p.n1 == len(enumerate_monomials(p.v, 2 * p.r - p.r_g))


def test_binomial_invariant():
    assert math.comb(2 + 2, 2) == 6


def test_q_bits_grow_with_depth():
    lo = preset_params("small")   # L=1
    hi = preset_params("depth3")  # L=3
    assert lo.L == 1 and hi.L == 3
    assert hi.q_bits > lo.q_bits


def test_all_presets_valid():
    for name in PRESETS:
        p = preset_params(name)
        assert p.n < p.ell <= p.N
        assert p.t == p.n1 + p.ell - p.n
        assert p.B < Fraction(p.q // 2, 2)
        assert p.depth_margin() >= 1


def test_setup_deterministic():
    a = setup(64, 2, v=2, r_g=1, r_prime=2, ell=8)
    b = setup(64, 2, v=2, r_g=1, r_prime=2, ell=8)
    assert a == b


def test_setup_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        setup(64, 0)  # L >= 1
    with pytest.raises(ParameterError):
        setup(64, 1, v=2, r_g=1, r_prime=2, ell=6)  # ell must exceed n
    with pytest.raises(ParameterError):
        setup(64, 1, v=2, r_g=1, r_prime=2, ell=11)  # ell beyond N=10
    with pytest.raises(ParameterError):
        setup(64, 1, q=97, B=30)  # B >= floor(q/2)/2
    with pytest.raises(ParameterError):
        preset_params("nope")


def test_setup_depth_unsatisfiable_at_forced_small_q():
    # a 16-bit modulus cannot host depth 3 at these dimensions
    with pytest.raises(ParameterError):
        setup(64, 3, v=2, r_g=1, r_prime=2, ell=8, q_bits=16)


def test_params_rejects_t_past_u32():
    # n = 2^31 + 1 < ell <= N, but t = C(2^31 + 3, 3) + 1 cannot be stored
    with pytest.raises(ParameterError, match="need t < 2\\^32 points, got t = "):
        Params(lambda_=64, L=1, v=2**31, r_g=1, r_prime=1, ell=2**31 + 2,
               q=858024799843, sigma=8, B=48, u=8)


def test_setup_refuses_q_past_64_bits():
    with pytest.raises(ParameterError, match="q must have at most 64 bits, got 65"):
        setup(q_bits=65)


def test_params_refuses_u_past_64():
    """An evaluation key has ell·(u + q_bits) gadget rows, so u is capped
    like q's bits: a secret-key file re-sealed with u = 2^31 − 1 stalled
    ``mvphe evalkey`` (found by the CLI fuzz test)."""
    with pytest.raises(ParameterError, match="need 0 <= u <= 64, got u = 2147483647"):
        preset_params("toy", u=2**31 - 1)
    assert preset_params("toy", u=64).u == 64


def test_params_rejects_composite_modulus():
    with pytest.raises(ParameterError):
        Params(lambda_=64, L=1, v=2, r_g=1, r_prime=2, ell=8,
               q=858024799841, sigma=8, B=48, u=8)  # q-2 of a prime, composite


def test_params_derived_fields_are_not_settable():
    with pytest.raises(TypeError):
        Params(lambda_=64, L=1, v=2, r_g=1, r_prime=2, ell=8,
               q=858024799843, sigma=8, B=48, u=8, n=99)


def test_secret_key_derived_fields_are_not_settable(toy_sk):
    core = dict(params=toy_sk.params, g=toy_sk.g, points=toy_sk.points,
                S=toy_sk.S, R1=toy_sk.R1, R2=toy_sk.R2)
    assert SecretKey(**core) == toy_sk
    with pytest.raises(TypeError):
        SecretKey(**core, R=[])


# --- keygen ---------------------------------------------------------------

def test_keygen_deterministic(toy_params):
    k1 = keygen(toy_params, Random(77))
    k2 = keygen(toy_params, Random(77))
    assert k1.g == k2.g and k1.points == k2.points
    assert k1.S == k2.S and k1.R1 == k2.R1 and k1.R2 == k2.R2
    k3 = keygen(toy_params, Random(78))
    assert k3.points != k1.points


# sha256 of repr((S, S_dec, P1, P2, W)) over seeds 1..3, per preset
KEY_DIGESTS = {
    "bench12": "4bcf209b17f7c5a3bf5285489c3d26a499d0c02cb6d97cf4facaf711a8bb9ba2",
    "bench16": "f900998918a41e379344a316944c7813d4d844604a8caf9d8b1e0538adf2d2ee",
    "depth3": "6309f2c57581c842ca53774fa95f5706a22b843330a56f3f9ffd91aa98564d9f",
    "small": "0bf4b5c753835fb834252c15c63d9b9b768856a1bde3a7c72b4e555ad9444f60",
    "toy": "0f3853c1ee4b02d6522b73a0ee1a526f85488cd493cd67c406871fd2a09e1bb9",
}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_seeded_keys_are_pinned(name):
    """Key material is a fixed function of the seeds on every preset: a
    refactor of key construction must keep keygen's and build_evalkey's
    draws and arithmetic bit-identical."""
    p = preset_params(name)
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        sk = keygen(p, Random(f"pin-{name}-{seed}"))
        evk = build_evalkey(sk, rng=Random(f"pin-evk-{name}-{seed}"))
        h.update(repr((sk.S, sk.S_dec, evk.P1, evk.P2, evk.W)).encode())
    assert h.hexdigest() == KEY_DIGESTS[name]


def test_generator_properties(toy_sk):
    p = toy_sk.params
    g = toy_sk.g
    assert g.degree == p.r_g
    assert g.terms.get((0,) * p.v, 0) != 0  # nonzero constant term
    lm, lc = g.leading_term()
    assert lc == 1 and sum(lm) == p.r_g
    for z in toy_sk.points:
        assert g.eval(z) != 0


def test_point_rank_conditions(toy_sk):
    p = toy_sk.params
    q = p.q
    # condition 1: degree <= r evaluations fill the whole ciphertext space
    V = [[Polynomial.monomial(p.v, q, m).eval(z) % q for z in toy_sk.points[:p.ell]]
         for m in enumerate_monomials(p.v, p.r)]
    assert rank_mod_q(V, q) == p.ell
    # condition 2: ideal evaluations at the first n points have full rank
    E1 = [[b.eval(z) % q for z in toy_sk.points[:p.n]]
          for b in ideal_basis_r(toy_sk)]
    assert rank_mod_q(E1, q) == p.n
    # extension condition: the 2r-slice basis at (z_1..z_n, extras)
    basis2 = _ideal_basis_2r(p, toy_sk.g)
    sub = toy_sk.points[:p.n] + toy_sk.points[p.ell:]
    F1p = [[b.eval(z) % q for z in sub] for b in basis2]
    assert rank_mod_q(F1p, q) == p.n1


@pytest.mark.parametrize("name", [*sorted(PRESETS), "tiny"])
def test_monomial_table_matches_polynomial_products(name):
    """Key construction reads every ideal evaluation off one monomial table
    as g(z)·m(z); at all t points that equals (g·m)(z) for the products
    formed as polynomials.  The table's first N rows are the monomials of
    degree <= r, and the first n ideal rows are the degree-(<= r) basis."""
    if name == "tiny":
        p = setup(8, 1, v=1, r_g=1, r_prime=1, ell=3, q=97, sigma=1, B=6, u=2)
    else:
        p = preset_params(name)
    sk = keygen(p, Random(f"table-{name}"))
    q = p.q
    table = _monomial_table(p, sk.points)
    assert table[:p.N] == [[Polynomial.monomial(p.v, q, m).eval(z) % q
                            for z in sk.points]
                           for m in enumerate_monomials(p.v, p.r)]
    rows = _ideal_rows(sk.g, sk.points, table)
    assert rows == [[b.eval(z) % q for z in sk.points]
                    for b in _ideal_basis_2r(p, sk.g)]
    assert rows[:p.n] == [[b.eval(z) % q for z in sk.points]
                          for b in ideal_basis_r(sk)]


def test_annihilation_of_ideal_evaluations(toy_sk):
    """[S | I] kills the evaluation vector of every element of the ideal's
    degree <= r slice at the first ell points."""
    p = toy_sk.params
    q = p.q
    rng = Random(55)
    for _ in range(20):
        coeffs = [rng.randrange(q) for _ in range(p.n)]
        f = Polynomial(p.v, q)
        for c, b in zip(coeffs, ideal_basis_r(toy_sk)):
            f = f + b.scale(c)
        ev = [f.eval(z) % q for z in toy_sk.points[:p.ell]]
        for j in range(p.ell - p.n):
            acc = sum(toy_sk.S[j][i] * ev[i] for i in range(p.n)) + ev[p.n + j]
            assert acc % q == 0


def test_annihilation_via_s_enc_rows(toy_sk):
    """y·S_enc, with S_enc = [I | −S^T] the first n rows of T^{-1}, lies in
    the annihilated space for random y; the key's C is T^{-1}·R, so its
    first n rows are those rows mixed by R and each decrypts to zero."""
    p = toy_sk.params
    q = p.q
    T_inv, R = encryption_factors(toy_sk)
    rng = Random(56)
    for _ in range(1000):
        y = [rng.randrange(q) for _ in range(p.n)]
        vec = [sum(y[i] * T_inv[i][j] for i in range(p.n)) % q
               for j in range(p.ell)]
        for j in range(p.ell - p.n):
            acc = sum(toy_sk.S[j][i] * vec[i] for i in range(p.n)) + vec[p.n + j]
            assert acc % q == 0
    assert toy_sk.R == R
    assert toy_sk.C == mat_mul(T_inv, R, q)
    assert mat_mul(toy_sk.C[:p.n], toy_sk.S_dec, q) == [
        [0] * (p.ell - p.n) for _ in range(p.n)]


def test_mixing_matrix_block_shape(toy_sk):
    p = toy_sk.params
    R = toy_sk.R
    k = p.ell - p.n
    # random block sits above the diagonal; lower-left block is zero
    for i in range(p.n, p.ell):
        for j in range(p.n):
            assert R[i][j] == 0
    for j in range(k):
        assert R[p.n + j][p.n + j] == 1
        for i in range(p.n):
            assert R[i][p.n + j] == toy_sk.R2[j][i] % p.q
    assert rank_mod_q(toy_sk.R1, p.q) == p.n
    assert rank_mod_q(toy_sk.S, p.q) == k
    # D = C^{-1} = R^{-1}·T for T = [[I, S^T], [0, I]]
    T = [[int(i == j) for j in range(p.ell)] for i in range(p.ell)]
    for i in range(p.n):
        for j in range(k):
            T[i][p.n + j] = toy_sk.S[j][i] % p.q
    assert mat_mul(toy_sk.C, toy_sk.D, p.q) == [
        [int(i == j) for j in range(p.ell)] for i in range(p.ell)]
    assert mat_mul(R, toy_sk.D, p.q) == T


def test_keygen_failure_on_degenerate_params():
    # q=3 leaves almost no valid points; the retry cap must trip
    with pytest.raises((GenerationFailure, ParameterError)):
        p = Params(lambda_=8, L=1, v=1, r_g=1, r_prime=1, ell=3, q=3,
                   sigma=0, B=1, u=0)
        keygen(p, Random(1))


# --- build_G ---------------------------------------------------------------

def test_build_g_count_and_degrees(toy_sk):
    p = toy_sk.params
    G = build_G(toy_sk)
    assert len(G) == math.comb(p.v + p.r_prime, p.r_prime + 1) == 4
    keys = []
    for gi in G:
        lm, lc = gi.leading_term()
        assert lc == 1
        assert sum(lm) == p.r + 1
        keys.append(grevlex_key(lm))
    assert keys == sorted(keys, reverse=True)


def test_build_g_covers_all_top_multiples(toy_sk):
    """Every degree-(r+1) multiple of LM(g) is divisible by some LM(g_i)."""
    p = toy_sk.params
    lm_g, _ = toy_sk.g.leading_term()
    lms = [gi.leading_term()[0] for gi in build_G(toy_sk)]
    for m in enumerate_monomials(p.v, p.r + 1):
        if sum(m) == p.r + 1 and monomial_divides(lm_g, m):
            assert any(monomial_divides(l, m) for l in lms)


# --- gadget decomposition ----------------------------------------------

def test_bitdecomp_u0_classic():
    bits = bitdecomp([3], 7, 0)
    assert len(bits) == 3  # ceil(log2 7)
    assert bits == [1, 1, 0]  # little-endian positions of 3


def test_bitdecomp_output_length():
    q = 97
    for u in (0, 4, 8):
        vec = [1, 2, 3, 4, 5]
        assert len(bitdecomp(vec, q, u)) == 5 * (u + 7)
        assert len(powersoftwo(vec, q, u)) == 5 * (u + 7)


def test_bitdecomp_rejects_bad_denominator():
    with pytest.raises(ParameterError):
        bitdecomp([Fraction(1, 3)], 7, 2)
    with pytest.raises(ParameterError):
        bitdecomp([Fraction(1, 8)], 7, 2)  # 2^3 does not divide 2^2


def test_gadget_inner_product_identity():
    rng = Random(58)
    q = 858024799843
    for u in (0, 4, 8):
        for _ in range(200):
            k = rng.randrange(1, 9)
            v = [Fraction(rng.randrange(-(q << u) // 2, (q << u) // 2), 1 << u)
                 for _ in range(k)]
            w = [rng.randrange(q) for _ in range(k)]
            direct = sum(a * b for a, b in zip(v, w))
            paired = sum(a * b for a, b in zip(bitdecomp(v, q, u),
                                               powersoftwo(w, q, u)))
            # the pairing may only differ by an integer multiple of q
            assert (Fraction(paired - direct) / q).denominator == 1


def test_gadget_carry_bound():
    """The pairing magnitude never exceeds q * (count*width/2), because the
    powers-of-two side is balanced and the bit side is 0/1.  Against any
    reduced value e (|e| <= q) the carry K = (pairing - e)/q therefore obeys
    |K| <= count*width/2 + 1, which is what k_max certifies."""
    rng = Random(59)
    q = 858024799843
    u = 8
    width = u + q.bit_length()
    for _ in range(200):
        k = rng.randrange(1, 9)
        v = [Fraction(rng.randrange(-(q << u) // 2, (q << u) // 2), 1 << u)
             for _ in range(k)]
        w = [rng.randrange(q) for _ in range(k)]
        paired = sum(a * b for a, b in zip(bitdecomp(v, q, u),
                                           powersoftwo(w, q, u)))
        assert abs(paired) <= Fraction(q * k * width, 2)
        direct = sum(a * b for a, b in zip(v, w))
        assert (Fraction(paired - direct) / q).denominator == 1


def test_powersoftwo_numerators_match_public_form():
    q, u = 97, 4
    vec = [5, -40, 13]
    nums = _powersoftwo_numerators(vec, q, u)
    assert powersoftwo(vec, q, u) == [Fraction(n, 1 << u) for n in nums]
    assert all(abs(Fraction(n, 1 << u)) <= Fraction(q, 2) for n in nums)


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_carry_identity_from_one_quotient(name):
    """bal_M(c·2^s) = c·2^s − M·rho_s(c) at every gadget position s, with
    rho_s = 0 for s <= u and every other rho read off the bits of the one
    quotient F = floor(|c|·2^K/q)."""
    p = CARRY_SETS[name]()
    q, u, K = p.q, p.u, p.q_bits
    M = q << u
    h = (q - 1) // 2
    rng = Random(f"identity-{name}")
    for c in [h, -h, 0, 1, -1] + [rng.randint(-h, h) for _ in range(300)]:
        F = (abs(c) << K) // q
        assert F < 1 << (K - 1)
        sign = (c > 0) - (c < 0)
        for s in range(u + K):
            k = s - u
            rho = sign * ((F >> (K - k)) + (F >> (K - 1 - k) & 1)) if k > 0 else 0
            assert balance(c << s, M) == (c << s) - M * rho


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_carry_product_matches_gadget_transform(name):
    """_carry_product(c, _carry_table(P)) is t·P for the gadget transform t
    of c, on nonnegative P with a zero row, entries up to 2^70 (past the
    one-call packing), and an all-zero P."""
    p = CARRY_SETS[name]()
    q, u = p.q, p.u
    rows, cols = p.ell * (u + p.q_bits), 5
    rng = Random(f"carry-table-{name}")
    h = (q - 1) // 2
    small = [[rng.randrange(p.n * q) for _ in range(cols)] for _ in range(rows)]
    small[rng.randrange(rows)] = [0] * cols
    wide = [[rng.choice((0, rng.randrange(1 << 70))) for _ in range(cols)]
            for _ in range(rows)]
    vecs = [[h] * p.ell, [-h] * p.ell, [0] * p.ell, [1] * p.ell, [-1] * p.ell]
    vecs += [[rng.randint(-h, h) for _ in range(p.ell)] for _ in range(20)]
    for P in (small, wide, [[0] * cols for _ in range(rows)]):
        table = _carry_table(P, q, u)
        for c in vecs:
            assert _carry_product(c, table, q, u) == vec_mat(
                _powersoftwo_numerators(c, q, u), P)


# --- build_evalkey --------------------------------------------------------

def test_f1q_equals_f2_post_check(toy_sk, toy_evk):
    """Recompute the reduction relation independently of the builder, with
    B and Q staged as in the paper, and check the builder's one-solve W
    against balanced(B·Q·R mod q)."""
    p = toy_sk.params
    q = p.q
    basis2 = _ideal_basis_2r(p, toy_sk.g)
    G = build_G(toy_sk)
    F1 = [[b.eval(z) % q for z in toy_sk.points] for b in basis2]
    F2 = [[reduce_by_set(b, G, p.r).eval(z) % q for z in toy_sk.points[:p.ell]]
          for b in basis2]
    st_probe = mult_intermediates(toy_sk, toy_evk, [0] * p.ell, [0] * p.ell)
    assert st_probe["product"] == [0] * p.ell
    sub_idx = list(range(p.n)) + list(range(p.ell, p.t))
    F1p_inv = inverse_mod_q([[F1[r][c] for c in sub_idx] for r in range(p.n1)], q)
    Qm = build_Q(toy_sk, F1, F2, F1p_inv)
    assert mat_mul(F1, Qm, q) == F2
    # pinned middle rows
    for j in range(p.ell - p.n):
        row = Qm[p.n + j]
        assert row == [int(c == p.n + j) for c in range(p.ell)]
    BQR = mat_mul(mat_mul(build_B(toy_sk, F1, F1p_inv), Qm, q), toy_sk.R, q)
    assert [[balance(x, q) for x in row] for row in BQR] == toy_evk.W


def test_evalkey_refuses_repeated_extension_point(toy_sk):
    p = toy_sk.params
    points = list(toy_sk.points)
    points[p.ell + 1] = points[p.ell]
    sk = SecretKey(params=p, g=toy_sk.g, points=points, S=toy_sk.S,
                   R1=toy_sk.R1, R2=toy_sk.R2)
    with pytest.raises(ConstructionError, match="lost rank"):
        build_evalkey(sk, rng=Random(1))


def test_evalkey_post_check_catches_a_bad_inverse(toy_sk, monkeypatch):
    """The post-check tests the solution X of F1p·X = F2 against the system
    it came from: one wrong entry of the n1-row X trips it."""
    p = toy_sk.params
    real = keys.solve_mod_q

    def perturbed(A, Y, q):
        X = real(A, Y, q)
        if len(X) == p.n1:
            X[0][0] = (X[0][0] + 1) % q
        return X

    monkeypatch.setattr(keys, "solve_mod_q", perturbed)
    with pytest.raises(ConstructionError, match="post-check failed"):
        build_evalkey(toy_sk, rng=Random(1))


def test_evalkey_construction_call_counts(toy_sk, monkeypatch):
    """Every linear system is one solve and no inverse is formed: a build
    makes two solve_mod_q (E and X), two mat_mul (the post-check and W),
    two mat_mul_exact and one reduce_by_set per degree-(<= 2r) ideal basis
    element.  A keygen draw that passes its rank checks makes one solve (S),
    one inverse (the secret key's D = C^{-1}) and no product, and an
    encryption is one product, by C."""
    calls = {}
    names = ("mat_mul", "inverse_mod_q", "solve_mod_q", "mat_mul_exact",
             "reduce_by_set")
    for name in names:
        def counted(*args, _name=name, _fn=getattr(keys, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(keys, name, counted)
    build_evalkey(toy_sk, rng=Random(1))
    assert calls == {"mat_mul": 2, "solve_mod_q": 2, "mat_mul_exact": 2,
                     "reduce_by_set": toy_sk.params.n1}
    calls.clear()
    sk = keygen(toy_sk.params, Random(3))
    assert calls == {"inverse_mod_q": 1, "solve_mod_q": 1}
    products = []

    def vec_mat_counted(v, M, _fn=she.vec_mat):
        products.append(M)
        return _fn(v, M)
    monkeypatch.setattr(she, "vec_mat", vec_mat_counted)
    encrypt(sk, [1] * sk.params.message_bits, Random(4))
    assert products == [sk.C]


def test_ideal_evaluations_form_no_polynomial_products(toy_params, tmp_path,
                                                       monkeypatch):
    """keygen and load_secret_key form no Polynomial product, and
    build_evalkey evaluates only g, once per solve point, and the n1
    division remainders, each at z_1..z_ell."""
    products, evaluated, remainders = [], [], []
    real_mul, real_eval, real_reduce = (Polynomial.__mul__, Polynomial.eval,
                                        keys.reduce_by_set)

    def mul(self, other):
        products.append(other)
        return real_mul(self, other)

    def evaluate(self, point):
        evaluated.append(self)
        return real_eval(self, point)

    def reduce(*args):
        remainders.append(real_reduce(*args))
        return remainders[-1]

    monkeypatch.setattr(Polynomial, "__mul__", mul)
    monkeypatch.setattr(Polynomial, "__rmul__", mul)
    monkeypatch.setattr(Polynomial, "eval", evaluate)
    monkeypatch.setattr(keys, "reduce_by_set", reduce)
    p = toy_params
    sk = keygen(p, Random(3))
    path = str(tmp_path / "sk.bin")
    save_secret_key(sk, path)
    load_secret_key(path)
    assert products == []
    evaluated.clear()
    build_evalkey(sk, rng=Random(1))
    assert sum(f is sk.g for f in evaluated) == p.n1
    assert len(remainders) == p.n1
    counts = Counter(id(f) for f in evaluated if f is not sk.g)
    assert counts == {id(rem): p.ell for rem in remainders}


def test_evalkey_shapes_and_kmax(toy_sk, toy_evk):
    p = toy_sk.params
    width = p.u + p.q_bits
    assert toy_evk.input_dim == len(toy_evk.P1) == len(toy_evk.P2) == p.ell * width
    assert len(toy_evk.P1[0]) == p.t
    assert len(toy_evk.W) == p.t and len(toy_evk.W[0]) == p.ell
    assert toy_evk.k_max == Fraction(p.ell * width, 2) + 1
    # balanced third factor
    assert all(abs(x) <= p.q // 2 for row in toy_evk.W for x in row)


def test_masking_zero_at_toy_scale(toy_sk):
    """At 40-bit q the dyadic masking budget floor(2^u B/(qn)) is zero, so
    two builds with different randomness agree except for nothing at all."""
    e1 = build_evalkey(toy_sk, rng=Random(1))
    e2 = build_evalkey(toy_sk, rng=Random(2))
    assert e1.P1 == e2.P1 and e1.P2 == e2.P2 and e1.W == e2.W


def test_masking_nonzero_at_small_preset(small_sk):
    p = small_sk.params
    bound = Fraction((1 << p.u) * p.B, p.q * p.n)
    assert bound > 1  # the preset is sized to leave masking room
    e1 = build_evalkey(small_sk, rng=Random(3))
    e2 = build_evalkey(small_sk, rng=Random(4))
    assert e1.P1 != e2.P1


def test_masking_column_norm_bound(small_sk):
    """Column one-norms of D - R^{-1}[[I,S^T],[0,I]] stay below B/q."""
    from mvphe.keys import _build_D_scaled, _sample_masking_block
    from mvphe.linalg import zeros
    p = small_sk.params
    rng = Random(7)
    eps = _sample_masking_block(p, rng)
    assert any(any(row) for row in eps)
    base = _build_D_scaled(small_sk, zeros(p.n, p.ell - p.n))
    withe = _build_D_scaled(small_sk, eps)
    for j in range(p.ell - p.n):
        col_norm = Fraction(
            sum(abs(withe[i][p.n + j] - base[i][p.n + j]) for i in range(p.n)),
            1 << p.u)
        assert col_norm < Fraction(p.B, p.q)


def test_tensor_composition_matches_factored_form():
    """M assembled by chained n-mode products U x1 P1 x2 P2 x3 W^T equals the
    factored entry formula, on a tiny set where the tensor is materializable."""
    tiny = setup(8, 1, v=1, r_g=1, r_prime=1, ell=3, q=97, sigma=1, B=6, u=2)
    evk = build_evalkey(keygen(tiny, Random(8)), rng=Random(8))
    U = Tensor3.zeros(tiny.t, tiny.t, tiny.t)
    for s, c in enumerate(u_coeffs(evk)):
        U.set_entry(s, s, s, c)
    M = n_mode_product(n_mode_product(n_mode_product(U, evk.P1, 1), evk.P2, 2),
                       transpose(evk.W), 3)
    assert M == evalkey_tensor(evk)
    assert M.dims == (evk.input_dim, evk.input_dim, tiny.ell)


def test_evalkey_denominators_divide_q_2_2u():
    """EvalKey tensor entries have denominators dividing q*2^(2u); checked
    on a tiny parameter set where the gadget tensor is materializable."""
    tiny = setup(8, 1, v=1, r_g=1, r_prime=1, ell=3, q=97, sigma=1, B=6, u=2)
    sk = keygen(tiny, Random(9))
    evk = build_evalkey(sk, rng=Random(10))
    M = evalkey_tensor(evk)
    width = tiny.u + tiny.q.bit_length()
    assert M.dims == (3 * width, 3 * width, 3)
    lim = tiny.q * (1 << (2 * tiny.u))
    for sl in M.slices:
        for row in sl:
            for e in row:
                assert lim % e.denominator == 0


def test_noiseless_pipeline_matches_polynomial_reduction(toy_sk):
    """With zero noise (and the zero masking of the toy scale, pinned by
    test_masking_zero_at_toy_scale), the multiplication pipeline's reduced
    stage equals evaluations of reduce_by_set(f1*f2) mod q."""
    p = toy_sk.params
    q = p.q
    rng = Random(60)
    evk = build_evalkey(toy_sk, rng=rng)
    G = build_G(toy_sk)
    for _ in range(5):
        fs, cts = [], []
        for _ in range(2):
            f = Polynomial(p.v, q)
            for b in ideal_basis_r(toy_sk):
                f = f + b.scale(rng.randrange(q))
            ev = [f.eval(z) % q for z in toy_sk.points[:p.ell]]
            vec = [sum(ev[i] * toy_sk.R[i][j] for i in range(p.ell)) % q
                   for j in range(p.ell)]
            fs.append(f)
            cts.append(vec)
        st = mult_intermediates(toy_sk, evk, cts[0], cts[1])
        f_mult = reduce_by_set(fs[0] * fs[1], G, p.r)
        want = [f_mult.eval(z) % q for z in toy_sk.points[:p.ell]]
        for j in range(p.ell):
            cj = st["reduced"][j]
            assert cj.denominator == 1  # exact integers in this mode
            assert (int(cj) - want[j]) % q == 0


def test_gadget_transforms_match_tensor_contraction():
    """eval_mult output equals floor(bilinear_eval(M, t1, t2)) mod q on the
    tiny set (literal form of the product rule)."""
    from mvphe import encrypt, eval_mult
    tiny = setup(8, 1, v=1, r_g=1, r_prime=1, ell=3, q=97, sigma=1, B=6, u=2)
    sk = keygen(tiny, Random(11))
    evk = build_evalkey(sk, rng=Random(12))
    M = evalkey_tensor(evk)
    rng = Random(13)
    for _ in range(10):
        c1 = encrypt(sk, [rng.randrange(2)], rng)
        c2 = encrypt(sk, [rng.randrange(2)], rng)
        v1 = powersoftwo(c1.vec, tiny.q, tiny.u)
        v2 = powersoftwo(c2.vec, tiny.q, tiny.u)
        direct = [balance(math.floor(x) % tiny.q, tiny.q)
                  for x in bilinear_eval(M, v1, v2)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny q trips the hint warning
            got = eval_mult(evk, c1, c2)
        assert got.vec == direct
