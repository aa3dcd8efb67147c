"""Parameter setup, key generation, and multiplication-key construction."""

import hashlib
import math
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from mvphe import (
    PRESETS,
    Params,
    SecretKey,
    build_evalkey,
    decrypt,
    encrypt,
    enumerate_monomials,
    keygen,
    keys,
    preset_params,
    setup,
    she,
)
from mvphe.errors import (
    ConstructionError,
    GenerationFailure,
    ParameterError,
    SingularMatrixError,
)
from mvphe.keys import (
    EvalKey,
    _auto_q_bits,
    _carry_bound,
    _carry_product,
    _carry_table,
    _ideal_basis_2r,
    _ideal_rows,
    _monomial_table,
    build_G,
)
from mvphe.linalg import inverse_mod_q, mat_mul, pack_rows, rank_mod_q
from mvphe.mvpoly import Polynomial, grevlex_key, monomial_divides, reduce_by_set
from mvphe.serialize import load_secret_key, save_secret_key
from mvphe.arith import balance
from oracles import (
    CARRY_SETS,
    Tensor3,
    _powersoftwo_numerators,
    auto_q_bits_reference,
    below_diagonal_key,
    bilinear_eval,
    bit_factor,
    bitdecomp,
    build_B,
    build_Q,
    carry_table_from_P,
    encryption_factors,
    evalkey_tensor,
    evaluate,
    factor_matrices,
    generator,
    ideal_basis_r,
    ideal_element,
    mult_intermediates,
    n_mode_product,
    powersoftwo,
    transpose,
    u_coeffs,
    unmasking_reference,
    vec_mat,
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
        assert p.q >= p.B * (p.n * p.q_bits) ** p.L


def test_setup_deterministic():
    a = setup(64, 2, v=2, r_g=1, r_prime=2, ell=8)
    b = setup(64, 2, v=2, r_g=1, r_prime=2, ell=8)
    assert a == b


# each preset's modulus, drawn from its stamp-seeded generator
PRESET_MODULI = {"bench12": 746581830899, "bench16": 954845559319,
                 "depth3": 232126662491323, "small": 1812037, "toy": 783018399557}


def test_preset_moduli_are_pinned():
    assert {name: preset_params(name).q for name in PRESETS} == PRESET_MODULI


def test_setup_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        setup(64, 0)  # L >= 1
    with pytest.raises(ParameterError):
        setup(64, 1, v=2, r_g=1, r_prime=2, ell=6)  # ell must exceed n
    with pytest.raises(ParameterError):
        setup(64, 1, v=2, r_g=1, r_prime=2, ell=11)  # ell beyond N=10
    with pytest.raises(ParameterError, match="decryption needs B"):
        Params(lambda_=64, L=1, v=2, r_g=1, r_prime=2, ell=8, q=97, sigma=1,
               B=30, u=8)  # B >= floor(q/2)/2
    with pytest.raises(ParameterError):
        preset_params("nope")
    with pytest.raises(TypeError, match="'w'"):
        setup(64, 1, w=3)
    # a chosen modulus goes to Params, not to setup
    with pytest.raises(TypeError, match="'q'"):
        setup(64, 1, q=97)
    # 5·log2(6·40) < 40 bits passes the cheap L check; the exact one refuses it
    with pytest.raises(ParameterError, match=r"depth L=5: q < B·\(n·log2 q\)\^L$"):
        preset_params("toy", L=5)
    # negative dimensions are refused before any binomial is taken, by setup
    # (default ell) and by Params alike
    base = dict(lambda_=64, L=1, v=2, r_g=1, r_prime=2, ell=8, q=858024799843,
                sigma=8, B=48, u=8)
    for shape in (dict(v=-5), dict(r_prime=-3), dict(r_g=0), dict(v=-5, ell=8)):
        with pytest.raises(ParameterError, match="need v, r_g, r_prime >= 1"):
            setup(64, 1, **shape)
        with pytest.raises(ParameterError, match="need v, r_g, r_prime >= 1"):
            Params(**{**base, **shape})


def test_setup_depth_unsatisfiable_at_forced_small_q():
    # a 16-bit modulus cannot host depth 3 at these dimensions
    with pytest.raises(ParameterError):
        setup(64, 3, v=2, r_g=1, r_prime=2, ell=8, q_bits=16)
    # left to choose, setup sizes q at 58 bits for depth 4, and none of at
    # most 64 bits hosts depth 5
    assert setup(64, 4, v=2, r_g=1, r_prime=2, ell=8).q_bits == 58
    with pytest.raises(ParameterError, match="no modulus size up to 64 bits "
                                             "supports depth L=5"):
        setup(64, 5, v=2, r_g=1, r_prime=2, ell=8)


def test_params_rejects_t_past_u32():
    # n = 2^31 + 1 < ell <= N, but t = C(2^31 + 3, 3) + 1 cannot be stored
    with pytest.raises(ParameterError, match="need t < 2\\^32 points, got t = "):
        Params(lambda_=64, L=1, v=2**31, r_g=1, r_prime=1, ell=2**31 + 2,
               q=858024799843, sigma=8, B=48, u=8)


def test_setup_refuses_a_shape_past_u32_points_at_once():
    """setup refuses a shape whose t cannot fit before it takes a binomial
    or sizes q: v = r_prime = 10^6 ran 40 s before the depth refusal."""
    for size in (10**6, 2 * 10**6):
        t0 = time.perf_counter()
        with pytest.raises(ParameterError, match=r"need t < 2\^32 points: v = "):
            setup(64, 1, v=size, r_prime=size)
        assert time.perf_counter() - t0 < 1


def test_setup_refuses_q_past_64_bits():
    # refused before the prime search, which would stall on 30000 bits
    for bits in (65, 30000):
        with pytest.raises(ParameterError, match=f"q must have at most 64 bits, got {bits}$"):
            setup(q_bits=bits)


def test_params_refuses_lambda_past_u32():
    """Files record lambda as a u32."""
    with pytest.raises(ParameterError, match="need lambda < 2\\^32, got lambda = 4294967296"):
        setup(2**32)
    assert setup(2**32 - 1).lambda_ == 2**32 - 1


def test_auto_q_bits_matches_the_rational_reference():
    """The integer hint rules size q exactly as the rational ones do over
    a grid of shapes, and refuse a deep L at once, where the rational rule
    would carry denominators of q^(2^L − 1)."""
    def bits_or_none(rule, *shape):
        try:
            return rule(*shape)
        except ParameterError:
            return None

    for shape in product(range(1, 6), (7, 8, 12, 30), (0, 8, 64), (1, 48, 1000)):
        assert (bits_or_none(_auto_q_bits, *shape)
                == bits_or_none(auto_q_bits_reference, *shape)), shape
    for L in (14, 100, 10**8):
        with pytest.raises(ParameterError, match=f"supports depth L={L} "):
            _auto_q_bits(L, 8, 8, 48)


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


# sha256 of repr((S, S_dec, P1, P2, W)) over seeds 1..3, per preset; P1 and
# P2 are rebuilt from the key's D1s, D2s and E by the oracle
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
        P1, P2 = factor_matrices(evk)
        h.update(repr((sk.S, sk.S_dec, P1, P2, evk.W)).encode())
    assert h.hexdigest() == KEY_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_evalkey_discloses_the_decryption_matrix(name):
    """Whoever holds an evaluation key can decrypt, so it must be kept like
    the secret key.  D1s and D2s hold D·2^u + eps (mod q·2^u); the masking
    keeps |eps| < 2^u/(4n), below the rounding boundary 2^(u − 1), so
    rounding off the u low bits gives D mod q, and D's last ell − n columns
    are S_dec.  Masking is zero on every preset but small, so D1s == D2s
    there.  A change that hides D must update this test on purpose."""
    p = preset_params(name)
    q, u = p.q, p.u
    sk = keygen(p, Random(f"disclose-{name}"))
    evk = build_evalkey(sk, rng=Random(f"disclose-evk-{name}"))
    assert (evk.D1s == evk.D2s) == (name != "small")
    rng = Random(f"disclose-msgs-{name}")
    msgs = [[rng.randrange(2) for _ in range(p.message_bits)] for _ in range(20)]
    cts = [encrypt(sk, m, rng) for m in msgs]
    half = q // 2
    for scaled in (evk.D1s, evk.D2s):
        D = [[((x + (1 << u >> 1)) >> u) % q for x in row] for row in scaled]
        assert D == sk.D
        S_dec = [row[p.n:] for row in D]
        for m, ct in zip(msgs, cts):
            w = [balance(x, q) for x in vec_mat(ct.vec, S_dec)]
            assert [(2 * x + half) // (2 * half) % 2 for x in w] == m


def test_generator_properties(toy_sk):
    """The key holds g as its C(v + r_g, r_g) balanced coefficients, the
    constant first and the leading 1 last; as a polynomial it is monic of
    degree r_g with a nonzero constant term, and nonzero at every point."""
    p = toy_sk.params
    half = p.q // 2
    assert type(toy_sk.g) is list and len(toy_sk.g) == math.comb(p.v + p.r_g, p.r_g)
    assert all(type(c) is int and -half <= c <= half for c in toy_sk.g)
    assert toy_sk.g[-1] == 1 and toy_sk.g[0] != 0
    g = generator(toy_sk)
    assert g.degree == p.r_g
    assert g.terms.get((0,) * p.v, 0) != 0  # nonzero constant term
    lm, lc = g.leading_term()
    assert lc == 1 and sum(lm) == p.r_g
    for z in toy_sk.points:
        assert evaluate(g, z) != 0


def test_point_rank_conditions(toy_sk):
    p = toy_sk.params
    q = p.q
    # condition 1: degree <= r evaluations fill the whole ciphertext space
    V = [[evaluate(Polynomial.monomial(p.v, q, m), z) % q
          for z in toy_sk.points[:p.ell]] for m in enumerate_monomials(p.v, p.r)]
    assert rank_mod_q(V, q) == p.ell
    # condition 2: ideal evaluations at the first n points have full rank
    E1 = [[evaluate(b, z) % q for z in toy_sk.points[:p.n]]
          for b in ideal_basis_r(toy_sk)]
    assert rank_mod_q(E1, q) == p.n
    # extension condition: the 2r-slice basis at (z_1..z_n, extras)
    basis2 = _ideal_basis_2r(p, generator(toy_sk))
    sub = toy_sk.points[:p.n] + toy_sk.points[p.ell:]
    F1p = [[evaluate(b, z) % q for z in sub] for b in basis2]
    assert rank_mod_q(F1p, q) == p.n1


TABLE_SHAPES = {
    "tiny": lambda: Params(lambda_=8, L=1, v=1, r_g=1, r_prime=1, ell=3, q=97,
                           sigma=1, B=6, u=2),
    "v3": lambda: setup(64, 1, v=3, r_g=2, r_prime=1, ell=6),
    "v4": lambda: setup(64, 1, v=4, r_g=1, r_prime=1, ell=7),
}


@pytest.mark.parametrize("name", [*sorted(PRESETS), *TABLE_SHAPES])
def test_monomial_table_matches_polynomial_products(name):
    """Key construction reads every ideal evaluation off one monomial table
    as g(z)·m(z); at all t points that equals (g·m)(z) for the products
    formed as polynomials.  The table's first N rows are the monomials of
    degree <= r, the whole table at degree r, and the first n ideal rows
    are the degree-(<= r) basis.
    The table builds each row from a parent row times one coordinate, so
    the shapes with three and four variables check that recurrence on
    every variable."""
    p = TABLE_SHAPES[name]() if name in TABLE_SHAPES else preset_params(name)
    sk = keygen(p, Random(f"table-{name}"))
    q = p.q
    table = _monomial_table(p, sk.points, 2 * p.r - p.r_g)
    assert table[:p.N] == _monomial_table(p, sk.points, p.r) == [
        [evaluate(Polynomial.monomial(p.v, q, m), z) % q for z in sk.points]
        for m in enumerate_monomials(p.v, p.r)]
    g = generator(sk)
    rows = _ideal_rows([evaluate(g, z) for z in sk.points], table, q)
    assert rows == [[evaluate(b, z) % q for z in sk.points]
                    for b in _ideal_basis_2r(p, g)]
    assert rows[:p.n] == [[evaluate(b, z) % q for z in sk.points]
                          for b in ideal_basis_r(sk)]


def test_annihilation_of_ideal_evaluations(toy_sk):
    """[S | I] kills the evaluation vector of every element of the ideal's
    degree <= r slice at the first ell points."""
    p = toy_sk.params
    q = p.q
    rng = Random(55)
    for _ in range(20):
        f = ideal_element(toy_sk, [rng.randrange(q) for _ in range(p.n)])
        ev = [evaluate(f, z) % q for z in toy_sk.points[:p.ell]]
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


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_random_block_belongs_above_the_diagonal(name):
    """The keys module's claim on R2's place: a copy of a key with R2
    below the diagonal (``oracles.below_diagonal_key``) encrypts and
    decrypts every message, yet AND's final floor no longer commutes with
    the mixing step, and 7 to 18 of 20 seeded ANDs come out wrong under
    it (at least 5 asserted); none do under the key keygen built."""
    p = preset_params(name)
    sk = keygen(p, Random(f"below-{name}"))

    def wrong_ands(key):
        evk = build_evalkey(key, Random(f"below-evk-{name}"))
        rng = Random(f"below-ands-{name}")
        wrong = 0
        for _ in range(20):
            a, b = ([rng.randrange(2) for _ in range(p.message_bits)] for _ in "ab")
            ca, cb = encrypt(key, a, rng), encrypt(key, b, rng)
            assert decrypt(key, ca) == a and decrypt(key, cb) == b
            product = decrypt(key, she.eval_mult(evk, ca, cb))
            wrong += product != [x & y for x, y in zip(a, b)]
        return wrong

    assert wrong_ands(sk) == 0
    assert wrong_ands(below_diagonal_key(sk)) >= 5


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


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_unmasking_matrices_match_the_reference(name):
    """S_dec, one n x n solve against R1 stacked on I, and D, built on first
    use from R1^{-1} and S_dec, are C^{-1} and its last ell − n columns as
    elimination entry by entry finds them, on every preset at three seeds."""
    p = preset_params(name)
    for seed in (1, 2, 3):
        sk = keygen(p, Random(f"unmask-{name}-{seed}"))
        D, S_dec = unmasking_reference(sk)
        assert sk.S_dec == S_dec
        assert "D" not in vars(sk)
        assert sk.D == D


def test_loaded_key_forms_no_inverse(tmp_path, toy_sk, monkeypatch):
    """A key loaded from a file encrypts and decrypts without inverting
    anything: S_dec is one solve against R1, and D, the one matrix built
    from R1^{-1}, is left to build_evalkey."""
    path = str(tmp_path / "key.bin")
    save_secret_key(toy_sk, path)
    D = toy_sk.D
    calls = []

    def counted(*args, _fn=keys.inverse_mod_q):
        calls.append(args)
        return _fn(*args)
    monkeypatch.setattr(keys, "inverse_mod_q", counted)
    sk = load_secret_key(path)
    m = [1, 0]
    assert decrypt(sk, encrypt(sk, m, Random(5))) == m
    assert calls == [] and "D" not in vars(sk)
    assert sk.D == D and len(calls) == 1


def _rank_stub(monkeypatch, p, failures):
    """Make keys.rank_mod_q report one rank short on the first
    ``failures[check]`` calls of each keygen check (1, 2, 3 or "R1") and
    record the check of every call.  E1 and R1 are both n × n; R1's check
    is the one that follows condition 3 or another R1 draw."""
    real, seen = keys.rank_mod_q, []

    def stub(M, q):
        shape = (len(M), len(M[0]))
        if shape == (p.N, p.ell):
            check = 1
        elif shape == (p.n1, p.n1):
            check = 3
        else:
            assert shape == (p.n, p.n)
            check = "R1" if seen and seen[-1] in (3, "R1") else 2
        seen.append(check)
        if seen.count(check) <= failures.get(check, 0):
            return min(shape) - 1
        return real(M, q)

    monkeypatch.setattr(keys, "rank_mod_q", stub)
    return seen


def test_keygen_redraws_on_each_rejection(monkeypatch, toy_params):
    """Conditions 1 and 2 fail once each, then condition 3 and the R1 draw
    each fail RETRY_CAP times in a row, which redraws the whole batch: the
    fifth batch gives a key, after 8 + 2·RETRY_CAP extra rank checks."""
    cap, p = keys.RETRY_CAP, toy_params
    seen = _rank_stub(monkeypatch, p, {1: 1, 2: 1, 3: cap, "R1": cap})
    sk = keygen(p, Random(5))
    assert seen == ([1] + [1, 2] + [1, 2] + [3] * cap + [1, 2] + [3] + ["R1"] * cap
                    + [1, 2, 3, "R1"])
    assert len(seen) == 4 + 8 + 2 * cap
    monkeypatch.undo()
    assert decrypt(sk, encrypt(sk, [1, 0], Random(6))) == [1, 0]


@pytest.mark.parametrize("check", [1, 2, 3, "R1"])
def test_keygen_gives_up_at_the_retry_cap(monkeypatch, toy_params, check):
    """A check that never passes ends keygen with GenerationFailure after
    RETRY_CAP batches, and with nothing else."""
    monkeypatch.setattr(keys, "RETRY_CAP", 3)
    seen = _rank_stub(monkeypatch, toy_params, {check: math.inf})
    with pytest.raises(GenerationFailure, match="failed after 3 attempts") as exc:
        keygen(toy_params, Random(7))
    assert exc.type is GenerationFailure
    per_batch = {1: 1, 2: 1, 3: 3, "R1": 3}[check]
    assert seen.count(check) == 3 * per_batch


# --- build_G ---------------------------------------------------------------

def test_build_g_count_and_degrees(toy_sk):
    p = toy_sk.params
    G = build_G(p, generator(toy_sk))
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
    g = generator(toy_sk)
    lm_g, _ = g.leading_term()
    lms = [gi.leading_term()[0] for gi in build_G(p, g)]
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


def test_carry_sets_end_on_full_and_partial_windows():
    """The carry rows of an entry come in hex windows of four; the sets
    below end both on a full window (4 divides q_bits − 1) and on a
    shorter one."""
    assert {(CARRY_SETS[name]().q_bits - 1) % 4 == 0
            for name in CARRY_SETS} == {True, False}


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_carry_product_matches_gadget_transform(name):
    """_carry_product(c, _carry_table(P)) is t·P for the gadget transform t
    of c, on P's rows packed as ``carry_table_from_P`` packs them, for
    nonnegative P with a zero row, entries up to 2^70 (past the
    one-call packing), and an all-zero P.  c = ±(q − 1)/2 sets every bit of
    its quotient, so it reads the top entry of every hex window; ±1 reads
    the low windows only; mixed signs and magnitudes in one vector too.
    Each entry keeps only its windows: 16 sums per window, fewer in a last
    window of under four rows."""
    p = CARRY_SETS[name]()
    q, u = p.q, p.u
    rows, cols = p.ell * (u + p.q_bits), 5
    rng = Random(f"carry-table-{name}")
    h = (q - 1) // 2
    small = [[rng.randrange(p.n * q) for _ in range(cols)] for _ in range(rows)]
    small[rng.randrange(rows)] = [0] * cols
    wide = [[rng.choice((0, rng.randrange(1 << 70))) for _ in range(cols)]
            for _ in range(rows)]
    vecs = [[h] * p.ell, [-h] * p.ell, [0] * p.ell, [1] * p.ell, [-1] * p.ell,
            [(h, -h, 1, -1)[i % 4] for i in range(p.ell)]]
    vecs += [[rng.randint(-h, h) for _ in range(p.ell)] for _ in range(20)]
    full, rest = divmod(p.q_bits - 1, 4)
    sizes = [16] * full + ([1 << rest] if rest else [])
    for P in (small, wide, [[0] * cols for _ in range(rows)]):
        table = carry_table_from_P(P, q, u)
        assert [[len(w) for w in entry] for entry in table.windows] == [sizes] * p.ell
        for c in vecs:
            assert _carry_product(c, table, q, u) == vec_mat(
                _powersoftwo_numerators(c, q, u), P)


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_carry_table_reads_D_and_A(name):
    """_carry_table(D, A's packed rows) is the carry table of P = D~·A that
    the reference regroups from all u + K bit rows of each entry, in every
    field, at the reference's slot width; and its carry product is t·P for
    the gadget transform t.  D holds 0, q·2^u − 1 and a zero row; A is
    nonnegative with a zero row and entries past 2^64."""
    p = CARRY_SETS[name]()
    q, u, ell, cols = p.q, p.u, p.ell, 5
    M = q << u
    h = (q - 1) // 2
    rng = Random(f"carry-table-D-{name}")
    D = [[rng.randrange(M) for _ in range(ell)] for _ in range(ell)]
    D[0][0], D[-1][-1] = 0, M - 1
    D[rng.randrange(1, ell - 1)] = [0] * ell
    A = [[rng.choice((0, rng.randrange(q), rng.randrange(1 << 70)))
          for _ in range(cols)] for _ in range(ell)]
    A[rng.randrange(ell)] = [0] * cols
    assert max(map(max, A)) >> 64
    P = bit_factor(D, A, q, u)
    want = carry_table_from_P(P, q, u)
    got = _carry_table(D, pack_rows(A, want.width), want.width, cols, q, u)
    assert got == want
    for c in ([h] * ell, [-h] * ell, [0] * ell,
              *([rng.randint(-h, h) for _ in range(ell)] for _ in range(10))):
        assert _carry_product(c, got, q, u) == vec_mat(
            _powersoftwo_numerators(c, q, u), P)


def _extended_products(evk, c):
    """t·P1 and t·P2 for the gadget transform t of c, as eval_mult forms
    them: the carry products, extended by E, that ``she._product`` keeps
    in its memo."""
    memo = {}
    she._product(evk, c, c, memo)
    T1, T2, *_ = evk.packed
    return memo[(True, *c)], memo[(T2 is T1, *c)]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_factored_key_builds_the_carry_tables_of_P(name):
    """The carry tables a key builds from D1s and D2s on its first AND are
    those of D1~ and D2~, the first ell columns of P1 and P2 rebuilt by the
    oracle's triple sum, in every field and ell columns wide: the oracle
    sizes its slots by their largest entry, 1, and the key by that bound.
    Each carry product extended by E is the carry product on all of P_i,
    t·P_i, on random balanced vectors and on ±(q − 1)/2."""
    p = preset_params(name)
    q, u, ell = p.q, p.u, p.ell
    h = (q - 1) // 2
    for seed in (1, 2, 3):
        sk = keygen(p, Random(f"pin-{name}-{seed}"))
        evk = build_evalkey(sk, rng=Random(f"pin-evk-{name}-{seed}"))
        rng = Random(f"tables-{name}-{seed}")
        Ps = factor_matrices(evk)
        for got, P in zip(evk.packed[:2], Ps, strict=True):
            assert got == carry_table_from_P([row[:ell] for row in P], q, u)
            assert got.cols == ell
        wants = [carry_table_from_P(P, q, u) for P in Ps]
        for c in ([h] * ell, [-h] * ell,
                  *([rng.randint(-h, h) for _ in range(ell)] for _ in range(5))):
            assert list(_extended_products(evk, c)) == [
                _carry_product(c, want, q, u) for want in wants]


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_extended_carry_product_at_both_slot_bounds(name):
    """A key whose D1s entries are all q·2^u − 1, the largest the range
    check admits, and whose E entries are all q − 1 puts the largest
    entries into both packings of a carry product: the ell-column table's
    and the extension's by E.  With ±(q − 1)/2 in every entry of c, the
    extended carry product is still t·P for the gadget transform t."""
    p = CARRY_SETS[name]()
    q, u, n, ell, t = p.q, p.u, p.n, p.ell, p.t
    top = [[(q << u) - 1] * ell for _ in range(ell)]
    evk = EvalKey(params=p, D1s=top, D2s=top,
                  E=[[q - 1] * (t - ell) for _ in range(n)],
                  W=[[0] * ell for _ in range(t)])
    P, _ = factor_matrices(evk)
    h = (q - 1) // 2
    for c in ([h] * ell, [-h] * ell):
        assert _extended_products(evk, c)[0] == vec_mat(
            _powersoftwo_numerators(c, q, u), P)


# --- build_evalkey --------------------------------------------------------

def test_f1q_equals_f2_post_check(toy_sk, toy_evk):
    """Recompute the reduction relation independently of the builder, with
    B and Q staged as in the paper, and check the builder's one-solve W
    against balanced(B·Q·R mod q)."""
    p = toy_sk.params
    q = p.q
    g = generator(toy_sk)
    basis2 = _ideal_basis_2r(p, g)
    G = build_G(p, g)
    F1 = [[evaluate(b, z) % q for z in toy_sk.points] for b in basis2]
    F2 = [[evaluate(reduce_by_set(b, G, p.r), z) % q
           for z in toy_sk.points[:p.ell]] for b in basis2]
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


def test_evalkey_refuses_a_key_whose_S_does_not_annihilate_its_ideal(toy_sk):
    """C and D come from S, so a key with a wrong S, or with points that S
    was not solved for, encrypts and decrypts as before, but its ANDs
    decrypt wrong: build_evalkey refuses both, one S entry or one
    coordinate of z_1 off by one."""
    q = toy_sk.params.q
    S = [list(row) for row in toy_sk.S]
    S[0][0] = (S[0][0] + 1) % q
    z1, *rest = toy_sk.points
    moved = [((z1[0] + 1) % q, *z1[1:]), *rest]
    for sk in (replace(toy_sk, S=S), replace(toy_sk, points=moved)):
        with pytest.raises(ConstructionError,
                           match="^S does not annihilate the ideal at z_1..z_ell$"):
            build_evalkey(sk, rng=Random(1))


def test_evalkey_refuses_a_key_whose_first_points_repeat(toy_sk):
    """With z_2 = z_1 the ideal evaluations at z_1..z_n, E1, are singular:
    the solve against E1 that gives E and checks S raises
    ConstructionError, not the solver's SingularMatrixError."""
    z1, _, *rest = toy_sk.points
    sk = replace(toy_sk, points=[z1, z1, *rest])
    with pytest.raises(ConstructionError, match="at z_1..z_n are singular") as exc:
        build_evalkey(sk, rng=Random(1))
    assert exc.type is ConstructionError
    assert isinstance(exc.value.__cause__, SingularMatrixError)


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
    """Every linear system is one solve, and the one inverse formed is
    R1's: a build on a key whose D is not built yet makes one inverse_mod_q
    (R1^{-1}, D's top-left block), two solve_mod_q (one against E1 for E
    and the check of S, one against F1p for X), two mat_mul (the
    post-check and W), no rank_mod_q, one reduce_by_set per degree-(<= 2r)
    ideal basis element, and no mat_mul_exact: the first AND under a toy
    key makes the one, for the carry table both its products share, and a
    second AND makes none.  A keygen draw that passes its checks first time
    makes four rank_mod_q (conditions 1, 2 and 3, and R1), two solves (S,
    and the secret key's S_dec against R1), no inverse and no product.
    Encryption and decryption are one packed product each, by C and by
    S_dec: each packs its own matrix's rows on its first use under a key,
    so a key that only decrypts never packs C, and every product is read
    back with one unpack_slots."""
    fresh_sk = replace(toy_sk)  # D not built yet, whatever ran before
    calls = {}
    names = ("mat_mul", "inverse_mod_q", "solve_mod_q", "rank_mod_q",
             "mat_mul_exact", "reduce_by_set")
    for name in names:
        def counted(*args, _name=name, _fn=getattr(keys, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(keys, name, counted)
    evk = build_evalkey(fresh_sk, rng=Random(1))
    assert calls == {"inverse_mod_q": 1, "mat_mul": 2, "solve_mod_q": 2,
                     "reduce_by_set": fresh_sk.params.n1}
    calls.clear()
    packed, unpacked = [], []
    c = encrypt(fresh_sk, [1, 1], Random(2))
    she.eval_mult(evk, c, c)
    she.eval_mult(evk, c, c)
    assert calls == {"mat_mul_exact": 1}
    calls.clear()
    sk = keygen(fresh_sk.params, Random(3))
    assert calls == {"rank_mod_q": 4, "solve_mod_q": 2}

    def pack_counted(M, width, _fn=keys.pack_rows):
        packed.append(M)
        return _fn(M, width)

    def unpack_counted(total, width, cols, _fn=she.unpack_slots):
        unpacked.append((width, cols))
        return _fn(total, width, cols)
    monkeypatch.setattr(keys, "pack_rows", pack_counted)
    monkeypatch.setattr(she, "unpack_slots", unpack_counted)
    p = sk.params
    m = [1] * p.message_bits
    ct = encrypt(sk, m, Random(4))
    rows, width = sk.packed
    assert packed == [sk.C]
    assert len(rows) == p.ell
    assert unpacked == [(width, p.ell)]
    encrypt(sk, m, Random(5))
    assert decrypt(sk, ct) == m
    dec_rows, dec_width = sk.packed_S_dec
    assert packed == [sk.C, sk.S_dec]
    assert len(dec_rows) == p.ell and dec_width == width
    assert unpacked == [(width, p.ell)] * 2 + [(width, p.message_bits)]
    fresh = replace(sk)
    assert decrypt(fresh, ct) == m
    assert packed == [sk.C, sk.S_dec, sk.S_dec]
    assert "packed" not in vars(fresh)


def test_keygen_evaluates_g_once_per_point(monkeypatch):
    """keygen evaluates g once at each point it draws, and its ideal rows
    reuse that value: a bench16 keygen that passes first time evaluates g
    at its t points only, each value the oracle's evaluation of g there."""
    evaluated = []
    real = keys._generator_at

    def counted(g, monos, z, q):
        evaluated.append(z)
        return real(g, monos, z, q)

    monkeypatch.setattr(keys, "_generator_at", counted)
    p = preset_params("bench16")
    sk = keygen(p, Random(1))
    assert sorted(evaluated) == sorted(sk.points) and len(evaluated) == p.t
    g, monos = generator(sk), enumerate_monomials(p.v, p.r_g)
    assert [real(sk.g, monos, z, p.q) for z in sk.points] == [
        evaluate(g, z) % p.q for z in sk.points]


def test_ideal_evaluations_form_no_polynomial_products(toy_params, tmp_path,
                                                       monkeypatch):
    """keygen, save_secret_key and load_secret_key form no Polynomial at
    all.  build_evalkey evaluates no polynomial but g, from its
    coefficients, forms g as a Polynomial once for F2's division, and makes
    one reduce_by_set call per degree-(<= 2r) ideal basis element: it reads
    the remainders off a monomial table.  On a keygen key it evaluates
    nothing, for keygen's condition-3 matrix is its F1p; on a loaded key,
    which builds its own F1p, it evaluates g once per solve point."""
    made, evaluated, remainders = [], [], []
    real_init, real_at, real_reduce = (Polynomial.__init__, keys._generator_at,
                                       keys.reduce_by_set)

    def init(self, v, q, terms=None):
        made.append(terms)
        real_init(self, v, q, terms)

    def at(g, monos, z, q):
        evaluated.append(g)
        return real_at(g, monos, z, q)

    def reduce(*args):
        remainders.append(real_reduce(*args))
        return remainders[-1]

    monkeypatch.setattr(Polynomial, "__init__", init)
    monkeypatch.setattr(keys, "_generator_at", at)
    monkeypatch.setattr(keys, "reduce_by_set", reduce)
    p = toy_params
    sk = keygen(p, Random(3))
    path = str(tmp_path / "sk.bin")
    save_secret_key(sk, path)
    loaded = load_secret_key(path)
    assert made == []
    evaluated.clear()
    build_evalkey(sk, rng=Random(1))
    assert evaluated == []
    assert len(remainders) == p.n1
    g = dict(zip(enumerate_monomials(p.v, p.r_g), sk.g))
    assert made.count(g) == 1
    build_evalkey(loaded, rng=Random(1))
    assert len(evaluated) == p.n1 and all(f is loaded.g for f in evaluated)
    assert len(remainders) == 2 * p.n1


def test_f1p_is_keygens_matrix_and_no_part_of_the_key(toy_params, tmp_path):
    """keygen keeps its condition-3 matrix as the key's F1p, and a loaded
    copy of the key builds an equal one on first use, so build_evalkey
    gives equal keys from both under the same rng.  The cache is no
    field: ==, repr and the file bytes ignore it, and replace gives a key
    that builds its own."""
    sk = keygen(toy_params, Random(3))
    assert "F1p" in vars(sk)
    path = tmp_path / "sk.bin"
    save_secret_key(sk, str(path))
    loaded = load_secret_key(str(path))
    assert "F1p" not in vars(loaded)
    assert loaded == sk and repr(loaded) == repr(sk)
    assert build_evalkey(sk, rng=Random(1)) == build_evalkey(loaded, rng=Random(1))
    assert loaded.F1p == sk.F1p and loaded.F1p is not sk.F1p
    again = tmp_path / "again.bin"
    save_secret_key(loaded, str(again))
    assert again.read_bytes() == path.read_bytes()
    fresh = replace(sk)
    assert "F1p" not in vars(fresh)
    assert fresh.F1p == sk.F1p and fresh.F1p is not sk.F1p
    sk.F1p = [[0]]  # a stale cache still leaves the key what its fields say
    assert sk == loaded and repr(sk) == repr(loaded)


def test_evalkey_shapes_and_kmax(toy_sk, toy_evk):
    p = toy_sk.params
    width = p.u + p.q_bits
    P1, P2 = factor_matrices(toy_evk)
    assert toy_evk.input_dim == len(P1) == len(P2) == p.ell * width
    assert len(P1[0]) == p.t
    for Ds in (toy_evk.D1s, toy_evk.D2s):
        assert len(Ds) == p.ell and all(len(row) == p.ell for row in Ds)
        assert all(0 <= x < p.q << p.u for row in Ds for x in row)
    assert len(toy_evk.E) == p.n and all(len(row) == p.t - p.ell for row in toy_evk.E)
    assert all(0 <= x < p.q for row in toy_evk.E for x in row)
    assert len(toy_evk.W) == p.t and len(toy_evk.W[0]) == p.ell
    assert _carry_bound(p.ell, p.u, p.q_bits) == 2 * (Fraction(p.ell * width, 2) + 1)
    # balanced third factor
    assert all(abs(x) <= p.q // 2 for row in toy_evk.W for x in row)


def test_masking_zero_at_toy_scale(toy_sk):
    """At 40-bit q the dyadic masking budget floor(2^u B/(qn)) is zero, so
    two builds with different randomness agree except for nothing at all."""
    e1 = build_evalkey(toy_sk, rng=Random(1))
    e2 = build_evalkey(toy_sk, rng=Random(2))
    assert e1 == e2


def test_masking_nonzero_at_small_preset(small_sk):
    p = small_sk.params
    bound = Fraction((1 << p.u) * p.B, p.q * p.n)
    assert bound > 1  # the preset is sized to leave masking room
    e1 = build_evalkey(small_sk, rng=Random(3))
    e2 = build_evalkey(small_sk, rng=Random(4))
    assert e1.D1s != e2.D1s and e1.E == e2.E


def test_masking_column_norm_bound(small_sk):
    """The masking a built key carries, eps_i = D_is − D·2^u balanced mod
    q·2^u, lies on D's top-right n x (ell − n) block, is nonzero at the
    small preset, and keeps each column's one-norm over 2^u below B/q."""
    p = small_sk.params
    n, M = p.n, p.q << p.u
    evk = build_evalkey(small_sk, rng=Random(7))
    for Ds in (evk.D1s, evk.D2s):
        eps = [[balance(x - (d << p.u), M) for x, d in zip(row, d_row)]
               for row, d_row in zip(Ds, small_sk.D)]
        block = [row[n:] for row in eps[:n]]
        assert all(x == 0 for row in eps[:n] for x in row[:n])
        assert all(x == 0 for row in eps[n:] for x in row)
        assert any(any(row) for row in block)
        for col in zip(*block):
            assert Fraction(sum(map(abs, col)), 1 << p.u) < Fraction(p.B, p.q)


def test_tensor_composition_matches_factored_form():
    """M assembled by chained n-mode products U x1 P1 x2 P2 x3 W^T equals the
    factored entry formula, on a tiny set where the tensor is materializable."""
    tiny = Params(lambda_=8, L=1, v=1, r_g=1, r_prime=1, ell=3, q=97, sigma=1,
                  B=6, u=2)
    evk = build_evalkey(keygen(tiny, Random(8)), rng=Random(8))
    U = Tensor3.zeros(tiny.t, tiny.t, tiny.t)
    for s, c in enumerate(u_coeffs(evk)):
        U.set_entry(s, s, s, c)
    P1, P2 = factor_matrices(evk)
    M = n_mode_product(n_mode_product(n_mode_product(U, P1, 1), P2, 2),
                       transpose(evk.W), 3)
    assert M == evalkey_tensor(evk)
    assert M.dims == (evk.input_dim, evk.input_dim, tiny.ell)


def test_evalkey_denominators_divide_q_2_2u():
    """EvalKey tensor entries have denominators dividing q*2^(2u); checked
    on a tiny parameter set where the gadget tensor is materializable."""
    tiny = Params(lambda_=8, L=1, v=1, r_g=1, r_prime=1, ell=3, q=97, sigma=1,
                  B=6, u=2)
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
    G = build_G(p, generator(toy_sk))
    for _ in range(5):
        fs, cts = [], []
        for _ in range(2):
            f = ideal_element(toy_sk, [rng.randrange(q) for _ in range(p.n)])
            ev = [evaluate(f, z) % q for z in toy_sk.points[:p.ell]]
            vec = [sum(ev[i] * toy_sk.R[i][j] for i in range(p.ell)) % q
                   for j in range(p.ell)]
            fs.append(f)
            cts.append(vec)
        st = mult_intermediates(toy_sk, evk, cts[0], cts[1])
        f_mult = reduce_by_set(fs[0] * fs[1], G, p.r)
        want = [evaluate(f_mult, z) % q for z in toy_sk.points[:p.ell]]
        for j in range(p.ell):
            cj = st["reduced"][j]
            assert cj.denominator == 1  # exact integers in this mode
            assert (int(cj) - want[j]) % q == 0


def test_gadget_transforms_match_tensor_contraction():
    """eval_mult output equals floor(bilinear_eval(M, t1, t2)) mod q on a
    tiny shape whose 16-bit q admits an AND (literal form of the product
    rule)."""
    from mvphe import encrypt, eval_mult
    tiny = setup(8, 1, v=1, r_g=1, r_prime=1, ell=3, q_bits=16, sigma=1, B=6, u=2)
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
        assert eval_mult(evk, c1, c2).vec == direct
