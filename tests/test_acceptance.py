"""Delivery acceptance suite.

Eleven end-to-end properties, each with a fixed trial count and
tolerance.  These intentionally re-derive expected values independently of
the library internals they exercise (matrix recomputation, plain polynomial
pipeline, brute-force tensor sums) rather than trusting the code under test.
"""

import itertools
import math
import time
import warnings
from fractions import Fraction
from random import Random

import pytest

from mvphe import (
    PRESETS,
    Ciphertext,
    Polynomial,
    build_evalkey,
    decrypt,
    encrypt,
    eval_add,
    eval_homomorphic,
    eval_mult,
    eval_plain,
    keygen,
    mult_noise_hint,
    noise_of,
    pk_encrypt,
    pk_keygen,
    preset_params,
    reduce_by_set,
)
from mvphe.arith import balance
from mvphe.keys import _ideal_basis_2r, build_G
from mvphe.linalg import inverse_mod_q, mat_mul
from oracles import (
    Tensor3,
    bilinear_eval,
    bitdecomp,
    build_B,
    build_Q,
    n_mode_product,
    powersoftwo,
    random_circuit,
)


def _rand_message(rng, p):
    return [rng.randrange(2) for _ in range(p.message_bits)]


def test_c01_roundtrip_thousand_under_ten_seconds(toy_sk):
    p = toy_sk.params
    rng = Random("acc-1")
    t0 = time.perf_counter()
    for _ in range(1000):
        m = _rand_message(rng, p)
        assert decrypt(toy_sk, encrypt(toy_sk, m, rng)) == m
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"1000 roundtrips took {elapsed:.2f}s"


def test_c02_fresh_noise_never_exceeds_bound(toy_sk):
    p = toy_sk.params
    rng = Random("acc-2")
    for _ in range(1000):
        m = _rand_message(rng, p)
        e = noise_of(toy_sk, encrypt(toy_sk, m, rng), m)
        assert max(abs(x) for x in e) <= p.B


def test_c03_addition_is_xor_with_bounded_noise(toy_sk):
    p = toy_sk.params
    rng = Random("acc-3")
    for _ in range(1000):
        m1, m2 = _rand_message(rng, p), _rand_message(rng, p)
        cs = eval_add(encrypt(toy_sk, m1, rng), encrypt(toy_sk, m2, rng))
        xor = [a ^ b for a, b in zip(m1, m2)]
        assert decrypt(toy_sk, cs) == xor
        assert max(abs(x) for x in noise_of(toy_sk, cs, xor)) <= 1 + 2 * p.B


def test_c04_multiplication_truth_table_hundred_keys():
    """All four per-slot bit combinations on each of 100 independent keys,
    with measured product noise inside the tracked bound built from
    K_max = ell*(u + ceil(log2 q))/2 + 1 plus the ell rounding slack."""
    p = preset_params("toy")
    width = p.u + p.q_bits
    k_max_expected = Fraction(p.ell * width, 2) + 1
    rng = Random("acc-4")
    # the two message pairs below cover (0,0), (1,0), (0,1), (1,1) slot-wise
    pairs = [([0, 1], [0, 0]), ([0, 1], [1, 1])]
    for trial in range(100):
        sk = keygen(p, Random(f"acc-4-key-{trial}"))
        evk = build_evalkey(sk, rng=rng)
        assert evk.k_max == k_max_expected
        for m1, m2 in pairs:
            c1, c2 = encrypt(sk, m1, rng), encrypt(sk, m2, rng)
            b1 = max(abs(x) for x in noise_of(sk, c1, m1))
            b2 = max(abs(x) for x in noise_of(sk, c2, m2))
            prod = eval_mult(evk, c1, c2)
            want = [a & b for a, b in zip(m1, m2)]
            assert decrypt(sk, prod) == want
            measured = max(abs(x) for x in noise_of(sk, prod, want))
            assert measured <= mult_noise_hint(evk, b1, b2)


def test_c05_depth_three_chains():
    """q/B sized for L = 3 supports chains of three multiplications with
    additions interleaved at random positions, 100/100."""
    p = preset_params("depth3")
    assert p.L == 3
    assert Fraction(p.q, p.B) >= (p.n * p.q_bits) ** 3
    sk = keygen(p, Random("acc-5-key"))
    evk = build_evalkey(sk, rng=Random("acc-5-evk"))
    rng = Random("acc-5")
    for _ in range(100):
        acc_m = _rand_message(rng, p)
        acc = encrypt(sk, acc_m, rng)
        for _ in range(3):
            if rng.randrange(2):  # random interleaved addition
                m = _rand_message(rng, p)
                acc = eval_add(acc, encrypt(sk, m, rng))
                acc_m = [a ^ b for a, b in zip(acc_m, m)]
            m = _rand_message(rng, p)
            acc = eval_mult(evk, acc, encrypt(sk, m, rng))
            acc_m = [a & b for a, b in zip(acc_m, m)]
        assert acc.level == 3
        assert decrypt(sk, acc) == acc_m


def test_c06_evalkey_integrity_and_polynomial_pipeline():
    """Part 1: the reduction relation F1*Q = F2 (mod q) holds for every
    generated key, re-derived here from scratch with B and Q staged as in
    the paper, and the built key's W is balanced(B·Q·R mod q).  Part 2:
    with zero noise and zero masking, production multiplication output
    equals the direct polynomial pipeline — reduce the product by the
    top-degree set, evaluate at the first ell points, remix — exactly.
    (Masking is zero at the toy scale; test_masking_zero_at_toy_scale pins
    that.)"""
    rng = Random("acc-6")
    for trial in range(3):
        p = preset_params("toy")
        sk = keygen(p, Random(f"acc-6-key-{trial}"))
        q = p.q
        basis2 = _ideal_basis_2r(p, sk.g)
        G = build_G(sk)
        F1 = [[b.eval(z) % q for z in sk.points] for b in basis2]
        F2 = [[reduce_by_set(b, G, p.r).eval(z) % q for z in sk.points[:p.ell]]
              for b in basis2]
        sub = list(range(p.n)) + list(range(p.ell, p.t))
        F1p_inv = inverse_mod_q(
            [[F1[r][c] for c in sub] for r in range(p.n1)], q)
        Q = build_Q(sk, F1, F2, F1p_inv)
        assert mat_mul(F1, Q, q) == F2

        evk = build_evalkey(sk, rng=rng)
        BQR = mat_mul(mat_mul(build_B(sk, F1, F1p_inv), Q, q), sk.R, q)
        assert [[balance(x, q) for x in row] for row in BQR] == evk.W
        for _ in range(10):
            cts, polys = [], []
            for _ in range(2):
                f = Polynomial(p.v, q)
                for b in sk.basis:
                    f = f + b.scale(rng.randrange(q))
                ev = [f.eval(z) % q for z in sk.points[:p.ell]]
                vec = [sum(ev[i] * sk.R[i][j] for i in range(p.ell)) % q
                       for j in range(p.ell)]
                polys.append(f)
                cts.append(Ciphertext(vec=vec, level=0, q=q, noise_hint=0))
            got = eval_mult(evk, cts[0], cts[1])
            reduced = reduce_by_set(polys[0] * polys[1], G, p.r)
            ev = [reduced.eval(z) % q for z in sk.points[:p.ell]]
            want = [balance(sum(ev[i] * sk.R[i][j] for i in range(p.ell)), q)
                    for j in range(p.ell)]
            assert got.vec == want


def test_c07_gadget_pairing_identity():
    """<v, w> and <bitdecomp(v), powersoftwo(w)> agree modulo q — the
    difference is an exact integer multiple of q — on 1000 random pairs for
    each fractional precision u in {0, 4, 8}."""
    q = preset_params("toy").q
    for u in (0, 4, 8):
        rng = Random(f"acc-7-{u}")
        scale = 1 << u
        for _ in range(1000):
            k = rng.randrange(1, 9)
            v = [Fraction(rng.randrange(-(q * scale) // 2, (q * scale) // 2),
                          scale) for _ in range(k)]
            w = [rng.randrange(q) for _ in range(k)]
            direct = sum(a * b for a, b in zip(v, w))
            paired = sum(a * b for a, b in zip(bitdecomp(v, q, u),
                                               powersoftwo(w, q, u)))
            assert (Fraction(paired - direct) / q).denominator == 1


def test_c08_tensor_contraction_oracle():
    """bilinear_eval and n_mode_product against brute-force triple loops on
    random tensors up to 8x8x8, plus the diagonal slice pattern of the
    2-head/2-band shape (n = 2, ell = 4)."""
    rng = Random("acc-8")
    for _ in range(20):
        d1, d2, d3 = (rng.randrange(1, 9) for _ in range(3))
        T = Tensor3([[[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                       for _ in range(d2)] for _ in range(d1)]
                     for _ in range(d3)])
        v1 = [Fraction(rng.randrange(-9, 10)) for _ in range(d1)]
        v2 = [Fraction(rng.randrange(-9, 10)) for _ in range(d2)]
        got = bilinear_eval(T, v1, v2)
        want = [sum(v1[i] * v2[j] * T.entry(i, j, k)
                    for i in range(d1) for j in range(d2))
                for k in range(d3)]
        assert got == want
        rows = rng.randrange(1, 5)
        M = [[Fraction(rng.randrange(-3, 4)) for _ in range(d1)]
             for _ in range(rows)]
        got1 = n_mode_product(T, M, 1)
        for i in range(rows):
            for j in range(d2):
                for k in range(d3):
                    s = sum(M[i][a] * T.entry(a, j, k) for a in range(d1))
                    assert got1.entry(i, j, k) == s

    # diagonal rescaling tensor for two head slots and two band slots:
    # T(s,s,s) = 1 on the head, 2/q on the band, zero elsewhere
    q = 97
    n, ell = 2, 4
    U = Tensor3.zeros(ell, ell, ell)
    for s in range(ell):
        U.set_entry(s, s, s, Fraction(1) if s < n else Fraction(2, q))
    v1 = [Fraction(rng.randrange(1, 9)) for _ in range(ell)]
    v2 = [Fraction(rng.randrange(1, 9)) for _ in range(ell)]
    out = bilinear_eval(U, v1, v2)
    assert out[0] == v1[0] * v2[0]
    assert out[1] == v1[1] * v2[1]
    assert out[2] == Fraction(2, q) * v1[2] * v2[2]
    assert out[3] == Fraction(2, q) * v1[3] * v2[3]


def test_c09_public_key_encryption(toy_sk):
    p = toy_sk.params
    pk = pk_keygen(toy_sk, Random("acc-9-pk"))
    assert pk.d == math.ceil((1 + Fraction(1, 10)) * p.ell * p.q_bits)
    for row in pk.C0:
        assert decrypt(toy_sk, Ciphertext(vec=list(row), level=0, q=p.q)) \
            == [0] * p.message_bits
    rng = Random("acc-9")
    for _ in range(1000):
        m = _rand_message(rng, p)
        assert decrypt(toy_sk, pk_encrypt(pk, m, rng)) == m
    evk = build_evalkey(toy_sk, rng=Random("acc-9-evk"))
    for m1, m2 in itertools.product(([0, 0], [0, 1], [1, 0], [1, 1]), repeat=2):
        c1, c2 = pk_encrypt(pk, m1, rng), pk_encrypt(pk, m2, rng)
        assert decrypt(toy_sk, eval_add(c1, c2)) == [
            a ^ b for a, b in zip(m1, m2)]
        assert decrypt(toy_sk, eval_mult(evk, c1, c2)) == [
            a & b for a, b in zip(m1, m2)]


@pytest.mark.parametrize("preset", list(PRESETS))
def test_c10_random_circuits_match_plain_evaluation(preset, request):
    """100 random circuits within each preset's depth budget: every output
    decrypts to the plain evaluation, and its measured noise stays within
    its tracked hint.  decrypt warns exactly when the hint passes q/4.
    Each preset but toy gets its own seeded keys; small is the one with
    nonzero masking."""
    if preset == "toy":
        sk = request.getfixturevalue("toy_sk")
        evk = request.getfixturevalue("toy_evk")
        rng = Random("acc-10")
    else:
        sk = keygen(preset_params(preset), Random(f"acc-10-key-{preset}"))
        evk = build_evalkey(sk, rng=Random(f"acc-10-evk-{preset}"))
        rng = Random(f"acc-10-{preset}")
    p = sk.params
    for _ in range(100):
        circ = random_circuit(rng, n_inputs=rng.randrange(2, 5),
                              n_gates=rng.randrange(1, 65), L=p.L)
        assert circ.level_need <= p.L and len(circ.gates) <= 64
        plains = [_rand_message(rng, p) for _ in circ.inputs]
        cts = [encrypt(sk, m, rng) for m in plains]
        got = eval_homomorphic(evk, circ, cts)
        for ct, want in zip(got, eval_plain(circ, plains), strict=True):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert decrypt(sk, ct) == want
            warned = [w for w in caught if issubclass(w.category, RuntimeWarning)
                      and "exceeds q/4" in str(w.message)]
            assert len(warned) == len(caught) == (ct.noise_hint > Fraction(p.q, 4))
            assert max(abs(x) for x in noise_of(sk, ct, want)) <= ct.noise_hint


def test_c11_benchmark_trend(capsys):
    """Report-style: per-multiplication time grows with the ciphertext
    dimension across the ell = 8, 12, 16 presets.  No absolute threshold —
    only the ordering between the smallest and largest size is asserted."""
    from mvphe.cli import main
    assert main(["bench", "--mults", "3", "--seed", "17"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "n,ell,log2_q,seconds_per_mult"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == [8, 12, 16]
    times = [float(r[3]) for r in rows]
    assert all(t > 0 for t in times)
    assert times[2] > times[0], f"expected growth, got {times}"
    with capsys.disabled():
        print("\n[bench] " + "; ".join(
            f"ell={r[1]}: {float(r[3])*1e3:.2f} ms/mult" for r in rows))
