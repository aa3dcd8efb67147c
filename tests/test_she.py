"""Encryption, decryption, noise accounting, and homomorphic operations."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction
from operator import mul
from random import Random

import pytest

from mvphe import (
    Ciphertext,
    build_evalkey,
    decrypt,
    encrypt,
    eval_add,
    eval_mult,
    keygen,
    mult_noise_hint,
    noise_of,
    pk_encrypt,
    pk_keygen,
    preset_params,
    setup,
)
from mvphe.arith import balance
from mvphe.errors import DepthError, ParameterError
from mvphe.keys import PRESETS, _carry_product, _reaches_limit
from mvphe.linalg import mat_mul, unpack_slots
from mvphe import she as she_mod
from mvphe.serialize import save_ciphertext
from mvphe.she import _contract, _product
from oracles import (
    CARRY_SETS,
    contract_reference,
    encrypt_reference,
    mult_intermediates,
    product_hint_reference,
    round_nearest,
    vec_mat,
)


class _ZeroRandom(Random):
    """Stub RNG whose draws always pick 0 (forces empty choices)."""

    def randrange(self, *args):
        return 0

    def getrandbits(self, k):
        return 0


class _OneRandom(Random):
    """Stub RNG whose draws always pick 1 (selects every row)."""

    def randrange(self, *args):
        return 1

    def getrandbits(self, k):
        return 1


@pytest.fixture(scope="module")
def depth3_sk():
    return keygen(preset_params("depth3"), Random("she-depth3"))


@pytest.fixture(scope="module")
def depth3_evk(depth3_sk):
    return build_evalkey(depth3_sk, rng=Random("she-depth3-evk"))


# --- encrypt / decrypt ------------------------------------------------------

def test_fresh_roundtrip(toy_sk):
    rng = Random(101)
    for _ in range(100):
        m = [rng.randrange(2) for _ in range(toy_sk.params.message_bits)]
        ct = encrypt(toy_sk, m, rng)
        assert decrypt(toy_sk, ct) == m
        assert ct.noise_hint == toy_sk.params.B
        assert len(ct.vec) == toy_sk.params.ell


def test_fresh_roundtrip_other_presets(small_sk, depth3_sk):
    for sk in (small_sk, depth3_sk):
        rng = Random(102)
        for _ in range(25):
            m = [rng.randrange(2) for _ in range(sk.params.message_bits)]
            assert decrypt(sk, encrypt(sk, m, rng)) == m


def test_zero_noise_is_exact(toy_sk):
    rng = Random(103)
    mb = toy_sk.params.message_bits
    for _ in range(20):
        m = [rng.randrange(2) for _ in range(mb)]
        ct = encrypt(toy_sk, m, rng, zero_noise=True)
        assert ct.noise_hint == 0
        assert noise_of(toy_sk, ct, m) == [0] * mb
        assert decrypt(toy_sk, ct) == m


def test_sigma_zero_key_end_to_end():
    """A ``setup(sigma=0)`` key: its sampler draws nothing, so fresh
    ciphertexts have no noise, yet carry the hint B = 48 that ``setup``
    gives sigma = 0, and decrypt exactly; one AND's measured noise stays
    within its hint."""
    p = setup(sigma=0)
    assert p.B == 48
    sk = keygen(p, Random("sigma0"))
    evk = build_evalkey(sk, rng=Random("sigma0-evk"))
    fresh = []
    for seed in range(20):
        rng = Random(seed)
        m = [rng.randrange(2) for _ in range(p.message_bits)]
        ct = encrypt(sk, m, rng)
        assert ct.noise_hint == 48
        assert noise_of(sk, ct, m) == [0] * p.message_bits
        assert decrypt(sk, ct) == m
        fresh.append((ct, m))
    (c1, m1), (c2, m2) = fresh[:2]
    want = [a & b for a, b in zip(m1, m2)]
    prod = eval_mult(evk, c1, c2)
    assert decrypt(sk, prod) == want
    assert max(map(abs, noise_of(sk, prod, want))) <= prod.noise_hint


def test_zero_message_zero_randomness_is_zero_vector(toy_sk):
    ct = encrypt(toy_sk, [0, 0], _ZeroRandom(), zero_noise=True)
    assert ct.vec == [0] * toy_sk.params.ell


@pytest.mark.parametrize("name", [*sorted(PRESETS), "tiny-q97"])
def test_encrypt_matches_two_product_reference(name):
    """encrypt's one product by C = T^{-1}·R equals the two-product form
    (y·S_enc + [0 | band])·R under the same draws: y, then the noise."""
    p = CARRY_SETS[name]()
    sk = keygen(p, Random(f"enc-ref-{name}"))
    rng = Random(f"enc-ref-msgs-{name}")
    for i in range(5):
        m = [rng.randrange(2) for _ in range(p.message_bits)]
        ct = encrypt(sk, m, Random(f"enc-ref-{name}-{i}"))
        assert ct.vec == encrypt_reference(sk, m, Random(f"enc-ref-{name}-{i}"))


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_encrypt_packed_product_at_its_slot_bound(name):
    """encrypt's product by C's packed rows equals vec_mat(v, C) when every
    |v_i| is q − 1, the largest an encryption's vector (y in [0, q), band
    below q/2 + B) can hold, with all signs equal and mixed: the slots the
    width must hold."""
    p = CARRY_SETS[name]()
    sk = keygen(p, Random(f"enc-slots-{name}"))
    rows, width = sk.packed
    rng = Random(f"enc-slots-signs-{name}")
    top = p.q - 1
    signs = [[1] * p.ell, [-1] * p.ell,
             *([rng.choice((-1, 1)) for _ in range(p.ell)] for _ in range(8))]
    for sign in signs:
        v = [s * top for s in sign]
        assert unpack_slots(sum(map(mul, v, rows)), width, p.ell) == vec_mat(v, sk.C)


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_decrypt_packed_product_at_its_slot_bound(name):
    """decrypt's product by S_dec's packed rows, at the width of C's, equals
    vec_mat(c, S_dec) when every |c_i| is floor(q/2), the largest entry a
    balanced ciphertext holds, with all signs equal and mixed; and decrypt
    and noise_of read w = c·S_dec off it."""
    p = CARRY_SETS[name]()
    sk = keygen(p, Random(f"dec-slots-{name}"))
    rows, width = sk.packed_S_dec
    rng = Random(f"dec-slots-signs-{name}")
    half, mb = p.q // 2, p.message_bits
    signs = [[1] * p.ell, [-1] * p.ell,
             *([rng.choice((-1, 1)) for _ in range(p.ell)] for _ in range(8))]
    for sign in signs:
        c = [s * half for s in sign]
        w = vec_mat(c, sk.S_dec)
        assert unpack_slots(sum(map(mul, c, rows)), width, mb) == w
        ct = Ciphertext(vec=c, q=p.q, noise_hint=0)
        assert noise_of(sk, ct, [0] * mb) == [balance(x, p.q) for x in w]


def test_decryption_matrix_identity(toy_sk):
    """R·S_dec == [S | I]^T mod q — mixing then unmixing reads the band."""
    p = toy_sk.params
    k = p.ell - p.n
    SI_t = [[0] * k for _ in range(p.ell)]
    for j in range(k):
        for i in range(p.n):
            SI_t[i][j] = toy_sk.S[j][i] % p.q
        SI_t[p.n + j][j] = 1
    assert mat_mul(toy_sk.R, toy_sk.S_dec, p.q) == SI_t


def test_fresh_noise_within_bound(toy_sk):
    p = toy_sk.params
    rng = Random(104)
    for _ in range(200):
        m = [rng.randrange(2) for _ in range(p.message_bits)]
        ct = encrypt(toy_sk, m, rng)
        assert ct.noise_hint == p.B
        assert max(abs(x) for x in noise_of(toy_sk, ct, m)) <= p.B


def test_message_validation(toy_sk):
    rng = Random(105)
    with pytest.raises(ParameterError):
        encrypt(toy_sk, [0], rng)  # too short
    with pytest.raises(ParameterError):
        encrypt(toy_sk, [0, 1, 0], rng)  # too long
    with pytest.raises(ParameterError):
        encrypt(toy_sk, [0, 2], rng)  # not a bit


# messages whose entries equal bits but are no ints; a bool is an int
NOT_INT_BITS = ([1.0, 0], [0, Fraction(1)])


def test_encrypt_refuses_bits_that_are_not_ints(toy_sk):
    for m in NOT_INT_BITS:
        with pytest.raises(ParameterError, match="ints 0 or 1"):
            encrypt(toy_sk, m, Random(105))
    assert decrypt(toy_sk, encrypt(toy_sk, [True, False], Random(105))) == [1, 0]


def test_noise_of_refuses_bits_that_are_not_ints(toy_sk):
    ct = encrypt(toy_sk, [1, 0], Random(105))
    for m in NOT_INT_BITS:
        with pytest.raises(ParameterError, match="ints 0 or 1"):
            noise_of(toy_sk, ct, m)
    assert noise_of(toy_sk, ct, [True, False]) == noise_of(toy_sk, ct, [1, 0])


@pytest.mark.parametrize("key", ["toy_sk", "small_sk"])
def test_decrypt_rounding_matches_rational_rounding(key, request):
    """decrypt rounds w = c·S_dec as (2w + half) // (2·half), half =
    floor(q/2), which must equal round_nearest(Fraction(w, half)) on random
    w of the balanced range and on every tie w = (2k + 1)·half/2 in it,
    which are ±half/2 (both keys have an even half).  Each w is put on the
    band of the ciphertext (0 ‖ band)·C, whose S_dec product is exactly the
    band."""
    sk = request.getfixturevalue(key)
    p = sk.params
    q, half, mb = p.q, p.q // 2, p.message_bits
    assert half % 2 == 0
    rng = Random(f"rounding-{key}")
    ws = [-half // 2, half // 2, -half, half, 0, 1, -1] + [rng.randint(-half, half) for _ in range(300)]
    ws += [0] * (-len(ws) % mb)
    for i in range(0, len(ws), mb):
        band = ws[i:i + mb]
        ct = Ciphertext(vec=vec_mat([0] * p.n + band, sk.C), q=q,
                        noise_hint=0)
        assert noise_of(sk, ct, [0] * mb) == band
        assert decrypt(sk, ct) == [round_nearest(Fraction(w, half)) % 2 for w in band]


def test_decrypt_rejects_foreign_modulus(toy_sk, small_sk):
    ct = encrypt(small_sk, [0] * small_sk.params.message_bits, Random(106))
    with pytest.raises(ParameterError):
        decrypt(toy_sk, ct)


def test_ciphertext_vec_balanced_and_hint_ignored_by_eq(toy_sk):
    q = toy_sk.params.q
    ct = Ciphertext(vec=[q - 1] * toy_sk.params.ell, q=q, noise_hint=0)
    assert ct.vec == [-1] * toy_sk.params.ell
    other = Ciphertext(vec=[-1] * toy_sk.params.ell, q=q,
                       noise_hint=123)
    assert ct == other


def test_ciphertext_requires_a_hint(toy_sk):
    p = toy_sk.params
    with pytest.raises(TypeError, match="noise_hint"):
        Ciphertext([0] * p.ell, p.q)


def test_ciphertext_hint_is_a_nonnegative_int(toy_sk):
    p = toy_sk.params
    for bad in (-1, Fraction(1, 2), Fraction(3), 2.0, "48", True, False):
        with pytest.raises(ParameterError, match="noise hint must be a nonnegative int"):
            Ciphertext([0] * p.ell, p.q, bad)
    assert Ciphertext([0] * p.ell, p.q, 10**400).noise_hint == 10**400


# --- decryption threshold --------------------------------------------------

def test_decrypt_noise_threshold_is_exact(toy_sk):
    """The smallest band perturbation that flips a bit is ceil(half/2),
    where half = floor(q/2); one less never flips.  Band slot j of
    (y ‖ band) is ciphertext coordinate n+j because the encryption matrix
    C is [0 | I] on the band rows.  With the noise as its hint, decrypt
    warns exactly at the flipping noise, also on toy, where q ≡ 1 (mod 4)
    puts T = floor(q/2)/2 below q/4: T is the least hint that reaches the
    limit."""
    p = toy_sk.params
    half = p.q // 2
    T = (half + 1) // 2
    assert p.q % 4 == 1 and 2 * T == half and 4 * T < p.q
    assert _reaches_limit(T, p.q) and not _reaches_limit(T - 1, p.q)
    base = encrypt(toy_sk, [0, 0], Random(107), zero_noise=True)
    for j in range(p.message_bits):
        for delta, want in ((T, 1), (T - 1, 0), (-(T - 1), 0)):
            vec = list(base.vec)
            vec[p.n + j] += delta
            ct = Ciphertext(vec=vec, q=p.q, noise_hint=abs(delta))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = decrypt(toy_sk, ct)
            assert len(caught) == (delta == T)
            assert got[j] == want
            assert got[1 - j] == 0  # other slot untouched


def test_decrypt_warns_past_quarter_q(toy_sk):
    p = toy_sk.params
    ct = encrypt(toy_sk, [1, 0], Random(108))
    noisy = Ciphertext(vec=ct.vec, q=p.q, noise_hint=p.q // 4 + 1)
    with pytest.warns(RuntimeWarning):
        decrypt(toy_sk, noisy)
    quiet = Ciphertext(vec=ct.vec, q=p.q, noise_hint=p.B)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decrypt(toy_sk, quiet) == [1, 0]
    # a hint past the float range is shown as a power of two
    huge = Ciphertext(vec=ct.vec, q=p.q, noise_hint=10**400)
    with pytest.warns(RuntimeWarning, match=r"noise hint 2\^1329 reaches"):
        assert decrypt(toy_sk, huge) == [1, 0]


# --- addition -------------------------------------------------------------

def test_add_is_xor(toy_sk):
    p = toy_sk.params
    rng = Random(109)
    for _ in range(100):
        m1 = [rng.randrange(2) for _ in range(p.message_bits)]
        m2 = [rng.randrange(2) for _ in range(p.message_bits)]
        c1 = encrypt(toy_sk, m1, rng)
        c2 = encrypt(toy_sk, m2, rng)
        cs = eval_add(c1, c2)
        xor = [a ^ b for a, b in zip(m1, m2)]
        assert decrypt(toy_sk, cs) == xor
        assert cs.noise_hint == 2 * p.B + 1
        assert max(abs(x) for x in noise_of(toy_sk, cs, xor)) <= 2 * p.B + 1


def test_add_residual_is_minus_carry(toy_sk):
    """With zero input noise the XOR residual is exactly -(m1 AND m2):
    half*(m1+m2) = half*(m1 xor m2) + (q-1)*(m1 and m2), and q-1 = -1."""
    rng = Random(110)
    for m1, m2 in [([0, 0], [0, 0]), ([1, 0], [1, 1]), ([1, 1], [1, 1]),
                   ([0, 1], [1, 1])]:
        c1 = encrypt(toy_sk, m1, rng, zero_noise=True)
        c2 = encrypt(toy_sk, m2, rng, zero_noise=True)
        xor = [a ^ b for a, b in zip(m1, m2)]
        got = noise_of(toy_sk, eval_add(c1, c2), xor)
        assert got == [-(a & b) for a, b in zip(m1, m2)]


def test_add_refuses_nothing(toy_sk, toy_evk):
    """A sum's hint is h1 + h2 + 1, also past the decryption limit: eval_add
    refuses nothing, and decrypt warns instead."""
    p = toy_sk.params
    rng = Random(111)
    c0 = encrypt(toy_sk, [1, 0], rng)
    c1 = eval_mult(toy_evk, c0, encrypt(toy_sk, [1, 1], rng))
    assert eval_add(c0, c1).noise_hint == p.B + c1.noise_hint + 1
    worn = replace(c1, noise_hint=p.q // 4)
    total = eval_add(worn, c0)
    assert total.noise_hint == p.q // 4 + p.B + 1
    with pytest.warns(RuntimeWarning, match="reaches floor"):
        assert decrypt(toy_sk, total) == [0, 0]


def test_add_rejects_mismatched(toy_sk, small_sk):
    c1 = encrypt(toy_sk, [0, 0], Random(112))
    c2 = encrypt(small_sk, [0] * small_sk.params.message_bits, Random(113))
    with pytest.raises(ParameterError):
        eval_add(c1, c2)


# --- multiplication --------------------------------------------------------

def test_mult_truth_table(toy_sk, toy_evk):
    rng = Random(114)
    for a in (0, 1):
        for b in (0, 1):
            c1 = encrypt(toy_sk, [a, a], rng)
            c2 = encrypt(toy_sk, [b, b], rng)
            prod = eval_mult(toy_evk, c1, c2)
            assert decrypt(toy_sk, prod) == [a & b, a & b]
            assert prod.noise_hint == mult_noise_hint(toy_evk, *[toy_sk.params.B] * 2)
            assert len(prod.vec) == toy_sk.params.ell


def test_mult_mixed_slots(toy_sk, toy_evk):
    rng = Random(115)
    for m1, m2, want in [([0, 1], [1, 1], [0, 1]),
                         ([0, 1], [0, 0], [0, 0]),
                         ([1, 0], [1, 1], [1, 0])]:
        c = eval_mult(toy_evk, encrypt(toy_sk, m1, rng),
                      encrypt(toy_sk, m2, rng))
        assert decrypt(toy_sk, c) == want


def test_mult_by_all_ones_preserves_message(toy_sk, toy_evk):
    rng = Random(116)
    for _ in range(10):
        m = [rng.randrange(2) for _ in range(2)]
        c = encrypt(toy_sk, m, rng)
        one = encrypt(toy_sk, [1, 1], rng)
        assert decrypt(toy_sk, eval_mult(toy_evk, c, one)) == m


def test_mult_depth_accounting(toy_sk, toy_evk):
    """Depth is counted by hints: a product's hint depends on the larger
    input hint only, so on toy the square of a product and a chain of three
    ANDs are admitted, and the fourth AND of a chain is refused."""
    rng = Random(117)
    c = encrypt(toy_sk, [1, 1], rng)
    lvl1 = eval_mult(toy_evk, c, c)
    lvl2 = eval_mult(toy_evk, lvl1, encrypt(toy_sk, [1, 1], rng))
    square = eval_mult(toy_evk, lvl1, lvl1)
    assert square.noise_hint == lvl2.noise_hint
    lvl3 = eval_mult(toy_evk, lvl2, c)
    assert decrypt(toy_sk, square) == decrypt(toy_sk, lvl3) == [1, 1]
    with pytest.raises(DepthError, match="AND refused"):
        eval_mult(toy_evk, lvl3, c)
    with pytest.raises(DepthError, match="AND refused"):
        eval_mult(toy_evk, c, lvl3)


#: The deepest AND chain each preset admits from fresh encryptions.
DEEPEST_CHAIN = {"toy": 3, "small": 1, "depth3": 3, "bench12": 2, "bench16": 2}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_deepest_admitted_chain(name):
    """Each preset admits an AND chain exactly as deep as DEEPEST_CHAIN, each
    product decrypting correctly with measured noise within its hint; one
    more AND raises DepthError."""
    p = preset_params(name)
    rng = Random(f"chain-{name}")
    sk = keygen(p, rng)
    evk = build_evalkey(sk, rng=rng)
    plain = [rng.randrange(2) for _ in range(p.message_bits)]
    acc = encrypt(sk, plain, rng)
    for _ in range(DEEPEST_CHAIN[name]):
        m = [rng.randrange(2) for _ in range(p.message_bits)]
        acc = eval_mult(evk, acc, encrypt(sk, m, rng))
        plain = [a & b for a, b in zip(plain, m)]
        assert decrypt(sk, acc) == plain
        assert max(map(abs, noise_of(sk, acc, plain))) <= acc.noise_hint
    with pytest.raises(DepthError, match="AND refused"):
        eval_mult(evk, acc, encrypt(sk, plain, rng))


def test_eval_mult_refuses_every_product_at_q97():
    """On the q = 97 set even a product of noiseless ciphertexts has hint 33,
    past floor(97/2)/2 = 24, so eval_mult refuses every AND."""
    p = CARRY_SETS["tiny-q97"]()
    sk = keygen(p, Random("q97"))
    evk = build_evalkey(sk, rng=Random("q97-evk"))
    c = encrypt(sk, [1], Random("q97-ct"), zero_noise=True)
    assert mult_noise_hint(evk, 0, 0) == 33 and _reaches_limit(33, p.q)
    with pytest.raises(DepthError, match="noise hint 33 reaches"):
        eval_mult(evk, c, c)


def _extreme_ciphertexts(sk):
    """Two seeded encryptions, then all-(q−1)/2, all-−(q−1)/2 and all-zero."""
    p = sk.params
    rng = Random(f"extreme-{p.q}")
    cts = [encrypt(sk, [rng.randrange(2) for _ in range(p.message_bits)], rng)
           for _ in range(2)]
    for x in ((p.q - 1) // 2, -(p.q - 1) // 2, 0):
        cts.append(Ciphertext(vec=[x] * p.ell, q=p.q, noise_hint=0))
    return cts


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_mult_matches_exact_oracle(preset):
    """eval_mult equals the exact-rational pipeline of mult_intermediates,
    on seeded ciphertexts and on the extreme and zero vectors."""
    p = preset_params(preset)
    sk = keygen(p, Random(f"oracle-{preset}"))
    evk = build_evalkey(sk, rng=Random(f"oracle-evk-{preset}"))
    cts = _extreme_ciphertexts(sk)
    pairs = list(zip(cts, cts[1:] + cts[:1])) + [(c, c) for c in cts[2:]]
    for c1, c2 in pairs:
        want = mult_intermediates(sk, evk, c1.vec, c2.vec)["product"]
        assert eval_mult(evk, c1, c2).vec == want


def test_mult_packed_form_follows_the_key(toy_sk):
    """The carry tables and W's packed rows are built once per key object:
    a repeat call reuses them and gives the same product, a replaced key
    builds its own, and equality and repr ignore them."""
    evk = build_evalkey(toy_sk, rng=Random(119))
    c1, c2, *_ = _extreme_ciphertexts(toy_sk)
    first = eval_mult(evk, c1, c2)
    tables, packed_W = evk.packed, evk.packed_W
    assert eval_mult(evk, c1, c2) == first
    assert evk.packed is tables and evk.packed_W is packed_W
    swapped = replace(evk, D1s=evk.D2s, D2s=evk.D1s)
    got = eval_mult(swapped, c1, c2)
    assert swapped.packed is not tables
    assert swapped.packed[0] == tables[1] and swapped.packed[1] == tables[0]
    assert got.vec == mult_intermediates(toy_sk, swapped, c1.vec, c2.vec)["product"]
    assert swapped == replace(evk, D1s=evk.D2s, D2s=evk.D1s)  # the cache is not compared
    assert "packed" not in repr(evk)
    # a new W gets its own packed rows, and the product follows it
    negated = replace(evk, W=[[-w for w in row] for row in evk.W])
    p = evk.params
    x = _carry_product(c1.vec, tables[0], p.q, p.u)
    y = _carry_product(c2.vec, tables[1], p.q, p.u)
    got = [balance(a, p.q) for a in _contract(negated, x, y)]
    assert "packed_W" in vars(negated) and negated.packed_W is not packed_W
    assert negated.packed_W[0] != packed_W[0]
    assert got == [balance(a, p.q) for a in contract_reference(negated, x, y)]
    assert got != first.vec
    # an unbalanced W would overflow the packed slots, so it is refused
    for w in (p.q // 2 + 1, -(p.q // 2) - 1):
        bad = replace(evk, W=[row[:-1] + [w] for row in evk.W])
        with pytest.raises(ParameterError, match="^W has an entry outside "):
            eval_mult(bad, c1, c2)


def _count_carry_products(monkeypatch) -> list:
    """Record (table, vector) for every carry product she computes."""
    calls = []
    real = she_mod._carry_product

    def counted(vec, table, q, u):
        calls.append((id(table), tuple(vec)))
        return real(vec, table, q, u)
    monkeypatch.setattr(she_mod, "_carry_product", counted)
    return calls


def test_mult_memo_reuses_each_carry_product(toy_sk, monkeypatch):
    """ANDs that share a memo compute each vector's carry product once: an
    equal vector in a new Ciphertext hits, a vector one entry off misses,
    and on toy, whose one carry table serves both sides, a ciphertext on
    the left of one AND and on the right of another costs one carry
    product.  Every product still equals the oracle's."""
    evk = build_evalkey(toy_sk, rng=Random(160))
    calls = _count_carry_products(monkeypatch)
    c1, c2, c3 = (encrypt(toy_sk, [1, 1], Random(seed)) for seed in (161, 162, 163))
    carries = {}

    def mult(a, b):
        got = eval_mult(evk, a, b, carries)
        assert got.vec == mult_intermediates(toy_sk, evk, a.vec, b.vec)["product"]
        return got

    first = mult(c1, c2)
    assert len(calls) == 2
    copies = [Ciphertext(vec=list(c.vec), q=c.q, noise_hint=c.noise_hint)
              for c in (c1, c2)]
    assert mult(*copies) == first
    assert len(calls) == 2
    off = Ciphertext(vec=[c1.vec[0] + 1] + c1.vec[1:], q=c1.q, noise_hint=0)
    mult(off, c2)
    assert calls[2:] == [(id(evk.packed[0]), tuple(off.vec))]
    mult(c3, c1)
    mult(c2, c3)
    assert [vec for _, vec in calls].count(tuple(c3.vec)) == 1
    assert len(calls) == len(set(calls)) == 4
    assert len(carries) == 4


def test_mult_memo_keeps_the_sides_apart_on_small(small_sk, monkeypatch):
    """small's masking blocks give P1 and P2 two carry tables, so a vector
    on the left and the same vector on the right are two carry products,
    each computed once, and the products equal the oracle's."""
    evk = build_evalkey(small_sk, rng=Random(164))
    T1, T2 = evk.packed
    assert T1 is not T2
    calls = _count_carry_products(monkeypatch)
    mb = small_sk.params.message_bits
    c1, c2 = (encrypt(small_sk, [1] * mb, Random(seed)) for seed in (165, 166))
    carries = {}
    for a, b in ((c1, c2), (c2, c1), (c1, c1), (c1, c2)):
        got = eval_mult(evk, a, b, carries).vec
        assert got == mult_intermediates(small_sk, evk, a.vec, b.vec)["product"]
    assert sorted(calls) == sorted((id(T), tuple(c.vec)) for T in (T1, T2)
                                   for c in (c1, c2))
    assert len(carries) == 4


def test_mult_without_a_memo_reuses_nothing_across_calls(toy_sk, monkeypatch):
    """eval_mult given no memo computes both carry products on every call,
    however often the same pair comes back, and leaves nothing on the key:
    what ``mvphe bench`` times is a whole AND each time.  Only a square
    reuses, within its own call, on toy's one table."""
    evk = build_evalkey(toy_sk, rng=Random(169))
    c1, c2 = (encrypt(toy_sk, [0, 1], Random(seed)) for seed in (170, 171))
    fields = dict(vars(evk))
    calls = _count_carry_products(monkeypatch)
    first = eval_mult(evk, c1, c2)
    for _ in range(3):
        assert eval_mult(evk, c1, c2) == first
    assert len(calls) == 8
    calls.clear()
    eval_mult(evk, c1, c1)
    assert len(calls) == 1
    assert set(vars(evk)) == set(fields) | {"packed", "packed_W"}


def test_mult_refuses_factor_blocks_out_of_range(toy_sk, toy_evk):
    """The carry tables' slot width holds t·P_i only for D1s and D2s in
    0..q·2^u − 1 and E in 0..q − 1, the ranges build_evalkey makes: so the
    first AND under a key with an entry outside refuses it by name.  Left
    unchecked, an E entry shifted by q·2^20 or a D2s entry of −1 gives a
    wrong product here, a negative E entry fails inside pack_rows, and a
    D1s entry shifted by q·2^(u + 14) is silently reduced away."""
    p = toy_evk.params
    q, top = p.q, (p.q << p.u) - 1
    c1, c2, *_ = _extreme_ciphertexts(toy_sk)

    def bumped(m, by):
        return [[m[0][0] + by] + m[0][1:]] + m[1:]
    cases = [("E", q << 20, f"E has an entry outside 0..{q - 1}"),
             ("E", -q, f"E has an entry outside 0..{q - 1}"),
             ("D1s", q << (p.u + 14), f"D1s has an entry outside 0..{top}"),
             ("D2s", -1 - toy_evk.D2s[0][0], f"D2s has an entry outside 0..{top}")]
    for name, by, message in cases:
        bad = replace(toy_evk, **{name: bumped(getattr(toy_evk, name), by)})
        with pytest.raises(ParameterError, match=f"^{message}$"):
            eval_mult(bad, c1, c2)


def test_one_carry_table_when_the_factors_match(toy_evk, small_sk):
    """With no masking (toy) D1s == D2s, and both products run on one carry
    table; small's masking blocks make D1s != D2s, so it builds two."""
    assert toy_evk.D1s == toy_evk.D2s
    assert toy_evk.packed[0] is toy_evk.packed[1]
    small_evk = build_evalkey(small_sk, rng=Random(159))
    assert small_evk.D1s != small_evk.D2s
    T1, T2 = small_evk.packed
    assert T1 is not T2 and T1 != T2


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_mult_matches_oracle_on_random_vectors(name):
    """eval_mult's arithmetic (``she._product``, without the hint rule that
    refuses every product on the q = 97 set) equals the exact-rational
    pipeline on random balanced vectors that are no encryptions, and on
    ±(q−1)/2, 0 and ±1 entries."""
    p = CARRY_SETS[name]()
    sk = keygen(p, Random(f"carry-{name}"))
    evk = build_evalkey(sk, rng=Random(f"carry-evk-{name}"))
    h = (p.q - 1) // 2
    rng = Random(f"carry-vec-{name}")
    vecs = [[rng.choice((h, -h, 0, 1, -1, rng.randint(-h, h))) for _ in range(p.ell)]
            for _ in range(3)]
    vecs += [[rng.randint(-h, h) for _ in range(p.ell)] for _ in range(3)]
    for v1, v2 in zip(vecs, vecs[1:] + vecs[:1]):
        want = mult_intermediates(sk, evk, v1, v2)["product"]
        assert [balance(x, p.q) for x in _product(evk, v1, v2)] == want


@pytest.mark.parametrize("name", ["tiny-q97", *sorted(PRESETS)])
def test_contraction_matches_reference(name):
    """she._contract, on W's packed rows with each z_s reduced mod
    q²·2^(2u), equals the entrywise contraction of the unreduced z
    (``oracles.contract_reference``) mod q: on x and y at their bound
    ±input_dim·(q·2^u)/2·n(q − 1), with alternating signs, zero and
    random; and with every z_s at its largest residue against a W of all
    floor(q/2) and of all −floor(q/2), the largest and the most negative
    sums the slot width must hold."""
    p = CARRY_SETS[name]()
    q, t = p.q, p.t
    sk = keygen(p, Random(f"contract-{name}"))
    evk = build_evalkey(sk, rng=Random(f"contract-evk-{name}"))
    bound = evk.input_dim * ((q << p.u) // 2) * p.n * (q - 1)
    rng = Random(f"contract-vec-{name}")
    vecs = [[bound] * t, [-bound] * t, [(-1) ** s * bound for s in range(t)],
            [0] * t, *([rng.randint(-bound, bound) for _ in range(t)] for _ in range(3))]

    def agree(key, x, y):
        got = [a % q for a in _contract(key, x, y)]
        assert got == [a % q for a in contract_reference(key, x, y)]

    for x in vecs:
        for y in vecs:
            agree(evk, x, y)
    # z_s = M2 − f_s, f_s = 2 on the message band and q elsewhere
    M2 = q * q << (2 * p.u)
    y = [M2 // (2 if p.n <= s < p.ell else q) - 1 for s in range(t)]
    top = replace(evk, W=[[q // 2] * p.ell for _ in range(t)])
    agree(top, [1] * t, y)
    agree(evk, [1] * t, y)
    bottom = replace(evk, W=[[-(q // 2)] * p.ell for _ in range(t)])
    agree(bottom, [1] * t, y)


def test_mult_rejects_foreign_modulus(toy_evk, small_sk):
    mb = small_sk.params.message_bits
    c = encrypt(small_sk, [0] * mb, Random(118))
    with pytest.raises(ParameterError):
        eval_mult(toy_evk, c, c)


def test_library_calls_refuse_misshapen_ciphertexts(toy_sk, toy_evk, small_sk,
                                                    tmp_path):
    """decrypt, noise_of, eval_mult and save_ciphertext refuse a ciphertext
    that is short, long or under another modulus, rather than read,
    truncate or write it."""
    p = toy_sk.params
    good = encrypt(toy_sk, [1, 0], Random(120))
    bad = [Ciphertext(vec=good.vec[:-3], q=p.q, noise_hint=p.B),
           Ciphertext(vec=good.vec + [0, 1], q=p.q, noise_hint=p.B),
           Ciphertext(vec=good.vec, q=small_sk.params.q, noise_hint=p.B)]
    for ct in bad:
        with pytest.raises(ParameterError):
            decrypt(toy_sk, ct)
        with pytest.raises(ParameterError):
            noise_of(toy_sk, ct, [1, 0])
        for pair in ((ct, good), (good, ct)):
            with pytest.raises(ParameterError):
                eval_mult(toy_evk, *pair)
        with pytest.raises(ParameterError):
            save_ciphertext(ct, p, str(tmp_path / "ct.bin"))
        assert not (tmp_path / "ct.bin").exists()


def test_mult_noise_within_tracked_bound(toy_sk, toy_evk):
    p = toy_sk.params
    rng = Random(119)
    for _ in range(20):
        m1 = [rng.randrange(2) for _ in range(2)]
        m2 = [rng.randrange(2) for _ in range(2)]
        c1 = encrypt(toy_sk, m1, rng)
        c2 = encrypt(toy_sk, m2, rng)
        b1 = max(abs(x) for x in noise_of(toy_sk, c1, m1))
        b2 = max(abs(x) for x in noise_of(toy_sk, c2, m2))
        prod = eval_mult(toy_evk, c1, c2)
        want = [a & b for a, b in zip(m1, m2)]
        measured = max(abs(x) for x in noise_of(toy_sk, prod, want))
        assert measured <= mult_noise_hint(toy_evk, b1, b2)
        # the ciphertext's own hint uses the inputs' tracked bounds
        assert prod.noise_hint == mult_noise_hint(toy_evk, p.B, p.B)
        assert measured <= prod.noise_hint


def test_mult_hint_monotone(toy_evk):
    h = mult_noise_hint
    assert h(toy_evk, 1, 1) < h(toy_evk, 10, 1) < h(toy_evk, 10, 20)
    assert h(toy_evk, 3, 5) == h(toy_evk, 5, 3)


def test_hints_match_the_reference_along_an_and_chain():
    """On every preset, each product's hint along an AND chain is the
    ceiling of the rational reference bound at its integer inputs: up to
    depth L through ``eval_mult``, and one level past it through
    ``mult_noise_hint`` alone."""
    for name in PRESETS:
        rng = Random(f"hint-chain-{name}")
        p = preset_params(name)
        sk = keygen(p, rng)
        evk = build_evalkey(sk, rng=rng)
        acc, *rest = [encrypt(sk, [rng.randrange(2) for _ in range(p.message_bits)],
                              rng) for _ in range(p.L + 1)]
        for c in rest:
            want = math.ceil(product_hint_reference(
                max(acc.noise_hint, c.noise_hint), p.ell, p.u, p.q))
            acc = eval_mult(evk, acc, c)
            assert type(acc.noise_hint) is int and acc.noise_hint == want
        want = math.ceil(product_hint_reference(acc.noise_hint, p.ell, p.u, p.q))
        assert mult_noise_hint(evk, acc.noise_hint, p.B) == want
        assert mult_noise_hint(evk, p.B, acc.noise_hint) == want


def test_depth3_chain(depth3_sk, depth3_evk):
    """Three chained products survive at the L=3 preset."""
    sk, evk = depth3_sk, depth3_evk
    rng = Random(120)
    mb = sk.params.message_bits
    msgs = [[rng.randrange(2) for _ in range(mb)] for _ in range(4)]
    cts = [encrypt(sk, m, rng) for m in msgs]
    acc, plain = cts[0], msgs[0]
    for m, c in zip(msgs[1:], cts[1:]):
        acc = eval_mult(evk, acc, c)
        plain = [a & b for a, b in zip(plain, m)]
    assert decrypt(sk, acc) == plain


# --- public-key wrapping ----------------------------------------------------

@pytest.fixture(scope="module")
def toy_pk(toy_sk):
    return pk_keygen(toy_sk, Random("she-pk"))


def test_pk_dimension(toy_sk, toy_pk):
    p = toy_sk.params
    assert toy_pk.d == -(-(11 * p.ell * p.q_bits) // 10)  # ceil(1.1*ell*log2 q)
    assert toy_pk.d == 352
    assert len(toy_pk.C_unit) == p.message_bits


def test_pk_rows_decrypt_correctly(toy_sk, toy_pk):
    p = toy_sk.params
    for row in toy_pk.C0[:32]:
        ct = Ciphertext(vec=list(row), q=p.q, noise_hint=p.B)
        assert decrypt(toy_sk, ct) == [0] * p.message_bits
    for j, row in enumerate(toy_pk.C_unit):
        ct = Ciphertext(vec=list(row), q=p.q, noise_hint=p.B)
        assert decrypt(toy_sk, ct) == [1 if i == j else 0
                                       for i in range(p.message_bits)]


def test_pk_keygen_seeded_and_distinct(toy_sk):
    a = pk_keygen(toy_sk, Random(121))
    b = pk_keygen(toy_sk, Random(121))
    c = pk_keygen(toy_sk, Random(122))
    assert a.C0 == b.C0 and a.C_unit == b.C_unit
    assert a.C0 != c.C0


def test_pk_encrypt_roundtrip(toy_sk, toy_pk):
    p = toy_sk.params
    rng = Random(123)
    for _ in range(50):
        m = [rng.randrange(2) for _ in range(p.message_bits)]
        ct = pk_encrypt(toy_pk, m, rng)
        assert decrypt(toy_sk, ct) == m
        assert noise_of(toy_sk, ct, m) is not None
        assert 0 <= ct.noise_hint <= (toy_pk.d + p.message_bits) * p.B


def test_pk_encrypt_refuses_bits_that_are_not_ints(toy_sk, toy_pk):
    for m in NOT_INT_BITS:
        with pytest.raises(ParameterError, match="ints 0 or 1"):
            pk_encrypt(toy_pk, m, Random(105))
    ct = pk_encrypt(toy_pk, [True, False], Random(105))
    assert decrypt(toy_sk, ct) == [1, 0]


def test_pk_encrypt_empty_subset_is_zero(toy_pk):
    ct = pk_encrypt(toy_pk, [0, 0], _ZeroRandom())
    assert ct.vec == [0] * toy_pk.params.ell
    assert ct.noise_hint == 0


@pytest.mark.parametrize("name", ["toy", "bench16"])
def test_pk_encrypt_matches_product_reference(name):
    """pk_encrypt's column sums of the selected rows equal the balanced
    product (m ‖ subset)·(C_unit ‖ C0) under the same subset draws, for
    random subsets and for the all-ones subset of a stub RNG."""
    p = preset_params(name)
    sk = keygen(p, Random(f"pk-ref-{name}"))
    pk = pk_keygen(sk, Random(f"pk-ref-keys-{name}"))
    rng = Random(f"pk-ref-msgs-{name}")

    def reference(m, draws):
        subset = [draws.randrange(2) for _ in pk.C0]
        return [balance(x, p.q) for x in vec_mat(m + subset, pk.C_unit + pk.C0)]
    for i in range(4):
        m = [rng.randrange(2) for _ in range(p.message_bits)]
        ct = pk_encrypt(pk, m, Random(f"pk-ref-{name}-{i}"))
        assert ct.vec == reference(m, Random(f"pk-ref-{name}-{i}"))
    ones = [1] * p.message_bits
    assert pk_encrypt(pk, ones, _OneRandom()).vec == reference(ones, _OneRandom())


def test_pk_ciphertexts_compose_homomorphically(toy_sk, toy_evk, toy_pk):
    rng = Random(124)
    for _ in range(10):
        m1 = [rng.randrange(2) for _ in range(2)]
        m2 = [rng.randrange(2) for _ in range(2)]
        c1 = pk_encrypt(toy_pk, m1, rng)
        c2 = pk_encrypt(toy_pk, m2, rng)
        assert decrypt(toy_sk, eval_add(c1, c2)) == [a ^ b for a, b in zip(m1, m2)]
        assert decrypt(toy_sk, eval_mult(toy_evk, c1, c2)) == [
            a & b for a, b in zip(m1, m2)]
