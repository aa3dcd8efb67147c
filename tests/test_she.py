"""Encryption, decryption, noise accounting, and homomorphic operations."""

import warnings
from dataclasses import replace
from fractions import Fraction
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
)
from mvphe.errors import DepthError, ParameterError
from mvphe.keys import PRESETS
from mvphe.linalg import mat_mul
from oracles import CARRY_SETS, encrypt_reference, mult_intermediates


class _ZeroRandom(Random):
    """Stub RNG whose randrange always picks 0 (forces empty choices)."""

    def randrange(self, *args):
        return 0


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
        assert ct.level == 0
        assert len(ct) == toy_sk.params.ell


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


def test_decrypt_rejects_foreign_modulus(toy_sk, small_sk):
    ct = encrypt(small_sk, [0] * small_sk.params.message_bits, Random(106))
    with pytest.raises(ParameterError):
        decrypt(toy_sk, ct)


def test_ciphertext_vec_balanced_and_hint_ignored_by_eq(toy_sk):
    q = toy_sk.params.q
    ct = Ciphertext(vec=[q - 1] * toy_sk.params.ell, level=0, q=q)
    assert ct.vec == [-1] * toy_sk.params.ell
    other = Ciphertext(vec=[-1] * toy_sk.params.ell, level=0, q=q,
                       noise_hint=123)
    assert ct == other


# --- decryption threshold --------------------------------------------------

def test_decrypt_noise_threshold_is_exact(toy_sk):
    """The smallest band perturbation that flips a bit is ceil(half/2),
    where half = floor(q/2); one less never flips.  Band slot j of
    (y ‖ band) is ciphertext coordinate n+j because the encryption matrix
    C is [0 | I] on the band rows."""
    p = toy_sk.params
    half = p.q // 2
    T = (half + 1) // 2
    base = encrypt(toy_sk, [0, 0], Random(107), zero_noise=True)
    for j in range(p.message_bits):
        for delta, want in ((T, 1), (T - 1, 0), (-(T - 1), 0)):
            vec = list(base.vec)
            vec[p.n + j] += delta
            ct = Ciphertext(vec=vec, level=0, q=p.q)
            got = decrypt(toy_sk, ct)
            assert got[j] == want
            assert got[1 - j] == 0  # other slot untouched


def test_decrypt_warns_past_quarter_q(toy_sk):
    p = toy_sk.params
    ct = encrypt(toy_sk, [1, 0], Random(108))
    noisy = Ciphertext(vec=ct.vec, level=0, q=p.q, noise_hint=p.q // 4 + 1)
    with pytest.warns(RuntimeWarning):
        decrypt(toy_sk, noisy)
    quiet = Ciphertext(vec=ct.vec, level=0, q=p.q, noise_hint=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decrypt(toy_sk, quiet) == [1, 0]
    # a hint past the float range is shown as a power of two
    huge = Ciphertext(vec=ct.vec, level=0, q=p.q, noise_hint=10**400)
    with pytest.warns(RuntimeWarning, match=r"noise hint 2\^1329 exceeds"):
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


def test_add_level_is_max(toy_sk, toy_evk):
    rng = Random(111)
    c0 = encrypt(toy_sk, [1, 0], rng)
    c1 = eval_mult(toy_evk, c0, encrypt(toy_sk, [1, 1], rng))
    assert c1.level == 1
    assert eval_add(c0, c1).level == 1
    assert eval_add(c1, c1).level == 1


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
            assert prod.level == 1
            assert len(prod) == toy_sk.params.ell


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
    # toy has L = 2: one squaring then one more product is fine, the next is not
    rng = Random(117)
    c = encrypt(toy_sk, [1, 1], rng)
    lvl1 = eval_mult(toy_evk, c, c)
    assert lvl1.level == 1
    lvl2 = eval_mult(toy_evk, lvl1, encrypt(toy_sk, [1, 1], rng))
    assert lvl2.level == 2
    assert decrypt(toy_sk, lvl2) == [1, 1]
    with pytest.raises(DepthError):
        eval_mult(toy_evk, lvl2, c)
    with pytest.raises(DepthError):
        eval_mult(toy_evk, lvl1, lvl1)  # 1 + 1 + 1 > 2


def _extreme_ciphertexts(sk):
    """Two seeded encryptions, then all-(q−1)/2, all-−(q−1)/2 and all-zero."""
    p = sk.params
    rng = Random(f"extreme-{p.q}")
    cts = [encrypt(sk, [rng.randrange(2) for _ in range(p.message_bits)], rng)
           for _ in range(2)]
    for x in ((p.q - 1) // 2, -(p.q - 1) // 2, 0):
        cts.append(Ciphertext(vec=[x] * p.ell, level=0, q=p.q))
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
    """The carry tables are built once per key object: a repeat call reuses
    them and gives the same product, a replaced key builds its own, and
    equality ignores them."""
    evk = build_evalkey(toy_sk, rng=Random(119))
    c1, c2, *_ = _extreme_ciphertexts(toy_sk)
    first = eval_mult(evk, c1, c2)
    tables = evk.packed
    assert eval_mult(evk, c1, c2) == first and evk.packed is tables
    swapped = replace(evk, P1=evk.P2, P2=evk.P1)
    got = eval_mult(swapped, c1, c2)
    assert swapped.packed is not tables
    assert swapped.packed[0] == tables[1] and swapped.packed[1] == tables[0]
    assert got.vec == mult_intermediates(toy_sk, swapped, c1.vec, c2.vec)["product"]
    assert swapped == replace(evk, P1=evk.P2, P2=evk.P1)  # the cache is not compared
    assert "packed" not in repr(evk)


@pytest.mark.parametrize("name", sorted(CARRY_SETS))
def test_mult_matches_oracle_on_random_vectors(name):
    """eval_mult equals the exact-rational pipeline on random balanced
    vectors that are no encryptions, and on ±(q−1)/2, 0 and ±1 entries."""
    p = CARRY_SETS[name]()
    sk = keygen(p, Random(f"carry-{name}"))
    evk = build_evalkey(sk, rng=Random(f"carry-evk-{name}"))
    h = (p.q - 1) // 2
    rng = Random(f"carry-vec-{name}")
    vecs = [[rng.choice((h, -h, 0, 1, -1, rng.randint(-h, h))) for _ in range(p.ell)]
            for _ in range(3)]
    vecs += [[rng.randint(-h, h) for _ in range(p.ell)] for _ in range(3)]
    for v1, v2 in zip(vecs, vecs[1:] + vecs[:1]):
        c1, c2 = (Ciphertext(vec=v, level=0, q=p.q) for v in (v1, v2))
        want = mult_intermediates(sk, evk, v1, v2)["product"]
        assert eval_mult(evk, c1, c2).vec == want


def test_mult_rejects_foreign_modulus(toy_evk, small_sk):
    mb = small_sk.params.message_bits
    c = encrypt(small_sk, [0] * mb, Random(118))
    with pytest.raises(ParameterError):
        eval_mult(toy_evk, c, c)


def test_library_calls_refuse_misshapen_ciphertexts(toy_sk, toy_evk, small_sk):
    """decrypt, noise_of and eval_mult refuse a ciphertext that is short,
    long or under another modulus, rather than read or truncate it."""
    p = toy_sk.params
    good = encrypt(toy_sk, [1, 0], Random(120))
    bad = [Ciphertext(vec=good.vec[:-3], level=0, q=p.q),
           Ciphertext(vec=good.vec + [0, 1], level=0, q=p.q),
           Ciphertext(vec=good.vec, level=0, q=small_sk.params.q)]
    for ct in bad:
        with pytest.raises(ParameterError):
            decrypt(toy_sk, ct)
        with pytest.raises(ParameterError):
            noise_of(toy_sk, ct, [1, 0])
        for pair in ((ct, good), (good, ct)):
            with pytest.raises(ParameterError):
                eval_mult(toy_evk, *pair)


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


def test_depth3_chain(depth3_sk, depth3_evk):
    """Three chained products (levels 1, 2, 3) survive at the L=3 preset."""
    sk, evk = depth3_sk, depth3_evk
    rng = Random(120)
    mb = sk.params.message_bits
    msgs = [[rng.randrange(2) for _ in range(mb)] for _ in range(4)]
    cts = [encrypt(sk, m, rng) for m in msgs]
    acc, plain = cts[0], msgs[0]
    for m, c in zip(msgs[1:], cts[1:]):
        acc = eval_mult(evk, acc, c)
        plain = [a & b for a, b in zip(plain, m)]
    assert acc.level == 3
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
        ct = Ciphertext(vec=list(row), level=0, q=p.q)
        assert decrypt(toy_sk, ct) == [0] * p.message_bits
    for j, row in enumerate(toy_pk.C_unit):
        ct = Ciphertext(vec=list(row), level=0, q=p.q)
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


def test_pk_encrypt_empty_subset_is_zero(toy_pk):
    ct = pk_encrypt(toy_pk, [0, 0], _ZeroRandom())
    assert ct.vec == [0] * toy_pk.params.ell
    assert ct.noise_hint == 0


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
