"""Container file format: roundtrips, integrity checks, fingerprints."""

import copy
import hashlib
import math
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from mvphe import (
    Ciphertext,
    Polynomial,
    decrypt,
    encrypt,
    eval_mult,
    pk_encrypt,
    pk_keygen,
    preset_params,
)
from mvphe.cli import main
from mvphe.errors import FormatError, ParameterError
from mvphe.serialize import (
    GADGET_FLAG,
    MAGIC,
    TYPE_PARAMS,
    VERSION,
    _Reader,
    _w_fraction,
    _w_int,
    _w_ints,
    _w_uint,
    load_ciphertext,
    load_evalkey,
    load_params,
    load_public_key,
    load_secret_key,
    params_fingerprint,
    save_ciphertext,
    save_evalkey,
    save_params,
    save_public_key,
    save_secret_key,
)
from oracles import w_int_reference


# --- roundtrips -------------------------------------------------------------

def test_params_roundtrip(tmp_path, toy_params):
    path = str(tmp_path / "p.bin")
    save_params(toy_params, path)
    assert load_params(path) == toy_params


def test_params_roundtrip_fraction_sigma(tmp_path):
    p = preset_params("toy", sigma=Fraction(17, 2), B=51)
    path = str(tmp_path / "p.bin")
    save_params(p, path)
    back = load_params(path)
    assert back.sigma == Fraction(17, 2)
    assert back == p


def test_secret_key_roundtrip(tmp_path, toy_sk):
    path = str(tmp_path / "sk.bin")
    save_secret_key(toy_sk, path)
    back = load_secret_key(path)
    assert back.g == toy_sk.g
    assert back.points == toy_sk.points
    assert back.S == toy_sk.S and back.R1 == toy_sk.R1 and back.R2 == toy_sk.R2
    # derived matrices are rebuilt identically
    assert back.R == toy_sk.R and back.S_dec == toy_sk.S_dec
    # and the reloaded key actually decrypts
    ct = encrypt(toy_sk, [1, 0], Random(141))
    assert decrypt(back, ct) == [1, 0]


def test_evalkey_roundtrip(tmp_path, toy_sk, toy_evk):
    path = str(tmp_path / "evk.bin")
    save_evalkey(toy_evk, path)
    back = load_evalkey(path)
    assert back.P1 == toy_evk.P1 and back.P2 == toy_evk.P2
    assert back.W == toy_evk.W
    assert back.params == toy_evk.params and back.k_max == toy_evk.k_max
    rng = Random(142)
    c = eval_mult(back, encrypt(toy_sk, [1, 1], rng),
                  encrypt(toy_sk, [1, 0], rng))
    assert decrypt(toy_sk, c) == [1, 0]


def test_public_key_roundtrip(tmp_path, toy_sk):
    pk = pk_keygen(toy_sk, Random(144))
    path = str(tmp_path / "pk.bin")
    save_public_key(pk, path)
    back = load_public_key(path)
    assert back.d == pk.d == len(back.C0)
    assert back.C0 == pk.C0 and back.C_unit == pk.C_unit
    ct = pk_encrypt(back, [0, 1], Random(145))
    assert decrypt(toy_sk, ct) == [0, 1]


def test_ciphertext_roundtrip(tmp_path, toy_sk, toy_params):
    path = str(tmp_path / "ct.bin")
    ct = encrypt(toy_sk, [1, 1], Random(146))
    save_ciphertext(ct, toy_params, path)
    back, params = load_ciphertext(path)
    assert params == toy_params
    assert back == ct
    assert back.level == ct.level and back.noise_hint == ct.noise_hint


def test_ciphertext_roundtrip_without_hint(tmp_path, toy_sk, toy_params):
    path = str(tmp_path / "ct.bin")
    ct = Ciphertext(vec=[3] * toy_params.ell, level=2, q=toy_params.q)
    save_ciphertext(ct, toy_params, path)
    back, _ = load_ciphertext(path)
    assert back.noise_hint is None and back.level == 2


def test_save_is_byte_identical(tmp_path, toy_sk, toy_params):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_secret_key(toy_sk, a)
    save_secret_key(load_secret_key(a), b)
    with open(a, "rb") as f1, open(b, "rb") as f2:
        assert f1.read() == f2.read()


# --- integrity --------------------------------------------------------------

def test_bad_magic(tmp_path, toy_params):
    path = str(tmp_path / "p.bin")
    save_params(toy_params, path)
    with open(path, "r+b") as fh:
        fh.write(b"NOPE")
    with pytest.raises(FormatError, match="bad magic"):
        load_params(path)


def test_version_gate_precedes_checksum(tmp_path, toy_params):
    # bumping the version also breaks the digest; the version error must win
    path = str(tmp_path / "p.bin")
    save_params(toy_params, path)
    with open(path, "r+b") as fh:
        fh.seek(len(MAGIC))
        fh.write((99).to_bytes(2, "little"))
    with pytest.raises(FormatError, match="unsupported format version 99"):
        load_params(path)


def test_corruption_detected(tmp_path, toy_sk, toy_params):
    path = str(tmp_path / "ct.bin")
    save_ciphertext(encrypt(toy_sk, [0, 1], Random(147)), toy_params, path)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x40
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    with pytest.raises(FormatError, match="checksum mismatch"):
        load_ciphertext(path)


def test_truncation_detected(tmp_path, toy_params):
    path = str(tmp_path / "p.bin")
    save_params(toy_params, path)
    with open(path, "rb") as fh:
        data = fh.read()
    for cut in (3, 10, len(data) - 1):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        with pytest.raises(FormatError):
            load_params(path)


def test_type_mismatch(tmp_path, toy_params, toy_sk):
    path = str(tmp_path / "x.bin")
    save_params(toy_params, path)
    with pytest.raises(FormatError, match="contains parameters, expected secret key"):
        load_secret_key(path)
    save_ciphertext(encrypt(toy_sk, [0, 0], Random(148)), toy_params, path)
    with pytest.raises(FormatError, match="expected parameters"):
        load_params(path)


def _encode(*xs: int) -> bytes:
    buf = bytearray()
    for x in xs:
        w_int_reference(buf, x)
    return bytes(buf)


def _read_nine(form: str, entries: bytes):
    """Read nine integers from ``entries`` as nine int_ calls, one intvec or
    one 3x3 matrix."""
    if form == "int_":
        r = _Reader(entries)
        return [r.int_() for _ in range(9)]
    if form == "intvec":
        return _Reader((9).to_bytes(4, "little") + entries).intvec()
    return _Reader((3).to_bytes(4, "little") * 2 + entries).matrix("M", 3, 3)


def test_reader_rejects_malformed_primitives():
    """Each malformed integer is refused with the same message, read through
    int_, intvec or matrix, as the first entry or a middle one."""
    good = _encode(-3)
    header = bytes([0]) + (2).to_bytes(4, "little")  # a two-byte magnitude
    malformed = [  # (bad entry, whether entries may follow it, message)
        (bytes([2]) + (1).to_bytes(4, "little") + b"\x07", True, "bad integer sign byte"),
        (bytes([1]) + (0).to_bytes(4, "little"), True, "negative zero encoding"),
        (header + b"\x01", False, "truncated file"),  # magnitude one byte short
        # ... even where the bytes that are there read as negative zero
        (bytes([1]) + header[1:] + b"\x00", False, "truncated file"),
        (bytes([2]), False, "bad integer sign byte"),  # sign checked before length
    ] + [(header[:cut], False, "truncated file") for cut in range(5)]
    for bad, more, message in malformed:
        for at in (0, 4):
            entries = good * at + bad + (good * (8 - at) if more else b"")
            for form in ("int_", "intvec", "matrix"):
                with pytest.raises(FormatError, match=f"^{message}$"):
                    _read_nine(form, entries)
    # denominators must be positive
    zero = _encode(0)
    for data in (zero + zero, zero + _encode(-1)):
        with pytest.raises(FormatError, match="denominator"):
            _Reader(data).fraction()


@pytest.mark.parametrize("form", ["int_", "intvec", "matrix"])
def test_reader_decodes_up_to_the_last_byte(form):
    xs = [0, 1, -1, 255, -256, 1 << 70, 7, -(1 << 40), 3]
    entries = _encode(*xs)
    assert entries[-1] != 0
    got = _read_nine(form, entries)
    assert (got if form != "matrix" else [x for row in got for x in row]) == xs


def test_integer_encoding_roundtrips_and_matches_reference():
    xs = [0]
    for k in range(71):
        for x in ((1 << 8 * k) - 1, 1 << 8 * k):
            xs += [x, -x] if x else []
    buf = bytearray()
    _w_ints(buf, xs)
    assert bytes(buf) == _encode(*xs)
    r = _Reader(bytes(buf))
    assert r.ints(len(xs)) == xs and r.pos == len(buf)


# --- shape and range checks (files re-sealed with a valid checksum) ---------

def _patch_payload(path: str, offset: int, old_len: int, new: bytes) -> None:
    """Replace ``old_len`` bytes at ``offset`` into the payload (negative:
    into the parameter block) and re-seal the checksum."""
    with open(path, "rb") as fh:
        body = fh.read()[:-32]
    # payload starts after magic, version, type, block length and block
    at = 11 + int.from_bytes(body[7:11], "little") + offset
    body = body[:at] + new + body[at + old_len:]
    with open(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())


def test_evalkey_factor_shapes_checked(tmp_path, toy_evk):
    path = str(tmp_path / "evk.bin")
    for bad in (replace(toy_evk, P1=toy_evk.P1[:-1]),
                replace(toy_evk, P2=[row[:-1] for row in toy_evk.P2])):
        save_evalkey(bad, path)
        with pytest.raises(FormatError, match="P[12] is"):
            load_evalkey(path)


def test_evalkey_factor_range_checked(tmp_path, toy_sk, toy_evk, capsys):
    """P1/P2 entries must lie in 0..n(q − 1), the range of every built key."""
    p = toy_evk.params
    top = p.n * (p.q - 1)
    assert max(max(map(max, P)) for P in (toy_evk.P1, toy_evk.P2)) <= top
    path = str(tmp_path / "evk.bin")
    low = [row[:] for row in toy_evk.P1]
    low[0][0] = -1
    high = [row[:] for row in toy_evk.P2]
    high[-1][-1] = top + 1
    for bad in (replace(toy_evk, P2=high), replace(toy_evk, P1=low)):
        save_evalkey(bad, path)
        with pytest.raises(FormatError, match=f"P[12] has an entry outside 0..{top}"):
            load_evalkey(path)
    ct = str(tmp_path / "ct.bin")
    save_ciphertext(encrypt(toy_sk, [1, 1], Random(153)), toy_sk.params, ct)
    netlist = tmp_path / "c.txt"
    netlist.write_text("in a\nin b\nt = AND a b\nout t\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--evalkey", path, "--circuit", str(netlist),
                 "--in", ct, ct, "--out-prefix", str(tmp_path / "r")]) == 2
    assert "error: P1 has an entry outside" in capsys.readouterr().err


def test_evalkey_w_shape_and_u_checked(tmp_path, toy_evk):
    path = str(tmp_path / "evk.bin")
    for bad in (replace(toy_evk, W=toy_evk.W[:-1]),
                replace(toy_evk, W=[row[:-1] for row in toy_evk.W])):
        save_evalkey(bad, path)
        with pytest.raises(FormatError, match="W is"):
            load_evalkey(path)
    save_evalkey(toy_evk, path)
    u = toy_evk.params.u
    _patch_payload(path, 1, 4, (u + 1).to_bytes(4, "little"))  # after the form byte
    with pytest.raises(FormatError, match=f"u = {u + 1}"):
        load_evalkey(path)


def test_evalkey_form_byte_and_carry_bound_checked(tmp_path, toy_sk, toy_evk, capsys):
    path = str(tmp_path / "evk.bin")
    save_evalkey(toy_evk, path)
    _patch_payload(path, 0, 1, b"\x00")
    with pytest.raises(FormatError, match="gadget flag 0"):
        load_evalkey(path)
    # k_max follows the form byte and u; an understated bound is refused
    save_evalkey(toy_evk, path)
    stored, one = bytearray(), bytearray()
    _w_fraction(stored, toy_evk.k_max)
    _w_fraction(one, 1)
    _patch_payload(path, 5, len(stored), bytes(one))
    with pytest.raises(FormatError, match="k_max = 1,"):
        load_evalkey(path)
    ct = str(tmp_path / "ct.bin")
    save_ciphertext(encrypt(toy_sk, [1, 1], Random(149)), toy_sk.params, ct)
    netlist = tmp_path / "c.txt"
    netlist.write_text("in a\nin b\nt = AND a b\nout t\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--evalkey", path, "--circuit", str(netlist),
                 "--in", ct, ct, "--out-prefix", str(tmp_path / "r")]) == 2
    assert "error:" in capsys.readouterr().err


def _patch_params_u32(path: str, field: int, value: int) -> None:
    """Set the parameter block's u32 number ``field`` (0 = lambda, 1 = L,
    2 = v, 3 = r_g, 4 = r_prime, 5 = ell) and re-seal the checksum."""
    with open(path, "rb") as fh:
        block_len = int.from_bytes(fh.read(11)[7:], "little")
    _patch_payload(path, 4 * field - block_len, 4, value.to_bytes(4, "little"))


@pytest.mark.parametrize("fields, message", [
    # (n·q_bits)^L would take hours at this L
    ({1: 2**31 - 1}, "q/B ratio too small for depth L=2147483647"),
    # C(v + r_prime, r_prime) ran for minutes; found by the loader fuzz test
    ({2: 1678311428, 4: 589826}, "need t < 2\\^32 points"),
])
def test_params_huge_u32_refused_at_once(tmp_path, toy_params, fields, message):
    """Each parameter is a u32 in every file; values that would stall the
    loader are refused before the exact arithmetic."""
    path = str(tmp_path / "p.bin")
    save_params(toy_params, path)
    for field, value in fields.items():
        _patch_params_u32(path, field, value)
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=message):
        load_params(path)
    assert time.perf_counter() - start < 0.5


def test_params_q_past_64_bits_refused_at_once(tmp_path, toy_params):
    """A q of more than 64 bits is refused before the primality test, which
    would sweep 64 Miller–Rabin rounds over this one for days."""
    q = (1 << 16383) + 1
    while math.gcd(q, math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))) != 1:
        q += 2
    p = toy_params
    block = bytearray()
    for x in (p.lambda_, p.L, p.v, p.r_g, p.r_prime, p.ell):
        _w_uint(block, x, 4)
    _w_int(block, q)
    _w_fraction(block, p.sigma)
    _w_int(block, p.B)
    _w_uint(block, p.u, 4)
    block.append(GADGET_FLAG)
    body = bytearray(MAGIC)
    _w_uint(body, VERSION, 2)
    body.append(TYPE_PARAMS)
    _w_uint(body, len(block), 4)
    body += block
    path = tmp_path / "p.bin"
    path.write_bytes(bytes(body) + hashlib.sha256(body).digest())
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="q must have at most 64 bits, got 16384"):
        load_params(str(path))
    assert time.perf_counter() - start < 0.5


def test_params_gadget_flag_checked(tmp_path, toy_params):
    path = str(tmp_path / "p.bin")
    save_params(toy_params, path)
    _patch_payload(path, -1, 1, b"\x00")  # the block's last byte
    with pytest.raises(FormatError, match="gadget flag 0"):
        load_params(path)


def test_key_matrix_shapes_checked(tmp_path, toy_sk):
    path = str(tmp_path / "key.bin")
    for name in ("S", "R1", "R2"):
        m = getattr(toy_sk, name)
        for bad in (m[:-1], [row[:-1] for row in m]):
            key = copy.copy(toy_sk)
            setattr(key, name, bad)
            save_secret_key(key, path)
            with pytest.raises(FormatError, match=f"{name} is"):
                load_secret_key(path)
    pk = pk_keygen(toy_sk, Random(150))
    for bad in (replace(pk, C0=[row[:-1] for row in pk.C0]),
                replace(pk, C0=pk.C0[:1]),
                replace(pk, C_unit=[row[:-1] for row in pk.C_unit]),
                replace(pk, C_unit=pk.C_unit[:-1])):
        save_public_key(bad, path)
        with pytest.raises(FormatError, match="C0 is|C_unit is"):
            load_public_key(path)


def test_secret_key_generator_checked(tmp_path, toy_sk):
    """g must be what keygen draws: v variables, degree r_g, monic under
    grevlex, nonzero constant term.  A scaled g would otherwise load and
    evaluate, and g·g would load and fail only at evalkey."""
    p = toy_sk.params
    g = toy_sk.g
    const = (0,) * p.v
    path = str(tmp_path / "key.bin")
    for bad in (Polynomial(p.v + 1, p.q, {(1,) + const: 1, (0,) + const: 5}),
                g * g,
                g.scale(2),
                g - Polynomial.monomial(p.v, p.q, const, g.terms[const])):
        key = copy.copy(toy_sk)
        key.g = bad
        save_secret_key(key, path)
        with pytest.raises(FormatError, match="generator is not monic of degree"):
            load_secret_key(path)


def test_secret_key_singular_r1_refused(tmp_path, toy_sk):
    """C = [[R1, R2^T − S^T], [0, I]] is invertible exactly when R1 is, so
    a file whose R1 is singular is malformed, not a linear-algebra error."""
    path = str(tmp_path / "key.bin")
    key = copy.copy(toy_sk)
    key.R1 = [[0] * toy_sk.params.n for _ in range(toy_sk.params.n)]
    save_secret_key(key, path)
    with pytest.raises(FormatError, match="R1 is singular"):
        load_secret_key(path)


def test_public_key_eps_checked(tmp_path, toy_sk):
    path = str(tmp_path / "pk.bin")
    save_public_key(pk_keygen(toy_sk, Random(152)), path)
    stored, half = bytearray(), bytearray()
    _w_fraction(stored, Fraction(1, 10))
    _w_fraction(half, Fraction(1, 2))
    _patch_payload(path, 0, len(stored), bytes(half))
    with pytest.raises(FormatError, match="eps = 1/2"):
        load_public_key(path)


def test_trailing_bytes_rejected(tmp_path, toy_sk, toy_params, toy_evk):
    paths = [str(tmp_path / name) for name in ("p.bin", "ct.bin", "evk.bin")]
    save_params(toy_params, paths[0])
    save_ciphertext(encrypt(toy_sk, [1, 0], Random(151)), toy_params, paths[1])
    save_evalkey(toy_evk, paths[2])
    for path, load in zip(paths, (load_params, load_ciphertext, load_evalkey)):
        with open(path, "rb") as fh:
            body = fh.read()[:-32] + b"\x00\x00"
        with open(path, "wb") as fh:
            fh.write(body + hashlib.sha256(body).digest())
        with pytest.raises(FormatError, match="2 bytes after the payload"):
            load(path)


def test_ciphertext_level_and_hint_checked(tmp_path, toy_params):
    path = str(tmp_path / "ct.bin")
    vec = [3] * toy_params.ell
    save_ciphertext(Ciphertext(vec=vec, level=toy_params.L, q=toy_params.q,
                               noise_hint=0), toy_params, path)
    assert load_ciphertext(path)[0].level == toy_params.L
    for bad, match in ((Ciphertext(vec=vec, level=99, q=toy_params.q), "level 99"),
                       (Ciphertext(vec=vec, level=0, q=toy_params.q,
                                   noise_hint=Fraction(-1, 2)), "negative noise hint")):
        save_ciphertext(bad, toy_params, path)
        with pytest.raises(FormatError, match=match):
            load_ciphertext(path)


# --- fingerprints -----------------------------------------------------------

def test_fingerprint_stable_and_sensitive(toy_params):
    fp = params_fingerprint(toy_params)
    assert len(fp) == 16 and all(c in "0123456789abcdef" for c in fp)
    assert fp == params_fingerprint(preset_params("toy"))
    assert fp != params_fingerprint(preset_params("small"))
    assert fp != params_fingerprint(preset_params("toy", u=9))


def test_fingerprint_survives_serialization(tmp_path, toy_params):
    path = str(tmp_path / "p.bin")
    save_params(toy_params, path)
    assert params_fingerprint(load_params(path)) == params_fingerprint(toy_params)
