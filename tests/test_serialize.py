"""Container file format: roundtrips, integrity checks, fingerprints."""

import copy
import hashlib
import math
import os
import stat
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvphe import (
    Ciphertext,
    build_evalkey,
    decrypt,
    encrypt,
    eval_add,
    eval_mult,
    keygen,
    mult_noise_hint,
    pk_encrypt,
    pk_keygen,
    preset_params,
)
from mvphe.arith import balance
from mvphe.cli import main
from mvphe.errors import FormatError, ParameterError, SingularMatrixError
from mvphe.keys import PRESETS, SecretKey
from mvphe.mvpoly import enumerate_monomials
from mvphe.serialize import (
    MAGIC,
    TYPE_CIPHERTEXT,
    TYPE_EVALKEY,
    TYPE_PARAMS,
    TYPE_PUBLIC,
    TYPE_SECRET,
    VERSION,
    _decode_params,
    _params_block,
    _read_container,
    _Reader,
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
from mvphe.she import pk_rows
from oracles import generator, w_run_reference


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
    # the block's runs are what the reference encoder writes
    _params_file(tmp_path / "ref.bin", p, p.q, (17, 2))
    assert (tmp_path / "ref.bin").read_bytes() == (tmp_path / "p.bin").read_bytes()


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
    assert back.D1s == toy_evk.D1s and back.D2s == toy_evk.D2s
    assert back.E == toy_evk.E and back.W == toy_evk.W
    assert back.params == toy_evk.params
    p = back.params
    assert mult_noise_hint(back, p.B, p.B) == mult_noise_hint(toy_evk, p.B, p.B)
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
    assert back.noise_hint == ct.noise_hint


def test_save_is_byte_identical(tmp_path, toy_sk, toy_params):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    save_secret_key(toy_sk, a)
    save_secret_key(load_secret_key(a), b)
    with open(a, "rb") as f1, open(b, "rb") as f2:
        assert f1.read() == f2.read()


# --- how a save writes --------------------------------------------------------

def test_shorter_file_saved_over_a_longer_one_leaves_exactly_its_bytes(
        tmp_path, toy_sk, toy_params):
    """A save writes in place and cuts a regular file to length: a
    ciphertext over a public key file leaves the ciphertext's bytes and
    nothing of the key, and saving one object twice is one save."""
    ct = encrypt(toy_sk, [1, 0], Random(160))
    fresh, over = tmp_path / "fresh.bin", tmp_path / "over.bin"
    save_ciphertext(ct, toy_params, str(fresh))
    save_public_key(pk_keygen(toy_sk, Random(161)), str(over))
    assert over.stat().st_size > fresh.stat().st_size
    save_ciphertext(ct, toy_params, str(over))
    assert over.read_bytes() == fresh.read_bytes()
    assert load_ciphertext(str(over)) == (ct, toy_params)
    save_ciphertext(ct, toy_params, str(over))
    assert over.read_bytes() == fresh.read_bytes()


def test_save_interrupted_before_its_cut_is_refused(tmp_path, toy_sk, toy_params):
    """A save killed between its write and its cut leaves the new, shorter
    container's bytes over the head of the old file.  The old file's tail
    ends in the old digest, so the loader refuses the file; it never reads
    it as either container."""
    new, old = tmp_path / "new.bin", tmp_path / "old.bin"
    save_ciphertext(encrypt(toy_sk, [0, 1], Random(162)), toy_params, str(new))
    save_public_key(pk_keygen(toy_sk, Random(163)), str(old))
    fd = os.open(old, os.O_WRONLY)
    try:
        os.write(fd, new.read_bytes())
    finally:
        os.close(fd)
    with pytest.raises(FormatError, match="checksum mismatch"):
        load_ciphertext(str(old))
    with pytest.raises(FormatError, match="checksum mismatch"):
        load_public_key(str(old))


@pytest.mark.parametrize("mask", [0o022, 0o077])
def test_new_file_mode_is_that_of_open_wb(tmp_path, toy_params, mask):
    """A new file gets 0o666 less the umask, as ``open(path, "wb")`` gives."""
    saved, opened = tmp_path / "saved.bin", tmp_path / "opened.bin"
    before = os.umask(mask)
    try:
        save_params(toy_params, str(saved))
        open(opened, "wb").close()
    finally:
        os.umask(before)
    assert stat.S_IMODE(saved.stat().st_mode) == 0o666 & ~mask
    assert stat.S_IMODE(opened.stat().st_mode) == 0o666 & ~mask


def test_existing_file_keeps_its_mode(tmp_path, toy_sk):
    path = tmp_path / "sk.bin"
    path.write_bytes(bytes(1000))
    path.chmod(0o640)
    save_secret_key(toy_sk, str(path))
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert load_secret_key(str(path)).g == toy_sk.g


# sha256 of the three secret-key files that save_secret_key writes for the
# keys keygen draws from Random(f"pin-{preset}-{seed}"), seeds 1..3
SECRET_KEY_DIGESTS = {
    "bench12": "4e903085febc1cd9f4edf2945f172b804867df997c67a8e72c40f5ab3f3f49d6",
    "bench16": "c302d79f20fa5d91798ecd2acc08974fec970e9497b62514bbc77aa8baab44b6",
    "depth3": "40372d1e1df11516f9b7e38c7bb480322284e8e21e656483853ae402dc275596",
    "small": "82a32914fdccfb44e07a71b8ea22632c7385d115d887ed38258e6bc8fe1eb8a1",
    "toy": "79472c2f38fd15a34dda93a470f0d417ff7dba50fec554fb98c7e62b589c4532",
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_secret_key_files_are_pinned(tmp_path, preset):
    """Secret-key files, g's run among them, are a fixed function of the
    seed on every preset: a change to how the key holds g or how the file
    writes it must keep every byte."""
    p = preset_params(preset)
    h = hashlib.sha256()
    path = tmp_path / "sk.bin"
    for seed in (1, 2, 3):
        save_secret_key(keygen(p, Random(f"pin-{preset}-{seed}")), str(path))
        h.update(path.read_bytes())
    assert h.hexdigest() == SECRET_KEY_DIGESTS[preset]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_kind_roundtrips_on_every_preset(tmp_path, preset):
    """Each file kind round-trips on each preset: the loaded object equals
    the saved one, saving it again gives the same bytes, and the payload is
    exactly the runs of ``_run_lengths``' counts, as the reference encoder
    writes them.  small is the one preset whose D1s and D2s differ."""
    p = preset_params(preset)
    rng = Random(f"roundtrip-{preset}")
    sk = keygen(p, rng)
    evk = build_evalkey(sk, rng)
    ct = eval_add(encrypt(sk, [1] * p.message_bits, rng),
                  encrypt(sk, [0] * p.message_bits, rng))

    def load_ct(path: str) -> Ciphertext:
        back, params = load_ciphertext(path)
        assert params == p and back.noise_hint == ct.noise_hint
        return back

    kinds = [  # (object, save, load)
        (p, save_params, load_params),
        (sk, save_secret_key, load_secret_key),
        (evk, save_evalkey, load_evalkey),
        (pk_keygen(sk, rng), save_public_key, load_public_key),
        (ct, lambda c, path: save_ciphertext(c, p, path), load_ct),
    ]
    assert (evk.D1s != evk.D2s) == (preset == "small")
    first, again = tmp_path / "first.bin", tmp_path / "again.bin"
    for obj, save, load in kinds:
        save(obj, str(first))
        back = load(str(first))
        assert back == obj
        save(back, str(again))
        assert again.read_bytes() == first.read_bytes()
        head, runs = _read_runs(str(first))  # ends where the payload ends
        assert first.read_bytes()[:-32] == head + b"".join(_run(*xs) for xs in runs)


# --- integrity --------------------------------------------------------------

def test_bad_magic(tmp_path, toy_params):
    path = str(tmp_path / "p.bin")
    save_params(toy_params, path)
    with open(path, "r+b") as fh:
        fh.write(b"NOPE")
    with pytest.raises(FormatError, match="bad magic"):
        load_params(path)


def test_version_gate_precedes_checksum(tmp_path, toy_params):
    # changing the version also breaks the digest; the version error must
    # win, for a future version, for version 1, which stored six fields
    # that the parameters fix, for version 2, which stored the noise hint
    # as a rational, for version 3, which stored matrix shapes, vector
    # lengths, a point count and g as a sparse term list, for version 4,
    # which stored a ciphertext's level, for version 5, whose evaluation
    # keys stored the factors P1 and P2, and for version 6, which gave every
    # integer its own sign byte and length
    assert VERSION == 7
    path = str(tmp_path / "p.bin")
    for version in (99, 1, 2, 3, 4, 5, 6):
        save_params(toy_params, path)
        with open(path, "r+b") as fh:
            fh.seek(len(MAGIC))
            fh.write(version.to_bytes(2, "little"))
        with pytest.raises(FormatError, match=f"unsupported format version {version}$"):
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


def _run(*xs: int) -> bytes:
    """``xs`` as one run, written by the reference encoder."""
    buf = bytearray()
    w_run_reference(buf, xs)
    return bytes(buf)


def _widened(run: bytes) -> bytes:
    """``run`` with its width byte + 1 and each entry sign-extended by a
    byte: the same integers, one byte wider than the least width."""
    w = run[0]
    out = bytearray([w + 1])
    for i in range(1, len(run), w):
        entry = run[i : i + w]
        out += entry + (b"\xff" if entry[-1] & 0x80 else b"\x00")
    return bytes(out)


def _read_nine(form: str, run: bytes) -> list[int]:
    """Read a run of nine integers as one ints call or one 3x3 matrix, and
    check that the reader stopped at its last byte."""
    r = _Reader(run)
    xs = r.ints(9) if form == "ints" else [x for row in r.matrix(3, 3) for x in row]
    assert r.pos == len(run)
    return xs


def test_reader_rejects_malformed_primitives():
    """Each malformed run of nine integers is refused with one message, read
    through ints or matrix: width byte 0, a width one past the least, no
    width byte, or entries cut short anywhere.  A run of one entry with a
    high zero byte, as the sign-and-length encoding once read it, is
    refused too."""
    good = _run(-3, 0, 200, *range(6))
    assert good[0] == 2
    malformed = [
        (bytes([0]) + good[1:], "^integer run of width 0$"),
        (bytes([0]), "^integer run of width 0$"),
        (_widened(good), "^integer run of width 3, not the least width 2$"),
    ] + [(good[:cut], "^truncated file$") for cut in range(len(good))]
    for bad, message in malformed:
        for form in ("ints", "matrix"):
            with pytest.raises(FormatError, match=message):
                _read_nine(form, bad)
    with pytest.raises(FormatError, match="^integer run of width 2, not the least width 1$"):
        _Reader(bytes([2]) + b"\x05\x00").ints(1)


@pytest.mark.parametrize("form", ["ints", "matrix"])
def test_reader_decodes_up_to_the_last_byte(form):
    xs = [0, 1, -1, 255, -256, 1 << 70, 7, 3, -(1 << 40)]
    run = _run(*xs)
    assert run[-1] != 0
    assert _read_nine(form, run) == xs


def test_integer_encoding_roundtrips_and_matches_reference():
    """_w_ints writes what the reference writes, and _Reader.ints reads it
    back: each integer at either end of every width up to 70 bytes alone,
    and all of them as one mixed-sign run."""
    xs = [0]
    for k in range(1, 71):
        m = 1 << 8 * k - 1
        xs += [m, -m, m - 1, 1 - m]
    for run in [[x] for x in xs] + [xs]:
        buf = bytearray()
        _w_ints(buf, "run", run)
        assert bytes(buf) == _run(*run)
        r = _Reader(bytes(buf))
        assert r.ints(len(run)) == run and r.pos == len(buf)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-(1 << 2000), 1 << 2000), min_size=1))
def test_run_roundtrips_at_its_least_width(xs):
    buf = bytearray()
    _w_ints(buf, "run", xs)
    r = _Reader(bytes(buf))
    assert r.ints(len(xs)) == xs and r.pos == len(buf)
    w = buf[0]  # w − 1 bytes would not hold every entry
    assert w == 1 or not all(-(1 << 8 * w - 9) <= x < 1 << 8 * w - 9 for x in xs)


def _seal(path: str, body: bytes) -> None:
    """Write ``body`` and its digest to ``path``."""
    with open(path, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())


def _run_lengths(type_byte: int, p) -> list[int]:
    """How many integers each payload run of a file of this type holds."""
    return {TYPE_PARAMS: [],
            TYPE_SECRET: [math.comb(p.v + p.r_g, p.r_g), p.t * p.v,
                          p.message_bits * p.n, p.n * p.n, p.message_bits * p.n],
            TYPE_EVALKEY: [p.ell * p.ell, p.ell * p.ell, p.n * (p.t - p.ell),
                           p.t * p.ell],
            TYPE_PUBLIC: [pk_rows(p) * p.ell, p.message_bits * p.ell],
            TYPE_CIPHERTEXT: [1, p.ell]}[type_byte]


def _read_runs(path: str) -> tuple[bytes, list[list[int]]]:
    """A good file's body up to its payload, and its payload's runs."""
    with open(path, "rb") as fh:
        data = fh.read()
    params, r = _read_container(path, data[6])
    head = data[:r.pos]
    runs = [r.ints(count) for count in _run_lengths(data[6], params)]
    r.end()
    return head, runs


def test_run_wider_than_least_or_of_width_zero_refused(tmp_path, toy_sk,
                                                       toy_params, toy_evk):
    """One key, one byte string: each run of a toy secret key, evaluation
    key and ciphertext, re-sealed one byte wider with its entries
    sign-extended, or with width byte 0, is refused naming the width."""
    file = tmp_path / "f.bin"
    path = str(file)
    ct = encrypt(toy_sk, [1, 0], Random(152))
    for save, load in ((lambda: save_secret_key(toy_sk, path), load_secret_key),
                       (lambda: save_evalkey(toy_evk, path), load_evalkey),
                       (lambda: save_ciphertext(ct, toy_params, path), load_ciphertext)):
        save()
        head, runs = _read_runs(path)
        runs = [_run(*xs) for xs in runs]
        assert file.read_bytes()[:-32] == head + b"".join(runs)
        for i, run in enumerate(runs):
            w = run[0]
            for bad, message in ((_widened(run), f"^integer run of width {w + 1}, "
                                                 f"not the least width {w}$"),
                                 (bytes([0]) + run[1:], "^integer run of width 0$")):
                _seal(path, head + b"".join(runs[:i] + [bad] + runs[i + 1:]))
                with pytest.raises(FormatError, match=message):
                    load(path)


# --- shape and range checks (files re-sealed with a valid checksum) ---------
# The parameters fix every payload's layout: a mis-shaped field is refused
# when saving, and a file whose payload has the wrong number of integers
# when loading.

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


def _refused_unsaved(save, obj, path, message: str) -> None:
    """``save(obj, path)`` raises ParameterError and writes no file."""
    with pytest.raises(ParameterError, match=message):
        save(obj, str(path))
    assert not path.exists()


def test_evalkey_factor_shapes_checked(tmp_path, toy_evk):
    """The parameters fix D1s and D2s at ell x ell and E at n x (t − ell);
    save_evalkey refuses a block one row or one column short and writes no
    file."""
    p = toy_evk.params
    shapes = {"D1s": (p.ell, p.ell), "D2s": (p.ell, p.ell), "E": (p.n, p.t - p.ell)}
    for name, (rows, cols) in shapes.items():
        m = getattr(toy_evk, name)
        for bad in (m[:-1], [row[:-1] for row in m]):
            _refused_unsaved(save_evalkey, replace(toy_evk, **{name: bad}),
                             tmp_path / "evk.bin",
                             f"^{name} must be {rows}x{cols} for these parameters$")


def _evalkey_refused(tmp_path, evk, index: int, value: int, message: str,
                     capsys) -> None:
    """A field holding ``value`` at payload integer ``index`` is refused:
    by save_evalkey with ParameterError (no file written), and in a good
    file patched to hold it, by load_evalkey and by ``mvphe eval`` with
    FormatError and one error line."""
    p = evk.params
    names = ("D1s", "D2s", "E", "W")
    fields = [getattr(evk, name) for name in names]
    flat = [x for m in fields for row in m for x in row]
    entries = iter(flat[:index] + [value] + flat[index + 1:])
    bad = {name: [[next(entries) for _ in row] for row in m]
           for name, m in zip(names, fields)}
    _refused_unsaved(save_evalkey, replace(evk, **bad), tmp_path / "refused.bin",
                     f"^{message}$")
    path = str(tmp_path / "evk.bin")
    save_evalkey(evk, path)
    _shift_payload_int(path, index, value - flat[index])
    with pytest.raises(FormatError, match=f"^{message}$"):
        load_evalkey(path)
    ct = str(tmp_path / "ct.bin")
    save_ciphertext(Ciphertext(vec=[1] * p.ell, q=p.q, noise_hint=p.B), p, ct)
    netlist = tmp_path / "c.txt"
    netlist.write_text("in a\nin b\nt = AND a b\nout t\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--evalkey", path, "--circuit", str(netlist),
                 "--in", ct, ct, "--out-prefix", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_evalkey_factor_range_checked(tmp_path, toy_evk, capsys):
    """D1s/D2s entries must lie in 0..q·2^u − 1 and E's in 0..q − 1, the
    ranges of every key build_evalkey makes: a D entry of q·2^u or −1 and an
    E entry of q or −1 are refused when saving and when loading."""
    p = toy_evk.params
    top = (p.q << p.u) - 1
    assert all(0 <= x <= top for m in (toy_evk.D1s, toy_evk.D2s)
               for row in m for x in row)
    assert all(0 <= x < p.q for row in toy_evk.E for x in row)
    dd, ee = p.ell * p.ell, p.n * (p.t - p.ell)
    cases = [(0, top + 1, f"D1s has an entry outside 0..{top}"),
             (2 * dd - 1, top + 1, f"D2s has an entry outside 0..{top}"),
             (dd, -1, f"D2s has an entry outside 0..{top}"),
             (2 * dd, p.q, f"E has an entry outside 0..{p.q - 1}"),
             (2 * dd + ee - 1, -1, f"E has an entry outside 0..{p.q - 1}")]
    for index, value, message in cases:
        _evalkey_refused(tmp_path, toy_evk, index, value, message, capsys)


def test_evalkey_w_range_checked(tmp_path, toy_evk, capsys):
    """W entries must lie in −floor(q/2)..floor(q/2), as build_evalkey
    balances them; an entry past either end is refused when saving and
    when loading."""
    p = toy_evk.params
    half = p.q // 2
    assert all(-half <= x <= half for row in toy_evk.W for x in row)
    start = 2 * p.ell * p.ell + p.n * (p.t - p.ell)
    message = f"W has an entry outside -{half}..{half}"
    for index, value in ((start, toy_evk.W[0][0] + 7 * p.q),
                         (start + p.t * p.ell - 1, -half - 1)):
        _evalkey_refused(tmp_path, toy_evk, index, value, message, capsys)


def test_evalkey_truncated_anywhere(tmp_path, toy_evk):
    """An evaluation key cut anywhere in its payload, re-sealed, is a
    truncated file."""
    path = tmp_path / "evk.bin"
    save_evalkey(toy_evk, str(path))
    body = path.read_bytes()[:-32]
    payload = 11 + int.from_bytes(body[7:11], "little")
    for cut in (payload, payload + 1, (payload + len(body)) // 2, len(body) - 1):
        path.write_bytes(body[:cut] + hashlib.sha256(body[:cut]).digest())
        with pytest.raises(FormatError, match="^truncated file$"):
            load_evalkey(str(path))


def test_evalkey_w_shape_and_u_checked(tmp_path, toy_evk):
    """W must be t x ell.  The payload's layout does not depend on u, the
    block's last u32: a u patched down leaves D entries past q·2^(u − 1)
    and is refused, and one patched up reads the same integers as a key
    of another u."""
    p = toy_evk.params
    for bad in (replace(toy_evk, W=toy_evk.W[:-1]),
                replace(toy_evk, W=[row[:-1] for row in toy_evk.W])):
        _refused_unsaved(save_evalkey, bad, tmp_path / "evk.bin",
                         f"^W must be {p.t}x{p.ell} for these parameters$")
    path = tmp_path / "evk.bin"
    save_evalkey(toy_evk, str(path))
    _patch_payload(str(path), -4, 4, (p.u - 1).to_bytes(4, "little"))
    with pytest.raises(FormatError, match=r"^D1s has an entry outside 0\.\."):
        load_evalkey(str(path))
    save_evalkey(toy_evk, str(path))
    _patch_payload(str(path), -4, 4, (p.u + 1).to_bytes(4, "little"))
    back = load_evalkey(str(path))
    assert back.params.u == p.u + 1
    assert (back.D1s, back.D2s, back.E, back.W) == (toy_evk.D1s, toy_evk.D2s,
                                                    toy_evk.E, toy_evk.W)


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


def _params_file(path, p, q: int, sigma: tuple[int, int]) -> None:
    """A parameters file of ``p``'s fields, with ``q`` and sigma's
    (numerator, denominator) as given, written by the reference encoder."""
    block = bytearray()
    for x in (p.lambda_, p.L, p.v, p.r_g, p.r_prime, p.ell):
        _w_uint(block, x, 4)
    for run in ((q,), sigma, (p.B,)):
        w_run_reference(block, run)
    _w_uint(block, p.u, 4)
    body = bytearray(MAGIC)
    _w_uint(body, VERSION, 2)
    body.append(TYPE_PARAMS)
    _w_uint(body, len(block), 4)
    _seal(str(path), bytes(body + block))


def test_params_sigma_denominator_checked(tmp_path, toy_params):
    """sigma's denominator must be positive."""
    path = tmp_path / "p.bin"
    for sigma in ((0, 0), (-8, -1), (8, -1)):
        _params_file(path, toy_params, toy_params.q, sigma)
        with pytest.raises(FormatError, match="^bad rational denominator$"):
            load_params(str(path))


def test_params_sigma_in_lowest_terms(tmp_path, toy_params):
    """One parameter set has one byte string: a sigma of 8 stored as 16/2
    (or 0 as 0/2) is refused, while 8/1 loads as the preset."""
    path = tmp_path / "p.bin"
    for sigma in ((16, 2), (-16, 2), (0, 2), (24, 3)):
        _params_file(path, toy_params, toy_params.q, sigma)
        with pytest.raises(FormatError, match="^sigma is not in lowest terms$"):
            load_params(str(path))
    _params_file(path, toy_params, toy_params.q, (toy_params.sigma, 1))
    assert load_params(str(path)) == toy_params


def test_params_q_past_64_bits_refused_at_once(tmp_path, toy_params):
    """A q of more than 64 bits is refused before the primality test, which
    would sweep 64 Miller–Rabin rounds over this one, as wide as a run
    holds."""
    q = (1 << 2038) + 1
    while math.gcd(q, math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))) != 1:
        q += 2
    path = tmp_path / "p.bin"
    _params_file(path, toy_params, q, (toy_params.sigma, 1))
    assert path.read_bytes()[11 + 24] == 255  # q's run width
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="q must have at most 64 bits, got 2039"):
        load_params(str(path))
    assert time.perf_counter() - start < 0.5


def test_params_block_stray_bytes_refused(tmp_path, toy_params, capsys):
    """Bytes left over inside the length-prefixed parameter block are
    refused, by the library and by ``mvphe keygen --params``."""
    path = tmp_path / "p.bin"
    save_params(toy_params, str(path))
    body = path.read_bytes()[:-32]
    # a parameters file has no payload: its block runs to the digest
    block_len = int.from_bytes(body[7:11], "little")
    body = body[:7] + (block_len + 3).to_bytes(4, "little") + body[11:] + bytes(3)
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(FormatError, match="^3 bytes after the parameter block$"):
        load_params(str(path))
    capsys.readouterr()
    assert main(["keygen", "--params", str(path), "--out", str(tmp_path / "sk.bin")]) == 2
    assert "error: 3 bytes after the parameter block" in capsys.readouterr().err


def test_key_matrix_shapes_checked(tmp_path, toy_sk):
    path = tmp_path / "key.bin"
    for name in ("points", "S", "R1", "R2"):
        m = getattr(toy_sk, name)
        rows, cols = len(m), len(m[0])
        for bad in (m[:-1], [row[:-1] for row in m]):
            key = copy.copy(toy_sk)
            setattr(key, name, bad)
            _refused_unsaved(save_secret_key, key, path,
                             f"^{name} must be {rows}x{cols} for these parameters$")
    pk = pk_keygen(toy_sk, Random(150))
    for bad in (replace(pk, C0=[row[:-1] for row in pk.C0]),
                replace(pk, C0=pk.C0[:1]),
                replace(pk, C_unit=[row[:-1] for row in pk.C_unit]),
                replace(pk, C_unit=pk.C_unit[:-1])):
        _refused_unsaved(save_public_key, bad, path, "^(C0|C_unit) must be ")


def test_secret_key_generator_checked(tmp_path, toy_sk):
    """g must be what keygen draws: v variables, degree r_g, monic under
    grevlex, nonzero constant term.  The file holds g's coefficients on the
    C(v + r_g, r_g) monomials of degree <= r_g in v variables, as the key
    does, so a g of another length is refused when saving, here a monic
    g in one variable and g² in v; a scaled g, a g of lower degree or one
    with a zero constant would otherwise load and evaluate, so the saver
    refuses them, and so an empty g, and the loader refuses a good file
    whose g run is patched to hold one."""
    p = toy_sk.params
    g = toy_sk.g
    cols = len(enumerate_monomials(p.v, p.r_g))
    path = tmp_path / "key.bin"
    square = _generator_square(toy_sk)
    assert square[-1] == 1 and square[0] != 0
    for bad in ([g[0], 1], square):
        key = copy.copy(toy_sk)
        key.g = bad
        _refused_unsaved(save_secret_key, key, path,
                         f"^g must be 1x{cols} for these parameters$")
    key = copy.copy(toy_sk)
    key.g = []
    _refused_unsaved(save_secret_key, key, path,
                     "^secret key generator is not monic of degree")
    for bad in ([balance(2 * c, p.q) for c in g], g[:-1] + [0], [0] + g[1:]):
        key = copy.copy(toy_sk)
        key.g = bad
        _refused_unsaved(save_secret_key, key, tmp_path / "refused.bin",
                         "^secret key generator is not monic of degree")
        save_secret_key(toy_sk, str(path))
        good = _run(*g)
        _patch_payload(str(path), 0, len(good), _run(*bad))
        with pytest.raises(FormatError, match="generator is not monic of degree"):
            load_secret_key(str(path))


def _generator_square(sk) -> list[int]:
    """g² as its coefficients on the monomials of degree <= 2·r_g."""
    p = sk.params
    g = generator(sk)
    return [(g * g).terms.get(m, 0) for m in enumerate_monomials(p.v, 2 * p.r_g)]


def test_secret_key_huge_r_g_refused_at_once(tmp_path, toy_sk, stall_guard):
    """A block patched to r_g = 40000 names C(40002, 2) ≈ 8·10^8 monomials of
    g.  The loader reads their coefficients before it enumerates them, so it
    runs out of bytes at once instead of stalling on the enumeration."""
    path = str(tmp_path / "key.bin")
    save_secret_key(toy_sk, path)
    _patch_params_u32(path, 3, 40000)
    start = time.perf_counter()
    with stall_guard(), pytest.raises(FormatError):
        load_secret_key(path)
    assert time.perf_counter() - start < 5


def test_secret_key_singular_r1_refused(tmp_path, toy_sk):
    """C = [[R1, R2^T − S^T], [0, I]] is invertible exactly when R1 is, so
    a file whose R1 is singular is malformed, not a linear-algebra error."""
    path = str(tmp_path / "key.bin")
    key = copy.copy(toy_sk)
    key.R1 = [[0] * toy_sk.params.n for _ in range(toy_sk.params.n)]
    save_secret_key(key, path)
    with pytest.raises(FormatError, match="R1 is singular"):
        load_secret_key(path)


def test_secret_key_rank_deficient_r1_refused(tmp_path, toy_sk):
    """An R1 that is singular but not zero, its last row equal to its
    first, is refused too: the solve against R1 that S_dec needs raises
    SingularMatrixError, which the loader reports as a malformed file."""
    R1 = [row[:] for row in toy_sk.R1]
    R1[-1] = R1[0][:]
    key = copy.copy(toy_sk)
    key.R1 = R1
    path = str(tmp_path / "key.bin")
    save_secret_key(key, path)
    with pytest.raises(FormatError, match=r"^secret key R1 is singular mod q = "):
        load_secret_key(path)
    with pytest.raises(SingularMatrixError):
        SecretKey(params=toy_sk.params, g=toy_sk.g, points=toy_sk.points,
                  S=toy_sk.S, R1=R1, R2=toy_sk.R2)


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


def test_ciphertext_hint_checked(tmp_path, toy_params):
    """The hint must be nonnegative, and any nonnegative hint loads, also
    one past the decryption limit; a vector of another length is refused
    by test_payload_one_integer_off_refused.  A hint that has outgrown
    255-byte integers, after about 2040 self-sums, is refused when saving."""
    path = str(tmp_path / "ct.bin")
    vec = [3] * toy_params.ell
    save_ciphertext(Ciphertext(vec=vec, q=toy_params.q, noise_hint=toy_params.q),
                    toy_params, path)
    assert load_ciphertext(path)[0].noise_hint == toy_params.q
    # Ciphertext refuses a negative hint, so write it into the file: the
    # hint opens the payload
    save_ciphertext(Ciphertext(vec=vec, q=toy_params.q, noise_hint=0),
                    toy_params, path)
    _patch_payload(path, 0, len(_run(0)), _run(-1))
    with pytest.raises(FormatError, match="negative noise hint -1"):
        load_ciphertext(path)
    # and save_ciphertext refuses a vector of another length
    with pytest.raises(ParameterError, match=f"must have {toy_params.ell} entries"):
        save_ciphertext(Ciphertext(vec=vec[:-1], q=toy_params.q,
                                   noise_hint=0), toy_params, str(tmp_path / "c2.bin"))
    assert not (tmp_path / "c2.bin").exists()
    ct = Ciphertext(vec=vec, q=toy_params.q, noise_hint=toy_params.B)
    sums = 0
    while ct.noise_hint < 1 << 2039:
        save_ciphertext(ct, toy_params, path)
        assert load_ciphertext(path)[0] == ct
        ct = eval_add(ct, ct)
        sums += 1
    assert 2030 < sums <= 2040
    with pytest.raises(ParameterError, match="^noise hint needs 256-byte integers"):
        save_ciphertext(ct, toy_params, str(tmp_path / "c2.bin"))
    assert not (tmp_path / "c2.bin").exists()


def test_payload_one_integer_off_refused(tmp_path, toy_sk, toy_params, toy_evk):
    """The parameters fix how many integers each payload run holds, so a
    file whose last run is one integer short is truncated and one with an
    integer more has bytes after its payload.  A parameters file has no
    payload; its block one u32 short (u cut) is truncated."""
    ct = encrypt(toy_sk, [1, 0], Random(155))
    pk = pk_keygen(toy_sk, Random(156))
    kinds = [  # (save, load)
        (lambda path: save_secret_key(toy_sk, path), load_secret_key),
        (lambda path: save_evalkey(toy_evk, path), load_evalkey),
        (lambda path: save_public_key(pk, path), load_public_key),
        (lambda path: save_ciphertext(ct, toy_params, path), load_ciphertext),
    ]
    path = tmp_path / "f.bin"
    for save, load in kinds:
        save(str(path))
        body = path.read_bytes()[:-32]
        last = _run(*_read_runs(str(path))[1][-1])
        assert body.endswith(last)
        w = last[0]  # bytes per entry of the last run
        for changed, message in ((body[:-w], "^truncated file$"),
                                 (body + body[-w:], f"^{w} bytes after the payload$")):
            path.write_bytes(changed + hashlib.sha256(changed).digest())
            with pytest.raises(FormatError, match=message):
                load(str(path))
    save_params(toy_params, str(path))
    body = path.read_bytes()[:-36]  # the block's last u32 is u
    body = body[:7] + (len(body) - 11).to_bytes(4, "little") + body[11:]
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(FormatError, match="^truncated file$"):
        load_params(str(path))
    save_params(toy_params, str(path))
    body = path.read_bytes()[:-32] + _run(0)
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(FormatError, match="^2 bytes after the payload$"):
        load_params(str(path))


# --- canonical residues -----------------------------------------------------
# One key, one byte string: a residue shifted by q names the same key, so
# the loaders refuse it and the writers never make it.

def _shift_payload_int(path: str, index: int, by: int) -> None:
    """Add ``by`` to the index-th integer of the payload, re-encode the runs
    at their least widths and re-seal the checksum."""
    head, runs = _read_runs(path)
    for xs in runs:
        if index < len(xs):
            xs[index] += by
            break
        index -= len(xs)
    _seal(path, head + b"".join(_run(*xs) for xs in runs))


def test_residue_shifted_by_q_refused(tmp_path, toy_sk, toy_params, toy_evk, capsys):
    """One entry of each residue field, shifted by q, makes a file that every
    loader refuses and that ``mvphe`` answers with exit 2 and one error
    line; saving the same shifted object is refused and writes no file."""
    p = toy_params
    q, half = p.q, p.q // 2
    ct = encrypt(toy_sk, [1, 0], Random(157))
    pk = pk_keygen(toy_sk, Random(158))
    files = {kind: str(tmp_path / f"{kind}.bin") for kind in ("sk", "evk", "pk", "ct")}
    netlist = tmp_path / "c.txt"
    netlist.write_text("in a\nin b\nt = AND a b\nout t\n", encoding="utf-8")
    out = str(tmp_path / "out.bin")
    argv = {
        "sk": ["decrypt", "--key", files["sk"], "--in", files["ct"]],
        "evk": ["eval", "--evalkey", files["evk"], "--circuit", str(netlist),
                "--in", files["ct"], files["ct"], "--out-prefix", out],
        "pk": ["pk-encrypt", "--pk", files["pk"], "--bits", "01", "--out", out],
        "ct": ["decrypt", "--key", files["sk"], "--in", files["ct"]],
    }
    g_len = math.comb(p.v + p.r_g, p.r_g)
    cases = [  # (kind, field, index, lo)
        ("sk", "g", 0, -half),
        ("sk", "points", g_len, 0),
        ("sk", "S", g_len + p.t * p.v, 0),
        ("sk", "R1", g_len + p.t * p.v + p.message_bits * p.n, 0),
        ("sk", "R2", g_len + p.t * p.v + (p.message_bits + p.n) * p.n, 0),
        ("evk", "E", 2 * p.ell * p.ell, 0),
        ("evk", "W", 2 * p.ell * p.ell + p.n * (p.t - p.ell), -half),
        ("pk", "C0", 0, -half),
        ("pk", "C_unit", pk.d * p.ell, -half),
        ("ct", "ciphertext", 1, -half),  # past the hint
    ]
    save = {"sk": lambda: save_secret_key(toy_sk, files["sk"]),
            "evk": lambda: save_evalkey(toy_evk, files["evk"]),
            "pk": lambda: save_public_key(pk, files["pk"]),
            "ct": lambda: save_ciphertext(ct, p, files["ct"])}
    load = {"sk": load_secret_key, "evk": load_evalkey, "pk": load_public_key,
            "ct": load_ciphertext}
    for kind, field, index, lo in cases:
        for f in save.values():
            f()
        _shift_payload_int(files[kind], index, q)
        message = f"{field} has an entry outside {lo}..{lo + q - 1}"
        with pytest.raises(FormatError, match=f"^{message}$"):
            load[kind](files[kind])
        capsys.readouterr()
        assert main(argv[kind]) == 2, field
        assert capsys.readouterr().err == f"error: {message}\n"
    # the writers refuse what the loaders refuse
    tmp = tmp_path / "refused.bin"
    for name in ("points", "S", "R1", "R2"):
        key = copy.copy(toy_sk)
        m = [list(row) for row in getattr(toy_sk, name)]
        m[0][0] += q
        setattr(key, name, m)
        _refused_unsaved(save_secret_key, key, tmp,
                         f"^{name} has an entry outside 0..{q - 1}$")
    key = copy.copy(toy_sk)
    key.g = [c + q for c in toy_sk.g]
    _refused_unsaved(save_secret_key, key, tmp, f"^g has an entry outside -{half}..")
    for name in ("C0", "C_unit"):
        m = [row[:] for row in getattr(pk, name)]
        m[0][0] -= q
        _refused_unsaved(save_public_key, replace(pk, **{name: m}), tmp,
                         f"^{name} has an entry outside -{half}..{half}$")
    bad = copy.copy(ct)
    bad.vec = [ct.vec[0] + q, *ct.vec[1:]]
    _refused_unsaved(lambda c, path: save_ciphertext(c, p, path), bad, tmp,
                     f"^ciphertext has an entry outside -{half}..{half}$")


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


# --- parameter-block caches -------------------------------------------------

def test_one_block_decodes_to_one_params(tmp_path, toy_params, toy_sk):
    """Every load of one parameter block, in any file type, gives the one
    Params object its first decode made."""
    paths = [str(tmp_path / name) for name in ("p.bin", "key.bin")]
    save_params(toy_params, paths[0])
    save_secret_key(toy_sk, paths[1])
    first = load_params(paths[0])
    assert first == toy_params
    assert load_params(paths[0]) is first
    assert load_secret_key(paths[1]).params is first


def test_malformed_block_refused_on_every_load(tmp_path, toy_params):
    """A raise is not cached: a block with sigma not in lowest terms is
    refused on each of two loads in a row."""
    path = tmp_path / "p.bin"
    _params_file(path, toy_params, toy_params.q, (16, 2))
    for _ in range(2):
        with pytest.raises(FormatError, match="^sigma is not in lowest terms$"):
            load_params(str(path))


def test_cached_block_is_a_fresh_encode(tmp_path):
    """The block a save writes from the cache is byte for byte the one a
    fresh encode gives, on every preset and on a Fraction sigma, also for
    an equal Params that is another object."""
    params = [preset_params(name) for name in sorted(PRESETS)]
    params.append(preset_params("toy", sigma=Fraction(17, 2), B=51))
    for p in params:
        fresh = _params_block.__wrapped__(p)
        _params_block(p)
        hits = _params_block.cache_info().hits
        assert _params_block(p) == fresh
        assert _params_block(replace(p)) == fresh
        assert _params_block.cache_info().hits == hits + 2
        path = tmp_path / "p.bin"
        save_params(p, str(path))
        assert path.read_bytes()[11:11 + len(fresh)] == fresh


def test_parameter_caches_stay_bounded(toy_params):
    """Neither cache grows past its maxsize, whatever the number of
    parameter sets a process sees."""
    for u in range(40):
        p = replace(toy_params, u=u)
        assert _decode_params(_params_block(p)) == p
    for cached in (_params_block, _decode_params):
        info = cached.cache_info()
        assert 0 < info.currsize <= info.maxsize < 40
