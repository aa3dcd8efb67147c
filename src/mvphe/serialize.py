"""Binary container format for keys, parameters, and ciphertexts.

Layout of every file:

    magic "MVPH" | version u16 | type u8 | params block | payload | sha256

All integers are little-endian.  The header's version is a u16, its type
a u8 and the parameter block's length a u32; the block's lambda, L, v,
r_g, r_prime, ell and u are u32.  Every other field is one run: a width
byte w, then each of its integers as w signed (two's complement) bytes,
where w is the least width that holds the run's min and max.  q, B and a
ciphertext's noise hint are runs of one, sigma a run of two (numerator,
then a positive denominator), and each matrix one run, row by row.  The
trailing 32 bytes are the SHA-256 digest of everything before them.  The
version is checked before any payload is parsed; a corrupted digest, a
truncated file or bytes after the payload raise FormatError.

Every file embeds the complete parameter block of the parameters it was
produced under.  The 8-byte parameter fingerprint — the first 8 bytes of
the SHA-256 of that block — is how tools decide whether two files belong
together without comparing full keys.  A process decodes each block it
reads once and encodes each parameter set it writes once (``_decode_params``
and ``_params_block``, each a bounded cache).

A file stores nothing that its parameters fix.  The parameter block holds
lambda, L, v, r_g, r_prime, ell, q, sigma, B and u, and bytes left over
inside it are refused.  It also fixes every payload's layout, so a payload
is a plain sequence of runs with no shape, length, count or exponent in
it.  ``_layout`` lists each file type's runs in order, with the shape and
the entry range of each.  Every save goes through ``_save``, which refuses
a field of another shape or with an entry out of its range with
ParameterError before it writes; every load goes through ``_load``, which
reads each field in its shape and refuses an entry out of its range with
FormatError, after one min and one max pass per field.

Secret-key files store only the core fields: g's coefficients over
``enumerate_monomials(v, r_g)`` (ascending grevlex, so the constant comes
first and the leading monomial last), then the points, S, R1 and R2.  That
g row is ``SecretKey.g`` itself, written and read as it stands.  R, C
and S_dec are recomputed on load and D on its first use, which only
``build_evalkey`` makes, so a save/load round trip is bit-exact by
construction.  g must be as keygen draws it, with leading coefficient 1
and a nonzero constant term: a scaled g, one of lower degree or one with a
zero constant would otherwise load and evaluate, so saver and loader both
refuse it.  The loader refuses a singular R1, which leaves C without an
inverse: the solve against R1 that S_dec needs finds it.  Evaluation keys
store the blocks the factors P1 and P2 follow from, not the factors: D1s,
D2s, E, then W; the carry bound k_max follows from the parameters.
Public-key files store exactly d = ceil((1 + PK_EPS)·ell·log2 q) zero
encryptions, then the encryptions of the unit vectors.  Ciphertext files store the noise hint, one integer
that must be nonnegative, and the ell entries of the vector.

Files are canonical: every run has its least width, every residue is
stored in the one form the package makes (``_layout``'s ranges), and the
parameter block's sigma is a fraction in lowest terms, so one key has one
byte string.  A run of width 0 or of any other width is refused with
FormatError, and a run that would need more than 255 bytes an entry, which
only a noise hint can reach after about 2040 self-sums, is refused when
saving.
"""

from __future__ import annotations

import hashlib
import math
import os
import stat
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable

from .errors import FormatError, ParameterError, SingularMatrixError
from .keys import EvalKey, Params, SecretKey
from .linalg import Matrix, _check_range
from .she import Ciphertext, PublicKey, _check_ciphertext, pk_rows

__all__ = [
    "MAGIC", "VERSION", "params_fingerprint",
    "save_params", "load_params",
    "save_secret_key", "load_secret_key",
    "save_evalkey", "load_evalkey",
    "save_public_key", "load_public_key",
    "save_ciphertext", "load_ciphertext",
]

MAGIC = b"MVPH"
VERSION = 7

TYPE_PARAMS = 0x50      # 'P'
TYPE_SECRET = 0x53      # 'S'
TYPE_EVALKEY = 0x45     # 'E'
TYPE_PUBLIC = 0x4B      # 'K'
TYPE_CIPHERTEXT = 0x43  # 'C'

_TYPE_NAMES = {
    TYPE_PARAMS: "parameters",
    TYPE_SECRET: "secret key",
    TYPE_EVALKEY: "evaluation key",
    TYPE_PUBLIC: "public key",
    TYPE_CIPHERTEXT: "ciphertext",
}


# ---------------------------------------------------------------------------
# primitive encoders
# ---------------------------------------------------------------------------

def _w_uint(buf: bytearray, x: int, nbytes: int) -> None:
    buf += x.to_bytes(nbytes, "little")


def _width(lo: int, hi: int) -> int:
    """The least w such that w signed bytes hold every integer in lo..hi."""
    return (max(hi, ~lo).bit_length() + 8) // 8


def _w_ints(buf: bytearray, name: str, xs: Iterable[int]) -> None:
    """Encode the nonempty ``xs`` as one run: a width byte w, then each
    entry as w signed little-endian bytes, w the least that holds them."""
    xs = list(xs)
    w = _width(min(xs), max(xs))
    if w > 255:
        raise ParameterError(f"{name} needs {w}-byte integers; a run holds "
                             "at most 255")
    buf.append(w)
    buf += b"".join([x.to_bytes(w, "little", signed=True) for x in xs])


def _w_matrix(buf: bytearray, name: str, m: Matrix) -> None:
    """Encode ``m`` as one run, row by row."""
    _w_ints(buf, name, chain.from_iterable(m))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def uint(self, nbytes: int) -> int:
        return int.from_bytes(self.take(nbytes), "little")

    def ints(self, count: int) -> list[int]:
        """One run of ``count`` integers, ``count`` >= 1.  Every payload is
        read through here; a run cut short, or whose width is 0 or other
        than the least that holds its entries, is refused."""
        w = self.uint(1)
        if not w:
            raise FormatError("integer run of width 0")
        raw = self.take(w * count)
        from_bytes = int.from_bytes
        out = [from_bytes(raw[i : i + w], "little", signed=True)
               for i in range(0, len(raw), w)]
        least = _width(min(out), max(out))
        if w != least:
            raise FormatError(f"integer run of width {w}, not the least "
                              f"width {least}")
        return out

    def matrix(self, rows: int, cols: int) -> Matrix:
        """rows x cols integers, one run, row by row."""
        xs = self.ints(rows * cols)
        return [xs[i : i + cols] for i in range(0, len(xs), cols)]

    def end(self, what: str = "payload") -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} bytes after the {what}")


# ---------------------------------------------------------------------------
# parameter block and fingerprint
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _params_block(p: Params) -> bytes:
    """p's parameter block, encoded once per parameter set: every save
    writes it and ``params_fingerprint`` hashes it."""
    buf = bytearray()
    for x in (p.lambda_, p.L, p.v, p.r_g, p.r_prime, p.ell):
        _w_uint(buf, x, 4)
    sigma = Fraction(p.sigma)
    _w_ints(buf, "q", (p.q,))
    _w_ints(buf, "sigma", (sigma.numerator, sigma.denominator))
    _w_ints(buf, "B", (p.B,))
    _w_uint(buf, p.u, 4)
    return bytes(buf)


def _read_params(r: _Reader) -> Params:
    lam, L, v, r_g, r_prime, ell = (r.uint(4) for _ in range(6))
    [q] = r.ints(1)
    num, den = r.ints(2)
    if den <= 0:
        raise FormatError("bad rational denominator")
    if math.gcd(num, den) != 1:  # one parameter set, one byte string
        raise FormatError("sigma is not in lowest terms")
    sigma = Fraction(num, den)
    [B] = r.ints(1)
    u = r.uint(4)
    r.end("parameter block")
    return Params(lambda_=lam, L=L, v=v, r_g=r_g, r_prime=r_prime, ell=ell, q=q,
                  sigma=int(sigma) if sigma.denominator == 1 else sigma, B=B, u=u)


@lru_cache(maxsize=16)
def _decode_params(block: bytes) -> Params:
    """The parameters a block holds, decoded once per block: every load
    reads one.  A malformed block raises, and a raise is not cached, so it
    is refused on every load."""
    return _read_params(_Reader(block))


def params_fingerprint(p: Params) -> str:
    """16-hex-character identifier of a parameter set."""
    return hashlib.sha256(_params_block(p)).digest()[:8].hex()


# ---------------------------------------------------------------------------
# container plumbing
# ---------------------------------------------------------------------------

def _read_container(path: str, expect_type: int) -> tuple[Params, _Reader]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 2 + 1 + 4 + 32:
        raise FormatError(f"{path}: too short to be a container file")
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic; not a container file")
    version = int.from_bytes(data[4:6], "little")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    body, digest = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise FormatError(f"{path}: checksum mismatch; file corrupted")
    type_byte = data[6]
    if type_byte != expect_type:
        have = _TYPE_NAMES.get(type_byte, f"type 0x{type_byte:02x}")
        want = _TYPE_NAMES[expect_type]
        raise FormatError(f"{path}: contains {have}, expected {want}")
    r = _Reader(body)
    r.pos = 7
    block_len = r.uint(4)
    block = r.take(block_len)
    return _decode_params(block), r


def _layout(type_byte: int, p: Params) -> tuple[tuple, ...]:
    """(field, rows, cols, lowest entry, highest entry) of each payload run
    of a file of this type, in file order.  The noise hint alone has no
    range here: a ciphertext refuses a negative one itself."""
    half, top = p.q // 2, p.q - 1
    if type_byte == TYPE_SECRET:
        return (("g", 1, math.comb(p.v + p.r_g, p.r_g), -half, half),
                ("points", p.t, p.v, 0, top), ("S", p.message_bits, p.n, 0, top),
                ("R1", p.n, p.n, 0, top), ("R2", p.message_bits, p.n, 0, top))
    if type_byte == TYPE_EVALKEY:
        d_top = (p.q << p.u) - 1
        return (("D1s", p.ell, p.ell, 0, d_top), ("D2s", p.ell, p.ell, 0, d_top),
                ("E", p.n, p.t - p.ell, 0, top), ("W", p.t, p.ell, -half, half))
    if type_byte == TYPE_PUBLIC:
        return (("C0", pk_rows(p), p.ell, -half, half),
                ("C_unit", p.message_bits, p.ell, -half, half))
    if type_byte == TYPE_CIPHERTEXT:
        return (("noise hint", 1, 1, None, None),
                ("ciphertext", 1, p.ell, -half, half))
    return ()


def _save(path: str, type_byte: int, params: Params,
          fields: Iterable[Matrix]) -> None:
    """Write a file of ``fields``, the matrices of ``_layout``'s runs in
    order; a field of another shape or with an entry out of its range is
    refused before anything is written.  It is written in place and a
    regular file then cut to length, with no fsync: truncating first makes
    ext4 flush at close."""
    buf = bytearray(MAGIC)
    _w_uint(buf, VERSION, 2)
    buf.append(type_byte)
    block = _params_block(params)
    _w_uint(buf, len(block), 4)
    buf += block
    for (name, rows, cols, lo, hi), m in zip(_layout(type_byte, params), fields,
                                             strict=True):
        if len(m) != rows or any(len(row) != cols for row in m):
            raise ParameterError(f"{name} must be {rows}x{cols} for these parameters")
        if lo is not None:
            _check_range(name, m, lo, hi, ParameterError)
        _w_matrix(buf, name, m)
    buf += hashlib.sha256(buf).digest()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(buf)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _load(path: str, type_byte: int) -> tuple[Params, list[Matrix]]:
    """The parameters and the payload fields of a file of this type, each
    of ``_layout``'s shape and in its range."""
    params, r = _read_container(path, type_byte)
    layout = _layout(type_byte, params)
    fields = [r.matrix(rows, cols) for _, rows, cols, _, _ in layout]
    r.end()
    for (name, _, _, lo, hi), m in zip(layout, fields):
        if lo is not None:
            _check_range(name, m, lo, hi, FormatError)
    return params, fields


# ---------------------------------------------------------------------------
# public save/load API
# ---------------------------------------------------------------------------

def save_params(p: Params, path: str) -> None:
    _save(path, TYPE_PARAMS, p, ())


def load_params(path: str) -> Params:
    return _load(path, TYPE_PARAMS)[0]


def _check_generator(coeffs: list[int], p: Params, error: type[Exception]) -> None:
    """g must be as keygen draws it, monic with a nonzero constant term mod
    q: a scaled g, one of lower degree or one with a zero constant would
    otherwise load and evaluate.  A g of another length that passes is
    refused by ``_layout``'s shape."""
    if not coeffs or coeffs[-1] % p.q != 1 or coeffs[0] % p.q == 0:
        raise error(f"secret key generator is not monic of degree r_g = {p.r_g} "
                    f"in v = {p.v} variables with a nonzero constant term")


def save_secret_key(sk: SecretKey, path: str) -> None:
    _check_generator(sk.g, sk.params, ParameterError)
    _save(path, TYPE_SECRET, sk.params, ([sk.g], sk.points, sk.S, sk.R1, sk.R2))


def load_secret_key(path: str) -> SecretKey:
    params, ([g], points, S, R1, R2) = _load(path, TYPE_SECRET)
    _check_generator(g, params, FormatError)
    try:  # the solve for S_dec refuses a singular R1, and so a singular C
        return SecretKey(params=params, g=g, points=[tuple(z) for z in points],
                         S=S, R1=R1, R2=R2)
    except SingularMatrixError:
        raise FormatError(f"secret key R1 is singular mod q = {params.q}") from None


def save_evalkey(evk: EvalKey, path: str) -> None:
    _save(path, TYPE_EVALKEY, evk.params, (evk.D1s, evk.D2s, evk.E, evk.W))


def load_evalkey(path: str) -> EvalKey:
    params, fields = _load(path, TYPE_EVALKEY)
    return EvalKey(params, *fields)


def save_public_key(pk: PublicKey, path: str) -> None:
    _save(path, TYPE_PUBLIC, pk.params, (pk.C0, pk.C_unit))


def load_public_key(path: str) -> PublicKey:
    params, (C0, C_unit) = _load(path, TYPE_PUBLIC)
    return PublicKey(params=params, C0=C0, C_unit=C_unit)


def save_ciphertext(ct: Ciphertext, params: Params, path: str) -> None:
    _check_ciphertext(params, ct)
    _save(path, TYPE_CIPHERTEXT, params, ([[ct.noise_hint]], [ct.vec]))


def load_ciphertext(path: str) -> tuple[Ciphertext, Params]:
    params, ([[hint]], [vec]) = _load(path, TYPE_CIPHERTEXT)
    if hint < 0:
        raise FormatError(f"negative noise hint {hint}")
    return Ciphertext(vec=vec, q=params.q, noise_hint=hint), params
