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
together without comparing full keys.

A file stores nothing that its parameters fix.  The parameter block holds
lambda, L, v, r_g, r_prime, ell, q, sigma, B and u, and bytes left over
inside it are refused.  It also fixes every payload's layout, so a payload
is a plain sequence of runs with no shape, length, count or exponent in it,
and each ``save_*`` refuses a field whose shape differs from the one the
parameters fix.  Secret-key files store only the core fields: g as
C(v + r_g, r_g) coefficients over
``enumerate_monomials(v, r_g)`` (ascending grevlex, so the constant comes
first and the leading monomial last), the t x v points, then S, R1 and R2.
All derived matrices are recomputed on load, so a save/load round trip is
bit-exact by construction; g must be as keygen draws it, with leading
coefficient 1 and a nonzero constant term.  Evaluation keys store the
blocks the factors P1 and P2 follow from, not the factors: D1s and D2s
(ell x ell, entries in 0..q·2^u − 1), E (n x (t − ell), entries in
0..q − 1), then W (t x ell, entries in −floor(q/2)..floor(q/2), as
build_evalkey balances it); the carry bound k_max follows from the
parameters.  Public-key files store exactly
d = ceil((1 + PK_EPS)·ell·log2 q) zero encryptions, then the encryptions
of the unit vectors.  Ciphertext files store the noise hint, one integer
that must be nonnegative, and the ell entries of the vector.

Files are canonical: every run has its least width and every residue is
stored in the one form the package makes, so one key has one byte string.
A run of width 0 or of any other width is refused with FormatError, and a
run that would need more than 255 bytes an entry, which only a noise hint
can reach after about 2040 self-sums, is refused when saving.  g's
coefficients and every public-key and ciphertext entry are balanced, in
−floor(q/2)..floor(q/2), the points, S, R1 and R2 lie in 0..q − 1, and
the parameter block's sigma is a fraction in lowest terms.  Each loader
refuses any other form with FormatError, after one min and one max pass
per field, and every ``save_*`` refuses it with ParameterError.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import chain
from typing import Iterable

from .errors import FormatError, ParameterError, SingularMatrixError
from .keys import EvalKey, Params, SecretKey
from .linalg import Matrix
from .mvpoly import Polynomial, enumerate_monomials
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


def _w_matrix(buf: bytearray, name: str, m: Matrix, rows: int, cols: int) -> None:
    """Encode ``m`` as one run, row by row; it must be rows x cols."""
    if len(m) != rows or any(len(row) != cols for row in m):
        raise ParameterError(f"{name} must be {rows}x{cols} for these parameters")
    _w_ints(buf, name, chain.from_iterable(m))


def _check_range(name: str, m: Matrix, lo: int, hi: int,
                 error: type[Exception]) -> None:
    """Refuse, with ``error``, a nonempty matrix with an entry outside
    lo..hi: one min and one max pass, however large the matrix."""
    if min(map(min, m)) < lo or max(map(max, m)) > hi:
        raise error(f"{name} has an entry outside {lo}..{hi}")


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

def _params_block(p: Params) -> bytes:
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


def params_fingerprint(p: Params) -> str:
    """16-hex-character identifier of a parameter set."""
    return hashlib.sha256(_params_block(p)).digest()[:8].hex()


# ---------------------------------------------------------------------------
# container plumbing
# ---------------------------------------------------------------------------

def _write_container(path: str, type_byte: int, params: Params,
                     payload: bytes) -> None:
    buf = bytearray()
    buf += MAGIC
    _w_uint(buf, VERSION, 2)
    buf.append(type_byte)
    block = _params_block(params)
    _w_uint(buf, len(block), 4)
    buf += block
    buf += payload
    buf += hashlib.sha256(bytes(buf)).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


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
    params = _read_params(_Reader(block))
    return params, r


# ---------------------------------------------------------------------------
# public save/load API
# ---------------------------------------------------------------------------

def save_params(p: Params, path: str) -> None:
    _write_container(path, TYPE_PARAMS, p, b"")


def load_params(path: str) -> Params:
    params, r = _read_container(path, TYPE_PARAMS)
    r.end()
    return params


def save_secret_key(sk: SecretKey, path: str) -> None:
    p, g = sk.params, sk.g
    if g.v != p.v or g.degree > p.r_g:
        raise ParameterError(f"g has a term outside the monomials of degree <= "
                             f"r_g = {p.r_g} in v = {p.v} variables")
    coeffs = [g.terms.get(m, 0) for m in enumerate_monomials(p.v, p.r_g)]
    _check_range("g", [coeffs], -(p.q // 2), p.q // 2, ParameterError)
    buf = bytearray()
    _w_ints(buf, "g", coeffs)
    for name, m, rows, cols in (("points", sk.points, p.t, p.v),
                                ("S", sk.S, p.message_bits, p.n),
                                ("R1", sk.R1, p.n, p.n),
                                ("R2", sk.R2, p.message_bits, p.n)):
        _w_matrix(buf, name, m, rows, cols)
        _check_range(name, m, 0, p.q - 1, ParameterError)
    _write_container(path, TYPE_SECRET, p, bytes(buf))


def load_secret_key(path: str) -> SecretKey:
    params, r = _read_container(path, TYPE_SECRET)
    q = params.q
    # read before enumerating: a block can name C(v + r_g, r_g) monomials
    # far past what the file holds
    coeffs = r.ints(math.comb(params.v + params.r_g, params.r_g))
    _check_range("g", [coeffs], -(q // 2), q // 2, FormatError)
    if coeffs[-1] != 1 or coeffs[0] == 0:
        raise FormatError(f"secret key generator is not monic of degree r_g = "
                          f"{params.r_g} in v = {params.v} variables with a "
                          "nonzero constant term")
    g = Polynomial(params.v, q, dict(zip(enumerate_monomials(params.v, params.r_g),
                                         coeffs)))
    points = r.matrix(params.t, params.v)
    S = r.matrix(params.message_bits, params.n)
    R1 = r.matrix(params.n, params.n)
    R2 = r.matrix(params.message_bits, params.n)
    r.end()
    for name, m in (("points", points), ("S", S), ("R1", R1), ("R2", R2)):
        _check_range(name, m, 0, q - 1, FormatError)
    points = [tuple(z) for z in points]
    try:  # C is invertible exactly when R1 is
        return SecretKey(params=params, g=g, points=points, S=S, R1=R1, R2=R2)
    except SingularMatrixError:
        raise FormatError(f"secret key R1 is singular mod q = {q}") from None


def _evalkey_layout(p: Params) -> tuple[tuple[str, int, int, int, int], ...]:
    """(field, rows, cols, lowest entry, highest entry) of each evaluation
    key field, in file order."""
    half = p.q // 2
    top = (p.q << p.u) - 1
    return (("D1s", p.ell, p.ell, 0, top), ("D2s", p.ell, p.ell, 0, top),
            ("E", p.n, p.t - p.ell, 0, p.q - 1), ("W", p.t, p.ell, -half, half))


def save_evalkey(evk: EvalKey, path: str) -> None:
    buf = bytearray()
    for name, rows, cols, lo, hi in _evalkey_layout(evk.params):
        m = getattr(evk, name)
        _w_matrix(buf, name, m, rows, cols)
        _check_range(name, m, lo, hi, ParameterError)
    _write_container(path, TYPE_EVALKEY, evk.params, bytes(buf))


def load_evalkey(path: str) -> EvalKey:
    params, r = _read_container(path, TYPE_EVALKEY)
    layout = _evalkey_layout(params)
    fields = [r.matrix(rows, cols) for _, rows, cols, _, _ in layout]
    r.end()
    for (name, _, _, lo, hi), m in zip(layout, fields):
        _check_range(name, m, lo, hi, FormatError)
    return EvalKey(params, *fields)


def save_public_key(pk: PublicKey, path: str) -> None:
    p = pk.params
    half = p.q // 2
    buf = bytearray()
    for name, m, rows in (("C0", pk.C0, pk_rows(p)),
                          ("C_unit", pk.C_unit, p.message_bits)):
        _w_matrix(buf, name, m, rows, p.ell)
        _check_range(name, m, -half, half, ParameterError)
    _write_container(path, TYPE_PUBLIC, p, bytes(buf))


def load_public_key(path: str) -> PublicKey:
    params, r = _read_container(path, TYPE_PUBLIC)
    C0 = r.matrix(pk_rows(params), params.ell)
    C_unit = r.matrix(params.message_bits, params.ell)
    r.end()
    half = params.q // 2
    _check_range("C0", C0, -half, half, FormatError)
    _check_range("C_unit", C_unit, -half, half, FormatError)
    return PublicKey(params=params, C0=C0, C_unit=C_unit)


def save_ciphertext(ct: Ciphertext, params: Params, path: str) -> None:
    _check_ciphertext(params, ct)
    _check_range("ciphertext", [ct.vec], -(params.q // 2), params.q // 2,
                 ParameterError)
    buf = bytearray()
    _w_ints(buf, "noise hint", (ct.noise_hint,))
    _w_ints(buf, "ciphertext", ct.vec)
    _write_container(path, TYPE_CIPHERTEXT, params, bytes(buf))


def load_ciphertext(path: str) -> tuple[Ciphertext, Params]:
    params, r = _read_container(path, TYPE_CIPHERTEXT)
    [hint] = r.ints(1)
    if hint < 0:
        raise FormatError(f"negative noise hint {hint}")
    vec = r.ints(params.ell)
    r.end()
    _check_range("ciphertext", [vec], -(params.q // 2), params.q // 2, FormatError)
    ct = Ciphertext(vec=vec, q=params.q, noise_hint=hint)
    return ct, params
