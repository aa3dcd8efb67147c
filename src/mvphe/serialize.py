"""Binary container format for keys, parameters, and ciphertexts.

Layout of every file:

    magic "MVPH" | version u16 | type u8 | params block | payload | sha256

All integers are little-endian.  Arbitrary-precision integers are encoded
as sign byte (0 or 1) + u32 byte count + magnitude; rationals as two such
integers (numerator, denominator).  The trailing 32 bytes are the SHA-256
digest of everything before them.  The version is checked before any
payload is parsed; a corrupted digest, a truncated file, bytes after the
payload, or a matrix whose shape does not match the parameters raise
FormatError.

Every file embeds the complete parameter block of the parameters it was
produced under.  The 8-byte parameter fingerprint — the first 8 bytes of
the SHA-256 of that block — is how tools decide whether two files belong
together without comparing full keys.

Secret-key files store only the core fields (g, points, S, R1, R2); all
derived matrices are recomputed on load, so a save/load round trip is
bit-exact by construction; g must be as keygen draws it, monic of degree
r_g in v variables with a nonzero constant term.  Evaluation keys store
their factored form verbatim, after a key-form byte (always 1, the gadget
form), u and the carry bound k_max, all of which must agree with the
parameters; every entry of P1 and P2 must lie in 0..n(q − 1), the range
of every key build_evalkey makes.  The parameter block ends with the same
key-form byte.  Public-key files store eps, which must be PK_EPS = 1/10, then
exactly d = ceil(1.1·ell·log2 q) zero encryptions.  Noise hints on ciphertexts are serialized (they are
useful diagnostics) but remain advisory.
"""

from __future__ import annotations

import hashlib
import struct
from fractions import Fraction
from typing import Sequence

from .errors import FormatError, ParameterError, SingularMatrixError
from .keys import EvalKey, Params, SecretKey, _gadget_width
from .linalg import Matrix
from .mvpoly import Polynomial, grevlex_key
from .she import PK_EPS, Ciphertext, PublicKey, pk_rows

__all__ = [
    "MAGIC", "VERSION", "params_fingerprint",
    "save_params", "load_params",
    "save_secret_key", "load_secret_key",
    "save_evalkey", "load_evalkey",
    "save_public_key", "load_public_key",
    "save_ciphertext", "load_ciphertext",
]

MAGIC = b"MVPH"
VERSION = 1

# The one multiplication-key form (bit-decomposed); files still carry the
# byte, and loaders refuse any other value.
GADGET_FLAG = 1

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


# Every integer starts with the same header: sign byte, u32 magnitude length.
_INT_HEADER = struct.Struct("<BI")


def _w_ints(buf: bytearray, xs: Sequence[int]) -> None:
    """Encode each of ``xs`` in turn, with no count in front."""
    pack = _INT_HEADER.pack
    for x in xs:
        mag = -x if x < 0 else x
        raw = mag.to_bytes((mag.bit_length() + 7) // 8, "little")
        buf += pack(x < 0, len(raw))
        buf += raw


def _w_int(buf: bytearray, x: int) -> None:
    _w_ints(buf, (x,))


def _w_fraction(buf: bytearray, x) -> None:
    f = Fraction(x)
    _w_int(buf, f.numerator)
    _w_int(buf, f.denominator)


def _w_intvec(buf: bytearray, v: Sequence[int]) -> None:
    _w_uint(buf, len(v), 4)
    _w_ints(buf, v)


def _w_matrix(buf: bytearray, m: Matrix) -> None:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    _w_uint(buf, rows, 4)
    _w_uint(buf, cols, 4)
    for row in m:
        if len(row) != cols:
            raise ParameterError("ragged matrix")
        _w_ints(buf, row)


def _w_poly(buf: bytearray, f: Polynomial) -> None:
    _w_uint(buf, f.v, 4)
    terms = sorted(f.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)
    _w_uint(buf, len(terms), 4)
    for mono, coeff in terms:
        for e in mono:
            _w_uint(buf, e, 2)
        _w_int(buf, coeff)


def _w_points(buf: bytearray, pts: Sequence[tuple[int, ...]], v: int) -> None:
    _w_uint(buf, len(pts), 4)
    for z in pts:
        if len(z) != v:
            raise ParameterError("point arity mismatch")
        _w_ints(buf, z)


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
        """``count`` integers, each a sign byte, u32 length and magnitude.

        Refuses what ``int_`` always refused, with the same message for the
        first fault in the data: a sign byte other than 0 or 1, negative
        zero, or an integer cut short.
        """
        data, pos = self.data, self.pos
        unpack_from, from_bytes = _INT_HEADER.unpack_from, int.from_bytes
        out = []
        append = out.append
        try:
            for _ in range(count):
                sign, n = unpack_from(data, pos)
                pos += 5
                mag = from_bytes(data[pos : pos + n], "little")
                pos += n
                if sign:
                    if sign != 1:
                        raise FormatError("bad integer sign byte")
                    if not mag:
                        raise FormatError("truncated file" if pos > len(data)
                                          else "negative zero encoding")
                    mag = -mag
                append(mag)
        except struct.error:
            # a short header: its sign byte, if present, is checked first
            if pos < len(data) and data[pos] > 1:
                raise FormatError("bad integer sign byte") from None
            raise FormatError("truncated file") from None
        # a magnitude that runs past the end leaves every later header short,
        # so one check after the loop catches it
        if pos > len(data):
            raise FormatError("truncated file")
        self.pos = pos
        return out

    def int_(self) -> int:
        return self.ints(1)[0]

    def fraction(self) -> Fraction:
        num = self.int_()
        den = self.int_()
        if den <= 0:
            raise FormatError("bad rational denominator")
        return Fraction(num, den)

    def intvec(self) -> list[int]:
        return self.ints(self.uint(4))

    def matrix(self, name: str, rows: int, cols: int) -> Matrix:
        """A matrix that must be rows x cols."""
        have_rows, have_cols = self.uint(4), self.uint(4)
        if (have_rows, have_cols) != (rows, cols):
            raise FormatError(f"{name} is {have_rows}x{have_cols}, expected {rows}x{cols}")
        return [self.ints(cols) for _ in range(rows)]

    def end(self) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} bytes after the payload")

    def poly(self, q: int) -> Polynomial:
        v = self.uint(4)
        nterms = self.uint(4)
        terms = {}
        for _ in range(nterms):
            mono = tuple(self.uint(2) for _ in range(v))
            terms[mono] = self.int_()
        return Polynomial(v, q, terms)


# ---------------------------------------------------------------------------
# parameter block and fingerprint
# ---------------------------------------------------------------------------

def _expect_gadget_flag(r: _Reader) -> None:
    flag = r.take(1)[0]
    if flag != GADGET_FLAG:
        raise FormatError(f"gadget flag {flag}; only the gadget key form (1) is supported")


def _params_block(p: Params) -> bytes:
    buf = bytearray()
    _w_uint(buf, p.lambda_, 4)
    _w_uint(buf, p.L, 4)
    _w_uint(buf, p.v, 4)
    _w_uint(buf, p.r_g, 4)
    _w_uint(buf, p.r_prime, 4)
    _w_uint(buf, p.ell, 4)
    _w_int(buf, p.q)
    _w_fraction(buf, p.sigma)
    _w_int(buf, p.B)
    _w_uint(buf, p.u, 4)
    buf.append(GADGET_FLAG)
    return bytes(buf)


def _read_params(r: _Reader) -> Params:
    lam = r.uint(4)
    L = r.uint(4)
    v = r.uint(4)
    r_g = r.uint(4)
    r_prime = r.uint(4)
    ell = r.uint(4)
    q = r.int_()
    sigma_f = r.fraction()
    sigma = int(sigma_f) if sigma_f.denominator == 1 else sigma_f
    B = r.int_()
    u = r.uint(4)
    _expect_gadget_flag(r)
    return Params(lambda_=lam, L=L, v=v, r_g=r_g, r_prime=r_prime, ell=ell,
                  q=q, sigma=sigma, B=B, u=u)


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
    buf = bytearray()
    _w_poly(buf, sk.g)
    _w_points(buf, sk.points, sk.params.v)
    _w_matrix(buf, sk.S)
    _w_matrix(buf, sk.R1)
    _w_matrix(buf, sk.R2)
    _write_container(path, TYPE_SECRET, sk.params, bytes(buf))


def load_secret_key(path: str) -> SecretKey:
    params, r = _read_container(path, TYPE_SECRET)
    g = r.poly(params.q)
    if (g.v != params.v or g.degree != params.r_g or g.leading_term()[1] != 1
            or (0,) * g.v not in g.terms):
        raise FormatError(f"secret key generator is not monic of degree r_g = "
                          f"{params.r_g} in v = {params.v} variables with a "
                          "nonzero constant term")
    npts = r.uint(4)
    if npts != params.t:
        raise FormatError(f"secret key has {npts} points, expected {params.t}")
    points = [tuple(r.ints(params.v)) for _ in range(npts)]
    S = r.matrix("S", params.message_bits, params.n)
    R1 = r.matrix("R1", params.n, params.n)
    R2 = r.matrix("R2", params.message_bits, params.n)
    r.end()
    try:  # C is invertible exactly when R1 is
        return SecretKey(params=params, g=g, points=points, S=S, R1=R1, R2=R2)
    except SingularMatrixError:
        raise FormatError(f"secret key R1 is singular mod q = {params.q}") from None


def save_evalkey(evk: EvalKey, path: str) -> None:
    buf = bytearray()
    buf.append(GADGET_FLAG)
    _w_uint(buf, evk.params.u, 4)
    _w_fraction(buf, evk.k_max)
    _w_matrix(buf, evk.P1)
    _w_matrix(buf, evk.P2)
    _w_matrix(buf, evk.W)
    _write_container(path, TYPE_EVALKEY, evk.params, bytes(buf))


def load_evalkey(path: str) -> EvalKey:
    params, r = _read_container(path, TYPE_EVALKEY)
    _expect_gadget_flag(r)
    u = r.uint(4)
    if u != params.u:
        raise FormatError(f"evaluation key has u = {u}, parameters have u = {params.u}")
    k_max = r.fraction()
    dim = params.ell * _gadget_width(params.q, u)
    P1 = r.matrix("P1", dim, params.t)
    P2 = r.matrix("P2", dim, params.t)
    W = r.matrix("W", params.t, params.ell)
    r.end()
    top = params.n * (params.q - 1)
    for name, P in (("P1", P1), ("P2", P2)):
        if min(map(min, P)) < 0 or max(map(max, P)) > top:
            raise FormatError(f"{name} has an entry outside 0..{top}")
    evk = EvalKey(params=params, P1=P1, P2=P2, W=W)
    if k_max != evk.k_max:
        raise FormatError(
            f"evaluation key has k_max = {k_max}, parameters give {evk.k_max}")
    return evk


def save_public_key(pk: PublicKey, path: str) -> None:
    buf = bytearray()
    _w_fraction(buf, PK_EPS)
    _w_matrix(buf, pk.C0)
    _w_matrix(buf, pk.C_unit)
    _write_container(path, TYPE_PUBLIC, pk.params, bytes(buf))


def load_public_key(path: str) -> PublicKey:
    params, r = _read_container(path, TYPE_PUBLIC)
    eps = r.fraction()
    if eps != PK_EPS:
        raise FormatError(f"public key has eps = {eps}, expected {PK_EPS}")
    C0 = r.matrix("C0", pk_rows(params), params.ell)
    C_unit = r.matrix("C_unit", params.message_bits, params.ell)
    r.end()
    return PublicKey(params=params, C0=C0, C_unit=C_unit)


def save_ciphertext(ct: Ciphertext, params: Params, path: str) -> None:
    if ct.q != params.q:
        raise ParameterError("ciphertext modulus does not match parameters")
    buf = bytearray()
    _w_uint(buf, ct.level, 4)
    if ct.noise_hint is None:
        buf.append(0)
    else:
        buf.append(1)
        _w_fraction(buf, ct.noise_hint)
    _w_intvec(buf, ct.vec)
    _write_container(path, TYPE_CIPHERTEXT, params, bytes(buf))


def load_ciphertext(path: str) -> tuple[Ciphertext, Params]:
    params, r = _read_container(path, TYPE_CIPHERTEXT)
    level = r.uint(4)
    if level > params.L:
        raise FormatError(f"ciphertext level {level} is outside 0..{params.L}")
    has_hint = r.take(1)[0]
    hint = r.fraction() if has_hint else None
    if hint is not None and hint < 0:
        raise FormatError(f"negative noise hint {hint}")
    vec = r.intvec()
    if len(vec) != params.ell:
        raise FormatError(f"ciphertext length {len(vec)} != ell = {params.ell}")
    r.end()
    ct = Ciphertext(vec=vec, level=level, q=params.q, noise_hint=hint)
    return ct, params
