"""Sparse multivariate polynomials over Z_q.

Monomials are exponent tuples of fixed length v.  The term order everywhere
is degree-reverse-lexicographic (grevlex) with variable precedence
x_v > ... > x_1; under this orientation the ascending enumeration of the
monomials of degree <= 2 in two variables reads 1, x1, x2, x1^2, x1*x2,
x2^2.

Coefficients are stored as balanced representatives in (−q/2, q/2] and zero
coefficients are never kept, so ``terms`` is always in canonical form.
``Polynomial`` has the arithmetic that F2's division needs and no more:
products, differences and ``reduce_by_set``, run once per evaluation key
in ``keys._reduction_map``.  The secret key holds g as its coefficient
list (``SecretKey.g``), not as a ``Polynomial``.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from .arith import balance
from .errors import ConstructionError, ParameterError

Monomial = tuple[int, ...]

NEG_INFINITY = float("-inf")  # degree of the zero polynomial


def grevlex_key(exponents: Monomial):
    """Sort key realizing ascending grevlex (precedence x_v > ... > x_1)."""
    return sum(exponents), tuple(-e for e in exponents)


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_quotient(num: Monomial, den: Monomial) -> Monomial:
    """num / den as monomials; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(num, den))


def enumerate_monomials(v: int, r: int) -> list[Monomial]:
    """All monomials in v variables of total degree <= r, ascending grevlex.

    Length is C(v+r, r).
    """
    if v < 1 or r < 0:
        raise ParameterError(f"need v >= 1 and r >= 0, got v={v}, r={r}")
    out: list[Monomial] = []
    for d in range(r + 1):
        # multisets of d variable indices <-> degree-d monomials
        for combo in combinations_with_replacement(range(v), d):
            e = [0] * v
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    out.sort(key=grevlex_key)
    return out


class Polynomial:
    """Immutable-by-convention sparse polynomial over Z_q[x1..xv]."""

    __slots__ = ("v", "q", "terms")

    def __init__(self, v: int, q: int, terms: Mapping[Monomial, int] | None = None):
        self.v = v
        self.q = q
        canon: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != v:
                raise ParameterError(
                    f"exponent tuple {mono} has length {len(mono)}, expected {v}"
                )
            c = balance(coeff, q)
            if c:
                canon[tuple(mono)] = c
        self.terms = canon

    # -- constructors ---------------------------------------------------
    @classmethod
    def monomial(cls, v: int, q: int, mono: Monomial, coeff: int = 1) -> "Polynomial":
        return cls(v, q, {mono: coeff})

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Total degree; −inf for the zero polynomial."""
        return max(map(monomial_degree, self.terms), default=NEG_INFINITY)

    def leading_term(self) -> tuple[Monomial, int]:
        """The grevlex-maximal (monomial, coefficient) pair."""
        if not self.terms:
            raise ParameterError("zero polynomial has no leading term")
        mono = max(self.terms, key=grevlex_key)
        return mono, self.terms[mono]

    # -- arithmetic -------------------------------------------------------
    def _check_compatible(self, other: "Polynomial") -> None:
        if self.q != other.q or self.v != other.v:
            raise ParameterError(
                f"polynomial mismatch: (v={self.v}, q={self.q}) vs "
                f"(v={other.v}, q={other.q})"
            )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) - c
        return Polynomial(self.v, self.q, out)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = monomial_mul(ma, mb)
                out[mono] = (out.get(mono, 0) + ca * cb) % self.q
        return Polynomial(self.v, self.q, out)


def reduce_by_set(f: Polynomial, G: Sequence[Polynomial], r: int) -> Polynomial:
    """Remainder of f under repeated top-reduction by G, down to degree <= r.

    Each step cancels the current grevlex-leading monomial of degree > r
    against the first element of G whose leading monomial divides it, so for
    a fixed G the map f -> remainder is linear and deterministic.  A leading
    monomial with no divisor in G means G was built wrong (it must cover
    every removable top monomial); that is reported as a construction error,
    not silently returned.
    """
    lead = [(g.leading_term()) for g in G]
    work = f
    prev_key = None
    while not work.is_zero() and work.degree > r:
        mono, coeff = work.leading_term()
        key = grevlex_key(mono)
        if prev_key is not None and key >= prev_key:
            raise ConstructionError(
                f"top-reduction failed to decrease the leading monomial {mono}"
            )
        prev_key = key
        for (gm, gc), g in zip(lead, G):
            if monomial_divides(gm, mono):
                shift = monomial_quotient(mono, gm)
                factor = coeff * pow(gc, -1, f.q)
                work = work - g * Polynomial.monomial(f.v, f.q, shift, factor)
                break
        else:
            raise ConstructionError(
                f"reduction stalled: no divisor for leading monomial {mono}"
            )
    return work
