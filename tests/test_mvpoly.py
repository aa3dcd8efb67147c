"""Sparse multivariate polynomials: ordering, arithmetic, reduction.
Polynomials are evaluated by ``oracles.evaluate``, the package having no
evaluator of its own."""

import itertools
from random import Random

import pytest

from mvphe.errors import ConstructionError, ParameterError
from mvphe.mvpoly import (
    Polynomial,
    enumerate_monomials,
    grevlex_key,
    monomial_divides,
    reduce_by_set,
)
from oracles import evaluate

Q = 12289


def const(c, v=2, q=Q):
    """The constant polynomial c, for scaling by a product."""
    return Polynomial(v, q, {(0,) * v: c})


def same(f, g):
    """Equal as polynomials: ``Polynomial`` has no ``==`` of its own."""
    return (f.v, f.q, f.terms) == (g.v, g.q, g.terms)


def random_poly(v, q, deg, rng, density=0.7):
    terms = {}
    for m in enumerate_monomials(v, deg):
        if rng.random() < density:
            terms[m] = rng.randrange(1, q)
    return Polynomial(v, q, terms)


def test_enumerate_v2_r2():
    ms = enumerate_monomials(2, 2)
    assert ms == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # i.e. 1, x1, x2, x1^2, x1*x2, x2^2 ascending


def test_enumerate_v1_r3():
    assert enumerate_monomials(1, 3) == [(0,), (1,), (2,), (3,)]


def test_enumerate_count_v3_r2():
    assert len(enumerate_monomials(3, 2)) == 10


@pytest.mark.parametrize("v", [1, 2, 3])
def test_enumerate_lower_degree_is_a_prefix(v):
    """Key construction reads the degree-(<= r) and degree-(<= r_prime)
    slices of one monomial table as its leading rows."""
    for d_hi in range(6):
        longest = enumerate_monomials(v, d_hi)
        for d in range(d_hi + 1):
            shorter = enumerate_monomials(v, d)
            assert longest[:len(shorter)] == shorter


def test_grevlex_is_total_order_and_graded():
    ms = enumerate_monomials(3, 4)
    keys = [grevlex_key(m) for m in ms]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # graded: degree dominates
    for a, b in itertools.combinations(ms, 2):
        if sum(a) < sum(b):
            assert grevlex_key(a) < grevlex_key(b)


def test_eval_example():
    f = Polynomial(2, 7, {(1, 1): 1, (0, 0): 2})  # x1*x2 + 2
    assert evaluate(f, (3, 4)) == 0  # 14 mod 7


def test_eval_zero_poly():
    assert evaluate(Polynomial(2, Q), (5, 6)) == 0


def test_eval_is_multiplicative():
    rng = Random(21)
    for _ in range(1000):
        f = random_poly(2, Q, 3, rng)
        g = random_poly(2, Q, 2, rng)
        z = tuple(rng.randrange(Q) for _ in range(2))
        assert evaluate(f * g, z) % Q == (evaluate(f, z) * evaluate(g, z)) % Q


def test_mul_identity_and_difference_of_squares():
    rng = Random(22)
    f = random_poly(2, 7, 3, rng)
    one = Polynomial(2, 7, {(0, 0): 1})
    assert same(f * one, f)
    x1 = Polynomial(2, 7, {(1, 0): 1})
    a = Polynomial(2, 7, {(1, 0): 1, (0, 0): 1}) * (x1 - one)
    assert same(a, Polynomial(2, 7, {(2, 0): 1, (0, 0): -1}))


def test_mul_matches_dense_convolution():
    rng = Random(23)
    for _ in range(50):
        f = random_poly(2, Q, 3, rng)
        g = random_poly(2, Q, 3, rng)
        # dense convolution oracle over exponent grids
        conv = {}
        for ma, ca in f.terms.items():
            for mb, cb in g.terms.items():
                key = (ma[0] + mb[0], ma[1] + mb[1])
                conv[key] = (conv.get(key, 0) + ca * cb) % Q
        got = (f * g).terms
        want = {m: c for m, c in conv.items() if c % Q}
        assert {m: c % Q for m, c in got.items()} == want


def test_sub_is_termwise():
    f = Polynomial(2, 7, {(1, 0): 3})
    g = Polynomial(2, 7, {(1, 0): -4, (0, 1): 1})
    assert same(f - g, Polynomial(2, 7, {(0, 1): -1}))  # 3+4 = 0 mod 7
    assert (f * g).degree == 2


def test_modulus_mismatch_raises():
    with pytest.raises(ParameterError):
        Polynomial(2, 7, {(0, 0): 1}) - Polynomial(2, 13, {(0, 0): 1})
    with pytest.raises(ParameterError):
        Polynomial(2, 7, {(0, 0): 1}) * Polynomial(3, 7, {(0, 0, 0): 1})


def test_leading_term_examples():
    f = Polynomial(2, Q, {(2, 1): 1, (1, 1): 1})
    assert f.leading_term() == ((2, 1), 1)
    c = Polynomial(2, Q, {(0, 0): 5})
    assert c.leading_term() == ((0, 0), 5)
    with pytest.raises(ParameterError):
        Polynomial(2, Q).leading_term()


def test_leading_monomial_of_product():
    rng = Random(24)
    for _ in range(1000):
        f = random_poly(2, Q, 3, rng, density=0.5)
        g = random_poly(2, Q, 2, rng, density=0.5)
        if not f.terms or not g.terms:
            continue
        lm_f, _ = f.leading_term()
        lm_g, _ = g.leading_term()
        lm_fg, _ = (f * g).leading_term()
        assert lm_fg == tuple(a + b for a, b in zip(lm_f, lm_g))


def test_degree_of_zero_is_sentinel():
    z = Polynomial(2, Q)
    assert z.degree < 0
    assert (z - z).degree < 0


# --- reduction ------------------------------------------------------------

def make_reduction_set(v, q, g, r_prime):
    """g*m for every monomial m of exact degree r_prime+1, leading first."""
    monos = [m for m in enumerate_monomials(v, r_prime + 1) if sum(m) == r_prime + 1]
    monos.sort(key=grevlex_key, reverse=True)
    out = []
    for m in monos:
        gi = g * Polynomial.monomial(v, q, m)
        lm, lc = gi.leading_term()
        out.append(gi * const(pow(lc, -1, q), v, q))
    return out


def sample_g(v, q, r_g, rng):
    terms = {m: rng.randrange(q) for m in enumerate_monomials(v, r_g)}
    top = max((m for m in terms if sum(m) == r_g), key=grevlex_key)
    terms[top] = 1
    terms[(0,) * v] = rng.randrange(1, q)
    return Polynomial(v, q, terms)


def test_reduce_noop_below_degree():
    rng = Random(25)
    g = sample_g(2, Q, 1, rng)
    G = make_reduction_set(2, Q, g, 2)
    f = random_poly(2, Q, 3, rng)
    assert reduce_by_set(f, G, 3) is f


def test_reduce_element_of_ideal_membership():
    """f in <G-multiples> reduces with f - f_G recoverable from the quotients."""
    rng = Random(26)
    v, r_g, r_prime = 2, 1, 2
    r = r_g + r_prime
    g = sample_g(v, Q, r_g, rng)
    G = make_reduction_set(v, Q, g, r_prime)
    for _ in range(20):
        # random element of the degree <= 2r slice of <g>
        f = g * random_poly(v, Q, 2 * r - r_g, rng)
        rem = reduce_by_set(f, G, r)
        assert rem.degree <= r
        # membership via bookkeeping: redo the reduction tracking quotients
        work = f
        minus_recon = Polynomial(v, Q)  # minus the sum of the quotient terms
        while work.degree > r:
            lm, lc = work.leading_term()
            for gi in G:
                lgi, _ = gi.leading_term()
                if monomial_divides(lgi, lm):
                    shift = tuple(a - b for a, b in zip(lm, lgi))
                    mult = Polynomial(v, Q, {shift: lc})
                    work = work - mult * gi
                    minus_recon = minus_recon - mult * gi
                    break
            else:
                raise AssertionError("manual reduction stalled")
        assert same(work, rem)
        assert same(f - rem, Polynomial(v, Q) - minus_recon)


def test_reduce_is_linear():
    rng = Random(27)
    v, r_g, r_prime = 2, 1, 2
    r = r_g + r_prime
    g = sample_g(v, Q, r_g, rng)
    G = make_reduction_set(v, Q, g, r_prime)
    for _ in range(100):
        # reduction is defined on the ideal's degree <= 2r slice
        f1 = g * random_poly(v, Q, 2 * r - r_g, rng)
        f2 = g * random_poly(v, Q, 2 * r - r_g, rng)
        a, b = rng.randrange(1, Q), rng.randrange(1, Q)
        # a·f1 + b·f2, as a·f1 − (−b)·f2
        lhs = reduce_by_set(f1 * const(a) - f2 * const(-b), G, r)
        rhs = (reduce_by_set(f1, G, r) * const(a)
               - reduce_by_set(f2, G, r) * const(-b))
        assert same(lhs, rhs)


def test_reduce_termination_bound():
    """Step count is bounded by the number of monomials of degree in (r, 2r]."""
    rng = Random(28)
    v, r_g, r_prime = 2, 1, 2
    r = r_g + r_prime
    g = sample_g(v, Q, r_g, rng)
    G = make_reduction_set(v, Q, g, r_prime)
    budget = len([m for m in enumerate_monomials(v, 2 * r) if sum(m) > r])
    for _ in range(50):
        f = g * random_poly(v, Q, 2 * r - r_g, rng)
        steps = 0
        work = f
        while work.degree > r:
            lm, lc = work.leading_term()
            hit = next(gi for gi in G if monomial_divides(gi.leading_term()[0], lm))
            shift = tuple(a - b for a, b in zip(lm, hit.leading_term()[0]))
            work = work - Polynomial(v, Q, {shift: lc}) * hit
            steps += 1
            assert steps <= budget
        assert same(work, reduce_by_set(f, G, r))


def test_reduce_stall_raises_construction_error():
    # G covering only x1-divisible leading monomials cannot reduce x2^4
    g = Polynomial(2, Q, {(1, 0): 1, (0, 0): 3})  # x1 + 3
    G = [g * Polynomial.monomial(2, Q, (2, 0))]   # LM = x1^3
    f = Polynomial(2, Q, {(0, 4): 1})
    with pytest.raises(ConstructionError):
        reduce_by_set(f, G, 2)


def test_eval_not_invariant_under_reduction():
    """Reduction changes pointwise values in general (only the ideal's
    evaluation structure is preserved, through the relation matrices)."""
    rng = Random(29)
    g = sample_g(2, Q, 1, rng)
    G = make_reduction_set(2, Q, g, 2)
    diffs = 0
    for _ in range(20):
        f = g * random_poly(2, Q, 5, rng)
        rem = reduce_by_set(f, G, 3)
        z = tuple(rng.randrange(Q) for _ in range(2))
        diffs += evaluate(f, z) != evaluate(rem, z)
    assert diffs >= 18  # generic points almost always differ
