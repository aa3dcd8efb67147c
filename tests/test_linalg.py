"""Exact linear algebra mod q, and the order-3 tensor oracles."""

from fractions import Fraction
from random import Random

import pytest

from mvphe.errors import ConstructionError, ParameterError, SingularMatrixError
from mvphe.keys import mat_mul_exact
from mvphe.linalg import (
    _eliminate,
    inverse_mod_q,
    mat_mul,
    pack_rows,
    packed_vec_mat,
    rank_mod_q,
    vec_mat,
    zeros,
)
from oracles import Tensor3, bilinear_eval, identity, n_mode_product, transpose

Q40 = 858024799843  # a 40-bit prime


def rand_matrix(rng, rows, cols, q):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def solve_mod_q(A, Y, q):
    """X with A·X = Y (mod q), free variables zero: the elimination kernel
    run on [A | Y] with pivots restricted to A's columns."""
    m = len(A[0])
    work = [[x % q for x in a + y] for a, y in zip(A, Y)]
    pivots = _eliminate(work, m, q)
    # a row with its A-part fully eliminated must have zero right-hand side
    if any(any(row[m:]) for row in work[len(pivots):]):
        raise ConstructionError("inconsistent linear system")
    X = zeros(m, len(Y[0]))
    for r, col in enumerate(pivots):
        X[col] = work[r][m:]
    return X


def rand_tensor(rng, d1, d2, d3, scale=100):
    T = Tensor3.zeros(d1, d2, d3)
    for k in range(d3):
        for i in range(d1):
            for j in range(d2):
                T.set_entry(i, j, k, Fraction(rng.randrange(-scale, scale),
                                              rng.randrange(1, 16)))
    return T


def triple_loop_bilinear(T, v1, v2):
    out = []
    for k in range(T.dims[2]):
        acc = Fraction(0)
        for i in range(T.dims[0]):
            for j in range(T.dims[1]):
                acc += v1[i] * T.entry(i, j, k) * v2[j]
        out.append(acc)
    return out


def triple_loop_mode_product(T, M, mode):
    d1, d2, d3 = T.dims
    rows = len(M)
    if mode == 1:
        R = Tensor3.zeros(rows, d2, d3)
        for a in range(rows):
            for j in range(d2):
                for k in range(d3):
                    R.set_entry(a, j, k,
                                sum(Fraction(M[a][i]) * T.entry(i, j, k)
                                    for i in range(d1)))
    elif mode == 2:
        R = Tensor3.zeros(d1, rows, d3)
        for i in range(d1):
            for a in range(rows):
                for k in range(d3):
                    R.set_entry(i, a, k,
                                sum(Fraction(M[a][j]) * T.entry(i, j, k)
                                    for j in range(d2)))
    else:
        R = Tensor3.zeros(d1, d2, rows)
        for i in range(d1):
            for j in range(d2):
                for a in range(rows):
                    R.set_entry(i, j, a,
                                sum(Fraction(M[a][k]) * T.entry(i, j, k)
                                    for k in range(d3)))
    return R


def triple_sum_product(A, B):
    return [[sum(A[i][s] * B[s][j] for s in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def test_products_against_triple_sum():
    """vec_mat, mat_mul_exact and mat_mul on signed entries, with zero rows
    in both factors and zero entries in the vectors."""
    rng = Random(37)
    for _ in range(30):
        n, k, m = rng.randrange(1, 7), rng.randrange(1, 9), rng.randrange(1, 7)
        A = [[rng.choice((0, rng.randrange(-Q40, Q40))) for _ in range(k)]
             for _ in range(n)]
        B = [[rng.randrange(-Q40, Q40) for _ in range(m)] for _ in range(k)]
        A[rng.randrange(n)] = [0] * k
        B[rng.randrange(k)] = [0] * m
        want = triple_sum_product(A, B)
        assert [vec_mat(row, B) for row in A] == want
        assert mat_mul_exact(A, B) == want
        assert mat_mul(A, B, Q40) == [[x % Q40 for x in row] for row in want]
    with pytest.raises(ParameterError):
        mat_mul([[1, 2]], [[1, 2]], 7)


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (7, 1), (13, 9),
                                       (384, 23), (768, 56)])
def test_packed_product_against_triple_sum(rows, cols):
    """packed_vec_mat(v, pack_rows(M, b)) equals vec_mat(v, M) and the
    triple-sum reference for every |v_k| <= b, including the extremes."""
    rng = Random(rows * 1000 + cols)
    b = Q40 << 7  # the toy gadget bound, (q·2^8)//2
    top = 9 * (Q40 - 1)
    rand = [[rng.choice((0, rng.randrange(top + 1))) for _ in range(cols)]
            for _ in range(rows)]
    rand[rng.randrange(rows)] = [0] * cols
    mats = [rand, zeros(rows, cols), [[top] * cols for _ in range(rows)]]
    vecs = [[b] * rows, [-b] * rows, [0] * rows,
            [rng.choice((b, -b, 0, rng.randrange(-b, b + 1))) for _ in range(rows)]]
    for M in mats:
        P = pack_rows(M, b)
        assert len(P.rows) == rows and P.cols == cols
        for v in vecs:
            want = triple_sum_product([v], M)[0]
            assert vec_mat(v, M) == want
            assert packed_vec_mat(v, P) == want


def test_packed_slot_width_at_byte_boundaries():
    """A slot bound just below, at and above 2^15 and 2^16: the sign bit
    needs its own bit, so 2^15 already takes a third byte."""
    for top in (2**15 - 1, 2**15, 2**16 - 1, 2**16):
        M = [[top, 0, top]]
        P = pack_rows(M, 1)
        assert P.width == (2 if top < 2**15 else 3)
        for v in ([1], [-1]):
            assert packed_vec_mat(v, P) == vec_mat(v, M)


def test_pack_rows_refuses_negative_entries():
    with pytest.raises(ParameterError, match="nonnegative"):
        pack_rows([[3, 1], [-1, 5]], 10)


def test_identity_inverse():
    assert inverse_mod_q(identity(5), 7) == identity(5)


def test_small_inverse_example():
    inv = inverse_mod_q([[1, 1], [0, 1]], 7)
    assert inv == [[1, 6], [0, 1]]  # -1 stored as 6 in [0, q)


def test_inverse_multiply_back():
    rng = Random(31)
    for _ in range(20):
        A = rand_matrix(rng, 8, 8, Q40)
        try:
            inv = inverse_mod_q(A, Q40)
        except SingularMatrixError:
            continue
        assert mat_mul(A, inv, Q40) == identity(8)
        assert mat_mul(inv, A, Q40) == identity(8)


def test_singular_reports_pivot_column():
    A = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]  # rows 0,1 dependent
    with pytest.raises(SingularMatrixError) as ei:
        inverse_mod_q(A, 7)
    assert ei.value.column == 1
    # column c a combination of the (generic) columns before it: the first
    # column without a pivot is c
    rng = Random(30)
    for _ in range(40):
        n = rng.randrange(3, 13)
        c = rng.randrange(n)
        A = rand_matrix(rng, n, n, Q40)
        coeffs = [rng.randrange(Q40) for _ in range(c)]
        for row in A:
            row[c] = sum(a * x for a, x in zip(coeffs, row)) % Q40
        with pytest.raises(SingularMatrixError) as ei:
            inverse_mod_q(A, Q40)
        assert ei.value.column == c
        assert rank_mod_q(A, Q40) == n - 1


def test_solve_identity():
    Y = [[3, 1], [2, 5], [0, 6]]
    assert solve_mod_q(identity(3), Y, 7) == Y


def test_solve_resubstitution():
    rng = Random(32)
    for _ in range(100):
        n = rng.randrange(2, 26)
        m = rng.randrange(1, 6)
        A = rand_matrix(rng, n, n, Q40)
        X = rand_matrix(rng, n, m, Q40)
        Y = mat_mul(A, X, Q40)
        got = solve_mod_q(A, Y, Q40)
        assert mat_mul(A, got, Q40) == Y


def test_solve_inconsistent_raises():
    A = [[1, 2], [2, 4]]  # rank 1
    Y = [[1], [3]]        # not in the column space
    with pytest.raises(ConstructionError):
        solve_mod_q(A, Y, 7)


def test_solve_underdetermined_consistent():
    # wide system with a consistent RHS: any solution must resubstitute
    rng = Random(33)
    A = rand_matrix(rng, 3, 5, Q40)
    X = rand_matrix(rng, 5, 2, Q40)
    Y = mat_mul(A, X, Q40)
    got = solve_mod_q(A, Y, Q40)
    assert mat_mul(A, got, Q40) == Y


def test_rank_examples():
    assert rank_mod_q(identity(4), 7) == 4
    assert rank_mod_q(zeros(3, 5), 7) == 0
    rng = Random(34)
    assert rank_mod_q(rand_matrix(rng, 6, 8, Q40), Q40) == 6


def test_rank_against_minor_oracle():
    """Rank equals the largest size of a nonvanishing minor (<= 4x4 cases)."""
    import itertools

    def det(M, q):
        n = len(M)
        if n == 1:
            return M[0][0] % q
        total = 0
        for j in range(n):
            sub = [row[:j] + row[j + 1:] for row in M[1:]]
            term = M[0][j] * det(sub, q)
            total += -term if j % 2 else term
        return total % q

    rng = Random(35)
    q = 97
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        A = rand_matrix(rng, rows, cols, q)
        if rng.random() < 0.4 and rows > 1:  # force dependence sometimes
            A[rows - 1] = [(2 * x) % q for x in A[0]]
        best = 0
        for k in range(1, min(rows, cols) + 1):
            for ri in itertools.combinations(range(rows), k):
                for ci in itertools.combinations(range(cols), k):
                    sub = [[A[r][c] for c in ci] for r in ri]
                    if det(sub, q) != 0:
                        best = k
                        break
                else:
                    continue
                break
        assert rank_mod_q(A, q) == best


# --- tensors ----------------------------------------------------------------

def test_mode_product_identity():
    rng = Random(36)
    T = rand_tensor(rng, 3, 4, 2)
    for mode, d in ((1, 3), (2, 4), (3, 2)):
        I = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        assert n_mode_product(T, I, mode) == T


def test_mode_product_against_triple_loop():
    rng = Random(37)
    for mode in (1, 2, 3):
        for _ in range(5):
            T = rand_tensor(rng, 2, 2, 2)
            M = [[Fraction(rng.randrange(-9, 9), rng.randrange(1, 7))
                  for _ in range(2)] for _ in range(3)]
            assert n_mode_product(T, M, mode) == triple_loop_mode_product(T, M, mode)


def test_mode_products_commute_across_modes():
    rng = Random(38)
    T = rand_tensor(rng, 3, 3, 3)
    A = [[Fraction(rng.randrange(-5, 6)) for _ in range(3)] for _ in range(3)]
    B = [[Fraction(rng.randrange(-5, 6)) for _ in range(3)] for _ in range(3)]
    assert n_mode_product(n_mode_product(T, A, 1), B, 2) == \
        n_mode_product(n_mode_product(T, B, 2), A, 1)


def test_mode_product_dimension_mismatch():
    T = Tensor3.zeros(2, 2, 2)
    M = [[Fraction(1), Fraction(0), Fraction(0)]]  # 1x3
    with pytest.raises(ParameterError):
        n_mode_product(T, M, 1)


def test_bilinear_eval_zero_tensor():
    T = Tensor3.zeros(3, 3, 3)
    assert bilinear_eval(T, [1, 2, 3], [4, 5, 6]) == [0, 0, 0]


def test_bilinear_eval_against_triple_loop():
    rng = Random(39)
    for dims in ((4, 4, 4), (8, 8, 8), (3, 5, 2)):
        T = rand_tensor(rng, *dims)
        v1 = [Fraction(rng.randrange(-20, 20), rng.randrange(1, 8))
              for _ in range(dims[0])]
        v2 = [Fraction(rng.randrange(-20, 20), rng.randrange(1, 8))
              for _ in range(dims[1])]
        assert bilinear_eval(T, v1, v2) == triple_loop_bilinear(T, v1, v2)


def test_bilinear_eval_is_bilinear():
    rng = Random(40)
    T = rand_tensor(rng, 3, 3, 3)
    v1 = [Fraction(rng.randrange(-9, 9)) for _ in range(3)]
    w1 = [Fraction(rng.randrange(-9, 9)) for _ in range(3)]
    v2 = [Fraction(rng.randrange(-9, 9)) for _ in range(3)]
    a, b = Fraction(3, 2), Fraction(-5, 7)
    mixed = [a * x + b * y for x, y in zip(v1, w1)]
    lhs = bilinear_eval(T, mixed, v2)
    rhs = [a * x + b * y for x, y in zip(bilinear_eval(T, v1, v2),
                                         bilinear_eval(T, w1, v2))]
    assert lhs == rhs


def test_rescaling_slice_pattern_n2_ell4():
    """Diagonal rescaling tensor at shape n=2, ell=4: identity on the head
    band, 2/q on the message band; frontal slice k is zero except (k,k)."""
    q = 97
    n, ell = 2, 4
    T = Tensor3.zeros(ell, ell, ell)
    for s in range(ell):
        T.set_entry(s, s, s, Fraction(1) if s < n else Fraction(2, q))
    for k in range(ell):
        sl = T.slices[k]
        for i in range(ell):
            for j in range(ell):
                if (i, j) == (k, k):
                    assert sl[i][j] == (Fraction(1) if k < n else Fraction(2, q))
                else:
                    assert sl[i][j] == 0
    rng = Random(41)
    v1 = [rng.randrange(-50, 50) for _ in range(ell)]
    v2 = [rng.randrange(-50, 50) for _ in range(ell)]
    out = bilinear_eval(T, v1, v2)
    assert out[0] == v1[0] * v2[0]
    assert out[3] == Fraction(2, q) * v1[3] * v2[3]


def test_transpose_shapes():
    A = [[1, 2, 3], [4, 5, 6]]
    assert transpose(A) == [[1, 4], [2, 5], [3, 6]]
