"""Exact linear algebra mod q, and the order-3 tensor oracles."""

from fractions import Fraction
from operator import mul
from random import Random

import pytest

from mvphe.errors import ParameterError, SingularMatrixError
from mvphe.keys import mat_mul_exact
from mvphe.linalg import (
    _eliminate,
    _unpack,
    inverse_mod_q,
    mat_mul,
    pack_rows,
    rank_mod_q,
    slot_width,
    solve_mod_q,
    unpack_slots,
    zeros,
)
from oracles import (
    Tensor3,
    bilinear_eval,
    eliminate_reference,
    identity,
    n_mode_product,
    transpose,
    vec_mat,
)

Q40 = 858024799843  # a 40-bit prime
Q64 = 2**64 - 59  # the largest 64-bit prime


def rand_matrix(rng, rows, cols, q):
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


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
    """The reference vec_mat and mat_mul on signed entries, with zero rows
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
        assert mat_mul(A, B, Q40) == [[x % Q40 for x in row] for row in want]
    with pytest.raises(ParameterError):
        mat_mul([[1, 2]], [[1, 2]], 7)


def exact_by_packed_rows(A, B):
    """mat_mul_exact of the 0/1 matrix A by B's packed rows, unpacked."""
    width = slot_width(len(B) * max(map(max, B), default=0))
    return [unpack_slots(x, width, len(B[0]))
            for x in mat_mul_exact(A, pack_rows(B, width))]


def test_mat_mul_exact_sums_the_selected_packed_rows():
    """For each 0/1 row, the sum of the packed rows it selects is the
    packed row of the product: unpacked, the triple sum."""
    rng = Random(42)
    for _ in range(40):
        n, k, m = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(1, 9)
        A = [[rng.randrange(2) for _ in range(k)] for _ in range(n)]
        B = [[rng.randrange(Q40) for _ in range(m)] for _ in range(k)]
        assert exact_by_packed_rows(A, B) == triple_sum_product(A, B)


def test_mat_mul_exact_empty_selection_gives_zero():
    """0/1 rows that select nothing give the packed zero row, 0, and rows
    that select a positive row do not."""
    rng = Random(43)
    for k, m in ((1, 1), (4, 3), (15, 40)):
        A = [[rng.randrange(2) for _ in range(k)] for _ in range(6)]
        A[1] = A[4] = [0] * k
        B = [[rng.randrange(1, Q40) for _ in range(m)] for _ in range(k)]
        got = mat_mul_exact(A, pack_rows(B, 8))
        assert got[1] == got[4] == 0
        assert all(x > 0 for x, a in zip(got, A) if any(a))


def test_mat_mul_exact_empty_shapes():
    """No bit rows give no packed rows, and bit rows of length 0 against
    no packed rows give 0s."""
    assert mat_mul_exact([], pack_rows([[1, 2, 3], [4, 5, 6]], 8)) == []
    assert mat_mul_exact([[], []], []) == [0, 0]


def test_mat_mul_exact_on_bench16_bit_shape():
    """One 0/1 A of the shape of bench16's D~[:, :n] (768 x 15) against a
    15 x 40 E with entries in [0, q)."""
    rng = Random(44)
    A = [[rng.randrange(2) for _ in range(15)] for _ in range(768)]
    B = rand_matrix(rng, 15, 40, Q40)
    assert exact_by_packed_rows(A, B) == triple_sum_product(A, B)


def test_mat_mul_at_its_slot_bound():
    """mat_mul packs B's rows at the width for k·(q − 1)²: with every entry
    q − 1, k = 55 and the largest 64-bit prime, each slot reaches that
    bound, and the product still equals the triple sum mod q."""
    k, top = 55, Q64 - 1
    A = [[top] * k for _ in range(3)]
    B = [[top] * 4 for _ in range(k)]
    want = [[x % Q64 for x in row] for row in triple_sum_product(A, B)]
    assert mat_mul(A, B, Q64) == want


def packed_product(v, M, width):
    """v·M through Kronecker packing: one multiply-add per row of M."""
    return unpack_slots(sum(map(mul, v, pack_rows(M, width))), width, len(M[0]))


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (7, 1), (13, 9),
                                       (384, 23), (768, 56)])
def test_packed_product_against_triple_sum(rows, cols):
    """Packing the rows of M, combining them with v and unpacking gives
    vec_mat(v, M) and the triple-sum reference for every |v_k| <= b,
    including the extremes, at the width slot_width gives for that bound;
    entries past 2^64 take the per-entry packing."""
    rng = Random(rows * 1000 + cols)
    b = Q40 << 7  # the toy gadget bound, (q·2^8)//2
    top = 9 * (Q40 - 1)
    rand = [[rng.choice((0, rng.randrange(top + 1))) for _ in range(cols)]
            for _ in range(rows)]
    rand[rng.randrange(rows)] = [0] * cols
    wide = [[x << 30 for x in row] for row in rand]
    mats = [rand, wide, zeros(rows, cols), [[top] * cols for _ in range(rows)]]
    vecs = [[b] * rows, [-b] * rows, [0] * rows,
            [rng.choice((b, -b, 0, rng.randrange(-b, b + 1))) for _ in range(rows)]]
    for M in mats:
        width = slot_width(rows * b * max(map(max, M)))
        assert len(pack_rows(M, width)) == rows
        for v in vecs:
            want = triple_sum_product([v], M)[0]
            assert vec_mat(v, M) == want
            assert packed_product(v, M, width) == want


def test_packed_slot_width_at_byte_boundaries():
    """A slot bound just below, at and above 2^15 and 2^16: the sign bit
    needs its own bit, so 2^15 already takes a third byte, and an entry of
    2^16 no longer fits the two-byte packing of a three-byte slot."""
    for top in (2**15 - 1, 2**15, 2**16 - 1, 2**16):
        M = [[top, 0, top]]
        width = slot_width(top)
        assert width == (2 if top < 2**15 else 3)
        for v in ([1], [-1]):
            assert packed_product(v, M, width) == vec_mat(v, M)


def test_pack_rows_refuses_negative_entries():
    for width in (1, 8, 9):
        with pytest.raises(ParameterError, match="nonnegative"):
            pack_rows([[3, 1], [-1, 5]], width)
    # an entry too wide for its slot is refused as such, not as a negative one
    for row, width in (([1 << 200, 1], 8), ([256, 0], 1), ([0, 1 << 72], 9)):
        with pytest.raises(ParameterError, match=rf"needs entries below 2\^{8 * width}$"):
            pack_rows([row], width)
    assert pack_rows([[(1 << 72) - 1, 0]], 9) == [(1 << 72) - 1]


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
    """Both entry points name the first column without a pivot: the
    inverse, and a solve against a right-hand side."""
    def solve(A, q):
        return solve_mod_q(A, [[1, 2]] * len(A), q)

    for fn in (inverse_mod_q, solve):
        A = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]  # rows 0,1 dependent
        with pytest.raises(SingularMatrixError) as ei:
            fn(A, 7)
        assert ei.value.column == 1
        # column c a combination of the (generic) columns before it: the
        # first column without a pivot is c
        rng = Random(30)
        for _ in range(40):
            n = rng.randrange(3, 13)
            c = rng.randrange(n)
            A = rand_matrix(rng, n, n, Q40)
            coeffs = [rng.randrange(Q40) for _ in range(c)]
            for row in A:
                row[c] = sum(a * x for a, x in zip(coeffs, row)) % Q40
            with pytest.raises(SingularMatrixError) as ei:
                fn(A, Q40)
            assert ei.value.column == c
            assert rank_mod_q(A, Q40) == n - 1


def test_solve_identity():
    Y = [[3, 1], [2, 5], [0, 6]]
    assert solve_mod_q(identity(3), Y, 7) == Y


def test_solve_resubstitution():
    """The solution resubstitutes, equals the planted X, and takes
    right-hand sides outside [0, q)."""
    rng = Random(32)
    for _ in range(100):
        n = rng.randrange(2, 26)
        m = rng.randrange(1, 6)
        A = rand_matrix(rng, n, n, Q40)
        X = rand_matrix(rng, n, m, Q40)
        Y = mat_mul(A, X, Q40)
        got = solve_mod_q(A, Y, Q40)
        assert mat_mul(A, got, Q40) == Y
        assert got == X  # the seeded random A are all invertible
        shifted = [[y - Q40 * rng.randrange(-3, 4) for y in row] for row in Y]
        assert solve_mod_q(A, shifted, Q40) == X


def test_solve_refuses_singular_matrix():
    A = [[1, 2], [2, 4]]  # rank 1
    for Y in ([[1], [3]], [[1], [2]]):  # inconsistent, then consistent
        with pytest.raises(SingularMatrixError):
            solve_mod_q(A, Y, 7)


def test_solve_refuses_bad_shapes():
    """A wide or tall A, or a right-hand side with the wrong row count."""
    rng = Random(33)
    for A, Y in ((rand_matrix(rng, 3, 5, Q40), rand_matrix(rng, 3, 2, Q40)),
                 (rand_matrix(rng, 5, 3, Q40), rand_matrix(rng, 5, 2, Q40)),
                 (identity(3), rand_matrix(rng, 2, 2, Q40)),
                 (identity(3), rand_matrix(rng, 4, 2, Q40))):
        with pytest.raises(ParameterError):
            solve_mod_q(A, Y, Q40)
    with pytest.raises(ParameterError):
        inverse_mod_q(rand_matrix(rng, 2, 3, Q40), Q40)


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


def assert_eliminates_like_reference(M, ncols, q):
    """_eliminate gives the reference's pivots and, read back in full, its
    worked matrix, and leaves M as it was."""
    before, ref = [row[:] for row in M], [row[:] for row in M]
    pivots, rows, bits = _eliminate(M, ncols, q)
    assert pivots == eliminate_reference(ref, ncols, q)
    cols = len(M[0]) if M else 0
    assert [_unpack(row, bits, cols, q) for row in rows] == ref
    assert M == before


def planted_matrix(rng, rows, cols, q):
    """Random rows, with some rows zero and some the sum of an earlier row
    and a multiple of another, so ranks fall short and columns lack a
    pivot."""
    M = rand_matrix(rng, rows, cols, q)
    for i in range(1, rows):
        kind = rng.randrange(4)
        if kind == 0:
            M[i] = [0] * cols
        elif kind == 1:
            a, b, f = rng.randrange(i), rng.randrange(i), rng.randrange(q)
            M[i] = [(x + f * y) % q for x, y in zip(M[a], M[b])]
    return M


@pytest.mark.parametrize("q", [3, 7, Q40, Q64])
def test_eliminate_matches_entrywise_reference(q):
    """The packed kernel gives the entrywise reference's pivots and worked
    matrix on square, wide (pivots sought in fewer columns than a row
    holds, as in a solve) and tall shapes, keygen's 21 x 16 among them,
    random and with planted zero and dependent rows."""
    rng = Random(q)
    shapes = [(21, 16, 16)]
    for _ in range(40):
        n = rng.randrange(1, 14)
        extra = rng.randrange(1, 9)
        shapes += [(n, n, n), (n, n + extra, n), (n + extra, n, n),
                   (n, n + extra, rng.randrange(n + extra))]
    for rows, cols, ncols in shapes:
        assert_eliminates_like_reference(rand_matrix(rng, rows, cols, q),
                                         ncols, q)
        assert_eliminates_like_reference(planted_matrix(rng, rows, cols, q),
                                         ncols, q)


def test_eliminate_extremes():
    """Widest slots at a 64-bit q, and shapes with nothing in them.

    Every entry q − 1 starts each slot at its widest.  In the planted case
    rows 0..k−1 are unit rows with q − 1 in the trailing columns and row k
    is ones, so each of the k pivots clears row k with f = 1, adding
    (q − 1)² to its trailing slots: they end at exactly (q − 1) + k·(q − 1)²,
    the most the slot width allows for.  At k = 65 that takes one bit more
    than the bound for k − 1 pivots would give."""
    q = Q64
    for rows, cols, ncols in ((56, 56, 56), (56, 72, 56), (64, 56, 56)):
        assert_eliminates_like_reference([[q - 1] * cols] * rows, ncols, q)
    k, t = 65, 4
    M = [[int(i == j) for j in range(k)] + [q - 1] * t for i in range(k)]
    M.append([1] * k + [q - 1] * t)
    assert_eliminates_like_reference(M, k, q)
    assert_eliminates_like_reference(M[::-1], k, q)
    # a 0 x 0 system, and matrices with no columns
    assert solve_mod_q([], [], q) == []
    assert inverse_mod_q([], q) == []
    for rows in (0, 3):
        pivots, packed, _ = _eliminate([[] for _ in range(rows)], 0, q)
        assert pivots == [] and packed == [0] * rows
    assert rank_mod_q([[], []], q) == 0


def test_eliminate_skips_a_pivotless_column_before_a_pivot():
    """Row 0's pivot in column 0 turns rows 1 and 2 into [q, 2q, q + 1, ..]
    and [2q, 2q, q − 2, ..] slot by slot: column 1 is then ≡ 0 mod q below
    the pivot row, so it has no pivot, and row 1 becomes column 2's pivot
    with the nonzero multiples q and 2q in its first two slots.  Repacked
    from column 2 on, they read 0, as in the reference.  A leading zero
    column gives the same skip with nothing to drop."""
    for q in (7, 11, Q40):
        M = [[1, 2, 1, 5], [3, 6, 4, 2], [2, 4, 0, 2]]
        assert_eliminates_like_reference(M, 4, q)
        assert_eliminates_like_reference(M, 3, q)
        assert _eliminate(M, 4, q)[0] == [0, 2, 3]
        M = [[0, 1, 2, 3], [0, 2, 4, 1], [0, 3, 1, 2], [0, 0, 5, 6]]
        assert_eliminates_like_reference(M, 4, q)
        assert _eliminate(M, 4, q)[0] == [1, 2, 3]


def test_solve_and_rank_leave_their_arguments_as_they_are():
    rng = Random(11)
    for q in (7, Q40):
        A, Y = rand_matrix(rng, 6, 6, q), rand_matrix(rng, 6, 3, q)
        A[2] = [x + q for x in A[2]]  # unreduced entries, as callers may pass
        Y[1] = [-x for x in Y[1]]
        A0, Y0 = [row[:] for row in A], [row[:] for row in Y]
        X = solve_mod_q(A, Y, q)
        assert mat_mul(A, X, q) == [[y % q for y in row] for row in Y]
        rank_mod_q(A, q)
        rank_mod_q(Y, q)
        assert A == A0 and Y == Y0


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
