"""Dense exact linear algebra mod q.

Matrices over Z_q are plain lists of row lists holding Python ints; the
modulus is passed explicitly to each operation.  Results come back reduced
into [0, q); use ``balanced_matrix`` when the balanced form is needed.  The
exceptions are ``vec_mat``, the exact integer product everything builds on,
and ``packed_vec_mat``, the same product against a matrix whose rows were
Kronecker-packed once by ``pack_rows``.
Everything is exact — q is prime, so Gauss–Jordan elimination with modular
pivot inverses never needs pivoting heuristics beyond "first nonzero".
"""

from __future__ import annotations

from itertools import repeat
from operator import mul
from typing import NamedTuple, Sequence

from .arith import balance
from .errors import ParameterError, SingularMatrixError

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# basic constructors / shape helpers
# ---------------------------------------------------------------------------

def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def dims(A: Matrix) -> tuple[int, int]:
    return len(A), len(A[0]) if A else 0


def balanced_matrix(A: Matrix, q: int) -> Matrix:
    return [[balance(x, q) for x in row] for row in A]


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def vec_mat(v: Sequence[int], M: Matrix) -> list[int]:
    """Exact product v·M = sum_i v[i]·M[i] over the integers, unreduced.

    The one multiply-accumulate loop of the package: encryption, decryption,
    the W contraction of AND and every key-construction product run through
    it.  The t·P products of AND use ``packed_vec_mat``.
    """
    out = [0] * len(M[0]) if M else []
    cols = range(len(out))
    for a, row in zip(v, M):
        if a:
            for j in cols:
                out[j] += a * row[j]
    return out


class Packed(NamedTuple):
    """A nonnegative matrix with each row packed into one integer."""

    rows: list[int]  # row i is sum_j M[i][j]·2^(8·width·j)
    width: int       # bytes per slot
    cols: int


def pack_rows(M: Matrix, v_bound: int) -> Packed:
    """Kronecker-pack each row of a nonnegative matrix for ``packed_vec_mat``.

    Slots are byte-aligned and ``width`` bytes wide, where width is the
    least with len(M)·v_bound·max(M) < 2^(8·width − 1).  Then every slot of
    v·M with all |v_k| <= v_bound lies strictly inside ±2^(8·width − 1), so
    the products of whole rows never carry from one slot into the next.
    Negative entries would borrow across slots and are refused.  Rows are
    packed one at a time, so no matrix-sized integer is ever built.
    """
    bound = len(M) * v_bound * max(map(max, M))
    width = (bound.bit_length() + 8) // 8
    widths, order = repeat(width), repeat("little")
    try:
        rows = [int.from_bytes(b"".join(map(int.to_bytes, row, widths, order)),
                               "little") for row in M]
    except OverflowError:  # to_bytes refuses a negative entry
        raise ParameterError("pack_rows needs a nonnegative matrix") from None
    return Packed(rows, width, len(M[0]))


def packed_vec_mat(v: Sequence[int], P: Packed) -> list[int]:
    """Exact v·M for the matrix M that ``P`` packs: one big-integer
    multiply-add per row of M instead of one small one per entry.

    Equal to ``vec_mat(v, M)`` provided every |v_k| is at most the
    ``v_bound`` given to ``pack_rows``; that bound is the caller's to keep.
    """
    w = P.width
    half = 1 << (8 * w - 1)
    # a bias of half per slot lifts every slot into [0, 2^(8w)), so the
    # sum's bytes split into slots with no borrows to undo
    bias = int.from_bytes(half.to_bytes(w, "little") * P.cols, "little")
    data = (sum(map(mul, v, P.rows)) + bias).to_bytes(w * P.cols, "little")
    return [int.from_bytes(data[j:j + w], "little") - half
            for j in range(0, w * P.cols, w)]


def mat_mul(A: Matrix, B: Matrix, q: int) -> Matrix:
    n, k = dims(A)
    k2, m = dims(B)
    if k != k2:
        raise ParameterError(f"cannot multiply {n}x{k} by {k2}x{m}")
    return [[x % q for x in vec_mat(row, B)] for row in A]


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _eliminate(work: Matrix, ncols: int, q: int) -> list[int]:
    """Gauss–Jordan elimination of ``work`` in place, mod prime q.

    Entries must already lie in [0, q).  Pivots are sought only in the first
    ``ncols`` columns, so trailing columns (an identity, a right-hand side)
    ride along with the row operations.  On return row i holds the i-th
    pivot, scaled to 1 and cleared from every other row; the pivot columns
    are returned in order, and a column without a pivot is skipped.
    """
    n = len(work)
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == n:
            break
        pivot = next((r for r in range(rank, n) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, q)
        row_p = work[rank] = [x * inv % q for x in work[rank]]
        for r in range(n):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % q for x, y in zip(work[r], row_p)]
        pivots.append(col)
    return pivots


def inverse_mod_q(A: Matrix, q: int) -> Matrix:
    """Inverse of a square matrix mod prime q via Gauss–Jordan.

    Raises SingularMatrixError naming the first column left without a pivot.
    """
    n, m = dims(A)
    if n != m:
        raise ParameterError(f"inverse needs a square matrix, got {n}x{m}")
    work = [[x % q for x in row] + [1 if i == j else 0 for j in range(n)]
            for i, row in enumerate(A)]
    pivots = _eliminate(work, n, q)
    if len(pivots) < n:
        raise SingularMatrixError(
            next((c for c, col in enumerate(pivots) if c != col), len(pivots)))
    return [row[n:] for row in work]


def rank_mod_q(A: Matrix, q: int) -> int:
    if not A or not A[0]:
        return 0
    return len(_eliminate([[x % q for x in row] for row in A], len(A[0]), q))
