"""Dense exact linear algebra mod q.

Matrices over Z_q are plain lists of row lists holding Python ints; the
modulus is passed explicitly to each operation.  Results come back reduced
into [0, q); use ``balanced_matrix`` when the balanced form is needed.  The
exception is ``vec_mat``, the exact integer product everything builds on.
Everything is exact — q is prime, so Gauss–Jordan elimination with modular
pivot inverses never needs pivoting heuristics beyond "first nonzero".
"""

from __future__ import annotations

from typing import Sequence

from .arith import balance
from .errors import ParameterError, SingularMatrixError

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# basic constructors / shape helpers
# ---------------------------------------------------------------------------

def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    the AND contraction and every key-construction product run through it.
    """
    out = [0] * len(M[0]) if M else []
    cols = range(len(out))
    for a, row in zip(v, M):
        if a:
            for j in cols:
                out[j] += a * row[j]
    return out


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
