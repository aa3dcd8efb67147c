"""Dense exact linear algebra mod q.

Matrices over Z_q are plain lists of row lists holding Python ints; the
modulus is passed explicitly to each operation.  Results come back reduced
into [0, q); use ``balanced_matrix`` when the balanced form is needed.
``pack_rows`` and ``unpack_slots`` are Kronecker substitution: a row packed
into one integer turns a vector-matrix product into one big-integer
multiply-add per row, and it is the package's one way to multiply a vector
by a matrix.  ``mat_mul``, encryption and decryption (``she.encrypt`` and
``she.decrypt``, on the secret key's packed C and S_dec) and AND's W
contraction (``she._contract``, on W's signed packed rows) multiply that
way; AND's carry tables (``keys._carry_table``) are D_is's rows times A's
packed rows and sums of the packed rows of A that D~'s bits select
(``keys.mat_mul_exact``).  Every product is read back by one
``unpack_slots``, which splits every slot with one ``struct``
call cached per (width, cols) shape.
``solve_mod_q`` is the one entry point for linear systems: it solves
A·X = Y in one elimination pass, and ``inverse_mod_q`` is its solve
against the identity.
Everything is exact — q is prime, so Gauss–Jordan elimination with modular
pivot inverses never needs pivoting heuristics beyond "first nonzero".
The one elimination kernel, ``_eliminate``, also works on packed rows, in
bit-wide slots: clearing a pivot column from a row is one big-integer
multiply-add.  Slots are reduced only in the pivot row, so every slot
stays below q + rank·(q − 1)², which the slot width holds; pivots are
chosen on residues mod q, so pivots and results are those of elimination
entry by entry.  Rows stay packed when it returns: ``rank_mod_q`` reads
none back and ``solve_mod_q`` only the right-hand side's columns
(``_unpack``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import mul
from struct import Struct
from struct import error as StructError
from typing import Sequence

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


def _check_range(name: str, m: Matrix, lo: int, hi: int,
                 error: type[Exception]) -> None:
    """Refuse, with ``error``, a nonempty matrix with an entry outside
    lo..hi: one min and one max pass, however large the matrix."""
    if min(map(min, m)) < lo or max(map(max, m)) > hi:
        raise error(f"{name} has an entry outside {lo}..{hi}")


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def slot_width(bound: int) -> int:
    """Bytes per Kronecker slot for packed sums whose every slot lies in
    [−bound, bound]: the least width with bound < 2^(8·width − 1)."""
    return (bound.bit_length() + 8) // 8


def pack_rows(M: Matrix, width: int) -> list[int]:
    """Kronecker-pack each row of a nonnegative matrix into one integer,
    sum_j M[i][j]·2^(8·width·j).

    Packing is linear, so any integer combination of packed rows is the
    packed form of the same combination of the rows; ``unpack_slots``
    reads it back when every slot of the result lies strictly inside
    ±2^(8·width − 1), as ``slot_width`` ensures for the bound it is given.
    Negative entries would borrow across slots and entries of 2^(8·width)
    or more would spill into the next, so both are refused.  Rows are
    packed one at a time, so no matrix-sized integer is ever built.
    """
    # one struct call per row when every entry fits the widest native
    # unsigned size no wider than the slot; to_bytes per entry otherwise
    size, code = max((s, c) for s, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
                     if s <= width)
    fmt = Struct("<" + f"{code}{width - size}x" * len(M[0]))
    try:
        return [int.from_bytes(fmt.pack(*row), "little") for row in M]
    except StructError:  # an entry too wide for the format, or negative
        pass
    widths, order = repeat(width), repeat("little")
    try:
        return [int.from_bytes(b"".join(map(int.to_bytes, row, widths, order)),
                               "little") for row in M]
    except OverflowError:  # to_bytes refuses a negative or too wide entry
        fault = ("a nonnegative matrix" if min(map(min, M)) < 0
                 else f"entries below 2^{8 * width}")
        raise ParameterError(f"pack_rows needs {fault}") from None


@lru_cache(maxsize=64)
def _slot_reader(width: int, cols: int):
    """For ``unpack_slots`` at one shape: the unpacker that splits
    ``cols`` slots of ``width`` bytes in one call, the bias of half per
    slot, and half = 2^(8·width − 1)."""
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * cols, "little")
    return Struct("<" + f"{width}s" * cols).unpack, bias, half


def unpack_slots(total: int, width: int, cols: int) -> list[int]:
    """The ``cols`` signed slots of a combination of rows packed by
    ``pack_rows`` at ``width``; each must lie strictly inside
    ±2^(8·width − 1), which is the caller's to keep."""
    unpack, bias, half = _slot_reader(width, cols)
    from_bytes = int.from_bytes
    # the bias lifts every slot into [0, 2^(8w)), so the sum's bytes split
    # into slots with no borrows to undo
    return [from_bytes(b, "little") - half
            for b in unpack((total + bias).to_bytes(width * cols, "little"))]


def mat_mul(A: Matrix, B: Matrix, q: int) -> Matrix:
    """A·B mod q.  B's rows are reduced and packed once, so each row of A
    is one multiply-add per row of B and one ``unpack_slots``; with both
    factors reduced into [0, q), every slot lies below k·(q − 1)²."""
    n, k = dims(A)
    k2, m = dims(B)
    if k != k2:
        raise ParameterError(f"cannot multiply {n}x{k} by {k2}x{m}")
    width = slot_width(k * (q - 1) ** 2)
    rows = pack_rows([[x % q for x in row] for row in B], width)
    return [[x % q for x in unpack_slots(
                sum(map(mul, [a % q for a in row], rows)), width, m)]
            for row in A]


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def _eliminate(M: Sequence[Sequence[int]], ncols: int,
               q: int) -> tuple[list[int], list[int], int]:
    """Gauss–Jordan elimination of a copy of ``M`` mod prime q, on
    Kronecker-packed rows; ``M`` itself is left as it is.

    Pivots are sought only in the first ``ncols`` columns, so trailing
    columns (an identity, a right-hand side) ride along with the row
    operations.  Returns the pivot columns in order (a column without a
    pivot is skipped), the worked rows packed, and the slot width in bits.
    Row i holds the i-th pivot, ≡ 1 mod q in its slot, and that column is
    ≡ 0 mod q in every other row.  The rows are read back by ``_unpack``,
    and each caller reads only what it uses.

    Each row is packed once, entries reduced mod q, one slot of ``bits``
    bits per entry and column 0 in the top slot.  A pivot row is unpacked,
    reduced, scaled and repacked from its pivot column on: every row from
    the current rank down is ≡ 0 mod q in the columns before it, so those
    slots are packed as 0.  Every other row then takes
    row += (q − f)·row_p, f being its slot in the pivot column mod q.  That
    adds less than (q − 1)² to each slot, and a row is reduced when it
    becomes a pivot, so every slot stays below q + rank·(q − 1)² and never
    carries into the next.  Pivots and f are read as residues, so the
    pivots and the reduced rows are the same as elimination entry by entry
    (``tests/oracles.py`` keeps that kernel as the reference).
    """
    n = len(M)
    width = len(M[0]) if M else 0
    bits = ((q - 1) * (1 + min(n, ncols) * (q - 1))).bit_length()
    mask = (1 << bits) - 1
    shifts = range(bits * (width - 1), -1, -bits)  # slot j sits at shifts[j]

    def pack(row: Sequence[int]) -> int:
        acc = 0
        for x in row:
            acc = acc << bits | x
        return acc

    rows = [pack([x % q for x in row]) for row in M]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        s = shifts[col]
        fs = [(row >> s & mask) % q for row in rows]
        pivot = next((r for r in range(rank, n) if fs[r]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        fs[rank], fs[pivot] = fs[pivot], fs[rank]
        inv, top = pow(fs[rank], -1, q), rows[rank]
        row_p = rows[rank] = pack([(top >> t & mask) * inv % q
                                   for t in shifts[col:]])
        for r, f in enumerate(fs):
            if f and r != rank:
                rows[r] += (q - f) * row_p
        pivots.append(col)
    return pivots, rows, bits


def _unpack(row: int, bits: int, cols: int, q: int) -> list[int]:
    """The last ``cols`` entries of a row packed by ``_eliminate`` at
    ``bits`` bits per slot, reduced into [0, q)."""
    mask = (1 << bits) - 1
    return [(row >> t & mask) % q for t in range(bits * (cols - 1), -1, -bits)]


def solve_mod_q(A: Matrix, Y: Matrix, q: int) -> Matrix:
    """X with A·X = Y (mod prime q), for square A, by one Gauss–Jordan pass
    over [A | Y] with pivots sought only in A's columns; only Y's columns
    are read back.

    Raises SingularMatrixError naming the first column left without a pivot.
    """
    n, m = dims(A)
    if n != m:
        raise ParameterError(f"solve needs a square matrix, got {n}x{m}")
    if len(Y) != n:
        raise ParameterError(f"cannot solve {n}x{n} against {len(Y)} rows")
    pivots, rows, bits = _eliminate([[*a, *y] for a, y in zip(A, Y)], n, q)
    if len(pivots) < n:
        raise SingularMatrixError(
            next((c for c, col in enumerate(pivots) if c != col), len(pivots)))
    cols = len(Y[0]) if Y else 0
    return [_unpack(row, bits, cols, q) for row in rows]


def inverse_mod_q(A: Matrix, q: int) -> Matrix:
    """Inverse of a square matrix mod prime q: ``solve_mod_q`` against I."""
    n = len(A)
    return solve_mod_q(A, [[int(i == j) for j in range(n)] for i in range(n)], q)


def rank_mod_q(A: Matrix, q: int) -> int:
    """The rank of A mod prime q: the pivot count of ``_eliminate``, whose
    rows it does not read back."""
    return len(_eliminate(A, dims(A)[1], q)[0])
