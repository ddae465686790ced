"""Join-indicator matrices over partition families, with exact integer rank.

The matrix of kind "M" is indexed by all partitions of {1..n}; kind "E"
by the perfect pairings only. Entry (i,j) is 1 exactly when the join of
the i-th and j-th index partition is the one-block partition.

A matrix is built when check_work admits the 2 d^3 / 3 steps of its rank,
d its closed-form dimension: M^7 (877) and E^10 (945), not M^8 (4140).

The matrix is built from closed-set words. The block of element 1 in
the join of partitions p and q is the smallest set holding 1 that is a
union of blocks of both, so the join is the one-block partition exactly
when no proper set holding 1 is a union of blocks of both. For each
index partition r, bit k of its word is set when the k-th proper set
holding 1 (the odd bitmask 2k + 1 over {1..n}) is a union of blocks of
r; entry (p, q) is 1 when the words of p and q share no bit. The
2^(n-1) - 1 sets take one uint64 word up to n = 7, 2 at n = 8 and 8 at
n = 10, and the matrix is kept as one read-only (d, d) int8 array.

Ranks are exact. One row echelon elimination modulo the prime
PRIME = 16777213 (the largest below 2^24) gives the rank r mod p, a
lower bound on the rank over the rationals (a minor that is nonzero mod
p is nonzero over the integers), so a full r is returned at once. It
runs on int64 residues in panels of _PANEL = 32 columns: inside a panel
each pivot updates the panel alone; then forward substitution finishes
the panel's pivot rows right of it, and the rows below take one float64
BLAS product L21 U12. An entry of that product sums at most 32 products
of two residues, each below 2^48, so every partial sum is an integer
below 2^53, exact in any summation order; the trailing int64 block
takes _UNREDUCED = 2^9 such products before it is reduced. The
elimination keeps its factors, A[R, C] = L U mod p in the LAPACK getrf
layout, R and C the pivot rows and columns.

A deficient r is returned only with an integer kernel certificate. With
F the other columns, Dixon's p-adic lifting solves A[R, C] Y = A[R, F]
over the rationals in int64, one base-p digit at a time by forward and
back substitution on those factors. After 1, 2, 4, ... digits, and at
the cap where p^k first exceeds twice the squared Hadamard bound of the
pivot rows, rational reconstruction with one running denominator tries
Y = Num / den, and A[:, C] Num == den A[:, F] is checked in integers on
every row; the lifting stops once it holds. Those are n - r independent
kernel vectors, so the rank is at most r. The answer is the identity's,
not the lifting's: at the cap the reconstruction is sure to find Y, so
stopping earlier changes no answer, and a kernel of small integers (a
dependent row of a 0/1 matrix) takes one digit. A matrix whose
certificate cannot be built or fails (entries too large for int64
lifting, an identity that fails at the cap) is ranked by fraction-free
(Bareiss) integer elimination, which stays the oracle: no deficient
rank rests on the prime alone.
"""

import hashlib
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import partitions as pt
from .errors import capped_count, check_work

PRIME = 16777213  # the largest prime below 2^24
# columns of a panel: _PANEL * (PRIME - 1)^2 < 2^53
_PANEL = 32
# panels between reductions of the trailing block, each subtracting a
# product below 2^53: an int64 holds a residue minus 2^9 of them
_UNREDUCED = 2**9

# kind -> (closed-form count of its index, the index enumeration)
KINDS = {
    "M": (pt.bell, pt.enumerate_partitions),
    "E": (pt.pair_partition_count, pt.enumerate_pair_partitions),
}


class _Rows(np.ndarray):
    """A JoinMatrix's rows: an int8 array that is true when it has a row,
    as a list of rows is, since callers that take either (the benchmark's
    tracer of exact_rank among them) test it so. Its arithmetic and
    comparisons give plain arrays, whose truth stays ambiguous."""

    def __bool__(self):
        return len(self) > 0

    def __array_wrap__(self, array, context=None, return_scalar=False):
        array = array.view(np.ndarray)
        return array[()] if return_scalar else array


@dataclass(frozen=True)
class JoinMatrix:
    kind: str  # "M" or "E"
    n: int
    index: tuple  # SetPartition per row/column, in enumeration order
    rows: np.ndarray  # read-only, C-contiguous (d, d) int8 array of 0/1

    @property
    def dimension(self):
        return len(self.index)

    def entry(self, i, j):
        return int(self.rows[i, j])

    def index_hash(self):
        """Stable digest of the row/column index (the enumeration contract)."""
        h = hashlib.sha256()
        for p in self.index:
            h.update(str(p).encode())
            h.update(b";")
        return h.hexdigest()


def _kind(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return KINDS[kind]


def expected_rank(kind, n):
    return _kind(kind)[0](n)


def build_join_matrix(kind, n):
    """Construct the 0/1 join matrix of the given kind over {1..n}."""
    count, enumerate_index = _kind(kind)
    dim = capped_count(count, n)
    width = max(1, 2**n // 128)  # uint64 words for a row's 2^(n-1) - 1 proper sets holding 1
    # the elimination and one AND per word per entry; the int8 rows, the rank's
    # int64 residues and as many bytes again for its panel, GEMM blocks and
    # numpy's buffers (the closures, 2^n <= 8 d bytes a row, fit in those)
    check_work(f"kind {kind} at n={n} with dimension {dim if n <= 64 else 'over 2^63'}",
               dim * dim * (2 * dim // 3 + width), 17 * dim * dim)
    index = tuple(enumerate_index(n))
    sets = np.arange(1, (1 << n) - 1, 2, dtype=np.int16)  # the proper sets holding 1
    closed = np.zeros((dim, 64 * width), dtype=bool)
    closed[:, :len(sets)] = _block_closures(index, n, sets) == sets
    words = np.packbits(closed, axis=1).view(np.uint64)
    rows = np.empty((dim, dim), dtype=np.int8)
    step = max(1, dim // (8 * width))  # a block's uint64 temporary fits in `rows`
    for start in range(0, dim, step):
        block = words[start:start + step]
        shared = block[:, 0, None] & words[:, 0]
        for w in range(1, width):
            shared |= block[:, w, None] & words[:, w]
        rows[start:start + step] = shared == 0
    rows.flags.writeable = False
    return JoinMatrix(kind, n, index, rows.view(_Rows))


def _block_closures(index, n, sets):
    """closure[r, i]: the union of the blocks of index[r] meeting sets[i].

    Sets are bitmasks over {1..n} (element e is bit e-1); n <= 15 keeps
    every mask, and every set label, inside an int16.
    """
    masks = np.zeros((len(index), n), dtype=np.int16)
    for r, p in enumerate(index):
        for k, block in enumerate(p.blocks):
            masks[r, k] = sum(1 << (e - 1) for e in block)
    closure = np.zeros((len(index), len(sets)), dtype=np.int16)
    for block_masks in masks.T[:, :, None]:
        closure |= np.where(sets & block_masks != 0, block_masks, 0)
    return closure


def exact_rank(matrix):
    """Rank over the rationals of a JoinMatrix or rectangular integer rows.

    The rank r mod PRIME is a lower bound. A full r is returned at once,
    a deficient r only when _kernel_certificate checks it exactly, and
    every other matrix is ranked by bareiss_rank (see the module
    docstring).
    """
    rows = matrix.rows if isinstance(matrix, JoinMatrix) else matrix
    a = _integer_array(rows)
    if not a.size:
        return 0
    rank, pivot_rows, pivot_cols, lu = _echelon_mod_prime(a)
    if rank == min(a.shape) or _kernel_certificate(a, lu, pivot_rows, pivot_cols):
        return rank
    return bareiss_rank(rows)


def _integer_array(rows):
    """The rows as an integer array (a JoinMatrix's int8 rows uncopied),
    or as an object array of Python ints when an entry does not fit int64.

    A non-integer entry raises TypeError: truncating it would rank a
    different matrix.
    """
    a = np.asarray(rows)
    if a.dtype.kind in "bi":
        return a
    return np.array([[operator.index(v) for v in r] for r in rows], dtype=object)


def _echelon_mod_prime(a):
    """Row echelon elimination of the integer array a over GF(PRIME).

    Returns (r, pivot_rows, pivot_cols, lu): the rank r, the original ids
    of the r pivot rows and the r pivot columns, both in pivot order, and
    the int64 array of residues the elimination ran in, its rows in pivot
    order. The pivot of a column is the first remaining row that is
    nonzero mod PRIME there, so B = A[R, C] is nonsingular mod PRIME, and
    lu[:r, C] holds B = L U mod PRIME in the LAPACK getrf layout: the
    pivots on the diagonal and each pivot's multipliers below it make L,
    and the pivot rows divided by their pivots make the unit upper
    triangle U.

    The columns are taken in panels of _PANEL, as the module docstring
    says: _factor_panel, forward substitution for U12, and the product
    L21 U12 by row blocks. A column is reduced when its panel reaches it.
    """
    # the residues, reduced in place (an object array first, to fit int64)
    lu = (a % PRIME if a.dtype == object else a).astype(np.int64)
    lu %= PRIME
    nrows, ncols = lu.shape
    order = list(range(nrows))
    pivot_cols = []
    inverses = []  # of the pivots, in pivot order
    for start in range(0, ncols, _PANEL):
        stop = min(start + _PANEL, ncols)
        top = len(pivot_cols)
        pivot_cols += _factor_panel(lu, top, start, stop, order, inverses)
        rank = len(pivot_cols)
        if rank == nrows:
            break
        if rank == top or stop == ncols:
            continue
        columns = pivot_cols[top:]
        l11 = lu[top:rank, columns]
        u12 = lu[top:rank, stop:]
        u12 %= PRIME
        for i, inverse in enumerate(inverses[top:]):
            u12[i] = (u12[i] - l11[i, :i] @ u12[:i]) % PRIME * inverse % PRIME
        u12 = u12.astype(np.float64)
        step = max(1, nrows // 8)  # a block's product takes 1/8 of lu's bytes
        for block in range(rank, nrows, step):
            product = lu[block:block + step, columns].astype(np.float64) @ u12
            trailing = lu[block:block + step, stop:]
            np.subtract(trailing, product, out=trailing, dtype=np.int64, casting="unsafe")
        if stop // _PANEL % _UNREDUCED == 0:
            lu[rank:, stop:] %= PRIME
    rank = len(pivot_cols)
    return rank, np.array(order[:rank], dtype=np.intp), np.array(pivot_cols, dtype=np.intp), lu


def _factor_panel(lu, top, start, stop, order, inverses):
    """Eliminate the panel lu[top:, start:stop] pivot by pivot; return its
    pivot columns.

    A pivot's row exchange moves whole rows of lu and the ids in order,
    and its inverse is appended to inverses. The panel is eliminated in
    a transposed copy, so that each update runs over whole contiguous
    rows: numpy buffers an update of a strided block, at up to three
    times its bytes.
    """
    panel = lu[top:, start:stop].T.copy()
    pivots = []  # counted from start
    for j, column in enumerate(panel):
        k = len(pivots)
        column = column[k:]
        column %= PRIME
        nonzero = column.nonzero()[0]
        if not nonzero.size:
            continue
        if nonzero[0]:  # rows top+k..pivot-1 are zero in the column
            pivot = k + nonzero[0]
            panel[:, [k, pivot]] = panel[:, [pivot, k]]
            lu[[top + k, top + pivot]] = lu[[top + pivot, top + k]]
            order[top + k], order[top + pivot] = order[top + pivot], order[top + k]
        pivots.append(j)
        inverses.append(pow(int(column[0]), -1, PRIME))
        if top + k + 1 == len(lu):
            break
        row = panel[j + 1:, k] % PRIME * inverses[-1] % PRIME
        panel[j + 1:, k] = row
        below = np.zeros(panel.shape[1], dtype=np.int64)  # the column below the pivot
        below[k + 1:] = column[1:]
        # einsum forms the outer product without a broadcast's buffers
        panel[j + 1:] -= np.einsum("i,j->ij", row, below)
    lu[top:, start:stop] = panel.T
    return [start + j for j in pivots]


def _kernel_certificate(a, lu, pivot_rows, pivot_cols):
    """True when the integer array a provably has rank len(pivot_rows).

    With R the pivot rows and C the pivot columns of _echelon_mod_prime,
    B = A[R, C] is nonsingular mod PRIME, so a nonzero r x r minor gives
    rank >= r; the lifting on B's factors in lu and the early stop are
    the module docstring's. False (the caller falls back to Bareiss) when
    the lifting would leave int64, or the identity still fails at the
    cap.
    """
    r = len(pivot_rows)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivot_cols] = False
    # |residual| <= r * beta and |residual - B y| < r * beta * PRIME stay
    # in int64, and so does a dot product of r pairs of residues
    beta = max(int(a.max()), -int(a.min()))
    if r * max(beta, PRIME) * PRIME >= 2**63:
        return False
    factors = lu[:r, pivot_cols]
    b = a[np.ix_(pivot_rows, pivot_cols)].astype(np.int64)
    # by Cramer's rule an entry of Y is det(B_j) / det(B), both at most
    # the Hadamard bound H of the pivot rows; a fraction with numerator
    # and denominator at most H is unique mod M once M > 2 H^2 (the row
    # sums of squares are taken in int64 where they fit)
    rows = a[pivot_rows].astype(np.int64 if a.shape[1] * beta**2 < 2**63 else object)
    limit = 2 * math.prod((rows * rows).sum(axis=1).tolist())
    residual = a[np.ix_(pivot_rows, free)].astype(np.int64)
    inverses = [pow(int(p), -1, PRIME) for p in factors.diagonal()]
    lifted, modulus, digits = 0, 1, 0
    while modulus <= limit:
        y, residual = _padic_step(factors, inverses, b, residual)
        lifted = lifted + modulus * y.astype(object)
        modulus *= PRIME
        digits += 1
        if (modulus > limit or digits & (digits - 1) == 0) and _kernel_identity(
            a, pivot_cols, free, beta, lifted, modulus
        ):
            return True
    return False


def _padic_step(factors, inverses, b, residual):
    """The next base-PRIME digit y = B^-1 residual mod PRIME, by forward
    and back substitution on B's factors (inverses: of their pivots), and
    (residual - B y) / PRIME, which PRIME divides."""
    y = residual % PRIME
    for i, inverse in enumerate(inverses):  # L z = residual
        y[i] = (y[i] - factors[i, :i] @ y[:i]) % PRIME * inverse % PRIME
    for i in range(len(y) - 2, -1, -1):  # U y = z
        y[i] = (y[i] - factors[i, i + 1:] @ y[i + 1:]) % PRIME
    return y, (residual - b @ y) // PRIME


def _kernel_identity(a, pivot_cols, free, beta, lifted, modulus):
    """True when Y == lifted (mod modulus) rebuilds as Num / den with
    A[:, C] Num == den A[:, F] over the integers.

    Wang's reconstruction of each entry with one running denominator (the
    lcm so far, a divisor of det(B)); the identity is evaluated in int64
    when no sum can leave it, else in Python integers.
    """
    bound = math.isqrt((modulus - 1) // 2)
    den = 1
    for x in lifted.flat:
        d = _reconstructed_denominator(x * den % modulus, modulus, bound)
        if d is None:
            return False
        den *= d
    num = lifted * den % modulus
    num = np.where(num > modulus // 2, num - modulus, num)
    largest = np.abs(num).max(initial=den)
    dtype = np.int64 if len(pivot_cols) * beta * largest < 2**63 else object
    lhs = a[:, pivot_cols].astype(dtype) @ num.astype(dtype)
    return bool((lhs == den * a[:, free].astype(dtype)).all())


def _reconstructed_denominator(z, modulus, bound):
    """The denominator d of the fraction n / d == z (mod modulus) with
    |n| <= bound and 0 < d <= bound, or None.

    Wang's rational reconstruction by the extended Euclidean algorithm;
    the fraction is unique when 2 bound^2 < modulus.
    """
    r0, r1, t0, t1 = modulus, z, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound else None


def bareiss_rank(matrix):
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Accepts a JoinMatrix or any rectangular list of integer rows; a
    non-integer entry raises TypeError, as the floor division below
    would rank a different matrix. All arithmetic is unbounded-integer;
    the two-term update divides exactly by the previous pivot, and
    pivots are chosen as the first nonzero entry in column order, so the
    result is reproducible.
    """
    rows = matrix.rows if isinstance(matrix, JoinMatrix) else matrix
    m = [[operator.index(v) for v in r] for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    piv = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(piv, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != piv:
            m[piv], m[pivot_row] = m[pivot_row], m[piv]
        p = m[piv][col]
        top = m[piv]
        for r in range(piv + 1, nrows):
            row = m[r]
            lead = row[col]
            for c in range(col, ncols):
                row[c] = (row[c] * p - lead * top[c]) // prev
        prev = p
        piv += 1
        if piv == nrows:
            break
    return piv


def verify_principal_submatrix_rank(matrix, subset):
    """True iff the principal submatrix on subset x subset has full rank."""
    idx = sorted(set(subset))
    dim = matrix.dimension if isinstance(matrix, JoinMatrix) else len(matrix.rows)
    if any(i < 0 or i >= dim for i in idx):
        raise ValueError("subset index out of range")
    if not idx:
        return True
    return exact_rank(matrix.rows[np.ix_(idx, idx)]) == len(idx)


def rank_report(matrix):
    """Structured record {kind, n, dimension, rank, expected, pass}."""
    rank = exact_rank(matrix)
    expected = expected_rank(matrix.kind, matrix.n)
    return {
        "kind": matrix.kind,
        "n": matrix.n,
        "dimension": matrix.dimension,
        "rank": rank,
        "expected": expected,
        "pass": rank == expected,
    }


def export_text(matrix):
    """Human-readable dump: a header line followed by 0/1 rows."""
    header = (
        f"join-matrix kind={matrix.kind} n={matrix.n} "
        f"dimension={matrix.dimension} index-hash={matrix.index_hash()}"
    )
    lines = np.full((matrix.dimension, matrix.dimension + 1), ord("\n"), dtype=np.uint8)
    lines[:, :-1] = matrix.rows + ord("0")
    return header + "\n" + lines.tobytes().decode()


def export_binary(matrix):
    """Row-major packed dump with a JSON header line (8 entries per byte)."""
    header = json.dumps(
        {
            "kind": matrix.kind,
            "n": matrix.n,
            "dimension": matrix.dimension,
            "index_hash": matrix.index_hash(),
        },
        sort_keys=True,
    ).encode()
    bits = np.packbits(matrix.rows)  # MSB first
    return header + b"\n" + bits.tobytes()
