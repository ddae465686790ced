"""Join-indicator matrices over partition families, with exact integer rank.

The matrix of kind "M" is indexed by all partitions of {1..n}; kind "E"
by the perfect pairings only. Entry (i,j) is 1 exactly when the join of
the i-th and j-th index partition is the one-block partition.

A matrix is built only when its dimension, the closed-form count that is
also its expected rank, is at most DIMENSION_CAP: M^7 (877), E^10 (945).

Rows are built on element bitmasks. For each index partition r,
closure[r, S] is the union of the blocks of r that meet the set S. The
block of element 1 in the join of partitions i and j is the fixed point
of S -> closure[j, closure[i, S]] from S = {1}, computed for a whole row
at once; the entry is 1 when that block is all of {1..n}.

Ranks are exact and use no floating point. Elimination modulo the prime
PRIME = 2^31 - 1 gives a lower bound on the rank over the rationals (a
minor that is nonzero mod p is nonzero over the integers), so a full
rank mod p certifies full rank. Any other matrix is ranked again by
fraction-free (Bareiss) integer elimination, which alone decides a
deficient rank.
"""

import hashlib
import json
import operator
from dataclasses import dataclass

import numpy as np

from . import partitions as pt
from .errors import ResourceLimitError

DIMENSION_CAP = 1000
PRIME = 2**31 - 1  # products of two residues stay below 2^62

# kind -> (closed-form count of its index, the index enumeration)
KINDS = {
    "M": (pt.bell, pt.enumerate_partitions),
    "E": (pt.pair_partition_count, pt.enumerate_pair_partitions),
}


@dataclass(frozen=True)
class JoinMatrix:
    kind: str  # "M" or "E"
    n: int
    index: tuple  # SetPartition per row/column, in enumeration order
    rows: tuple  # tuple of tuples of 0/1 ints

    @property
    def dimension(self):
        return len(self.index)

    def entry(self, i, j):
        return self.rows[i][j]

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
    # both counts are at least n - 1, so past the cap n alone decides and
    # the count (quadratic time in n for a Bell number) is not computed
    dim = count(n) if n <= DIMENSION_CAP else f"at least {n - 1}"
    if n > DIMENSION_CAP or dim > DIMENSION_CAP:
        raise ResourceLimitError(
            f"kind {kind} at n={n} has dimension {dim}, over the "
            f"dense-representation cap {DIMENSION_CAP}"
        )
    index = tuple(enumerate_index(n))
    closure = _block_closures(index, n)
    flat = closure.ravel()
    column_base = np.arange(dim) * closure.shape[1]  # row starts in `flat`
    full = (1 << n) - 1
    rows = []
    for row_closure in closure:
        comp = np.ones(dim, dtype=closure.dtype)  # {1} in every column
        while True:
            grown = flat[column_base + row_closure[comp]]
            if np.array_equal(grown, comp):
                break
            comp = grown
        rows.append(tuple((comp == full).view(np.int8).tolist()))
    return JoinMatrix(kind, n, index, tuple(rows))


def _block_closures(index, n):
    """closure[r, S]: the union of the blocks of index[r] meeting the set S.

    Sets are bitmasks over {1..n} (element e is bit e-1); n <= 15 keeps
    every mask, and every set label, inside an int16.
    """
    masks = np.zeros((len(index), n), dtype=np.int16)
    for r, p in enumerate(index):
        for k, block in enumerate(p.blocks):
            masks[r, k] = sum(1 << (e - 1) for e in block)
    sets = np.arange(1 << n, dtype=np.int16)
    closure = np.zeros((len(index), 1 << n), dtype=np.int16)
    for block_masks in masks.T[:, :, None]:
        closure |= np.where(sets & block_masks != 0, block_masks, 0)
    return closure


def exact_rank(matrix):
    """Rank over the rationals of a JoinMatrix or rectangular integer rows.

    Full rank mod PRIME is returned directly, as it is exact (see the
    module docstring); every other answer comes from bareiss_rank.
    """
    rows = matrix.rows if isinstance(matrix, JoinMatrix) else matrix
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    full = min(len(rows), len(rows[0]))
    if _rank_mod_prime(rows) == full:
        return full
    return bareiss_rank(rows)


def _rank_mod_prime(rows):
    """Rank over GF(PRIME) by row echelon elimination in int64.

    Entries must be integers (a float would be truncated by the int64
    cast, so it raises TypeError here instead).
    """
    a = np.array([[operator.index(v) % PRIME for v in r] for r in rows], dtype=np.int64)
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        if nonzero[0]:  # rows rank..pivot-1 are zero in col
            a[[rank, rank + nonzero[0]]] = a[[rank + nonzero[0], rank]]
        top = a[rank, col:] * pow(int(a[rank, col]), PRIME - 2, PRIME) % PRIME
        sub = a[rank + 1:, col:]
        sub -= a[rank + 1:, col, None] * top
        sub %= PRIME
        rank += 1
        if rank == nrows:
            break
    return rank


def bareiss_rank(matrix):
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Accepts a JoinMatrix or any rectangular list of integer rows. All
    arithmetic is unbounded-integer; the two-term update divides exactly
    by the previous pivot, and pivots are chosen as the first nonzero
    entry in column order, so the result is reproducible.
    """
    rows = matrix.rows if isinstance(matrix, JoinMatrix) else matrix
    m = [list(r) for r in rows]
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
    rows = matrix.rows
    sub = [[rows[i][j] for j in idx] for i in idx]
    return exact_rank(sub) == len(idx)


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
    lines = [header]
    lines.extend("".join(str(v) for v in row) for row in matrix.rows)
    return "\n".join(lines) + "\n"


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
    bits = np.packbits(np.array(matrix.rows, dtype=np.uint8))  # MSB first
    return header + b"\n" + bits.tobytes()
