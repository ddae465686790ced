"""One-cycle and two-cycle instance families, with exact closed-form counts.

Families are enumerated at the graph level over the fixed vertex set
{0..n-1} with canonical ids and ports: port assignments multiply every
family size by the same factor, so ratios and per-instance degree
statistics are unaffected while exhaustive runs stay small. A member's
key lists its cycles, each rotated to its lexicographically minimal
rotation/reflection. The members are stored once, as int8 cycle arrays
(:class:`CycleFamily`), and their key tuples are derived on read. Key
order (:func:`cycle_order`), cycle walks, the cycles on a vertex set (one
table builder) and the class lengths i of T_i (:func:`two_cycle_classes`)
each have one owner; the canonical rule, the key order and the cycle walk
have batch forms over integer arrays (:func:`canonical_cycles`,
:func:`two_cycle_codes`, :func:`cycle_neighbors`).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, permutations
from math import comb, factorial, log

import numpy as np

from .errors import PY_OP, capped_count, check_work
from .sim import KT0, make_instance


def canonical_cycle(seq):
    """Lexicographically minimal rotation/reflection of a cycle sequence."""
    seq = tuple(seq)
    if len(seq) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    best = None
    for s in (seq, seq[::-1]):
        k = s.index(min(s))
        rot = s[k:] + s[:k]
        if best is None or rot < best:
            best = rot
    return best


def canonical_cycles(rows):
    """:func:`canonical_cycle` of each row of an (m, L) integer array.

    Rotates each row to its smallest entry, then keeps the reflection
    whose second entry is smaller: both start with the minimum, so the
    second entries decide the lexicographic order.
    """
    length = rows.shape[1]
    start = rows.argmin(axis=1)
    rot = np.take_along_axis(rows, (start[:, None] + np.arange(length)) % length, axis=1)
    flip = rot[:, -1] < rot[:, 1]
    rot[flip, 1:] = rot[flip, :0:-1]
    return rot


def cycle_edges(seq):
    n = len(seq)
    return [tuple(sorted((seq[i], seq[(i + 1) % n]))) for i in range(n)]


def instance_from_cycles(cycles, mode=KT0):
    """Canonical-port instance whose input graph is the given cycles, covering every vertex."""
    cycles = [tuple(c) for c in cycles]
    edges = [e for c in cycles for e in cycle_edges(c)]
    return make_instance(sum(map(len, cycles)), edges, mode=mode)


def cycle_order(cycle):
    """Sort key of the cycles in a family key: shorter first, then lexicographic."""
    return len(cycle), cycle


def two_cycle_codes(a, b):
    """int64 codes of the keys (cycles in :func:`cycle_order`) of canonical rows a, b.

    Row j of a and of b are two disjoint canonical cycles covering n
    vertices. A key is coded as its first cycle's length times n**n plus
    its vertices, in key order, read as n base-n digits; codes stay below
    (n // 2 + 1) n**n < 2^63 up to n = 15 > 11, the largest family admitted.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    elif a.shape[1] == b.shape[1]:  # equal lengths: the smaller first vertex leads
        swap = (a[:, 0] > b[:, 0])[:, None]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
    digits = np.concatenate((a, b), axis=1)
    n = digits.shape[1]
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return a.shape[1] * n**n + digits @ powers


def walk_cycle(neighbors, start, toward):
    """The cycle leaving start toward ``toward``; each vertex must have two neighbors."""
    if len(neighbors[start]) != 2:
        raise ValueError(f"vertex {start} does not have exactly two input neighbors")
    seq = [start]
    prev, cur = start, toward
    while cur != start:
        seq.append(cur)
        if len(neighbors[cur]) != 2:
            raise ValueError(f"vertex {cur} does not have exactly two input neighbors")
        a, b = neighbors[cur]
        prev, cur = cur, (b if a == prev else a)
    return seq


def cycle_neighbors(*cycles):
    """(m, n, 2) input neighbors of m members given as arrays of cycles.

    Each argument is an (m, L) integer array whose row j is one cycle of
    member j; together the cycles of a member cover 0..n-1. Entry [j, v]
    holds the two vertices next to v on its cycle, the one before it
    first.
    """
    m = len(cycles[0])
    neighbors = np.empty((m, sum(c.shape[1] for c in cycles), 2), dtype=np.int8)
    rows = np.arange(m)[:, None]
    for c in cycles:
        neighbors[rows, c, 0] = np.roll(c, 1, axis=1)
        neighbors[rows, c, 1] = np.roll(c, -1, axis=1)
    return neighbors


def cycles_of_instance(instance):
    """Canonical key of a disjoint-cycles input graph (any cycle count)."""
    nbr = instance.input_neighbors
    seen = set()
    out = []
    for start in range(instance.n):
        if start in seen or not nbr[start]:
            continue
        seq = walk_cycle(nbr, start, nbr[start][0])
        seen.update(seq)
        out.append(canonical_cycle(seq))
    return tuple(sorted(out, key=cycle_order))


def _cycle_table(k):
    """Every cycle on 0..k-1 once, canonically keyed: 0, then each permutation
    of 1..k-1 whose first entry is below its last, in lexicographic order, as
    a ((k-1)!/2, k) int8 array. Relabelled by an ascending vertex list, it
    gives the cycles on that set, still canonical and in order."""
    perms = np.fromiter(chain.from_iterable(permutations(range(1, k))), np.int8,
                        count=factorial(k - 1) * (k - 1)).reshape(-1, k - 1)
    perms = perms[perms[:, 0] < perms[:, -1]]  # the reflection representatives
    return np.column_stack((np.zeros(len(perms), np.int8), perms))


def two_cycle_classes(n, min_cycle_len=3):
    """Smaller-cycle lengths i of the splits; each leaves n - i >= i vertices."""
    if min_cycle_len < 3:
        raise ValueError(f"min_cycle_len must be at least 3, got {min_cycle_len}")
    return range(min_cycle_len, n // 2 + 1)


def _two_cycle_rows(n, i):
    """T_i's first and second cycles, in key order: each i-subset in
    lexicographic order (for n = 2i only those holding 0, which drops the
    complement duplicates), each cycle on it, then each on its complement.
    The subset's cycle leads: it is the shorter, or the one holding 0."""
    subsets = np.fromiter(chain.from_iterable(combinations(range(n), i)), np.int8).reshape(-1, i)
    subsets = subsets[subsets[:, 0] == 0] if 2 * i == n else subsets
    outside = (subsets[:, :, None] != np.arange(n)).all(axis=1)  # [s, v]: v not in subset s
    rest = np.nonzero(outside)[1].astype(np.int8).reshape(-1, n - i)
    inner, outer = _cycle_table(i), _cycle_table(n - i)
    first = np.repeat(subsets[:, inner].reshape(-1, i), len(outer), axis=0)
    second = np.repeat(rest[:, None, outer], len(inner), axis=1).reshape(-1, n - i)
    return first, second


def _row_tuples(rows):
    """The rows as tuples of Python ints, converted 1024 rows at a time, so
    no list of lists of the whole array is held."""
    return chain.from_iterable(map(tuple, rows[start:start + 1024].tolist())
                               for start in range(0, len(rows), 1024))


@dataclass(frozen=True, eq=False)
class CycleFamily:
    """Enumerated one-cycle members V1 and two-cycle classes T_i, stored once
    as read-only int8 cycle arrays in key order: ``one_cycle_rows`` has one
    n-cycle a row, and ``two_cycle_rows`` maps each i, ascending, to the
    (first, second) cycles of T_i's keys. Sizes, codes and neighbors read
    the arrays; the key tuples (:attr:`one_cycles`, :attr:`two_cycles`)
    are derived from them on first read."""

    n: int
    min_cycle_len: int
    one_cycle_rows: np.ndarray  # (|V1|, n)
    two_cycle_rows: dict  # i -> ((|T_i|, i), (|T_i|, n - i)) arrays

    @cached_property
    def one_cycles(self):
        return tuple(_row_tuples(self.one_cycle_rows))

    @cached_property
    def two_cycles(self):  # i -> T_i's keys, each a pair of cycles
        return {i: tuple(zip(_row_tuples(first), _row_tuples(second)))
                for i, (first, second) in self.two_cycle_rows.items()}

    @property
    def v1_size(self):
        return len(self.one_cycle_rows)

    @property
    def v2_size(self):
        return sum(self.t_sizes().values())

    def t_sizes(self):
        return {i: len(first) for i, (first, _) in self.two_cycle_rows.items()}

    def all_two_cycle_keys(self):
        return chain.from_iterable(self.two_cycles.values())

    def key_codes(self):
        """:func:`two_cycle_codes` of :meth:`all_two_cycle_keys`, in that order."""
        parts = [two_cycle_codes(*pair) for pair in self.two_cycle_rows.values()]
        return np.concatenate([np.empty(0, dtype=np.int64)] + parts)

    def one_cycle_neighbors(self):
        """:func:`cycle_neighbors` of the one-cycle members, in key order."""
        return cycle_neighbors(self.one_cycle_rows)

    def two_cycle_neighbors(self):
        """:func:`cycle_neighbors` of :meth:`all_two_cycle_keys`, in that order."""
        parts = [cycle_neighbors(*pair) for pair in self.two_cycle_rows.values()]
        return np.concatenate([np.empty((0, self.n, 2), dtype=np.int8)] + parts)

    def one_cycle_instance(self, key, mode=KT0):
        return instance_from_cycles([key], mode=mode)

    def two_cycle_instance(self, key, mode=KT0):
        return instance_from_cycles(key, mode=mode)


def check_family_size(n, min_cycle_len=3):
    """Refuse the n-vertex family before it is enumerated: n >= 5, and
    n <= 11 is admitted."""
    if n < 5:
        raise ValueError("family enumeration needs n >= 5")
    # a key takes about n Python-level operations and 3 n bytes, for the n-cycle table's
    # permutation buffer and filtered copy: a peak of 23-25 B a key at n = 9..11
    keys = capped_count(
        lambda n: one_cycle_count(n) * (1 + family_ratio_float(n, min_cycle_len)), n)
    check_work(f"family enumeration at n={n}", keys * n * PY_OP, keys * 3 * n)


def enumerate_family(n, min_cycle_len=3):
    """Complete duplicate-free families for n >= 5 (n <= 11 is admitted)."""
    check_family_size(n, min_cycle_len)
    ones = _cycle_table(n)  # first: its permutation buffer is the peak
    twos = {i: _two_cycle_rows(n, i) for i in two_cycle_classes(n, min_cycle_len)}
    for rows in (ones, *chain.from_iterable(twos.values())):
        rows.flags.writeable = False
    return CycleFamily(n, min_cycle_len, ones, twos)


def one_cycle_count(n):
    """Distinct cycles on n >= 3 fixed vertices: (n-1)!/2."""
    return factorial(n - 1) // 2


def t_class_count(n, i):
    """Closed form |T_i|: splits with the smaller cycle of length i."""
    if i not in two_cycle_classes(n):
        raise ValueError("need 3 <= i <= n/2")
    count = comb(n, i) * one_cycle_count(i) * one_cycle_count(n - i)
    if 2 * i == n:
        count //= 2
    return count


@dataclass(frozen=True)
class FamilyCounts:
    """Closed-form family sizes and the two-cycle/one-cycle ratio."""

    n: int
    min_cycle_len: int
    v1: int
    t_counts: dict  # i -> |T_i|
    v2: int
    ratio: object  # Fraction
    ratio_float: float


def family_ratio_float(n, min_cycle_len=3):
    """Float |V2|/|V1| from the simplified per-class terms (any n)."""
    classes = two_cycle_classes(n, min_cycle_len)
    i = np.arange(classes.start, classes.stop, dtype=np.float64)
    total = float(np.sum(n / (2.0 * i * (n - i))))
    hi = n // 2
    if n == 2 * hi and hi in classes:  # the balanced class is half the count
        total -= n / (2.0 * hi * hi) / 2.0
    return total


def family_counts(n, min_cycle_len=3):
    """Exact closed-form counts; enumeration-free, so n can be large."""
    if n < 6:
        raise ValueError("closed forms are for n >= 6")
    digits = 1 + n * n.bit_length() // 30  # of numbers below n^n, multiplied n/2 times
    check_work(f"exact closed-form counts at n={n}", n // 2 * digits * digits, n * digits * 4)
    v1 = one_cycle_count(n)
    t_counts = {i: t_class_count(n, i) for i in two_cycle_classes(n, min_cycle_len)}
    v2 = sum(t_counts.values())
    return FamilyCounts(
        n, min_cycle_len, v1, t_counts, v2,
        Fraction(v2, v1), family_ratio_float(n, min_cycle_len),
    )


def ratio_over_log(n, min_cycle_len=3):
    """ratio(n) / ln(n): the finite shadow of the log-factor size law."""
    return family_ratio_float(n, min_cycle_len) / log(n)
