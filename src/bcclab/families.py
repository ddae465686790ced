"""One-cycle and two-cycle instance families, with exact closed-form counts.

Families are enumerated at the graph level over the fixed vertex set
{0..n-1} with canonical ids and ports: port assignments multiply every
family size by the same factor, so ratios and per-instance degree
statistics are unaffected while exhaustive runs stay small. Members are
stored as canonical keys; a key is the cycle vertex sequence rotated to
its lexicographically minimal rotation/reflection. Key order
(:func:`cycle_order`), cycle walks, the cycles on a vertex set and the
class lengths i of T_i (:func:`two_cycle_classes`) each have one owner.
The canonical rule and the two-cycle key order also have batch forms
over integer arrays (:func:`canonical_cycles`, :func:`two_cycle_codes`),
kept next to their scalar forms.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
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


def instance_from_cycles(cycles, mode=KT0, b=1, n=None):
    """Canonical-port instance whose input graph is the given cycles."""
    cycles = [tuple(c) for c in cycles]
    covered = [v for c in cycles for v in c]
    size = n if n is not None else len(covered)
    edges = [e for c in cycles for e in cycle_edges(c)]
    return make_instance(size, edges, mode=mode, b=b)


def cycle_order(cycle):
    """Sort key of the cycles in a family key: shorter first, then lexicographic."""
    return len(cycle), cycle


def two_cycle_key(a, b):
    """Family key of two disjoint canonical cycles, in :func:`cycle_order`."""
    return (a, b) if cycle_order(a) <= cycle_order(b) else (b, a)


def two_cycle_codes(a, b):
    """int64 codes of the keys :func:`two_cycle_key` makes of canonical rows a, b.

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


def _cycles_on(vertices):
    """Every cycle on the vertex set once, canonically keyed."""
    first, *rest = sorted(vertices)
    for perm in permutations(rest):
        if perm[0] < perm[-1]:  # reflection representative
            yield (first,) + perm


def one_cycle_keys(n):
    """All (n-1)!/2 distinct cycles on {0..n-1}, canonically keyed."""
    return _cycles_on(range(n))


def two_cycle_classes(n, min_cycle_len=3):
    """Smaller-cycle lengths i of the splits; each leaves n - i >= i vertices."""
    if min_cycle_len < 3:
        raise ValueError(f"min_cycle_len must be at least 3, got {min_cycle_len}")
    return range(min_cycle_len, n // 2 + 1)


def two_cycle_keys(n, min_cycle_len=3):
    """All splits into two disjoint cycles, smaller length first.

    Yields (i, key) with i the smaller cycle length; for even n the
    i = n/2 class drops the complement duplicates by keeping only the
    splits whose first cycle contains vertex 0.
    """
    for i in two_cycle_classes(n, min_cycle_len):
        for subset in combinations(range(n), i):
            if 2 * i == n and 0 not in subset:
                continue
            complement = tuple(v for v in range(n) if v not in subset)
            for ca in _cycles_on(subset):
                for cb in _cycles_on(complement):
                    yield i, two_cycle_key(ca, cb)


@dataclass(frozen=True)
class CycleFamily:
    """Enumerated one-cycle members V1 and two-cycle classes T_i."""

    n: int
    min_cycle_len: int
    one_cycles: tuple  # canonical cycle keys
    two_cycles: dict  # i -> tuple of two-cycle keys

    @property
    def v1_size(self):
        return len(self.one_cycles)

    @property
    def v2_size(self):
        return sum(len(v) for v in self.two_cycles.values())

    def t_sizes(self):
        return {i: len(v) for i, v in self.two_cycles.items()}

    def all_two_cycle_keys(self):
        for i in sorted(self.two_cycles):
            yield from self.two_cycles[i]

    def key_codes(self):
        """:func:`two_cycle_codes` of :meth:`all_two_cycle_keys`, in that order."""
        parts = [np.empty(0, dtype=np.int64)]
        for i in sorted(self.two_cycles):
            keys = self.two_cycles[i]
            first = np.array([key[0] for key in keys], dtype=np.int8).reshape(-1, i)
            second = np.array([key[1] for key in keys], dtype=np.int8).reshape(-1, self.n - i)
            parts.append(two_cycle_codes(first, second))
        return np.concatenate(parts)

    def one_cycle_instance(self, key, mode=KT0, b=1):
        return instance_from_cycles([key], mode=mode, b=b, n=self.n)

    def two_cycle_instance(self, key, mode=KT0, b=1):
        return instance_from_cycles(list(key), mode=mode, b=b, n=self.n)


def enumerate_family(n, min_cycle_len=3):
    """Complete duplicate-free families for n >= 5 (n <= 11 is admitted)."""
    if n < 5:
        raise ValueError("family enumeration needs n >= 5")
    # a key takes about n Python-level operations and 8 n + 150 bytes
    keys = capped_count(
        lambda n: one_cycle_count(n) * (1 + family_ratio_float(n, min_cycle_len)), n)
    check_work(f"family enumeration at n={n}", keys * n * PY_OP, keys * (8 * n + 150))
    twos = {}
    for i, key in two_cycle_keys(n, min_cycle_len):
        twos.setdefault(i, []).append(key)
    twos = {i: tuple(v) for i, v in sorted(twos.items())}
    ones = tuple(one_cycle_keys(n))
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


def family_ratio_terms(n, min_cycle_len=3):
    """|T_i|/|V1| simplifies to n/(2 i (n-i)), halved at i = n/2."""
    terms = {}
    for i in two_cycle_classes(n, min_cycle_len):
        term = Fraction(n, 2 * i * (n - i))
        if 2 * i == n:
            term /= 2
        terms[i] = term
    return terms


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
