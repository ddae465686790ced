"""Exact set-partition algebra on the ground set {1..n}.

Partitions are kept in canonical form (block elements ascending, blocks
ordered by minimum element), the join labels each element with the least
element of its class (``unionfind.component_roots``), and enumeration
follows restricted-growth-string lexicographic order so that enumeration
indices are stable and can serve as matrix row/column indices.
"""

from functools import wraps
from math import factorial

from .errors import PY_OP, PartitionParseError, capped_count, check_work
from .unionfind import component_roots


class SetPartition:
    """A partition of {1..n} into disjoint nonempty blocks, stored canonically."""

    __slots__ = ("ground_size", "blocks", "_block_of")

    def __init__(self, ground_size, blocks):
        if ground_size < 1:
            raise ValueError("ground size must be a positive integer")
        canon = sorted(tuple(sorted(block)) for block in blocks)
        seen = {}
        for bi, block in enumerate(canon):
            if not block:
                raise ValueError("empty block")
            for e in block:
                if not isinstance(e, int) or not 1 <= e <= ground_size:
                    raise ValueError(f"element {e} outside 1..{ground_size}")
                if e in seen:
                    raise ValueError(f"duplicate element {e}")
                seen[e] = bi
        if len(seen) != ground_size:
            missing = min(set(range(1, ground_size + 1)) - set(seen))
            raise ValueError(f"element {missing} missing from blocks")
        object.__setattr__(self, "ground_size", ground_size)
        object.__setattr__(self, "blocks", tuple(canon))
        object.__setattr__(self, "_block_of", seen)

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @classmethod
    def singletons(cls, n):
        """The finest partition (1)(2)...(n) -- the join identity."""
        return cls(n, [(i,) for i in range(1, n + 1)])

    @classmethod
    def trivial(cls, n):
        """The one-block partition of {1..n} -- the join-absorbing element."""
        return cls(n, [tuple(range(1, n + 1))])

    @classmethod
    def from_rgs(cls, rgs):
        """Build from a restricted growth string (0-based block labels)."""
        blocks = {}
        for i, label in enumerate(rgs):
            blocks.setdefault(label, []).append(i + 1)
        return cls(len(rgs), blocks.values())

    @property
    def is_trivial(self):
        return len(self.blocks) == 1

    @property
    def is_pair_partition(self):
        return all(len(b) == 2 for b in self.blocks)

    def same_block(self, a, b):
        return self._block_of[a] == self._block_of[b]

    def __eq__(self, other):
        return (
            isinstance(other, SetPartition)
            and self.ground_size == other.ground_size
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.ground_size, self.blocks))

    def __str__(self):
        return format_partition(self)

    def __repr__(self):
        return f"SetPartition({self.ground_size}, {self!s})"


def _check_same_ground(p, q):
    if p.ground_size != q.ground_size:
        raise ValueError(
            f"ground sizes differ: {p.ground_size} vs {q.ground_size}"
        )


def join(p, q):
    """Finest common coarsening of p and q: every block of both links its
    elements to its first, and each element is labelled with the least
    element of its class. Grouped by ascending label, the blocks come out
    in canonical order."""
    _check_same_ground(p, q)
    n = p.ground_size
    pairs = ((b[0], e) for part in (p, q) for b in part.blocks for e in b[1:])
    roots = component_roots(n + 1, pairs)  # vertex 0 stays alone
    blocks = {}
    for e in range(1, n + 1):
        blocks.setdefault(roots[e], []).append(e)
    return SetPartition(n, blocks.values())


def is_refinement(p, q):
    """True iff every block of p lies inside some block of q."""
    _check_same_ground(p, q)
    for block in p.blocks:
        if any(not q.same_block(block[0], e) for e in block[1:]):
            return False
    return True


def _check_triangle(what, n, rows):
    """n(n+1)/2 updates of numbers below n^n >= B_n, keeping `rows` rows."""
    digits = 1 + n * n.bit_length() // 30  # 30-bit digits
    check_work(what, n * (n + 1) // 2 * (PY_OP + digits), rows * (n + 1) * (28 + 4 * digits))


def bell(n):
    """Exact n-th Bell number, by the Bell triangle recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_triangle(f"bell({n})", n, 2)
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def pair_partition_count(n):
    """Number of perfect pairings of {1..n}: n!/(2^(n/2) * (n/2)!)."""
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be a positive even integer")
    return factorial(n) // (2 ** (n // 2) * factorial(n // 2))


def enumerate_partitions(n):
    """Yield every partition of {1..n} once, in RGS-lexicographic order."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    count = capped_count(bell, n)
    check_work(f"partition enumeration at n={n}", count * 10 * n * PY_OP, 100 * n)
    rgs = [0] * n
    caps = [0] * n  # caps[i] = 1 + max(rgs[:i]), the largest digit allowed at i
    for i in range(1, n):
        caps[i] = max(caps[i - 1], rgs[i - 1] + 1)
    while True:
        yield SetPartition.from_rgs(rgs)
        # advance to the lexicographically next restricted growth string
        i = n - 1
        while i > 0 and rgs[i] == caps[i]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0
            caps[j] = max(caps[j - 1], rgs[j - 1] + 1)


def enumerate_pair_partitions(n):
    """Yield all perfect pairings of {1..n}, smallest-free-element first."""
    count = capped_count(pair_partition_count, n)  # rejects an odd n
    check_work(f"pairing enumeration at n={n}", count * 10 * n * PY_OP, 100 * n)

    def rec(free):
        if not free:
            yield []
            return
        a = free[0]
        rest = free[1:]
        for k, b in enumerate(rest):
            for tail in rec(rest[:k] + rest[k + 1 :]):
                yield [(a, b)] + tail

    for pairs in rec(tuple(range(1, n + 1))):
        yield SetPartition(n, pairs)


def format_partition(p):
    """Canonical text form, e.g. '(1,2)(3,4)(5)'."""
    return "".join("(" + ",".join(map(str, b)) + ")" for b in p.blocks)


def parse_partition(text):
    """Parse '(e1,e2,...)(...)...' into a SetPartition.

    The blocks must cover {1..n} for n = max element, with no duplicates;
    errors carry the character position that triggered them.
    """
    blocks = []
    elements = set()
    i, length = 0, len(text)
    if length == 0:
        raise PartitionParseError("empty partition text", 0)
    while i < length:
        if text[i] != "(":
            raise PartitionParseError(f"expected '(' but found {text[i]!r}", i)
        i += 1
        block = []
        while True:
            start = i
            while i < length and text[i].isdigit():
                i += 1
            if i == start:
                found = text[i] if i < length else "end of text"
                raise PartitionParseError(f"expected integer, found {found!r}", start)
            value = int(text[start:i])
            if value < 1:
                raise PartitionParseError("elements must be >= 1", start)
            if value in elements:
                raise PartitionParseError(f"duplicate element {value}", start)
            elements.add(value)
            block.append(value)
            if i < length and text[i] == ",":
                i += 1
                continue
            if i < length and text[i] == ")":
                i += 1
                break
            found = text[i] if i < length else "end of text"
            raise PartitionParseError(f"expected ',' or ')', found {found!r}", i)
        blocks.append(block)
    n = max(elements)
    if len(elements) != n:
        missing = min(set(range(1, n + 1)) - elements)
        raise PartitionParseError(f"element {missing} missing from 1..{n}", length)
    return SetPartition(n, blocks)


def _keep_largest(build):
    """Cache `build`'s table for the largest n asked for so far, which
    serves every smaller n; a new table is built only for a new largest n.
    ``cache_clear`` and ``__wrapped__`` are as on an lru_cache."""
    table = []

    @wraps(build)
    def cached(n):
        if not 0 < n <= len(table):  # the table for n has n rows
            table[:] = build(n)
        return table

    cached.cache_clear = table.clear
    return cached


@_keep_largest
def _completions(n):
    """c[r][m] = m c[r-1][m] + c[r-1][m+1]: the RGS tails of length r, m
    blocks open, for r < n and m <= n - r; no entry depends on n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    _check_triangle(f"the completion counts at n={n}", n, n)
    c = [[1] * (n + 1)]
    for r in range(1, n):
        c.append([m * c[-1][m] + c[-1][m + 1] for m in range(n - r + 1)])
    return c


def partition_at(n, index):
    """The index-th partition of enumerate_partitions(n), by unranking its RGS."""
    c = _completions(n)
    if not 0 <= index < c[n - 1][1]:
        raise ValueError(f"index {index} outside 0..B_{n} - 1")
    rgs, m = [0] * n, 1  # m blocks open
    for i in range(1, n):
        rest = c[n - 1 - i][m]  # completions after each digit below m
        if index < m * rest:
            rgs[i], index = divmod(index, rest)
        else:  # digit m opens a block
            rgs[i], index, m = m, index - m * rest, m + 1
    return SetPartition.from_rgs(rgs)


def random_partition(rng, n):
    """A uniformly random partition of {1..n}."""
    return partition_at(n, rng.randrange(_completions(n)[n - 1][1]))


def random_pair_partition(rng, n):
    """A uniformly random perfect pairing of {1..n}."""
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be a positive even integer")
    items = list(range(1, n + 1))
    rng.shuffle(items)
    return SetPartition(n, [(items[i], items[i + 1]) for i in range(0, n, 2)])
