"""Reference readings of library objects that only the tests take.

Each function reads a library object the long way, to be compared with
what the library computes another way; none is used by the library. The
family's reference enumeration (:func:`one_cycle_keys`,
:func:`two_cycle_keys`) builds the key tuples one permutation at a time.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from bcclab.crossing import DirectedInputEdge, oriented_edge
from bcclab.joinmatrix import PRIME, _reconstructed_denominator
from bcclab.errors import InternalConsistencyError
from bcclab.families import cycle_order, two_cycle_classes
from bcclab.indist import DegreeStats


def received(run, v, round_no):
    """Symbols delivered to v of `run` at the end of `round_no`, keyed by port.

    Rebuilt from the senders' rows and v's port row: the symbol v sees in
    round r on the port facing u is ``run.sent[u][r - 1]``.
    """
    if not 1 <= round_no <= run.t:
        raise ValueError(f"round {round_no} outside 1..{run.t}")
    row = run.instance.port_row(v)
    return {row[u]: sent[round_no - 1] for u, sent in enumerate(run.sent) if u != v}


def directed_input_edges(instance):
    """Both orientations of every input edge, in deterministic order."""
    out = []
    for u, v in sorted(instance.input_edges):
        out.append(oriented_edge(instance, u, v))
        out.append(oriented_edge(instance, v, u))
    return tuple(out)


def reversed_edge(edge):
    """The directed input edge tail->head of `edge`, with its ports swapped."""
    return DirectedInputEdge(edge.tail, edge.head, edge.tail_port, edge.head_port)


def dict_degree_stats(graph):
    """:func:`bcclab.indist.degree_stats` the long way, by walking the
    graph's two key adjacencies: the handshake from both sides, a
    ``Counter`` of neighbor degrees per left."""
    left_edges = sum(len(v) for v in graph.adjacency.values())
    right_edges = sum(len(v) for v in graph.right_adjacency.values())
    handshake = left_edges == right_edges
    if not handshake:
        raise InternalConsistencyError(
            f"handshake violated: edges {left_edges}/{right_edges}"
        )
    left_hist = Counter(len(v) for v in graph.adjacency.values())
    left_hist.update({0: len(graph.left) - len(graph.adjacency)})
    left_hist += Counter()  # drop zero-count entries
    right_hist = Counter(len(v) for v in graph.right_adjacency.values())
    ti_edges = {}
    for rk, lks in graph.right_adjacency.items():
        i = len(rk[0])
        ti_edges[i] = ti_edges.get(i, 0) + len(lks)
    rows = Counter()
    right_degree = {rk: len(lks) for rk, lks in graph.right_adjacency.items()}
    for lk, rks in graph.adjacency.items():
        d_und = graph.active_undirected[lk]
        neighbor_degrees = Counter(right_degree[rk] for rk in rks)
        for i in range(3, d_und // 2 + 1):
            observed = neighbor_degrees.get(i * (d_und - i), 0)
            rows[(d_und, i, d_und, observed)] += 1
    return DegreeStats(
        len(graph.left), len(graph.right), left_edges,
        left_hist, right_hist, ti_edges, ti_edges, left_edges, handshake, rows,
    )


def family_ratio_terms(n, min_cycle_len=3):
    """|T_i|/|V1| simplifies to n/(2 i (n-i)), halved at i = n/2."""
    terms = {}
    for i in two_cycle_classes(n, min_cycle_len):
        term = Fraction(n, 2 * i * (n - i))
        if 2 * i == n:
            term /= 2
        terms[i] = term
    return terms


def cycles_on(vertices):
    """Every cycle on the vertex set once, canonically keyed: the smallest
    vertex, then each permutation of the rest with first < last."""
    first, *rest = sorted(vertices)
    for perm in permutations(rest):
        if perm[0] < perm[-1]:  # reflection representative
            yield (first,) + perm


def one_cycle_keys(n):
    """All (n-1)!/2 distinct cycles on {0..n-1}, canonically keyed."""
    return cycles_on(range(n))


def two_cycle_key(a, b):
    """Family key of two disjoint canonical cycles, in :func:`cycle_order`."""
    return (a, b) if cycle_order(a) <= cycle_order(b) else (b, a)


def two_cycle_keys(n, min_cycle_len=3):
    """All splits into two disjoint cycles, as (i, key) with i the smaller
    cycle length, in the family's key order: for even n the i = n/2 class
    keeps only the splits whose first cycle contains vertex 0."""
    for i in two_cycle_classes(n, min_cycle_len):
        for subset in combinations(range(n), i):
            if 2 * i == n and 0 not in subset:
                continue
            complement = tuple(v for v in range(n) if v not in subset)
            for ca in cycles_on(subset):
                for cb in cycles_on(complement):
                    yield i, two_cycle_key(ca, cb)


def bucketed_fooling_pairs(run, cycle):
    """:func:`bcclab.crossing.find_fooling_pairs`' labels, pairs and bucket
    sizes, the long way: a Symbol tuple per position, dict buckets of
    them, each bucket's splitting pairs over its ascending positions, and
    the chunks stacked and sorted."""
    n = len(cycle)
    labels = [run.sent[cycle[p]] + run.sent[cycle[(p + 1) % n]] for p in range(n)]
    buckets = {}
    for p, label in enumerate(labels):
        buckets.setdefault(label, []).append(p)
    chunks = [position_splitting_pairs(ps, n) for ps in buckets.values() if len(ps) > 1]
    pairs = np.vstack(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    text = {label: "".join(map(str, label)) for label in buckets}
    return ([text[label] for label in labels], pairs,
            {text[label]: len(ps) for label, ps in buckets.items()})


def position_splitting_pairs(positions, n, min_len=3):
    """The (i, k) among the ascending `positions` of an n-cycle with
    m <= k - i <= n - m, m = max(3, min_len), in lexicographic order."""
    pos = np.asarray(positions, dtype=np.int64)
    m = max(3, min_len)
    lo = np.searchsorted(pos, pos + m)
    counts = np.maximum(np.searchsorted(pos, pos + n - m, side="right"), lo) - lo
    a = np.repeat(np.arange(len(pos)), counts)
    b = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return np.column_stack((pos[a], pos[b]))


# an int64 holds a residue minus _UPDATES products of two residues:
# PRIME + _UPDATES * (PRIME - 1)^2 < 2^63
_UPDATES = 2**15


def per_pivot_echelon(a):
    """:func:`bcclab.joinmatrix._echelon_mod_prime`'s (rank, pivot rows,
    pivot columns) the long way: one rank-1 update of the whole trailing
    block per pivot, in int64, with the same pivot rule (the first
    remaining row nonzero mod PRIME) and the same row exchanges."""
    a = (a % np.int64(PRIME)).astype(np.int64)
    nrows, ncols = a.shape
    order = np.arange(nrows)
    pivot_cols = []
    for col in range(ncols):
        rank = len(pivot_cols)
        column = a[rank:, col] % PRIME
        nonzero = np.flatnonzero(column)
        if not nonzero.size:
            continue
        if nonzero[0]:  # rows rank..pivot-1 are zero in col
            swap = [rank, rank + nonzero[0]]
            a[swap] = a[swap[::-1]]
            order[swap] = order[swap[::-1]]
            column[[0, nonzero[0]]] = column[[nonzero[0], 0]]
        pivot_cols.append(col)
        if rank + 1 == nrows:
            break
        row = a[rank, col + 1:] % PRIME * pow(int(column[0]), -1, PRIME) % PRIME
        trailing = a[rank + 1:, col + 1:]
        trailing -= column[1:, None] * row
        if len(pivot_cols) % _UPDATES == 0:
            trailing %= PRIME
    rank = len(pivot_cols)
    return rank, order[:rank], np.array(pivot_cols, dtype=np.intp)


def inverse_mod_prime(b):
    """B^-1 mod PRIME by in-place Gauss-Jordan elimination without row
    exchanges, or None when a leading minor of B is 0 mod PRIME; B's
    order stays below _UPDATES."""
    inverse = b % PRIME
    for k in range(len(inverse)):
        pivot = int(inverse[k, k] % PRIME)
        if not pivot:
            return None
        inverse[k, k] = 1
        row = inverse[k] % PRIME * pow(pivot, -1, PRIME) % PRIME
        column = inverse[:, k] % PRIME
        column[k] = 0
        inverse[:, k] = 0
        inverse -= column[:, None] * row
        inverse[k] = row
    return inverse % PRIME


def full_lift_certificate(a, pivot_rows, pivot_cols):
    """:func:`bcclab.joinmatrix._kernel_certificate` the long way: B^-1 by
    Gauss-Jordan, Dixon's lifting all the way to the cap p^k > 2 H^2 (H
    the Hadamard bound of the pivot rows), one reconstruction there, and
    the identity A[:, C] Num == den A[:, F] in Python integers."""
    r = len(pivot_rows)
    free = np.ones(a.shape[1], dtype=bool)
    free[pivot_cols] = False
    beta = max(int(a.max()), -int(a.min()))
    if r * max(beta, PRIME) * PRIME >= 2**63:
        return False
    b = a[np.ix_(pivot_rows, pivot_cols)].astype(np.int64)
    b_inverse = inverse_mod_prime(b)
    if b_inverse is None:
        return False
    limit = 2 * math.prod((a[pivot_rows].astype(object) ** 2).sum(axis=1).tolist())
    lifted = np.zeros((r, int(free.sum())), dtype=object)
    residual, modulus = a[np.ix_(pivot_rows, free)].astype(np.int64), 1
    while modulus <= limit:
        y = b_inverse @ (residual % PRIME) % PRIME
        residual = (residual - b @ y) // PRIME
        lifted += modulus * y.astype(object)
        modulus *= PRIME
    bound = math.isqrt((modulus - 1) // 2)
    den = 1
    for x in lifted.flat:
        d = _reconstructed_denominator(x * den % modulus, modulus, bound)
        if d is None:
            return False
        den *= d
    num = lifted * den % modulus
    num = np.where(num > modulus // 2, num - modulus, num)
    lhs = a[:, pivot_cols].astype(object) @ num
    return bool((lhs == den * a[:, free].astype(object)).all())


def component_minima(size, pairs):
    """Each vertex's least component vertex, on the graph over range(size)
    whose edges are ``pairs``, by breadth-first search over adjacency sets
    from each vertex left unreached, in ascending order."""
    adjacent = [set() for _ in range(size)]
    for u, v in pairs:
        adjacent[u].add(v)
        adjacent[v].add(u)
    label = [None] * size
    for s in range(size):
        if label[s] is not None:
            continue
        label[s] = s
        frontier = [s]
        while frontier:
            reached = []
            for u in frontier:
                for w in adjacent[u]:
                    if label[w] is None:
                        label[w] = s
                        reached.append(w)
            frontier = reached
    return label
