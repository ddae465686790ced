"""Reference readings of library objects that only the tests take.

Each function reads a library object the long way, to be compared with
what the library computes another way; none is used by the library.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from bcclab.crossing import DirectedInputEdge, oriented_edge
from bcclab.errors import InternalConsistencyError
from bcclab.families import two_cycle_classes
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
