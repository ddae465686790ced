"""The bipartite indistinguishability graph over cycle families.

Left vertices are one-cycle instances, right vertices two-cycle
instances, and an edge joins I1 to I2 whenever some pair of active
independent directed edges of I1 crosses into I2. An operation is a
crossing up to reversing both edges (the twin yields the identical
crossed instance). Every graph edge carries exactly one operation: the
removed edges E(I1) - E(I2) fix the crossed pair. So the graph stores
only its adjacency, keyed by the family's own key objects; ``op_counts``
is derived from it, operation totals equal edge totals, and no witness
pair is stored (the tests rebuild witnesses by instance-level crossing).

The build works on arrays. One :func:`bcclab.sim.simulate_members`
call gives every one-cycle member's broadcasts, and numpy marks the
active positions from them. It then computes the code of the key each
(member, splitting pair) crossing leaves, a block of members at a time,
and finds it among the family's sorted key codes; only the live cells
are turned back into the family's key objects.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .crossing import split_codes, splitting_pairs
from .errors import PY_OP, InternalConsistencyError, capped_count, check_work
from .families import cycle_neighbors, one_cycle_count
from .sim import KT0, simulate_members

SPLIT_BLOCK_ROWS = 1024  # members per split-code block; bounds the transient arrays


@dataclass(frozen=True)
class IndistGraph:
    family: object
    t: int
    x: tuple
    y: tuple
    algorithm_name: str
    adjacency: dict  # one-cycle key -> frozenset of two-cycle keys
    right_adjacency: dict  # two-cycle key -> frozenset of one-cycle keys
    active_directed: dict  # one-cycle key -> number of active directed edges
    active_undirected: dict  # one-cycle key -> edges with an active orientation

    @property
    def left(self):
        return self.family.one_cycles

    @property
    def right(self):
        return tuple(self.family.all_two_cycle_keys())

    def edge_count(self):
        return sum(len(v) for v in self.adjacency.values())

    def degree(self, lk):
        return len(self.adjacency.get(lk, ()))

    def right_degree(self, rk):
        return len(self.right_adjacency.get(rk, ()))

    @property
    def op_counts(self):
        """(one-cycle key, two-cycle key) -> operations: 1 on every edge."""
        return {
            (lk, rk): 1 for lk, rks in self.adjacency.items() for rk in rks
        }

    def bipartite_adjacency(self, positive_degree_only=True):
        """left key -> right key lists, for the matching machinery."""
        items = self.adjacency.items()
        return {
            lk: sorted(rks)
            for lk, rks in items
            if rks or not positive_degree_only
        }


def check_graph_size(n, min_cycle_len):
    """Refuse the graph of the n-vertex family before the family is built.

    Each (one-cycle, splitting pair) cell may become an edge. Both counts
    are closed forms: |V1| = (n-1)!/2, and with m = max(3, min_cycle_len)
    the splitting pairs of an n-cycle number sum_{d=m}^{n-m} (n - d) =
    n (n - 2m + 1) / 2, as many as :func:`bcclab.crossing.splitting_pairs`
    lists.
    """
    pairs = n * max(0, n - 2 * max(3, min_cycle_len) + 1) // 2
    # pairs is 0 below n = 6, so (n-1)! is never taken at n < 1
    cells = pairs and capped_count(one_cycle_count, n) * pairs
    # each cell is coded, then kept as an edge of 130 B (n = 10)
    check_work(f"the indistinguishability graph at n={n}, up to {cells} edges",
               cells * (25 * n + 5 * PY_OP), 130 * cells)


def build_indist_graph(family, algorithm, t, x=(), y=()):
    """Construct the KT0 graph for the given broadcast strings x, y.

    Each one-cycle key is an oriented cycle whose position p is the input
    edge key[p] -- key[p+1]; a directed edge is active when its head
    broadcast x and its tail y over rounds 1..t. One batched simulation of
    every member marks each position active forward, backward or neither.
    A member's neighbors are the two-cycle keys that
    :func:`bcclab.crossing.split_codes` codes for the
    :func:`bcclab.crossing.splitting_pairs` of all positions (cycles of at
    least the family's minimum length) whose two edges are active in a
    common direction. The split codes are computed for blocks
    of members at once and looked up among the family's
    :meth:`~bcclab.families.CycleFamily.key_codes`, so both adjacencies
    hold the family's own key objects. A crossed key absent from the
    family indicates a bug and raises InternalConsistencyError.
    """
    x, y = tuple(x), tuple(y)
    if len(x) != t or len(y) != t:
        raise ValueError(f"need |x| = |y| = t = {t}")
    n = family.n
    check_graph_size(n, family.min_cycle_len)
    ones = family.one_cycles
    cycles = family.one_cycle_array()
    pairs = splitting_pairs([0] * n, family.min_cycle_len)  # one label for every position
    transcript = simulate_members(cycle_neighbors(cycles), KT0, algorithm, t).codes
    # heads[j, p] (tails[j, p]): the vertex at position p of member j broadcast x (y)
    heads, tails = (np.take_along_axis((transcript == np.array(s, dtype=np.int8)).all(axis=2),
                                       cycles, axis=1) for s in (x, y))
    forward = heads & np.roll(tails, -1, axis=1)
    backward = np.roll(heads, -1, axis=1) & tails
    active_directed = dict(zip(ones, (forward.sum(axis=1) + backward.sum(axis=1)).tolist()))
    active_undirected = dict(zip(ones, (forward | backward).sum(axis=1).tolist()))

    right = tuple(family.all_two_cycle_keys())
    codes = family.key_codes()
    order = codes.argsort()
    codes = np.append(codes[order], -1)  # a sentinel past the end that is no code
    adjacency = {}
    right_sets = [set() for _ in right]
    first, second = pairs[:, 0], pairs[:, 1]
    for start in range(0, len(ones), SPLIT_BLOCK_ROWS):
        block = slice(start, start + SPLIT_BLOCK_ROWS)
        f, b = forward[block], backward[block]
        live = f[:, first] & f[:, second] | b[:, first] & b[:, second]
        rows, cols = np.nonzero(live)
        if not len(rows):
            continue
        wanted = split_codes(cycles[block], pairs)[rows, cols]
        at = codes[:-1].searchsorted(wanted)
        missing = codes[at] != wanted
        if missing.any():
            bad = missing.argmax()
            i, k = pairs[cols[bad]].tolist()
            raise InternalConsistencyError(
                f"crossing positions {i}, {k} of {ones[start + rows[bad]]} leaves "
                "a two-cycle key missing from the enumerated family"
            )
        found = order[at].tolist()
        cut = 0
        for lk, count in zip(ones[block], live.sum(axis=1).tolist()):
            if not count:
                continue
            neighbors = set()
            for j in found[cut:cut + count]:
                neighbors.add(right[j])
                right_sets[j].add(lk)
            adjacency[lk] = frozenset(neighbors)
            cut += count
    right_adjacency = {}
    for j, rk in enumerate(right):  # free each set once it is frozen
        right_adjacency[rk] = frozenset(right_sets[j])
        right_sets[j] = None
    return IndistGraph(
        family, t, x, y, getattr(algorithm, "name", "?"),
        adjacency, right_adjacency, active_directed, active_undirected,
    )


@dataclass(frozen=True)
class DegreeStats:
    left_size: int
    right_size: int
    edge_count: int
    left_degree_hist: Counter
    right_degree_hist: Counter
    ti_edge_totals: dict  # i -> edges incident to T_i
    ti_op_totals: dict  # i -> operations incident to T_i (= ti_edge_totals)
    ops_total: int  # = edge_count
    handshake_ok: bool
    degree_condition_rows: Counter  # (d_und, i, required2x, observed) -> #left nodes

    def to_record(self):
        return {
            "left_size": self.left_size,
            "right_size": self.right_size,
            "edge_count": self.edge_count,
            "left_degree_hist": dict(sorted(self.left_degree_hist.items())),
            "right_degree_hist": dict(sorted(self.right_degree_hist.items())),
            "ti_edge_totals": dict(sorted(self.ti_edge_totals.items())),
            "ti_op_totals": dict(sorted(self.ti_op_totals.items())),
            "ops_total": self.ops_total,
            "handshake_ok": self.handshake_ok,
            "degree_condition_rows": [
                {
                    "active_undirected": row[0],
                    "i": row[1],
                    "required_twice": row[2],
                    "observed": row[3],
                    "count": c,
                }
                for row, c in sorted(self.degree_condition_rows.items())
            ],
        }


def degree_stats(graph):
    """Degree histograms, per-class edge totals and the handshake check.

    The handshake identity (edges counted from the left equal those
    counted from the right) is asserted; each edge is one operation, so
    the operation totals are the edge totals. The degree-condition rows
    are reported, not asserted, since the underlying counting convention
    fixes constants the finite graph need not reproduce. Rows are keyed
    by (active undirected edges d, class i, 2*floor requirement = d,
    observed neighbors of simple degree i*(d-i)) and deduplicated.
    """
    left_edges = graph.edge_count()
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
