"""The bipartite indistinguishability graph over cycle families.

Left vertices are one-cycle instances, right vertices two-cycle
instances, and an edge joins I1 to I2 whenever some pair of active
independent directed edges of I1 crosses into I2. An operation is a
crossing up to reversing both edges (the twin yields the identical
crossed instance). Every graph edge carries exactly one operation: the
removed edges E(I1) - E(I2) fix the crossed pair. So the graph stores
only its int32 edge rows; the key adjacencies and ``op_counts`` are
derived from them, operation totals equal edge totals, and no witness
pair is stored (the tests rebuild witnesses by instance-level crossing).

The build works on arrays. One :func:`bcclab.sim.simulate_members`
call gives every one-cycle member's broadcasts, and numpy marks the
active positions from them. It then computes the code of the key each
(member, splitting pair) crossing leaves, a block of members at a time,
and finds it among the family's sorted key codes; the live cells are the
edge rows, and :func:`degree_stats` counts degrees over them.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .crossing import split_codes, splitting_pairs
from .errors import PY_OP, InternalConsistencyError, capped_count, check_work
from .families import cycle_neighbors, one_cycle_count
from .sim import KT0, simulate_members

SPLIT_BLOCK_ROWS = 1024  # members per split-code block; bounds the transient arrays


@dataclass(frozen=True, eq=False)
class IndistGraph:
    family: object
    t: int
    x: tuple
    y: tuple
    algorithm_name: str
    edges: np.ndarray  # read-only (e, 2) int32 rows (left index, right index), left ascending
    active: np.ndarray  # read-only (|V1|, 2) int16, left order: active directed, undirected edges

    @property
    def left(self):
        return self.family.one_cycles

    @cached_property
    def active_directed(self):  # one-cycle key -> number of active directed edges
        return dict(zip(self.left, self.active[:, 0].tolist()))

    @cached_property
    def active_undirected(self):  # one-cycle key -> edges with an active orientation
        return dict(zip(self.left, self.active[:, 1].tolist()))

    @cached_property
    def right(self):
        return tuple(self.family.all_two_cycle_keys())

    @cached_property
    def adjacency(self):
        """one-cycle key -> frozenset of two-cycle keys, for the lefts with an edge."""
        return _grouped(self.edges, 0, self.left, self.right, keep_empty=False)

    @cached_property
    def right_adjacency(self):
        """two-cycle key -> frozenset of one-cycle keys, for every right key."""
        return _grouped(self.edges, 1, self.right, self.left, keep_empty=True)

    def edge_count(self):
        return len(self.edges)

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


def _grouped(edges, col, keys, others, keep_empty):
    """keys[j] -> frozenset of the others at the far end of the edges with
    edges[:, col] == j, each set filled in edge-row order."""
    far = edges[edges[:, col].argsort(kind="stable"), 1 - col]
    ends = np.bincount(edges[:, col], minlength=len(keys)).cumsum().tolist()
    grouped, start = {}, 0
    for key, end in zip(keys, ends):
        if end > start or keep_empty:
            grouped[key] = frozenset({others[j] for j in far[start:end].tolist()})
        start = end
    return grouped


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
    # each cell is coded, then kept as an 8-byte edge row; with every cell an edge, the
    # build and degree_stats peak at 34 B a cell (n = 9) and 27 B (n = 10), member runs included
    check_work(f"the indistinguishability graph at n={n}, up to {cells} edges",
               cells * (25 * n + 5 * PY_OP), 35 * cells)


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
    :meth:`~bcclab.families.CycleFamily.key_codes`; an edge row holds the
    member's and the key's indices in the family's order. A crossed key
    absent from the family indicates a bug and raises InternalConsistencyError.
    """
    x, y = tuple(x), tuple(y)
    if len(x) != t or len(y) != t:
        raise ValueError(f"need |x| = |y| = t = {t}")
    n = family.n
    check_graph_size(n, family.min_cycle_len)
    cycles = family.one_cycle_rows
    pairs = splitting_pairs([0] * n, family.min_cycle_len)  # one label for every position
    transcript = simulate_members(cycle_neighbors(cycles), KT0, algorithm, t).codes
    # heads[j, p] (tails[j, p]): the vertex at position p of member j broadcast x (y)
    heads, tails = (np.take_along_axis((transcript == np.array(s, dtype=np.int8)).all(axis=2),
                                       cycles, axis=1) for s in (x, y))
    forward = heads & np.roll(tails, -1, axis=1)
    backward = np.roll(heads, -1, axis=1) & tails
    active = np.column_stack((forward.sum(axis=1) + backward.sum(axis=1),
                              (forward | backward).sum(axis=1))).astype(np.int16)
    active.flags.writeable = False

    codes = family.key_codes()
    order = codes.argsort()
    codes = np.append(codes[order], -1)  # a sentinel past the end that is no code
    blocks = [np.empty((0, 2), dtype=np.int32)]
    first, second = pairs[:, 0], pairs[:, 1]
    for start in range(0, len(cycles), SPLIT_BLOCK_ROWS):
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
                f"crossing positions {i}, {k} of {family.one_cycles[start + rows[bad]]} leaves "
                "a two-cycle key missing from the enumerated family"
            )
        # np.nonzero lists the cells row by row, so the left index ascends
        blocks.append(np.column_stack((start + rows, order[at])).astype(np.int32))
    edges = np.concatenate(blocks)
    edges.flags.writeable = False
    return IndistGraph(
        family, t, x, y, getattr(algorithm, "name", "?"),
        edges, active,
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
    """Degree histograms, per-class edge totals and the handshake check,
    each an ``np.bincount`` over the edge rows, with no key adjacency.

    The handshake identity is asserted: the left degrees count every edge
    row and the right degrees only the distinct (left, right) rows, so a
    repeated row raises InternalConsistencyError. Each edge is one
    operation, so the operation totals are the edge totals. The
    degree-condition rows are reported, not asserted, since the underlying
    counting convention fixes constants the finite graph need not
    reproduce. Rows are keyed by (active undirected edges d, class i,
    2*floor requirement = d, observed neighbors of simple degree i*(d-i))
    and deduplicated.
    """
    family, lefts, rights = graph.family, graph.edges[:, 0], graph.edges[:, 1]
    left_degree = np.bincount(lefts, minlength=family.v1_size)
    right_degree = _distinct_right_degree(graph.edges, family.v1_size, family.v2_size)
    left_edges, right_edges = int(left_degree.sum()), int(right_degree.sum())
    if left_edges != right_edges:
        raise InternalConsistencyError(
            f"handshake violated: edges {left_edges}/{right_edges}"
        )
    left_hist, right_hist = (Counter({d: c for d, c in enumerate(np.bincount(x).tolist()) if c})
                             for x in (left_degree, right_degree))
    ti_edges, start = {}, 0
    for i, size in family.t_sizes().items():  # all_two_cycle_keys() order
        ti_edges[i], start = int(right_degree[start:start + size].sum()), start + size
    # per left with an edge and class i <= d/2: its neighbors of degree i(d - i)
    d_und = graph.active[:, 1].astype(np.int32)
    neighbor_degree = right_degree.astype(np.int32)[rights]
    rows = Counter()
    for i in range(3, int(d_und.max(initial=0)) // 2 + 1):
        reported = (left_degree > 0) & (d_und >= 2 * i)
        target = np.where(reported, i * (d_und - i), -1).astype(np.int32)
        observed = np.bincount(lefts[neighbor_degree == target[lefts]], minlength=len(d_und))
        cells = Counter(zip(d_und[reported].tolist(), observed[reported].tolist()))
        rows.update({(d, i, d, seen): count for (d, seen), count in cells.items()})
    return DegreeStats(
        family.v1_size, family.v2_size, left_edges,
        left_hist, right_hist, ti_edges, ti_edges, left_edges, True, rows,
    )


def _distinct_right_degree(edges, left_size, right_size):
    """Each right vertex's number of distinct (left, right) edge rows. The
    rows ascend by left, so a block of lefts at a time is sorted and each
    row equal to its predecessor taken off."""
    degree = np.bincount(edges[:, 1], minlength=right_size)
    bounds = edges[:, 0].searchsorted(range(0, left_size + SPLIT_BLOCK_ROWS, SPLIT_BLOCK_ROWS))
    for start, end in zip(bounds.tolist(), bounds[1:].tolist()):
        code = np.sort(edges[start:end, 0].astype(np.int64) * right_size + edges[start:end, 1])
        degree -= np.bincount(code[1:][code[1:] == code[:-1]] % right_size, minlength=right_size)
    return degree
