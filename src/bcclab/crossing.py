"""Port-preserving edge crossings and indistinguishability checking.

A crossing swaps two independent input edges (v1,u1), (v2,u2) for
(v1,u2), (v2,u1) while keeping every port in its role: the ports that
carried input edges before carry the new input edges afterwards. If the
two heads broadcast the same symbol sequence and the two tails do too,
no vertex can tell the original and crossed instances apart; the
functions here construct crossings, compare the resulting executions
exactly, and hunt for such fooling pairs on cycle instances.
"""

import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError
from .families import canonical_cycles, two_cycle_codes, walk_cycle
from .sim import KT0, BccInstance, simulate


class DirectedInputEdge(NamedTuple):
    head: int
    tail: int
    head_port: int
    tail_port: int

    def reversed(self):
        return DirectedInputEdge(self.tail, self.head, self.tail_port, self.head_port)


def oriented_edge(instance, head, tail):
    """The directed input edge head->tail with its two port labels."""
    key = (head, tail) if head < tail else (tail, head)
    if key not in instance.input_edges:
        raise ValueError(f"({head},{tail}) is not an input edge")
    return DirectedInputEdge(
        head, tail, instance.port_at(head, tail), instance.port_at(tail, head)
    )


def directed_input_edges(instance):
    """Both orientations of every input edge, in deterministic order."""
    out = []
    for u, v in sorted(instance.input_edges):
        out.append(oriented_edge(instance, u, v))
        out.append(oriented_edge(instance, v, u))
    return tuple(out)


def are_independent(instance, e1, e2):
    """Four distinct endpoints and neither crossed counterpart is an input edge."""
    for e in (e1, e2):
        key = (e.head, e.tail) if e.head < e.tail else (e.tail, e.head)
        if key not in instance.input_edges:
            raise ValueError(f"edge {e} does not belong to the instance")
    vs = {e1.head, e1.tail, e2.head, e2.tail}
    if len(vs) != 4:
        return False
    c1 = tuple(sorted((e1.head, e2.tail)))
    c2 = tuple(sorted((e2.head, e1.tail)))
    return c1 not in instance.input_edges and c2 not in instance.input_edges


def cross(instance, e1, e2):
    """The instance with e1, e2 replaced by their crossed counterparts.

    Input edges (v1,u1), (v2,u2) are removed and (v1,u2), (v2,u1) added;
    the new input edges inherit the ports the old ones occupied, and the
    displaced non-input network edges take the vacated ports. Everything
    else (ids, mode, untouched ports) is preserved, and crossing the
    produced instance on the new edges restores the original bit for bit.
    """
    if instance.mode != KT0:
        raise ValueError(
            "crossing is only defined for KT0 instances (KT1 port labels "
            "reveal the swap)"
        )
    if not are_independent(instance, e1, e2):
        raise ValueError(f"edges {e1} and {e2} are not independent")
    v1, u1 = e1.head, e1.tail
    v2, u2 = e2.head, e2.tail
    ports = instance.ports
    rows = list(ports)
    for a, x, y in (
        (v1, u1, u2),  # at v1 swap the ports facing u1 and u2
        (u1, v1, v2),
        (v2, u2, u1),
        (u2, v2, v1),
    ):
        row = list(rows[a])
        row[x], row[y] = row[y], row[x]
        rows[a] = tuple(row)
    edges = set(instance.input_edges)
    edges.discard(tuple(sorted((v1, u1))))
    edges.discard(tuple(sorted((v2, u2))))
    edges.add(tuple(sorted((v1, u2))))
    edges.add(tuple(sorted((v2, u1))))
    return BccInstance(
        instance.n, instance.mode, instance.ids, frozenset(edges),
        tuple(rows), instance.b,
    )


@dataclass(frozen=True)
class StateDifference:
    vertex: int
    round_no: int  # 0 for initial-knowledge differences
    port: object  # None unless a received symbol differs
    kind: str  # "view", "sent", or "received"


def compare_states(i1, i2, algorithm, t, coins=()):
    """First difference between the two executions, or None if none.

    Vertices are matched by index; a vertex's state is its view plus its
    transcript (symbols sent, symbols received per port per round).
    Received symbols are derived from the senders' broadcasts and the
    port tables, so they are only re-compared where the port tables
    themselves differ.
    """
    if i1.n != i2.n or i1.mode != i2.mode or i1.b != i2.b:
        raise ValueError("instances must share n, mode and bandwidth")
    r1 = simulate(i1, algorithm, t, coins)
    r2 = simulate(i2, algorithm, t, coins)
    n = i1.n
    for v in range(n):
        if r1.views[v] != r2.views[v]:
            return StateDifference(v, 0, None, "view")
    for v in range(n):
        if r1.sent[v] != r2.sent[v]:
            for r in range(t):
                if r1.sent[v][r] != r2.sent[v][r]:
                    return StateDifference(v, r + 1, None, "sent")
    for v in range(n):
        row1, row2 = i1.ports[v], i2.ports[v]
        if row1 is row2 or row1 == row2:
            continue  # identical wiring and identical broadcasts upstream
        for r in range(1, t + 1):
            m1, m2 = r1.received(v, r), r2.received(v, r)
            if m1 != m2:
                port = next(p for p in sorted(m1) if m1[p] != m2.get(p))
                return StateDifference(v, r, port, "received")
    return None


def states_identical(i1, i2, algorithm, t, coins=()):
    """True iff every vertex's view and transcript agree across instances."""
    return compare_states(i1, i2, algorithm, t, coins) is None


def cycle_orientation(instance):
    """Canonical orientation of a one-cycle instance's input graph.

    Starts at the vertex with the smallest id and proceeds toward its
    smaller-id neighbor, yielding a reproducible vertex sequence to stand
    in for the arbitrary clockwise convention.
    """
    nbr = instance.input_neighbors
    ids = instance.ids
    start = min(range(instance.n), key=lambda v: ids[v])
    first = min(nbr[start], key=lambda v: ids[v], default=None)
    seq = walk_cycle(nbr, start, first)
    if len(seq) != instance.n:
        raise ValueError("input graph is not a single cycle")
    return tuple(seq)


def splitting_pairs(positions, n, min_len=3):
    """Position pairs whose same-direction crossing splits an n-cycle.

    Position p of an oriented cycle c is the edge c[p] -> c[p+1 mod n].
    Crossing the same-direction edges at positions i < k is independent
    and splits c into the cycles c[i+1:k+1] and c[k+1:] + c[:i+1], both of
    at least m = max(3, min_len) vertices, exactly when
    m <= k - i <= n - m (distances 1 and 2 and their mirrors fail
    independence). Reversing both edges yields the same crossed instance,
    and a mixed-direction pair merges into a single cycle, so neither adds
    a split.

    ``positions`` must be ascending; the result is an (p, 2) int64 array
    of the qualifying (i, k) in lexicographic order.
    """
    pos = np.asarray(positions, dtype=np.int64)
    dist = pos - pos[:, None]  # dist[a, b] = pos[b] - pos[a], > 0 iff a < b
    m = max(3, min_len)
    a, b = np.nonzero((dist >= m) & (dist <= n - m))
    return np.column_stack((pos[a], pos[b]))


def split_codes(cycles, pairs):
    """Codes of the two-cycle keys left by crossing each pair of each cycle.

    ``cycles`` is an (m, n) integer array of oriented n-cycles and
    ``pairs`` a :func:`splitting_pairs` array. Entry (j, p) is the
    :func:`bcclab.families.two_cycle_codes` code of the key made of the
    canonical cycles c[i+1:k+1] and c[k+1:] + c[:i+1], where c is row j
    and (i, k) is pair p.
    """
    out = np.empty((len(cycles), len(pairs)), dtype=np.int64)
    for p, (i, k) in enumerate(pairs.tolist()):
        inner = canonical_cycles(cycles[:, i + 1:k + 1])
        outer = canonical_cycles(np.concatenate((cycles[:, k + 1:], cycles[:, :i + 1]), axis=1))
        out[:, p] = two_cycle_codes(inner, outer)
    return out


@dataclass(frozen=True)
class FoolingPairReport:
    """All crossing pairs that the algorithm provably cannot detect.

    ``edges`` lists the canonically oriented cycle edges by position;
    ``pairs`` is an integer array of position pairs (i, k), i < k, each
    one an independent same-label pair whose crossing splits the cycle
    into two cycles of length >= 3. Pair (i, k) splits into lengths
    (k - i, n - (k - i)).
    """

    instance: BccInstance
    t: int
    cycle: tuple
    edges: tuple
    labels: tuple  # per position, a 2t-symbol tuple
    pairs: np.ndarray
    verification: dict

    def __len__(self):
        return len(self.pairs)

    def pair(self, i):
        a, b = self.pairs[i]
        return self.edges[a], self.edges[b]

    def __iter__(self):
        for a, b in self.pairs:
            yield self.edges[a], self.edges[b]

    def split_lengths(self, i):
        a, b = self.pairs[i]
        j = int(b - a)
        return j, self.instance.n - j

    def bucket_sizes(self):
        sizes = {}
        for label in self.labels:
            sizes[label] = sizes.get(label, 0) + 1
        return sizes


def find_fooling_pairs(
    instance,
    algorithm,
    t,
    coins=(),
    verify="sampled",
    sample=8,
    rng=None,
):
    """Fooling pairs of a one-cycle KT0 instance against a deterministic run.

    Simulates once, labels each canonically oriented cycle edge with the
    2t symbols its endpoints broadcast, buckets edges by label, and emits
    every same-bucket independent pair whose crossing splits the cycle:
    the position pairs :func:`splitting_pairs` selects, a fact the unit
    tests re-derive from the definitions.

    verify="sampled" re-checks `sample` random emitted pairs end to end
    with :func:`states_identical` (full second simulation); "full" checks
    every pair that way; "none" skips re-checking. Any re-check failure
    raises InternalConsistencyError, since emitted pairs are constructed
    to satisfy the exact indistinguishability hypothesis.
    """
    if instance.mode != KT0:
        raise ValueError("fooling pairs are a KT0 construction")
    n = instance.n
    cycle = cycle_orientation(instance)
    run = simulate(instance, algorithm, t, coins)
    edges = tuple(
        oriented_edge(instance, cycle[i], cycle[(i + 1) % n]) for i in range(n)
    )
    labels = tuple(
        run.sent[cycle[i]] + run.sent[cycle[(i + 1) % n]]
        for i in range(n)
    )
    buckets = {}
    for pos, label in enumerate(labels):
        buckets.setdefault(label, []).append(pos)
    chunks = [splitting_pairs(p, n) for p in buckets.values() if len(p) > 1]
    pairs = np.vstack(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]

    verification = {"mode": verify, "checked": 0, "failures": 0}
    if verify != "none" and len(pairs):
        if verify == "full":
            chosen = range(len(pairs))
        else:
            rng = rng or random.Random(0)
            chosen = sorted(
                rng.sample(range(len(pairs)), min(sample, len(pairs)))
            )
        for idx in chosen:
            a, b = pairs[idx]
            e1, e2 = edges[a], edges[b]
            if not are_independent(instance, e1, e2):
                raise InternalConsistencyError(f"pair {idx} is not independent")
            crossed = cross(instance, e1, e2)
            if not states_identical(instance, crossed, algorithm, t, coins):
                verification["failures"] += 1
                raise InternalConsistencyError(
                    f"pair {idx} failed the full indistinguishability re-check"
                )
            verification["checked"] += 1
    return FoolingPairReport(instance, t, cycle, edges, labels, pairs, verification)
