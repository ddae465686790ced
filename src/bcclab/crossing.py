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
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from operator import ne
from typing import NamedTuple

import numpy as np

from .errors import PY_OP, InternalConsistencyError, check_work
from .families import canonical_cycles, two_cycle_codes, walk_cycle
from .sim import KT0, BccInstance, codes_text, hosted_work, simulate, simulate_hosted


class DirectedInputEdge(NamedTuple):
    head: int
    tail: int
    head_port: int
    tail_port: int


def oriented_edge(instance, head, tail):
    """The directed input edge head->tail with its two port labels."""
    key = (head, tail) if head < tail else (tail, head)
    if key not in instance.input_edges:
        raise ValueError(f"({head},{tail}) is not an input edge")
    return DirectedInputEdge(
        head, tail, instance.port_at(head, tail), instance.port_at(tail, head)
    )


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
        raise ValueError("crossing is only defined for KT0 instances "
                         "(KT1 port labels reveal the swap)")
    if not are_independent(instance, e1, e2):
        raise ValueError(f"edges {e1} and {e2} are not independent")
    v1, u1 = e1.head, e1.tail
    v2, u2 = e2.head, e2.tail
    # at v1 the ports facing u1 and u2 trade labels: u2 takes u1's input port
    return instance._derive(swaps=((v1, u1, u2), (u1, v1, v2), (v2, u2, u1), (u2, v2, v1)),
                            removed=((v1, u1), (v2, u2)), added=((v1, u2), (v2, u1)))


@dataclass(frozen=True)
class StateDifference:
    vertex: int
    round_no: int  # 0 for initial-knowledge differences
    port: object  # None unless a received symbol differs
    kind: str  # "view", "sent", or "received"


def compare_states(i1, i2, algorithm, t):
    """First difference between the two executions, or None if none.

    Vertices are matched by index; a vertex's state is its view plus its
    transcript (symbols sent, symbols received per port per round). The
    first difference is sought in that order: views by vertex, then sent
    symbols by vertex and round, then received symbols by vertex, round
    and sorted port.

    Only i1 is simulated in full. Let D be the vertices whose id, port
    row or input edges differ between the instances; every other vertex
    starts from the same view and hears the same senders at the same
    ports. D is hosted in i2 against i1's transcript
    (:func:`bcclab.sim.simulate_hosted`). If D's views agree and D sends
    what it sent in i1, then by induction on rounds every vertex sends
    the same in both runs, and only the symbols D receives on its
    rewired ports can still differ; they are compared last, and if they
    agree, every vertex's view, transcript and state agrees. If D's
    broadcasts diverge, i2 is simulated in full to find the first
    difference.
    """
    if i1.n != i2.n or i1.mode != i2.mode:
        raise ValueError("instances must share n and mode")
    return _first_difference(simulate(i1, algorithm, t), i2, algorithm)


def states_identical(i1, i2, algorithm, t):
    """True iff every vertex's view and transcript agree across instances."""
    return compare_states(i1, i2, algorithm, t) is None


def _changed_vertices(i1, i2):
    """D of :func:`compare_states`, ascending: every vertex when the ids
    differ (a KT1 view holds the roster), else the vertices whose input
    edges or port row differ, the latter read off the rewired rows."""
    if i1.ids != i2.ids:
        return list(range(i1.n))
    rows1, rows2 = dict(i1.rewired), dict(i2.rewired)
    changed = {v for v in rows1.keys() | rows2.keys() if rows1.get(v) != rows2.get(v)}
    changed.update(chain.from_iterable(i1.input_edges ^ i2.input_edges))
    return sorted(changed)


def _first_difference(run, other, algorithm):
    """:func:`compare_states` of ``run.instance`` and `other`, given `run`."""
    instance, t, codes = run.instance, run.t, run.codes
    changed = _changed_vertices(instance, other)
    views, hosted = simulate_hosted(other, algorithm, t, changed, codes)
    for v, view in zip(changed, views):
        if run.views[v] != view:
            return StateDifference(v, 0, None, "view")
    theirs = codes
    if (hosted != codes[changed]).any():
        theirs = simulate(other, algorithm, t).codes
        differ = np.argwhere(codes != theirs)
        if len(differ):
            v, r = differ[0].tolist()
            return StateDifference(v, r + 1, None, "sent")
    # every vertex sends alike, so only a port whose sender moved can differ
    for v in changed:
        row1, row2 = instance.port_row(v), other.port_row(v)
        moved = [u for u in compress(range(instance.n), map(ne, row1, row2)) if u != v]
        senders = sorted((row1[u], u) for u in moved)
        facing = {row2[u]: u for u in moved}  # in other, port -> sender
        for r in range(t):
            for port, u in senders:
                if codes[u, r] != theirs[facing[port], r]:
                    return StateDifference(v, r + 1, port, "received")
    return None


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


def splitting_pairs(labels, min_len=3):
    """Same-label position pairs whose same-direction crossing splits a cycle.

    ``labels`` holds an integer for each position p of an oriented n-cycle
    c, the edge c[p] -> c[p+1 mod n]. Crossing the same-direction edges at
    positions i < k is independent and splits c into the cycles
    c[i+1:k+1] and c[k+1:] + c[:i+1], both of at least m = max(3, min_len)
    vertices, exactly when m <= k - i <= n - m (distances 1 and 2 and
    their mirrors fail independence). Reversing both edges yields the same
    crossed instance, and a mixed-direction pair merges into a single
    cycle, so neither adds a split.

    Returns an (p, 2) int64 array of the qualifying (i, k) whose labels
    are equal, in lexicographic order.
    """
    order, lo, counts = _splitting_ranges(labels, min_len)
    pairs = np.empty((counts.sum(), 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(np.arange(len(counts)), counts)
    # position i's partners are order[lo[i]:lo[i] + counts[i]], ascending
    at = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    at += np.arange(len(at))
    pairs[:, 1] = order[at]
    return pairs


def splitting_pair_count(labels, min_len=3):
    """``len(splitting_pairs(labels, min_len))``, without the pairs."""
    return int(_splitting_ranges(labels, min_len)[2].sum())


def _splitting_ranges(labels, min_len):
    """The positions sorted by (label, position), and for each position i
    where the run of that order holding the positions k with i's label and
    m <= k - i <= n - m starts, and its length."""
    labels = np.asarray(labels)
    n = len(labels)
    order = np.argsort(labels, kind="stable")
    # a position's key, 2n times where its label first comes in the order
    # plus the position, ascends along the order
    key = labels[order].searchsorted(labels) * (2 * n) + np.arange(n)
    ordered = key[order]
    m = max(3, min_len)
    lo = ordered.searchsorted(key + m)
    return order, lo, np.maximum(ordered.searchsorted(key + n - m, side="right") - lo, 0)


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

    Position p is the cycle edge cycle[p] -> cycle[p+1 mod n], ``labels[p]``
    the 2t characters (``0``, ``1``, ``-``) its head, then its tail broadcast,
    and ``pairs`` an integer array of position pairs (i, k), i < k, each one
    an independent same-label pair whose crossing splits the cycle into two
    cycles of length >= 3. Pair (i, k) splits into lengths (k - i, n - (k - i)).
    """

    instance: BccInstance
    t: int
    cycle: tuple
    labels: tuple
    pairs: np.ndarray
    verification: dict

    def __len__(self):
        return len(self.pairs)

    def pair(self, i):
        c, n = self.cycle, len(self.cycle)
        return tuple(oriented_edge(self.instance, c[p], c[(p + 1) % n])
                     for p in self.pairs[i].tolist())

    def __iter__(self):
        return map(self.pair, range(len(self)))

    def split_lengths(self, i):
        a, b = self.pairs[i]
        j = int(b - a)
        return j, self.instance.n - j

    def bucket_sizes(self):
        return Counter(self.labels)


def find_fooling_pairs(instance, algorithm, t, verify="sampled", sample=8, rng=None):
    """Fooling pairs of a one-cycle KT0 instance against a deterministic run.

    Simulates once, labels each canonically oriented cycle edge with the
    2t symbols its endpoints broadcast, and emits every same-label
    independent pair whose crossing splits the cycle: the position pairs
    :func:`splitting_pairs` selects, a fact the unit tests re-derive from
    the definitions.

    verify="sampled" re-checks `sample` random emitted pairs, "full"
    every pair, and "none" none. A re-check crosses the pair and compares
    the crossed instance's execution with the one run, as
    :func:`compare_states` does: it hosts the four endpoints against
    the run's transcript, so no second full simulation is needed. The
    whole sweep is estimated before the first re-check. Any re-check
    failure raises InternalConsistencyError, since emitted pairs are
    constructed to satisfy the exact indistinguishability hypothesis.
    """
    if verify not in ("sampled", "full", "none"):
        raise ValueError(f"unknown verify mode {verify!r}; know 'sampled', 'full' and 'none'")
    if instance.mode != KT0:
        raise ValueError("fooling pairs are a KT0 construction")
    n = instance.n
    cycle = cycle_orientation(instance)
    run = simulate(instance, algorithm, t)
    heads = np.array(cycle)
    rows = np.concatenate((run.codes[heads], run.codes[np.roll(heads, -1)]), axis=1)
    distinct, bucket = np.unique(rows, axis=0, return_inverse=True)
    bucket = bucket.reshape(-1)  # 1-D whatever shape this numpy gives the inverse
    count = splitting_pair_count(bucket)
    checks = {"full": count, "sampled": min(sample, count), "none": 0}[verify]
    # a check makes about ten passes over n entries: the crossing copies
    # the neighbor lists, the input edges (twice) and four port rows, and
    # the moved ports are sought in the edge difference and the four
    # changed rows; then it hosts the four endpoints. The pairs peak at 32
    # bytes each (16 kept, an int64 index and a temporary) while they are
    # built, and a position's label, sort keys and ranges under 100 + 8t.
    steps, memory = hosted_work(n, 4, t, algorithm)
    check_work(f"verifying {checks} of {count} fooling pairs on {n} vertices",
               checks * (steps + 10 * n * PY_OP), memory + 32 * count + (100 + 8 * t) * n)
    labels = tuple(np.array(codes_text(distinct), dtype=object)[bucket])
    report = FoolingPairReport(instance, t, cycle, labels, splitting_pairs(bucket),
                               {"mode": verify, "checked": 0, "failures": 0})
    if checks:
        if verify == "full":
            chosen = range(count)
        else:
            rng = rng or random.Random(0)
            chosen = sorted(rng.sample(range(count), checks))
        for idx in chosen:
            e1, e2 = report.pair(idx)
            if not are_independent(instance, e1, e2):
                raise InternalConsistencyError(f"pair {idx} is not independent")
            crossed = cross(instance, e1, e2)
            if _first_difference(run, crossed, algorithm) is not None:
                raise InternalConsistencyError(
                    f"pair {idx} failed the indistinguishability re-check"
                )
            report.verification["checked"] += 1
    return report
