"""Reduction graphs over partition pairs and the two-party simulation.

``build_reduction`` realizes a pair of partitions as a graph whose
connected components, projected onto the rung vertices, equal the join
of the two partitions. The general variant uses four vertex groups
A, L, R, B of size n each; the two-regular variant (pair partitions
only) keeps just L and R, every vertex then has degree exactly 2 and
every component is an even cycle of length at least 4.

``two_party_simulate`` runs a KT1 algorithm on such a graph with one
party hosting Alice's vertices and one hosting Bob's; per round each
party sends the symbols its hosted vertices broadcast, in increasing id
order, and both rebuild every broadcast from the fixed id scheme. The
messages, tuples of int Symbol codes, are read off one monolithic run's
``int8`` transcript, and the rebuilt transcript is checked to equal that
run's, which makes the two-party run a bisimulation of the monolithic
one (same states, same verdicts), with exact communication accounting.
"""

from dataclasses import dataclass
from functools import cached_property

from . import partitions as pt
from .errors import InternalConsistencyError
from .sim import KT1, Verdict, make_instance, simulate
from .unionfind import component_roots

GENERAL = "general"
TWO_REGULAR = "two-regular"

# the vertex groups of n each, in the index order build_reduction lays out
GROUPS = {GENERAL: "alrb", TWO_REGULAR: "lr"}


@dataclass(frozen=True)
class ReductionGraph:
    variant: str
    n: int  # ground-set size
    ids: tuple  # vertex index -> id
    edges: tuple  # input edges as vertex-index pairs
    alice_vertices: tuple  # vertex indices hosted by Alice, ascending ids
    bob_vertices: tuple

    @cached_property
    def instance(self):
        """The KT1 BccInstance realizing the construction, built on first use."""
        return make_instance(len(self.ids), self.edges, mode=KT1, ids=self.ids)

    def l_vertex(self, i):
        return GROUPS[self.variant].index("l") * self.n + i - 1

    def r_vertex(self, i):
        return GROUPS[self.variant].index("r") * self.n + i - 1


def build_reduction(variant, p_a, p_b):
    """The graph G(P_A, P_B) with the fixed id scheme.

    Its edges and ids are stored; the KT1 instance is built only when
    ``instance`` is first read.

    Part indices follow canonical block order (blocks sorted by minimum
    element take indices 1, 2, ...); the leftover attachment vertex is
    always the last rung vertex. Vertex ids are i, n+i, 2n+i, 3n+i for
    a_i, l_i, r_i, b_i (the two-regular variant keeps only l and r).
    """
    if p_a.ground_size != p_b.ground_size:
        raise ValueError("partitions must share the ground size")
    n = p_a.ground_size
    if variant == TWO_REGULAR:
        if not (p_a.is_pair_partition and p_b.is_pair_partition):
            raise ValueError("two-regular variant needs pair partitions")
        edges = []
        for i in range(1, n + 1):  # rungs
            edges.append((i - 1, n + i - 1))
        for i, j in p_a.blocks:
            edges.append((i - 1, j - 1))
        for i, j in p_b.blocks:
            edges.append((n + i - 1, n + j - 1))
        ids = tuple(range(n + 1, 3 * n + 1))
        return ReductionGraph(
            variant, n, ids, tuple(edges), tuple(range(n)), tuple(range(n, 2 * n))
        )
    if variant != GENERAL:
        raise ValueError(f"unknown variant {variant!r}")
    a0, l0, r0, b0 = 0, n, 2 * n, 3 * n
    edges = [(l0 + i, r0 + i) for i in range(n)]  # rungs
    for side, part, anchor in ((a0, p_a, l0 + n - 1), (b0, p_b, r0 + n - 1)):
        hub = l0 if side == a0 else r0
        for j, block in enumerate(part.blocks):
            for m in block:
                edges.append((side + j, hub + m - 1))
        for j in range(len(part.blocks), n):  # empty parts attach to the anchor
            edges.append((side + j, anchor))
    ids = tuple(range(1, 4 * n + 1))
    return ReductionGraph(
        variant, n, ids, tuple(edges), tuple(range(2 * n)), tuple(range(2 * n, 4 * n))
    )


def components_partition(graph):
    """Partition of [n] induced by connected components on the rung vertices."""
    roots = component_roots(len(graph.ids), graph.edges)
    l0, r0 = graph.l_vertex(1), graph.r_vertex(1)
    blocks = {}
    for i in range(graph.n):
        root = roots[l0 + i]
        if roots[r0 + i] != root:  # rungs force the R projection to agree
            raise InternalConsistencyError(f"l{i + 1} and r{i + 1} lie in different components")
        blocks.setdefault(root, []).append(i + 1)
    return pt.SetPartition(graph.n, blocks.values())


def verify_join_correspondence(p_a, p_b, variant):
    """components_partition(build_reduction(...)) == join(p_a, p_b)?"""
    graph = build_reduction(variant, p_a, p_b)
    return components_partition(graph) == pt.join(p_a, p_b)


def multicycle_ground_truth(p_a, p_b):
    """YES iff the reduction graph is one cycle, i.e. the join is trivial."""
    return Verdict.YES if pt.join(p_a, p_b).is_trivial else Verdict.NO


@dataclass(frozen=True)
class TwoPartyTrace:
    """Messages exchanged per round, each a tuple of int Symbol codes in id order."""

    rounds: tuple  # tuple of (alice_message, bob_message)
    symbols_per_message: int

    @property
    def total_symbols(self):
        return 2 * len(self.rounds) * self.symbols_per_message

    def hex_rounds(self):
        """Per-round (alice, bob) messages as hex-packed trit strings."""
        return [
            (pack_trits(a), pack_trits(b)) for a, b in self.rounds
        ]


def pack_trits(symbols):
    value = 0
    for s in reversed(symbols):
        value = value * 3 + int(s)
    return format(value, "x")


@dataclass(frozen=True)
class TwoPartyResult:
    graph: ReductionGraph
    t: int
    trace: TwoPartyTrace
    states: dict  # vertex index -> final state
    verdicts: dict  # vertex index -> Verdict
    system: object
    equivalent: bool  # the rebuilt transcript equals the monolithic one


def _rebuilt_round(graph, msg_a, msg_b):
    """The round's broadcasts by vertex index, as both parties rebuild them.

    Each message lists its party's vertices in ascending id order, so a
    position names the sender's id, hence its vertex.
    """
    heard = [None] * len(graph.ids)
    for vertices, msg in ((graph.alice_vertices, msg_a), (graph.bob_vertices, msg_b)):
        for v, sym in zip(vertices, msg):
            heard[v] = sym
    return heard


def two_party_simulate(algorithm, p_a, p_b, variant, t):
    """:func:`two_party_simulate_graph` on ``build_reduction(variant, p_a, p_b)``."""
    return two_party_simulate_graph(build_reduction(variant, p_a, p_b), algorithm, t)


def two_party_simulate_graph(graph, algorithm, t):
    """Alice/Bob round-synchronous simulation of a KT1 algorithm on a built graph.

    Alice hosts her construction's vertices and Bob his; each round both
    emit the symbols their hosted vertices broadcast (ascending id
    order) and rebuild every broadcast from the id scheme (a position in
    a message reveals the sender id, which is the port label). The
    messages are the projections of one monolithic run. Returns the
    trace with exact symbol counts plus a flag that the rebuilt
    transcript equals the run's.
    """
    alice, bob = graph.alice_vertices, graph.bob_vertices
    run = simulate(graph.instance, algorithm, t)
    sent_rounds = run.codes.T.tolist()  # round by round, the int code of each vertex's symbol
    messages = tuple(
        (tuple(sent[v] for v in alice), tuple(sent[v] for v in bob)) for sent in sent_rounds
    )
    # One run suffices: a deterministic machine's state after round r is
    # a function of its view and the broadcasts of rounds 1..r, and its
    # verdicts one of its final state and the whole transcript. So when
    # every round the parties rebuild equals the run's, vertices fed the
    # rebuilt broadcasts reach the run's states and verdicts (induction
    # on r).
    equivalent = sent_rounds == [_rebuilt_round(graph, a, b) for a, b in messages]
    trace = TwoPartyTrace(messages, len(alice))
    return TwoPartyResult(
        graph, t, trace, dict(enumerate(run.states)), dict(enumerate(run.verdicts)),
        run.system_verdict, equivalent,
    )
