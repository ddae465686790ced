"""Round-exact simulator for 1-bit-per-round broadcast clique instances.

An instance is a complete communication network over n vertices together
with a subset of edges forming the input graph. Vertices run a shared
deterministic state machine over the three-symbol alphabet {0, 1, silent};
the simulator delivers every round-r broadcast to every other vertex at
that vertex's port facing the sender, then applies the machine's receive
step. Two knowledge modes are supported:

* KT0 -- ports are arbitrary labels 1..n-1 carrying no identity
  information; a vertex initially sees only its own id, the port labels,
  and which ports carry input edges.
* KT1 -- every port is labeled with the id of the vertex behind it and
  every vertex knows the full id roster.

The run owns the transcript: ``SimulationRun.codes`` holds every
broadcast as an (n, t) ``int8`` array of Symbol codes, and receptions
follow from it through the port tables.

One private round engine, :func:`_run_rounds`, runs every machine for
:func:`simulate` (one member), :func:`simulate_hosted` (some vertices of
one member, hearing the others from a given transcript) and
:func:`simulate_members` (many cycle-family members at once). Every run
fills an (m, n, t) ``int8`` transcript its caller owns, at its cells'
columns; a hosted run's other columns hold the given run's broadcasts.
The engine picks each machine's path itself: the per-vertex inbox loop,
the model's own definition of delivery, for a machine that overrides
``receive``; the fold of ``Algorithm.members_receiver`` where the
machine gives one; and otherwise record-only, one broadcast per
distinct (view, round).
"""

import json
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import PY_OP, ProtocolViolation, check_work

KT0 = "KT0"
KT1 = "KT1"


class Symbol(IntEnum):
    ZERO = 0
    ONE = 1
    SILENT = 2

    def __str__(self):
        return _CHARS[self]


_CHARS = "01-"  # the character of each Symbol code
SYMBOL_FROM_CHAR = {c: Symbol(code) for code, c in enumerate(_CHARS)}
_SYMBOLS = np.array(tuple(Symbol), dtype=object)  # the Symbol of each int8 code


def codes_text(codes):
    """Each row of a 2-D array of Symbol codes as text: ``0``, ``1`` or ``-`` per code."""
    return [row.tobytes().decode() for row in np.frombuffer(_CHARS.encode(), np.uint8)[codes]]


class Verdict(Enum):
    YES = "YES"
    NO = "NO"


def _require_ints(what, values):
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers, got {x!r}")


def _check_fields(n, mode, ids, input_edges):
    """Every instance check but the port rows; edges are normalized pairs."""
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("an instance needs at least 2 vertices")
    if mode not in (KT0, KT1):
        raise ValueError(f"unknown mode {mode!r}")
    _require_ints("ids", ids)
    if len(ids) != n or len(set(ids)) != n:
        raise ValueError("ids must be one injective value per vertex")
    if any(i < 0 for i in ids):
        raise ValueError("ids must be nonnegative")
    for u, v in input_edges:
        if not (0 <= u < v < n):
            raise ValueError(f"input edge ({u},{v}) outside the network")


def _normalize_edge(e):
    try:
        u, v = e
    except ValueError:  # too many or too few endpoints
        raise ValueError(f"input edge {e!r} is not a pair") from None
    _require_ints("edge endpoints", e)
    if u == v:
        raise ValueError(f"self-loop {e} is not a valid edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class VertexView:
    """Everything a vertex knows before round 1. In KT1 a port label is the
    id behind it, so ``input_ports`` holds the input neighbors' ids."""

    mode: str
    n: int
    own_id: int
    input_ports: frozenset
    all_ids: tuple = ()  # KT1 only: the sorted id roster


@dataclass(frozen=True)
class BccInstance:
    """A clique network with ids, an input-edge subset and its ports.

    Ports follow the mode's law, 0 at v itself. KT1: the edge {u, v} sits
    at port ids[u] on v's side. KT0: the port of v facing u is u's rank by
    id among the other vertices, from 1, a reproducible default no more
    informative than any other bijection. ``rewired`` holds the KT0 rows
    that differ from the law, so equal tables give equal instances. An
    entry costs O(1); a law row is built once, for the instance and every
    crossing of it. Only this module builds instances: :func:`make_instance`
    validates, and ``_derive`` gives an explicit table's instance and every
    crossing from another instance.
    """

    n: int
    mode: str
    ids: tuple
    input_edges: frozenset  # of (u, v) tuples with u < v, vertex indices
    rewired: tuple  # (v, row) pairs by ascending v, row[u] = port label at v facing u

    @cached_property
    def input_neighbors(self):
        nbr = [[] for _ in range(self.n)]
        for u, v in sorted(self.input_edges):
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(tuple(sorted(x)) for x in nbr)

    @cached_property
    def _sorted_ids(self):
        return tuple(sorted(self.ids))

    @cached_property
    def _rank(self):
        """u's place among the vertices sorted by id: the inverse of the sorting permutation."""
        order = sorted(range(self.n), key=self.ids.__getitem__)
        return sorted(range(self.n), key=order.__getitem__)

    @cached_property
    def _law_rows(self):
        return {}  # built as read, and shared with every derived instance

    @cached_property
    def _rewired_rows(self):
        return dict(self.rewired)

    def port_at(self, v, u):
        row = self._rewired_rows.get(v)
        if row is not None:
            return row[u]
        if u == v:
            return 0
        if self.mode == KT1:
            return self.ids[u]
        return self._rank[u] + (self._rank[u] < self._rank[v])

    def port_row(self, v):
        """v's port labels by vertex: ``port_row(v)[u] == port_at(v, u)``."""
        return self._rewired_rows.get(v) or self._law_row(v)

    def _law_row(self, v, rows=None):
        """v's row under the law, kept in `rows`, by default the shared law rows."""
        rows = self._law_rows if rows is None else rows
        if v not in rows:
            if self.mode == KT1:
                rows[v] = self.ids[:v] + (0,) + self.ids[v + 1:]
            else:
                rv = self._rank[v]
                row = [r + 1 if r < rv else r for r in self._rank]
                row[v] = 0
                rows[v] = tuple(row)
        return rows[v]

    def _derive(self, rows=(), swaps=(), removed=(), added=()):
        """This instance with port rows replaced, as (v, row) pairs, then
        swapped, as (v, x, y) triples: at v the ports facing x and y trade
        labels; and with the input edges ``removed`` dropped and ``added``
        added. It keeps the rows that differ from the law, and shares the
        id ranks, the law rows and the unchanged neighbor lists."""
        changed = dict(rows)
        for v, x, y in swaps:
            row = list(changed.get(v) or self.port_row(v))
            row[x], row[y] = row[y], row[x]
            changed[v] = tuple(row)
        law = self._law_rows  # a law row built only to be compared is not kept
        rewired = {v: row for v, row in (self._rewired_rows | changed).items()
                   if v not in changed or row != (law.get(v) or self._law_row(v, {}))}
        edges, neighbors = set(self.input_edges), list(self.input_neighbors)
        for u, v in removed:
            edges.discard((u, v) if u < v else (v, u))
            neighbors[u] = tuple(filter(v.__ne__, neighbors[u]))
            neighbors[v] = tuple(filter(u.__ne__, neighbors[v]))
        for u, v in added:
            edges.add((u, v) if u < v else (v, u))
            neighbors[u] = tuple(sorted((*neighbors[u], v)))
            neighbors[v] = tuple(sorted((*neighbors[v], u)))
        derived = BccInstance(self.n, self.mode, self.ids, frozenset(edges),
                              tuple(sorted(rewired.items())))
        # the cached properties' slots, which spare the derived instance a rebuild
        derived.__dict__.update(_rank=self._rank, _law_rows=law,
                                _rewired_rows=rewired, input_neighbors=tuple(neighbors))
        return derived

    def _port_sums(self):
        """Each vertex's port label sum, in closed form: a KT0 row holds
        1..n-1 in some order, and a KT1 row every other vertex's id."""
        if self.mode == KT0:
            return [self.n * (self.n - 1) // 2] * self.n
        total = sum(self.ids)
        return [total - i for i in self.ids]

    @cached_property
    def ports(self):
        """The whole n x n table, for the instance format and the tests."""
        return tuple(map(self.port_row, range(self.n)))

    def view(self, v):
        return VertexView(
            self.mode, self.n, self.ids[v],
            frozenset(self.port_at(v, u) for u in self.input_neighbors[v]),
            self._sorted_ids if self.mode == KT1 else (),
        )


def make_instance(n, input_edges, mode=KT0, ids=None, ports=None):
    """Build an instance; ids default to 0..n-1 and ports to the mode's law.

    An explicit port table is checked row by row: a KT1 row must be the
    law's, and a KT0 row put 1..n-1 on the other vertices and 0 at v. The
    instance keeps the rows that differ from the law.
    """
    if ids is None:
        ids = range(n) if type(n) is int else ()  # the field check names a bad n
    ids = tuple(ids)
    edges = frozenset(_normalize_edge(e) for e in input_edges)
    _check_fields(n, mode, ids, edges)
    # an explicit table is n rows of n Python ints, refused before a row is read
    cells = n * n if ports is not None else n + len(edges)
    check_work(f"an instance on {n} vertices", cells * PY_OP, 22 * cells)
    instance = BccInstance(n, mode, ids, edges, ())
    if ports is None:
        return instance
    rows = tuple(map(tuple, ports))
    if len(rows) != n:
        raise ValueError("one port row per vertex required")
    for v, row in enumerate(rows):
        _require_ints(f"port labels at vertex {v}", row)
        if mode == KT0 and not (sorted(row) == list(range(n)) and row[v] == 0):
            raise ValueError(f"KT0 ports at vertex {v} must be 1..n-1, and 0 at v")
    derived = instance._derive(rows=enumerate(rows))
    if mode == KT1 and derived.rewired:  # the law fixes the whole row, length included
        raise ValueError(f"KT1 port law violated at vertex {derived.rewired[0][0]}")
    return derived


class Algorithm:
    """Vertex state machine interface; one shared object drives every vertex.

    The machine must be deterministic given the view. A machine with a
    fixed public tape is a deterministic machine, and the tape is a
    constructor parameter. The lab simulates BCC(1): ``broadcast`` returns
    exactly one Symbol per vertex-round, and ``simulate`` raises
    ProtocolViolation on anything else. ``receive`` is handed the symbols
    broadcast in ``round`` as a dict keyed by the vertex's own port labels,
    and returns the successor state.

    A machine that overrides ``receive`` gets every vertex's inbox, round
    by round. One that does not gets no deliveries: it is record-only,
    and its verdicts come from ``decide_run``, which sees the run's
    broadcasts, unless ``members_receiver`` gives it a fold of whole
    rounds; a batch of runs decides in one ``decide_run`` call.
    """

    name = "abstract"

    def initialize(self, view):
        raise NotImplementedError

    def broadcast(self, state, round_no):
        raise NotImplementedError

    def receive(self, state, round_no, inbox):
        return state

    def decide(self, state):
        raise NotImplementedError

    def decide_run(self, views, view_index, states, state_index, codes):
        """Whether each vertex of m finished runs says YES, an (m, n) bool array.

        Vertex v of member j started from ``views[view_index[j, v]]``,
        ended in ``states[state_index[j, v]]`` (an entry serves every
        vertex that shares it) and broadcast ``codes[j, v, r]`` in round
        r + 1, as every other vertex received it. The default decides each
        listed state once.
        """
        said = [self.decide(state) for state in states]
        yes = Verdict.YES  # bound once: an Enum member lookup is slow
        if said.count(yes) + said.count(Verdict.NO) != len(said):
            raise ValueError("need one YES/NO verdict per vertex")
        return np.array([v is yes for v in said], dtype=bool)[state_index]

    def members_receiver(self, port_sums):
        """The machine's round fold as arrays, or None (the default).

        A machine that does not override ``receive``, whose state is a
        1-tuple ``(digest,)`` of an integer, may fold a round of m members
        at once (:func:`simulate` runs one). ``port_sums[v]`` is the sum
        of vertex v's port labels, the same in every member.
        The step maps ``(digests, round_no, heard)`` to the digests after
        the round: ``digests`` is an (m, n) integer array and ``heard[j, u]``
        the int8 code of what u broadcast in member j.
        """
        return None

    def round_budget(self, instance):
        """Rounds after which decide() is meaningful; None if unconditional."""
        return None


@dataclass(frozen=True, eq=False)
class SimulationRun:
    """Transcript bundle: everything simulate() produced, immutably.

    ``codes[v, r]``, a read-only (n, t) ``int8`` array, is the code of
    the Symbol vertex v broadcast in round r + 1; ``sent`` derives the
    Symbol tuples, which the library never reads. In round r every other
    vertex heard v's ``codes[v, r - 1]`` at its port facing v.
    """

    instance: BccInstance
    t: int
    views: tuple
    codes: np.ndarray
    states: tuple
    verdicts: tuple

    @cached_property
    def sent(self):
        """``sent[v]``: vertex v's broadcasts, one Symbol per round."""
        return tuple(map(tuple, _SYMBOLS[self.codes].tolist()))

    @property
    def system_verdict(self):
        return system_verdict(self.verdicts)


def simulate(instance, algorithm, t):
    """Run `t` synchronous rounds and return the full transcript bundle.

    Round r: every vertex broadcasts a payload computed from its current
    state; the payloads are then delivered (each vertex sees every other
    vertex's payload at the port facing the sender) and the receive step
    advances each state. The state after round r therefore reflects all
    broadcasts of rounds 1..r, and reruns with identical arguments are
    bit-identical.

    Every machine runs the round engine as a batch of one member, and a
    machine that overrides ``receive`` runs its per-vertex inbox loop.
    """
    if t < 0:
        raise ValueError("round count must be nonnegative")
    n = instance.n
    inbox = _overrides_receive(algorithm)
    # n t broadcasts, each a Python-level call; the inbox loop delivers
    # each to n - 1 ports, read from all n port rows. The run keeps a view
    # and a state per vertex: tracemalloc peaks at about 570 B a vertex on
    # a cycle at n = 6000 and 20000 (AlwaysSilent at t = 0, IdExchange at t = 3)
    check_work(f"{t} rounds on {n} vertices",
               n * t * (n * inbox + PY_OP) + inbox * n * n * PY_OP,
               (8 * t + 640) * n + inbox * 30 * n * n)
    views, view_index = tuple(map(instance.view, range(n))), np.arange(n)[None]
    codes = np.empty((1, n, t), dtype=np.int8)
    states, index = _run_rounds(views, view_index, algorithm, t, instance, codes, slice(None))
    yes = algorithm.decide_run(views, view_index, states, index, codes)
    codes = codes[0]
    codes.flags.writeable = False
    return SimulationRun(
        instance, t, views, codes, tuple(map(states.__getitem__, index[0].tolist())),
        tuple(map((Verdict.NO, Verdict.YES).__getitem__, yes[0].tolist())),
    )


def hosted_work(n, hosted, t, algorithm):
    """Steps and bytes of a :func:`simulate_hosted` run of `hosted` of n
    vertices: a Python-level broadcast per hosted vertex-round, n - 1
    deliveries each on the inbox loop, and one n-symbol round heard per
    round."""
    inbox = _overrides_receive(algorithm)
    return hosted * (t + 1) * (n * inbox + PY_OP) + n * t, 8 * n * t


def members_work(m, n, mode, algorithm, t, verdicts=False):
    """Steps and bytes of a :func:`simulate_members` batch of m members on
    n vertices, from the sizes alone, so a caller can refuse a batch
    before it builds the members."""
    if t < 0:
        raise ValueError("round count must be nonnegative")
    inbox = _overrides_receive(algorithm)
    port_sums = _law_instance(n, mode)._port_sums()
    folds = not inbox and algorithm.members_receiver(port_sums) is not None
    views = min(m * n, n * (n - 1) * (n - 2) // 2)  # distinct (own id, two input ports)
    # Python-level calls: n + t per cell on the inbox loop, at worst one
    # digest per cell, or one per view and round
    if inbox:
        calls = m * n * (n + t)
    elif folds:
        calls = m * n * t
    else:
        calls = views * (t + 1)
    # array passes over the cells: each round's and, with verdicts, the
    # decide's over the transcript and its O(log n) labelling rounds
    cells = m * n * (t + 1 + verdicts * (t + n.bit_length()))
    # per cell, the int8 transcripts, the view keys' and a fold's digests'
    # np.unique temporaries and the decide's arrays; per view, a VertexView and state
    memory = m * n * (2 * t + 72 + 16 * folds + verdicts * 8 * t) + 512 * views
    return 20 * cells + calls * PY_OP, memory


def _law_instance(n, mode):
    """The ports of a cycle-family member, ids 0..n-1: an edgeless law instance."""
    return BccInstance(n, mode, tuple(range(n)), frozenset(), ())


def simulate_hosted(instance, algorithm, t, hosted, codes):
    """Run only the vertices `hosted` of `instance` for `t` rounds.

    Every other vertex u is heard broadcasting ``codes[u, r - 1]`` in round
    r: ``codes`` is an (n, t) ``int8`` array of Symbol codes, the transcript
    of some run on n vertices. The hosted vertices start from their views
    in `instance` and hear each round at their own ports, their own
    broadcasts included. Returns their views, and their broadcasts as a
    (len(hosted), t) ``int8`` array, row i for vertex ``hosted[i]``.

    Given :func:`simulate`'s transcript of `instance` itself, the rows are
    that run's. Given another instance's, they are what the hosted
    vertices send while every other vertex behaves as in that run. The
    same round engine runs every machine, as in :func:`simulate`, on a
    copy of `codes` whose hosted rows it fills: `codes` is never written.
    """
    if t < 0:
        raise ValueError("round count must be nonnegative")
    n = instance.n
    hosted = list(hosted)
    if hosted != sorted(set(hosted)) or (hosted and not 0 <= hosted[0] <= hosted[-1] < n):
        raise ValueError(f"hosted vertices must ascend among 0..{n - 1}")
    codes = np.asarray(codes)
    if codes.shape != (n, t) or codes.dtype != np.int8:
        raise ValueError(f"codes must be an ({n}, {t}) int8 array, got {codes.shape} {codes.dtype}")
    check_work(f"{t} rounds of {len(hosted)} hosted vertices on {n}",
               *hosted_work(n, len(hosted), t, algorithm))
    views = tuple(map(instance.view, hosted))
    columns, transcript = np.array(hosted, dtype=np.intp), codes[None].copy()
    _run_rounds(views, np.arange(len(views))[None], algorithm, t, instance, transcript, columns)
    return views, transcript[0].take(columns, axis=0)


def _inbox_step(port_row, algorithm, vertices):
    """The inbox loop of a machine that overrides ``receive``, as a round
    step over one state per (member, vertex) cell of `vertices`, member
    by member: each vertex gets the symbols of its member's round, keyed
    by its port labels ``port_row(v)``."""
    # v's port row without v, aligned with the round minus v's payload, so
    # a KT1 port labelled id 0 is never taken for v's slot
    delivery = [(v, row[:v] + row[v + 1:]) for v, row in zip(vertices, map(port_row, vertices))]
    receive = algorithm.receive

    def step(states, round_no, heard):
        cells = iter(states)
        return [receive(state, round_no, dict(zip(row, said[:v] + said[v + 1:])))
                for said in _SYMBOLS[heard].tolist() for (v, row), state in zip(delivery, cells)]

    return step


def _overrides_receive(algorithm):
    """Whether the machine takes the inbox loop. Read on the class, so a
    wrapper bound on the instance (a tracer, say) does not make a
    record-only machine adaptive."""
    return type(algorithm).receive is not Algorithm.receive


def _check_payloads(payloads, round_no, index, vertices):
    """Raise unless each payload is one Symbol; name a vertex that sent another.

    Vertex ``vertices[v]`` of member j sent ``payloads[index[j, v]]``.
    """
    if set(map(type, payloads)) - {Symbol}:
        k = next(k for k, p in enumerate(payloads) if type(p) is not Symbol)
        j, v = np.argwhere(index == k)[0].tolist()
        member = f" of member {j}" if len(index) > 1 else ""
        raise ProtocolViolation(
            f"vertex {vertices[v]}{member} broadcast {payloads[k]!r} in round {round_no}; "
            "a payload is exactly one Symbol"
        )


def _run_rounds(views, view_index, algorithm, t, ports, transcript, columns):
    """The one round engine: every run of a machine goes through it.

    Vertex v of member j starts from ``views[view_index[j, v]]``, an
    (m, n) index, and hears each round at its port row in the instance
    ``ports``, the same for every member. The engine picks the path: a
    machine that overrides ``receive`` gets one state per member-vertex
    and the inbox loop of :func:`_inbox_step`; any other initializes once
    per view and, given a fold by ``members_receiver``, folds an (m, N)
    digest array and broadcasts once per distinct (digest, round), else
    is record-only and broadcasts once per (view, round).

    The caller owns the (m, N, t) ``int8`` ``transcript`` the run fills:
    the n cells are the vertices ``columns`` (``slice(None)``, or an
    ascending ``intp`` array) of a run on N vertices, and in round r the
    engine writes their broadcasts into ``transcript[:, columns, r - 1]``.
    The fold and the inbox loop then hear that whole round, other columns
    as the caller left them: ``heard[j, u]`` is the code of what u
    broadcast in member j. Returns the distinct final states and the
    (m, n) index of each cell's among them.
    """
    vertices = np.arange(transcript.shape[1])[columns]
    fold = deliver = None
    if _overrides_receive(algorithm):
        deliver = _inbox_step(ports.port_row, algorithm, vertices.tolist())
        views = [views[k] for k in view_index.ravel().tolist()]
        view_index = np.arange(len(views)).reshape(view_index.shape)
    else:
        fold = algorithm.members_receiver(ports._port_sums())
    states = [algorithm.initialize(view) for view in views]
    if fold is not None:  # digests of columns outside the cells are folded, never broadcast
        own = np.array([state[0] for state in states])
        digests = np.zeros(transcript.shape[:2], dtype=own.dtype)
        digests[:, columns] = own[view_index]
    index = view_index
    for r in range(1, t + 1):
        if fold is not None:
            values, index = np.unique(digests[:, columns], return_inverse=True)
            index = index.reshape(view_index.shape)
            states = [(d,) for d in values.tolist()]
        payloads = [algorithm.broadcast(state, r) for state in states]
        _check_payloads(payloads, r, index, vertices)
        # a Symbol is a small int, so bytes() packs the payloads at C speed
        transcript[:, columns, r - 1] = np.frombuffer(bytes(payloads), dtype=np.int8)[index]
        if fold is not None:
            digests = fold(digests, r, transcript[:, :, r - 1])
        elif deliver is not None:
            states = deliver(states, r, transcript[:, :, r - 1])
    if fold is None:
        return states, view_index
    values, index = np.unique(digests[:, columns], return_inverse=True)
    return [(d,) for d in values.tolist()], index.reshape(view_index.shape)


@dataclass(frozen=True)
class MemberRuns:
    """What :func:`simulate_members` produced for m members, as arrays.

    ``codes[j, v, r]`` is the code of the Symbol vertex v of member j
    broadcast in round r + 1. ``system_yes[j]`` says whether member j's
    system verdict is YES; it is None unless verdicts were asked for.
    """

    codes: np.ndarray
    system_yes: np.ndarray = None


def simulate_members(neighbors, mode, algorithm, t, verdicts=False):
    """Run `t` rounds on m cycle-family members at once, as arrays.

    ``neighbors[j, v]`` holds the two input neighbors of vertex v in
    member j, an (m, n, 2) integer array. Ids are 0..n-1 and ports
    canonical, as the family fixes them, so no instance is built: in KT0
    the port of v facing u is u + 1 if u < v, else u, and in KT1 it is u.
    The transcripts equal :func:`simulate`'s on each member's instance.

    The round engine runs the whole batch at once, on the distinct views
    and the canonical ports, and picks the machine's path as for one run.

    With ``verdicts`` each member's system verdict is computed too, from
    one ``decide_run`` call for the whole batch.
    """
    neighbors = np.asarray(neighbors)
    if neighbors.ndim != 3 or neighbors.shape[2] != 2:
        raise ValueError(f"neighbors must have shape (m, n, 2), got {neighbors.shape}")
    if mode not in (KT0, KT1):
        raise ValueError(f"unknown mode {mode!r}")
    m, n, _ = neighbors.shape
    check_work(f"a batch of {m} members on {n} vertices over {t} rounds",
               *members_work(m, n, mode, algorithm, t, verdicts))
    law = _law_instance(n, mode)
    vertex = np.arange(n)
    if m and (neighbors.min() < 0 or neighbors.max() >= n or (neighbors == vertex[:, None]).any()):
        raise ValueError(f"input neighbors must be other vertices among 0..{n - 1}")
    lo = neighbors.min(axis=2).astype(np.int64)
    hi = neighbors.max(axis=2).astype(np.int64)
    if mode == KT0:  # the port of v facing u is u + 1 if u < v, else u
        lo, hi = lo + (lo < vertex), hi + (hi < vertex)
    keys, view_index = np.unique(((vertex * n + lo) * n + hi).ravel(), return_inverse=True)
    view_index = view_index.reshape(m, n)
    all_ids = law.ids if mode == KT1 else ()
    views = [
        VertexView(mode, n, key // (n * n), frozenset((key // n % n, key % n)), all_ids)
        for key in keys.tolist()
    ]
    codes = np.empty((m, n, t), dtype=np.int8)
    states, state_index = _run_rounds(views, view_index, algorithm, t, law, codes, slice(None))
    if not verdicts:
        return MemberRuns(codes)
    yes = algorithm.decide_run(views, view_index, states, state_index, codes)
    return MemberRuns(codes, yes.all(axis=1))


def system_verdict(verdicts):
    """YES iff every vertex said YES; NO otherwise."""
    verdicts = list(verdicts)
    if not verdicts or any(v not in (Verdict.YES, Verdict.NO) for v in verdicts):
        raise ValueError("need one YES/NO verdict per vertex")
    return Verdict.YES if all(v is Verdict.YES for v in verdicts) else Verdict.NO


def evaluate_error(algorithm, t, yes_family, no_family):
    """Exact error under the half/half uniform two-family distribution.

    Returns 1/2 * (fraction of yes instances judged NO) + 1/2 * (fraction
    of no instances judged YES), as a Fraction.
    """
    yes_family = list(yes_family)
    no_family = list(no_family)
    if not yes_family or not no_family:
        raise ValueError("both families must be nonempty")
    ref = yes_family[0]
    for inst in yes_family + no_family:
        if inst.n != ref.n or inst.mode != ref.mode:
            raise ValueError("families must share n and mode")
    wrong_yes = sum(simulate(i, algorithm, t).system_verdict is Verdict.NO for i in yes_family)
    wrong_no = sum(simulate(i, algorithm, t).system_verdict is Verdict.YES for i in no_family)
    return Fraction(wrong_yes, 2 * len(yes_family)) + Fraction(wrong_no, 2 * len(no_family))


def instance_to_json(instance):
    """Serialize to the structured-text instance format.

    ``"b": 1`` is the bandwidth of BCC(1), the only one the lab simulates;
    :func:`instance_from_json` reads a missing ``b`` as 1 and refuses others.
    """
    doc = {
        "n": instance.n,
        "mode": instance.mode,
        "b": 1,
        "ids": list(instance.ids),
        "input_edges": sorted(list(e) for e in instance.input_edges),
        "ports": [list(row) for row in instance.ports],
    }
    return json.dumps(doc, sort_keys=True)


def instance_from_json(text):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("an instance file holds one JSON object")
    for key in ("n", "input_edges"):
        if key not in doc:
            raise ValueError(f"instance file has no {key!r} key")
    b = doc.get("b", 1)
    if type(b) is not int or b != 1:  # JSON true is a bool, not 1
        raise ValueError(f"b must be 1 (the lab simulates BCC(1)), got {json.dumps(b)}")
    try:
        return make_instance(
            doc["n"], doc["input_edges"], mode=doc.get("mode", KT0),
            ids=doc.get("ids"), ports=doc.get("ports"),
        )
    except TypeError as e:  # a number where a list belongs, or the reverse
        raise ValueError(f"malformed instance file: {e}") from None
