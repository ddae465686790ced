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

The run owns the transcript: ``SimulationRun.sent`` holds every
broadcast, and receptions follow from it through the port tables.

One private round engine runs every machine, for :func:`simulate` (one
member), for :func:`simulate_hosted` (some vertices of one member,
hearing the others from a given transcript) and for
:func:`simulate_members` (many cycle-family members at once, as arrays).
A record-only machine (no fold) initializes once per distinct view and
broadcasts once per (view, round); its states never change after
``initialize``, and it decides from the run's broadcasts through
``Algorithm.decide_run``. A folding machine (``Algorithm.members_receiver``)
folds an (m, n) digest array and broadcasts once per distinct (digest,
round). A machine that overrides ``receive`` runs the engine's
per-vertex inbox loop, the model's own definition of delivery, and
:func:`simulate_members` runs it member by member.
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
        return "01-"[self]


SYMBOL_FROM_CHAR = {"0": Symbol.ZERO, "1": Symbol.ONE, "-": Symbol.SILENT}
_BY_CODE = tuple(Symbol).__getitem__  # the Symbol of an int8 code


class Verdict(Enum):
    YES = "YES"
    NO = "NO"


def canonical_kt0_ports(ids):
    """Default KT0 port tables: port of v facing u = rank of u by id.

    Ranks run 1..n-1 over the vertices other than v sorted by id; the rule
    is only a reproducible default and carries no more information than
    any other fixed bijection.
    """
    n = len(ids)
    order = sorted(range(n), key=lambda v: ids[v])
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    rows = []
    for v in range(n):
        rv = rank[v]
        row = [r + 1 if r < rv else r for r in rank]
        row[v] = 0
        rows.append(tuple(row))
    return tuple(rows)


def kt1_ports(ids):
    """KT1 port law: the edge {u,v} sits at port ids[u] on v's side."""
    base = list(ids)
    rows = []
    for v in range(len(ids)):
        row = base.copy()
        row[v] = 0
        rows.append(tuple(row))
    return tuple(rows)


def random_kt0_ports(rng, n):
    """Independent uniformly random port bijections, one per vertex."""
    rows = []
    for v in range(n):
        labels = list(range(1, n))
        rng.shuffle(labels)
        labels.insert(v, 0)
        rows.append(tuple(labels))
    return tuple(rows)


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
    u, v = e
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
    """A clique network with ids, port tables and an input-edge subset.

    Instances built through :func:`make_instance` are validated; internal
    transforms that preserve the invariants (crossings in particular)
    construct directly for speed. ``validate`` can always be re-run.
    """

    n: int
    mode: str
    ids: tuple
    input_edges: frozenset  # of (u, v) tuples with u < v, vertex indices
    ports: tuple  # ports[v][u] = port label of the network edge at v facing u

    def validate(self):
        _check_fields(self.n, self.mode, self.ids, self.input_edges)
        if len(self.ports) != self.n:
            raise ValueError("one port row per vertex required")
        labels = list(range(self.n))  # a KT0 row, sorted
        for v, row in enumerate(self.ports):
            _require_ints(f"port labels at vertex {v}", row)
            # either law fixes the whole row, length and zero diagonal included
            if self.mode == KT0 and not (sorted(row) == labels and row[v] == 0):
                raise ValueError(f"KT0 ports at vertex {v} must be 1..n-1, and 0 at v")
            if self.mode == KT1 and tuple(row) != self.ids[:v] + (0,) + self.ids[v + 1:]:
                raise ValueError(f"KT1 port law violated at vertex {v}")
        return self

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

    def port_at(self, v, u):
        return self.ports[v][u]

    def view(self, v):
        row = self.ports[v]
        return VertexView(
            self.mode, self.n, self.ids[v],
            frozenset(row[u] for u in self.input_neighbors[v]),
            self._sorted_ids if self.mode == KT1 else (),
        )


def make_instance(n, input_edges, mode=KT0, ids=None, ports=None):
    """Build an instance; ids default to 0..n-1 and ports to the mode's canon.

    Explicitly supplied port tables are fully validated; canonical tables
    are derived once the other fields pass, and skip the per-row check.
    """
    if ids is None:
        ids = range(n) if type(n) is int else ()  # the field check names a bad n
    ids = tuple(ids)
    edges = frozenset(_normalize_edge(e) for e in input_edges)
    _check_fields(n, mode, ids, edges)
    check_work(f"an instance on {n} vertices", n * n * PY_OP, 22 * n * n)  # the port table
    if ports is None:
        ports = canonical_kt0_ports(ids) if mode == KT0 else kt1_ports(ids)
        return BccInstance(n, mode, ids, edges, ports)
    return BccInstance(n, mode, ids, edges, tuple(map(tuple, ports))).validate()


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
    rounds.
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

    def decide_run(self, views, states, sent):
        """One verdict per vertex of a finished run.

        ``sent[v]`` holds vertex v's broadcasts per round, as every other
        vertex received them. The default decides each state on its own.
        """
        return tuple(self.decide(s) for s in states)

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


@dataclass(frozen=True)
class SimulationRun:
    """Transcript bundle: everything simulate() produced, immutably.

    ``sent[v]`` holds vertex v's broadcasts, one Symbol per round.
    Received symbols are exposed through :meth:`received`, reconstructed
    from the senders' rows and the port tables; by construction the symbol
    seen at u in round r on the port facing v equals sent[v][r-1].
    """

    instance: BccInstance
    t: int
    views: tuple
    sent: tuple  # sent[v] = tuple over rounds
    states: tuple
    verdicts: tuple

    def received(self, v, round_no):
        """Symbols delivered to v at the end of `round_no`, keyed by port."""
        if not 1 <= round_no <= self.t:
            raise ValueError(f"round {round_no} outside 1..{self.t}")
        inst = self.instance
        r = round_no - 1
        return {
            inst.ports[v][u]: self.sent[u][r]
            for u in range(inst.n)
            if u != v
        }

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
    # each to n - 1 ports
    check_work(f"{t} rounds on {n} vertices", n * t * (n * inbox + PY_OP), 8 * n * t)
    views, states, rounds = _run_instance(instance, algorithm, t, range(n))
    sent = tuple(zip(*rounds)) if rounds else ((),) * n
    states = tuple(states)
    verdicts = tuple(algorithm.decide_run(views, states, sent))
    return SimulationRun(instance, t, views, sent, states, verdicts)


def hosted_work(n, hosted, t, algorithm):
    """Steps and bytes of a :func:`simulate_hosted` run of `hosted` of n
    vertices: a Python-level broadcast per hosted vertex-round, n - 1
    deliveries each on the inbox loop, and one n-symbol round heard per
    round."""
    inbox = _overrides_receive(algorithm)
    return hosted * (t + 1) * (n * inbox + PY_OP) + n * t, 8 * n * t


def simulate_hosted(instance, algorithm, t, hosted, sent):
    """Run only the vertices `hosted` of `instance` for `t` rounds.

    Every other vertex u is heard broadcasting ``sent[u, r - 1]`` in round
    r: ``sent`` is an (n, t) ``int8`` array of Symbol codes, the transcript
    of some run on n vertices. The hosted vertices start from their views
    in `instance` and hear each round at their own ports, their own
    broadcasts included. Returns their views, and their broadcasts as a
    (len(hosted), t) ``int8`` array, row i for vertex ``hosted[i]``.

    Given :func:`simulate`'s transcript of `instance` itself, the rows are
    that run's. Given another instance's, they are what the hosted
    vertices send while every other vertex behaves as in that run. The
    same round engine runs every machine, as in :func:`simulate`.
    """
    if t < 0:
        raise ValueError("round count must be nonnegative")
    n = instance.n
    hosted = list(hosted)
    if hosted != sorted(set(hosted)) or (hosted and not 0 <= hosted[0] <= hosted[-1] < n):
        raise ValueError(f"hosted vertices must ascend among 0..{n - 1}")
    sent = np.asarray(sent)
    if sent.shape != (n, t) or sent.dtype != np.int8:
        raise ValueError(f"sent must be an ({n}, {t}) int8 array, got {sent.shape} {sent.dtype}")
    check_work(f"{t} rounds of {len(hosted)} hosted vertices on {n}",
               *hosted_work(n, len(hosted), t, algorithm))
    views, _, rounds = _run_instance(instance, algorithm, t, hosted, sent)
    return views, np.array(rounds, dtype=np.int8).reshape(t, len(hosted)).T


def _run_instance(instance, algorithm, t, vertices, sent=None):
    """Run `vertices` of `instance` through the round engine as one member.

    Without `sent` they are all n vertices; with it every other vertex
    broadcasts as that (n, t) transcript says. Returns the views, the
    final states and each round's payloads, all listed per vertex.
    """
    views = tuple(instance.view(v) for v in vertices)
    cells = np.arange(len(views))[None]
    fold = deliver = None
    if _overrides_receive(algorithm):
        deliver = _inbox_step(instance, algorithm, vertices)
    else:
        fold = algorithm.members_receiver(_port_sums(instance.mode, instance.ids))
    hosting = None if sent is None else (list(vertices), sent)
    states, index, rounds = _run_rounds(views, cells, algorithm, t, fold, deliver, hosting)

    def per_vertex(values, at):  # a record-only or inbox run hands `cells` back
        return values if at is cells else [values[k] for k in at[0].tolist()]

    return views, per_vertex(states, index), [per_vertex(p, at) for p, at in rounds]


def _inbox_step(instance, algorithm, vertices):
    """The inbox loop of a machine that overrides ``receive``, as a round
    step over the states of `vertices`: each vertex gets the symbols of
    the round, keyed by its own port labels."""
    # v's port row without v, aligned with the round minus v's payload, so
    # a KT1 port labelled id 0 is never taken for v's slot
    delivery = [(v, instance.ports[v][:v] + instance.ports[v][v + 1:]) for v in vertices]
    receive = algorithm.receive

    def step(states, round_no, heard):
        heard = list(map(_BY_CODE, heard[0].tolist()))
        return [receive(state, round_no, dict(zip(row, heard[:v] + heard[v + 1:])))
                for state, (v, row) in zip(states, delivery)]

    return step


def _overrides_receive(algorithm):
    """Whether the machine takes the inbox loop. Read on the class, so a
    wrapper bound on the instance (a tracer, say) does not make a
    record-only machine adaptive."""
    return type(algorithm).receive is not Algorithm.receive


def _port_sums(mode, ids):
    """The sum of each vertex's port labels, in closed form: a KT0 row
    holds 1..n-1 in some order, and a KT1 row every other vertex's id."""
    if mode == KT0:
        n = len(ids)
        return [n * (n - 1) // 2] * n
    total = sum(ids)
    return [total - i for i in ids]


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


def _run_rounds(views, view_index, algorithm, t, fold=None, deliver=None, hosting=None):
    """The one round engine: every run of a machine goes through it.

    Vertex v of member j starts from ``views[view_index[j, v]]``, an
    (m, n) index. A record-only machine (no ``fold``, no ``deliver``)
    initializes once per view and broadcasts once per (view, round).
    With the fold of ``members_receiver`` it folds an (m, n) digest array
    and broadcasts once per distinct (digest, round). With ``deliver``,
    the inbox loop as a step ``(states, round_no, heard) -> states`` over
    one state per view, it broadcasts once per view and round.

    ``hosting = (columns, sent)`` makes the m = 1 member the vertices
    ``columns`` of a run on n vertices, whose others broadcast as the
    (n, t) ``int8`` transcript ``sent`` says. The fold and the step hear
    whole rounds: ``heard[j, u]`` is the code of what u broadcast.

    Returns the distinct final states, the (m, n) index of each vertex's
    among them, and the rounds as (payloads, index) pairs: vertex v of
    member j sent ``payloads[index[j, v]]`` in that round.
    """
    states = [algorithm.initialize(view) for view in views]
    columns, sent = hosting or (slice(None), None)
    vertices = range(view_index.shape[1]) if sent is None else columns
    if fold is not None:
        digests = np.array([state[0] for state in states])[view_index]
        if sent is not None:  # the fold reads whole rounds; unhosted digests are never broadcast
            own = digests
            digests = np.zeros((1, len(sent)), dtype=own.dtype)
            digests[:, columns] = own
    index = view_index
    rounds = []
    for r in range(1, t + 1):
        if fold is not None:
            values, index = np.unique(digests[:, columns], return_inverse=True)
            index = index.reshape(view_index.shape)
            states = [(d,) for d in values.tolist()]
        payloads = [algorithm.broadcast(state, r) for state in states]
        _check_payloads(payloads, r, index, vertices)
        rounds.append((payloads, index))
        if fold is None and deliver is None:
            continue
        heard = np.array(payloads, dtype=np.int8)[index]
        if sent is not None:
            heard, own = sent[None, :, r - 1].copy(), heard
            heard[:, columns] = own
        if fold is not None:
            digests = fold(digests, r, heard)
        else:
            states = deliver(states, r, heard)
    if fold is None:
        return states, view_index, rounds
    values, index = np.unique(digests[:, columns], return_inverse=True)
    return [(d,) for d in values.tolist()], index.reshape(view_index.shape), rounds


@dataclass(frozen=True)
class MemberRuns:
    """What :func:`simulate_members` produced for m members, as arrays.

    ``sent[j, v, r]`` is the code of the Symbol vertex v of member j
    broadcast in round r + 1. ``system_yes[j]`` says whether member j's
    system verdict is YES; it is None unless verdicts were asked for.
    """

    sent: np.ndarray
    system_yes: np.ndarray = None


def simulate_members(neighbors, mode, algorithm, t, verdicts=False):
    """Run `t` rounds on m cycle-family members at once, as arrays.

    ``neighbors[j, v]`` holds the two input neighbors of vertex v in
    member j, an (m, n, 2) integer array. Ids are 0..n-1 and ports
    canonical, as the family fixes them, so no instance is built: in KT0
    the port of v facing u is u + 1 if u < v, else u, and in KT1 it is u.
    The transcripts equal :func:`simulate`'s on each member's instance.

    A machine that does not override ``receive`` runs the round engine
    once for the whole batch: a record-only one broadcasts once per
    distinct (view, round), and one with a ``members_receiver`` fold
    once per distinct (digest, round). A machine that overrides
    ``receive`` runs member by member through :func:`simulate`.

    With ``verdicts`` each member's system verdict is computed too: the
    default ``decide_run`` decides each distinct final state once, and
    an overriding one gets each member's run as :func:`simulate` hands it.
    """
    neighbors = np.asarray(neighbors)
    if neighbors.ndim != 3 or neighbors.shape[2] != 2:
        raise ValueError(f"neighbors must have shape (m, n, 2), got {neighbors.shape}")
    if mode not in (KT0, KT1):
        raise ValueError(f"unknown mode {mode!r}")
    if t < 0:
        raise ValueError("round count must be nonnegative")
    m, n, _ = neighbors.shape
    cls = type(algorithm)
    inbox = _overrides_receive(algorithm)
    fold = None if inbox else algorithm.members_receiver(_port_sums(mode, range(n)))
    hook = verdicts and cls.decide_run is not Algorithm.decide_run
    # Python-level calls: whole runs, at worst one digest per cell, or one
    # per distinct view (an own id and two input ports) and round
    if inbox:
        calls = m * n * (n + t)
    elif fold is not None:
        calls = m * n * t
    else:
        calls = min(m * n, n * (n - 1) * (n - 2) // 2) * (t + 1)
    if hook:
        calls += m * n * (t + 1)
    # the int8 transcripts, and a fold's intp index of each round
    memory = m * n * (2 * t + 64 + (fold is not None) * 8 * t)
    check_work(f"a batch of {m} members on {n} vertices over {t} rounds",
               20 * m * n * (t + 1) + calls * PY_OP, memory)
    vertex = np.arange(n)
    if m and (neighbors.min() < 0 or neighbors.max() >= n or (neighbors == vertex[:, None]).any()):
        raise ValueError(f"input neighbors must be other vertices among 0..{n - 1}")
    if inbox:
        return _members_one_by_one(neighbors, mode, algorithm, t, verdicts)

    lo = neighbors.min(axis=2).astype(np.int64)
    hi = neighbors.max(axis=2).astype(np.int64)
    if mode == KT0:  # the port of v facing u is u + 1 if u < v, else u
        lo, hi = lo + (lo < vertex), hi + (hi < vertex)
    codes = (vertex * n + lo) * n + hi
    keys, view_index = np.unique(codes.ravel(), return_inverse=True)
    view_index = view_index.reshape(m, n)
    all_ids = tuple(range(n)) if mode == KT1 else ()
    views = [
        VertexView(mode, n, key // (n * n), frozenset((key // n % n, key % n)), all_ids)
        for key in keys.tolist()
    ]
    states, state_index, rounds = _run_rounds(views, view_index, algorithm, t, fold)
    sent = np.empty((m, n, t), dtype=np.int8)
    for r, (payloads, index) in enumerate(rounds):
        sent[:, :, r] = np.array(payloads, dtype=np.int8)[index]
    if not verdicts:
        return MemberRuns(sent)
    if not hook:
        said = [algorithm.decide(state) for state in states]
        if any(v not in (Verdict.YES, Verdict.NO) for v in said):
            raise ValueError("need one YES/NO verdict per vertex")
        yes = np.array([v is Verdict.YES for v in said], dtype=bool)
        return MemberRuns(sent, yes[state_index].all(axis=1))
    # the hook reads each member's run as simulate hands it over
    yes = np.empty(m, dtype=bool)
    for j, (vs, ss) in enumerate(zip(view_index.tolist(), state_index.tolist())):
        said = algorithm.decide_run(
            tuple(views[k] for k in vs), tuple(states[k] for k in ss),
            tuple(tuple(map(_BY_CODE, row)) for row in sent[j].tolist()),
        )
        yes[j] = system_verdict(said) is Verdict.YES
    return MemberRuns(sent, yes)


def _members_one_by_one(neighbors, mode, algorithm, t, verdicts):
    """:func:`simulate_members` for a machine that overrides ``receive``."""
    m, n, _ = neighbors.shape
    sent = np.empty((m, n, t), dtype=np.int8)
    yes = np.empty(m, dtype=bool)
    for j, row in enumerate(neighbors.tolist()):
        edges = [(v, u) for v, pair in enumerate(row) for u in pair]
        run = simulate(make_instance(n, edges, mode=mode), algorithm, t)
        sent[j] = run.sent
        yes[j] = run.system_verdict is Verdict.YES
    return MemberRuns(sent, yes if verdicts else None)


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
    wrong_yes = sum(
        1 for inst in yes_family
        if simulate(inst, algorithm, t).system_verdict is Verdict.NO
    )
    wrong_no = sum(
        1 for inst in no_family
        if simulate(inst, algorithm, t).system_verdict is Verdict.YES
    )
    return Fraction(wrong_yes, 2 * len(yes_family)) + Fraction(
        wrong_no, 2 * len(no_family)
    )


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
