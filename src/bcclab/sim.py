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
The round loop hands each round's broadcasts, by sender index, to the
per-run step that ``Algorithm.round_receiver`` returns. Machines that
do not override ``receive`` get no step and are record-only: their
states never change after ``initialize``, and they decide from the
run's broadcasts through ``Algorithm.decide_run``. The default step of
an adaptive machine builds every vertex's port-keyed inbox and calls
``receive``; a machine may instead fold a whole round at once.
"""

import json
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from functools import cached_property

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


def _check_fields(n, mode, ids, input_edges, b):
    """Every instance check but the port rows; edges are normalized pairs."""
    _require_ints("n and b", (n, b))
    if n < 2:
        raise ValueError("an instance needs at least 2 vertices")
    if b < 1:
        raise ValueError("bandwidth b must be >= 1")
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
    """Everything a vertex knows before round 1 (plus the shared coin tape)."""

    mode: str
    n: int
    b: int
    own_id: int
    coins: tuple = ()
    input_ports: frozenset = frozenset()  # KT0: ports carrying input edges
    all_ids: tuple = ()  # KT1 only
    neighbor_ids: frozenset = frozenset()  # KT1: ids across input edges


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
    b: int = 1

    def validate(self):
        _check_fields(self.n, self.mode, self.ids, self.input_edges, self.b)
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

    def view(self, v, coins=()):
        base = dict(mode=self.mode, n=self.n, b=self.b, own_id=self.ids[v], coins=tuple(coins))
        if self.mode == KT0:
            return VertexView(
                input_ports=frozenset(self.ports[v][u] for u in self.input_neighbors[v]),
                **base,
            )
        neighbor_ids = frozenset(self.ids[u] for u in self.input_neighbors[v])
        return VertexView(
            all_ids=self._sorted_ids,
            neighbor_ids=neighbor_ids,
            input_ports=neighbor_ids,  # KT1 port labels are the ids
            **base,
        )

def make_instance(n, input_edges, mode=KT0, ids=None, ports=None, b=1):
    """Build an instance; ids default to 0..n-1 and ports to the mode's canon.

    Explicitly supplied port tables are fully validated; canonical tables
    are derived once the other fields pass, and skip the per-row check.
    """
    if ids is None:
        ids = range(n) if type(n) is int else ()  # the field check names a bad n
    ids = tuple(ids)
    edges = frozenset(_normalize_edge(e) for e in input_edges)
    _check_fields(n, mode, ids, edges, b)
    check_work(f"an instance on {n} vertices", n * n * PY_OP, 22 * n * n)  # the port table
    if ports is None:
        ports = canonical_kt0_ports(ids) if mode == KT0 else kt1_ports(ids)
        return BccInstance(n, mode, ids, edges, ports, b)
    return BccInstance(n, mode, ids, edges, tuple(map(tuple, ports)), b).validate()


class Algorithm:
    """Vertex state machine interface; one shared object drives every vertex.

    The machine must be deterministic given the view (the public coin tape
    lives inside the view). For b = 1 ``broadcast`` returns a single
    Symbol; for b > 1 it may return a tuple of up to b Symbols. ``receive``
    is handed the symbols broadcast in ``round`` as a dict keyed by the
    vertex's own port labels, and returns the successor state.

    The simulator delivers through ``round_receiver``, once per run. A
    machine that does not override ``receive`` is record-only: it gets
    no step, the simulator delivers nothing to it, and its verdicts come
    from ``decide_run``, which sees the run's broadcasts. A machine that
    can fold a whole round without per-vertex inboxes overrides
    ``round_receiver`` instead of ``receive``.
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

    def round_receiver(self, instance):
        """The run's delivery step, or None for a record-only machine.

        The step maps ``(states, round_no, heard)`` to the states after
        the round, where ``heard[u]`` is what vertex u broadcast in it.
        By default each vertex's ``receive`` gets its inbox keyed by its
        own port labels.
        """
        # read on the class, so a wrapper bound on the instance (a tracer,
        # say) does not make a record-only machine adaptive
        if type(self).receive is Algorithm.receive:
            return None
        # delivery[v] = v's port row without v, aligned with heard minus v,
        # so a KT1 port labelled id 0 is never taken for v's own slot
        delivery = [row[:v] + row[v + 1:] for v, row in enumerate(instance.ports)]
        receive = self.receive

        def step(states, round_no, heard):
            return [
                receive(state, round_no, dict(zip(delivery[v], heard[:v] + heard[v + 1:])))
                for v, state in enumerate(states)
            ]

        return step

    def decide_run(self, views, states, sent):
        """One verdict per vertex of a finished run.

        ``sent[v]`` holds vertex v's broadcasts per round, as every other
        vertex received them. The default decides each state on its own.
        """
        return tuple(self.decide(s) for s in states)

    def round_budget(self, instance):
        """Rounds after which decide() is meaningful; None if unconditional."""
        return None


@dataclass(frozen=True)
class SimulationRun:
    """Transcript bundle: everything simulate() produced, immutably.

    ``sent[v]`` holds vertex v's broadcasts per round (a Symbol per round
    for b = 1, otherwise a tuple of Symbols). Received symbols are exposed
    through :meth:`received`, reconstructed from the senders' rows and the
    port tables; by construction the symbol seen at u in round r on the
    port facing v equals sent[v][r-1].
    """

    instance: BccInstance
    t: int
    coins: tuple
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


def _normalize_payload(payload, b, vertex, round_no):
    if isinstance(payload, Symbol):
        if b == 1:
            return payload
        return (payload,)
    payload = tuple(payload)
    if any(not isinstance(s, Symbol) for s in payload):
        raise ProtocolViolation(
            f"vertex {vertex} broadcast a non-symbol value in round {round_no}"
        )
    if len(payload) > b:
        raise ProtocolViolation(
            f"vertex {vertex} broadcast {len(payload)} symbols in round "
            f"{round_no}, bandwidth is {b}"
        )
    if b == 1:
        if len(payload) != 1:
            raise ProtocolViolation(
                f"vertex {vertex} must broadcast exactly one symbol per round "
                f"at b=1 (round {round_no})"
            )
        return payload[0]
    return payload


def simulate(instance, algorithm, t, coins=()):
    """Run `t` synchronous rounds and return the full transcript bundle.

    Round r: every vertex broadcasts a payload computed from its current
    state; the payloads are then delivered (each vertex sees every other
    vertex's payload at the port facing the sender) and the receive step
    advances each state. The state after round r therefore reflects all
    broadcasts of rounds 1..r, and reruns with identical arguments are
    bit-identical.
    """
    if t < 0:
        raise ValueError("round count must be nonnegative")
    n = instance.n
    b = instance.b
    # n t broadcasts, each a Python-level call delivered to n - 1 ports
    check_work(f"{t} rounds on {n} vertices", n * t * (n + PY_OP), 8 * n * t)
    coins = tuple(coins)
    views = tuple(instance.view(v, coins) for v in range(n))
    states = [algorithm.initialize(view) for view in views]
    step = algorithm.round_receiver(instance)
    rounds = []
    for r in range(1, t + 1):
        payloads = [
            _normalize_payload(algorithm.broadcast(states[v], r), b, v, r)
            for v in range(n)
        ]
        rounds.append(payloads)
        if step is not None:
            states = step(states, r, payloads)
    sent = tuple(zip(*rounds)) if rounds else ((),) * n
    verdicts = tuple(algorithm.decide_run(views, states, sent))
    return SimulationRun(instance, t, coins, views, sent, tuple(states), verdicts)


def system_verdict(verdicts):
    """YES iff every vertex said YES; NO otherwise."""
    verdicts = list(verdicts)
    if not verdicts or any(v not in (Verdict.YES, Verdict.NO) for v in verdicts):
        raise ValueError("need one YES/NO verdict per vertex")
    return Verdict.YES if all(v is Verdict.YES for v in verdicts) else Verdict.NO


def evaluate_error(algorithm, t, yes_family, no_family, coins=()):
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
        if simulate(inst, algorithm, t, coins).system_verdict is Verdict.NO
    )
    wrong_no = sum(
        1 for inst in no_family
        if simulate(inst, algorithm, t, coins).system_verdict is Verdict.YES
    )
    return Fraction(wrong_yes, 2 * len(yes_family)) + Fraction(
        wrong_no, 2 * len(no_family)
    )


def instance_to_json(instance, include_ports=True):
    """Serialize to the structured-text instance format."""
    doc = {
        "n": instance.n,
        "mode": instance.mode,
        "b": instance.b,
        "ids": list(instance.ids),
        "input_edges": sorted(list(e) for e in instance.input_edges),
    }
    if include_ports:
        doc["ports"] = [list(row) for row in instance.ports]
    return json.dumps(doc, sort_keys=True)


def instance_from_json(text):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("an instance file holds one JSON object")
    for key in ("n", "input_edges"):
        if key not in doc:
            raise ValueError(f"instance file has no {key!r} key")
    try:
        return make_instance(
            doc["n"], doc["input_edges"], mode=doc.get("mode", KT0),
            ids=doc.get("ids"), ports=doc.get("ports"), b=doc.get("b", 1),
        )
    except TypeError as e:  # a number where a list belongs, or the reverse
        raise ValueError(f"malformed instance file: {e}") from None
