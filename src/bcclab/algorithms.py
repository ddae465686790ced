"""Reference vertex state machines for the simulator.

All machines are deterministic and keep their per-vertex state as plain
values that compare with ==. Broadcast payloads are single symbols
(b = 1).

``AlwaysYes``/``AlwaysSilent``, ``IdExchange`` and ``FullExchangeSparse``
are record-only: they do not override ``receive``, so their states stay
as ``initialize`` made them and never hold received rows. What they
learn is read from the run's transcript instead: ``IdExchange.port_ids``
decodes a vertex's ports from the run, and ``FullExchangeSparse``
decides in ``decide_run``. States therefore compare only the initial
knowledge; the transcript is compared through ``SimulationRun.sent``.
``RandomTable`` with modulus 1 is record-only too; with modulus > 1 it
is the adaptive machine, which folds every round into its state. It
overrides ``round_receiver`` instead of ``receive``: its digest is a sum
over the inbox, so a whole round costs one sum over the broadcasts plus
O(1) per vertex, with no inboxes.

Round budgets
-------------
* id-exchange: W rounds, where W is the configured id bit width; after
  W rounds every vertex has decoded the id behind each port.
* full-exchange-sparse: d*W rounds for maximum input degree d and id
  width W = bit length of the largest id; after that every vertex has
  rebuilt the entire input graph and decides connectivity locally.
"""

import hashlib
import inspect

from .sim import KT1, Algorithm, Symbol, Verdict
from .unionfind import DisjointSet


def id_width(ids):
    """W of the round budgets: the bit length of the largest id, at least 1."""
    return max(1, max(ids).bit_length())


def _stable_trit(*parts):
    payload = ":".join(str(p) for p in parts).encode()
    digest = hashlib.blake2b(payload, digest_size=4).digest()
    return int.from_bytes(digest, "big") % 3


class AlwaysYes(Algorithm):
    """Broadcasts silence forever and accepts every input."""

    name = "always-yes"

    def initialize(self, view):
        return ()

    def broadcast(self, state, round_no):
        return Symbol.SILENT

    def decide(self, state):
        return Verdict.YES


class AlwaysSilent(AlwaysYes):
    """Alias machine kept for broadcast-pattern-centric experiments."""

    name = "always-silent"


class IdExchange(Algorithm):
    """KT0 bootstrap: broadcast the own id bit-serially, LSB first.

    ``bits`` must be at least the bit length of the largest id in the
    instance (a shared convention, e.g. ceil(log2(max id + 1))). After
    ``bits`` rounds the id behind every port can be decoded from the
    transcript, which upgrades a KT0 vertex to KT1-level knowledge.
    """

    name = "id-exchange"

    def __init__(self, bits):
        if bits < 1:
            raise ValueError("id width must be >= 1")
        self.bits = bits

    def initialize(self, view):
        return view

    def broadcast(self, view, round_no):
        if round_no > self.bits:
            return Symbol.SILENT
        return Symbol((view.own_id >> (round_no - 1)) & 1)

    def decide(self, state):
        return Verdict.YES

    def round_budget(self, instance):
        return self.bits

    def port_ids(self, run, v):
        """Port -> id map that vertex v of `run` decodes from its receptions.

        Only meaningful after `bits` rounds.
        """
        ports = run.instance.ports[v]
        decoded = {ports[u]: 0 for u in range(run.instance.n) if u != v}
        for r in range(1, min(self.bits, run.t) + 1):
            for port, sym in run.received(v, r).items():
                if sym is Symbol.ONE:
                    decoded[port] |= 1 << (r - 1)
        return decoded


class FullExchangeSparse(Algorithm):
    """KT1 brute force for sparse inputs: broadcast the neighbor-id list.

    Each vertex serializes its sorted input-neighbor ids into d slots of W
    bits each (LSB first, silent-padded slots for missing neighbors) and
    broadcasts them over d*W rounds. Every vertex then reconstructs the
    whole input graph from all broadcasts and outputs YES iff it is
    connected. Before the budget is exhausted every vertex says YES.

    A vertex's graph is its own neighbor list plus the slots of every
    other vertex. ``decide_run`` decodes the slot table of the whole run
    once; where a vertex's own slots say exactly its neighbor list, its
    graph is the union of all slots, shared by every such vertex. Any
    other vertex gets its own graph, so the verdicts stay exact for any
    broadcast rule.
    """

    name = "full-exchange-sparse"

    def __init__(self, max_degree=2):
        if max_degree < 1:
            raise ValueError("max degree must be >= 1")
        self.max_degree = max_degree

    def initialize(self, view):
        if view.mode != KT1:
            raise ValueError("full-exchange-sparse requires KT1 knowledge")
        neighbors = tuple(sorted(view.neighbor_ids))
        if len(neighbors) > self.max_degree:
            raise ValueError(
                f"vertex {view.own_id} has degree {len(neighbors)} > "
                f"configured bound {self.max_degree}"
            )
        # state = (view, own sorted neighbor ids, id width W)
        return (view, neighbors, id_width(view.all_ids))

    def broadcast(self, state, round_no):
        _, neighbors, w = state
        if round_no > self.max_degree * w:
            return Symbol.SILENT
        slot, bit = divmod(round_no - 1, w)
        if slot >= len(neighbors):
            return Symbol.SILENT
        return Symbol((neighbors[slot] >> bit) & 1)

    def decide_run(self, views, states, sent):
        n = len(views)
        all_ids = views[0].all_ids
        w = id_width(all_ids)
        if len(sent[0]) < self.max_degree * w:
            return (Verdict.YES,) * n
        ids = [view.own_id for view in views]
        slots = [self._decode(row, w) for row in sent]
        shared = self._connected(
            all_ids, [(ids[u], x) for u, row in enumerate(slots) for x in row]
        )
        verdicts = []
        for v, state in enumerate(states):
            if slots[v] == list(state[1]):
                verdicts.append(shared)
                continue
            edges = [(ids[v], x) for x in state[1]]
            edges += [(ids[u], x) for u, row in enumerate(slots) if u != v for x in row]
            verdicts.append(self._connected(all_ids, edges))
        return tuple(verdicts)

    def _decode(self, row, w):
        """The ids in one vertex's slots, read as every receiver reads them.

        An all-silent slot is empty, and only ONE sets a bit (a b > 1
        payload is neither, so it reads as 0).
        """
        decoded = []
        for slot in range(self.max_degree):
            bits = row[slot * w : (slot + 1) * w]
            if all(s is Symbol.SILENT for s in bits):
                continue
            decoded.append(sum(1 << k for k, s in enumerate(bits) if s is Symbol.ONE))
        return decoded

    @staticmethod
    def _connected(ids, edges):
        index = {x: i for i, x in enumerate(ids)}
        ds = DisjointSet(len(ids))
        for x, y in edges:
            if x != y and x in index and y in index:
                ds.union(index[x], index[y])
        root = ds.find(0)
        one = all(ds.find(i) == root for i in range(len(ids)))
        return Verdict.YES if one else Verdict.NO

    def round_budget(self, instance):
        return self.max_degree * id_width(instance.ids)


class RandomTable(Algorithm):
    """A pseudorandomly drawn deterministic machine.

    The broadcast in round r is a fixed function of (seed, r, digest)
    where the digest folds the received history into Z_modulus; with
    modulus 1 every vertex broadcasts the same sequence, larger moduli
    give partially diverging sequences. Useful for adversarial trials
    that need a deterministic but arbitrary-looking machine.

    With modulus 1 the digest never changes, so the machine is
    record-only. A larger modulus folds every round into the digest:
    after a round at v it is
    ``(31*acc + sum over u != v of (7*port_v(u) + sym_u + 1)) mod modulus``.
    The port terms and the symbol terms are added separately, so the sum
    splits into ``7*R_v``, with ``R_v`` the sum of v's port labels (fixed
    for the run), plus ``H - (sym_v + 1)``, with ``H`` the sum of
    ``sym_u + 1`` over every vertex (one per round). Exact integers keep
    it right for ids of any size. Symbols are single, so folding needs
    b = 1.
    """

    name = "random-table"

    def __init__(self, seed, modulus=1):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.seed = seed
        self.modulus = modulus
        # (round, digest) -> symbol; a run meets at most t * modulus of them
        self._symbols = {}

    def initialize(self, view):
        if self.modulus > 1 and view.b != 1:
            raise ValueError(f"random-table with modulus > 1 requires b = 1, got b = {view.b}")
        return (0,)

    def broadcast(self, state, round_no):
        key = (round_no, state[0])
        symbol = self._symbols.get(key)
        if symbol is None:
            symbol = self._symbols[key] = Symbol(_stable_trit(self.seed, *key))
        return symbol

    def decide(self, state):
        return Verdict.YES

    def round_receiver(self, instance):
        modulus = self.modulus
        if modulus == 1:
            return None
        # the zero diagonal drops v's own slot from its row sum
        port_terms = [7 * sum(row) for row in instance.ports]

        def step(states, round_no, heard):
            everyone = sum(heard) + len(heard) - 1  # H minus the 1 of v's own term
            return [
                ((31 * state[0] + ports + everyone - sym) % modulus,)
                for state, ports, sym in zip(states, port_terms, heard)
            ]

        return step


def reference_algorithms():
    """Catalog of the shipped machines, keyed by CLI name."""
    return {
        AlwaysYes.name: AlwaysYes,
        AlwaysSilent.name: AlwaysSilent,
        IdExchange.name: IdExchange,
        FullExchangeSparse.name: FullExchangeSparse,
        RandomTable.name: RandomTable,
    }


def make_algorithm(name, instance=None, **params):
    """Instantiate a cataloged machine, filling defaults from the instance."""
    catalog = reference_algorithms()
    if name not in catalog:
        raise ValueError(f"unknown algorithm {name!r}; know {sorted(catalog)}")
    cls = catalog[name]
    accepted = inspect.signature(cls).parameters
    for key in sorted(params):
        if key not in accepted:
            raise ValueError(f"machine {name} takes no parameter {key!r}")
    if cls is IdExchange and "bits" not in params:
        if instance is None:
            raise ValueError("id-exchange needs bits= or an instance")
        params["bits"] = id_width(instance.ids)
    if cls is RandomTable and "seed" not in params:
        params["seed"] = 0
    return cls(**params)
