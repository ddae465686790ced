"""Reference vertex state machines for the simulator.

All machines are deterministic and keep their per-vertex state as plain
values that compare with ==. Broadcast payloads are single symbols.

``AlwaysYes``/``AlwaysSilent``, ``IdExchange`` and ``FullExchangeSparse``
are record-only: they do not override ``receive``, so their states stay
as ``initialize`` made them and never hold received rows. What they
learn is read from the run's transcript instead: after ``IdExchange``'s
``bits`` rounds it names the id behind every port, and
``FullExchangeSparse`` decides a whole batch of runs in ``decide_run``,
on their (m, n, t) ``int8`` transcript. States therefore compare only
the initial knowledge; the transcript is compared through
``SimulationRun.codes``.
``RandomTable`` with modulus 1 is record-only too; with modulus > 1 it
is the folding machine: ``members_receiver`` folds a whole round into
every vertex's digest at once, with no inboxes, for one run or for many
family members alike. Its digest is a sum over the inbox, so a round
costs one sum over the broadcasts plus O(1) per vertex.

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

import numpy as np

from .sim import KT1, Algorithm, Symbol, Verdict

# a bit's Symbol: indexing this is about 50 times cheaper than calling the IntEnum
_BITS = (Symbol.ZERO, Symbol.ONE)


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
        return _BITS[(view.own_id >> (round_no - 1)) & 1]

    def decide(self, state):
        return Verdict.YES

    def round_budget(self, instance):
        return self.bits


class FullExchangeSparse(Algorithm):
    """KT1 brute force for sparse inputs: broadcast the neighbor-id list.

    Each vertex serializes its sorted input-neighbor ids into d slots of W
    bits each (LSB first, silent-padded slots for missing neighbors) and
    broadcasts them over d*W rounds. Every vertex then reconstructs the
    whole input graph from all broadcasts and outputs YES iff it is
    connected. Before the budget is exhausted every vertex says YES.

    The graph of vertex v in a run is the run's slot table with row v
    replaced by v's own neighbor list. ``decide_run`` decodes the slot
    tables of a whole batch with array operations and labels the
    components of every member's table at once; a vertex whose own slots
    say exactly its neighbor list decides on that shared graph. Any other
    vertex gets its own graph, labelled in a second batch, so the verdicts
    stay exact for any broadcast rule.
    """

    name = "full-exchange-sparse"

    def __init__(self, max_degree=2):
        if max_degree < 1:
            raise ValueError("max degree must be >= 1")
        self.max_degree = max_degree

    def initialize(self, view):
        if view.mode != KT1:
            raise ValueError("full-exchange-sparse requires KT1 knowledge")
        # KT1 port labels are ids, so the input ports name the neighbors
        neighbors = tuple(sorted(view.input_ports))
        if len(neighbors) > self.max_degree:
            raise ValueError(
                f"vertex {view.own_id} has degree {len(neighbors)} > "
                f"configured bound {self.max_degree}"
            )
        # state = (own sorted neighbor ids, id width W)
        return (neighbors, id_width(view.all_ids))

    def broadcast(self, state, round_no):
        neighbors, w = state
        if round_no > self.max_degree * w:
            return Symbol.SILENT
        slot, bit = divmod(round_no - 1, w)
        if slot >= len(neighbors):
            return Symbol.SILENT
        return _BITS[(neighbors[slot] >> bit) & 1]

    def decide_run(self, views, view_index, states, state_index, codes):
        m, n, t = codes.shape
        d = self.max_degree
        if not views or t < d * id_width(views[0].all_ids):
            return np.ones((m, n), dtype=bool)
        roster = views[0].all_ids
        w = id_width(roster)
        # every receiver reads a slot alike: an all-silent slot is empty,
        # and only ONE sets a bit; ids past int64 decode exactly as objects
        bits = codes[:, :, :d * w].reshape(m, n, d, w)
        dtype = np.int64 if w < 63 else object
        value = sum((bits[..., k] == Symbol.ONE).astype(dtype) << k for k in range(w))
        empty = (bits == Symbol.SILENT).all(axis=3)
        # a slot as the roster index of its id, -1 if empty or off the roster
        ids = np.array(roster, dtype=dtype)
        at = np.minimum(np.searchsorted(ids, value), n - 1)
        slots = np.where((ids[at] == value) & ~empty, at, -1).astype(np.int32)
        del bits, value, empty, at
        rank = {x: i for i, x in enumerate(roster)}
        src = np.array([rank[view.own_id] for view in views], dtype=np.int32)[view_index]
        # each vertex's neighbor list as its slots should say it
        own = np.array([[rank[x] for x in state[0]] + [-1] * (d - len(state[0]))
                        for state in states], dtype=np.int32).reshape(-1, d)
        yes = np.repeat(_connected(src, slots)[:, None], n, axis=1)
        j, v = np.nonzero((slots != own[state_index]).any(axis=2))
        if len(j):
            mine = slots[j]
            mine[np.arange(len(j)), v] = own[state_index[j, v]]
            yes[j, v] = _connected(src[j], mine)
        return yes

    def round_budget(self, instance):
        return self.max_degree * id_width(instance.ids)


def _connected(src, slots):
    """Whether graph i of the (b, n, d) ``int32`` batch, on the vertices
    0..n-1, joining ``src[i, v]`` to each ``slots[i, v, s] >= 0``, is
    connected. All b graphs are labelled at once by hooking each root onto
    the smallest root an edge reaches, then pointer jumping (Shiloach and
    Vishkin, 1982); a root is its tree's smallest vertex, so a graph is
    connected iff vertex 0 is every vertex's root."""
    # numpy, because each array pass labels all b graphs at once. One graph
    # alone is cheaper in pure Python: on one 800-vertex reduction graph
    # (n = 200, general variant; 2-core x86-64 host) this took about 200 us
    # plus the build of its int32 arrays, unionfind.component_roots 100 us
    b, n, _ = slots.shape
    base = np.arange(0, b * n, n, dtype=np.int32)[:, None]
    edge = slots >= 0
    tail = np.broadcast_to((src + base)[:, :, None], slots.shape)[edge]
    head = (slots + base[:, :, None])[edge]
    label = np.arange(b * n, dtype=np.int32)
    while True:
        x, y = label[tail], label[head]
        apart = x != y
        if not apart.any():
            return (label.reshape(b, n) == base).all(axis=1)
        # an edge inside one tree stays inside it
        tail, head, x, y = tail[apart], head[apart], x[apart], y[apart]
        np.minimum.at(label, np.maximum(x, y), np.minimum(x, y))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


class RandomTable(Algorithm):
    """A pseudorandomly drawn deterministic machine.

    The broadcast in round r is a fixed function of (seed, r, digest)
    where the digest folds the received history into Z_modulus. On KT0
    every vertex broadcasts the same sequence at every modulus: every
    port row sums to n(n-1)/2 and every digest starts at 0, so by the
    fold below the digests never part. Only on KT1, whose port sums
    differ, can a modulus above 1 make vertices diverge. Useful for
    adversarial trials that need a deterministic but arbitrary-looking
    machine.

    With modulus 1 the digest never changes, so the machine is
    record-only. A larger modulus folds every round into the digest:
    after a round at v it is
    ``(31*acc + sum over u != v of (7*port_v(u) + sym_u + 1)) mod modulus``.
    The port terms and the symbol terms are added separately, so the sum
    splits into ``7*R_v``, with ``R_v`` the sum of v's port labels (fixed
    for the run), plus ``H - (sym_v + 1)``, with ``H`` the sum of
    ``sym_u + 1`` over every vertex (one per round). ``members_receiver``
    reduces every term mod the modulus first, so int64 arrays stay exact
    while 33 * (modulus - 1) < 2**63; past that the fold runs on Python
    integers in object arrays, exact at any modulus.
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
        return (0,)

    def broadcast(self, state, round_no):
        key = (round_no, state[0])
        symbol = self._symbols.get(key)
        if symbol is None:
            symbol = self._symbols[key] = Symbol(_stable_trit(self.seed, *key))
        return symbol

    def decide(self, state):
        return Verdict.YES

    def members_receiver(self, port_sums):
        modulus = self.modulus
        if modulus == 1:
            return None
        # 31 acc plus three terms reduced mod the modulus
        dtype = np.int64 if 33 * (modulus - 1) < 2**63 else object
        ports = np.array([7 * s % modulus for s in port_sums], dtype=dtype)

        def step(digests, round_no, heard):
            # H minus the 1 of v's own term
            everyone = (heard.sum(axis=1, dtype=dtype) + heard.shape[1] - 1) % modulus
            return (31 * digests + ports + everyone[:, None] - heard) % modulus

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
