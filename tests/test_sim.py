"""Simulator semantics: delivery, verdicts, knowledge modes, error eval."""

import dataclasses
import json
import random
from fractions import Fraction
from functools import cache
from itertools import permutations, product

import numpy as np
import pytest

from bcclab import crossing as cx
from bcclab import families as fm
from bcclab import partitions as pt
from bcclab import reduction as rd
from bcclab import sim
from bcclab.algorithms import (
    AlwaysSilent,
    AlwaysYes,
    FullExchangeSparse,
    IdExchange,
    RandomTable,
    _stable_trit,
    make_algorithm,
    reference_algorithms,
)
from bcclab.errors import ProtocolViolation, ResourceLimitError
from bcclab.sim import (
    KT0,
    KT1,
    Algorithm,
    Symbol,
    Verdict,
    VertexView,
    evaluate_error,
    instance_from_json,
    instance_to_json,
    make_instance,
    simulate,
    simulate_hosted,
    simulate_members,
    system_verdict,
)
from oracles import directed_input_edges, received


def port_ids(algorithm, run, v):
    """Port -> id map that vertex v of `run` decodes from its receptions
    under the machine ``IdExchange(bits)``.

    Only meaningful after `bits` rounds.
    """
    ports = run.instance.port_row(v)
    # the symbol v receives at the port facing u is u's broadcast
    ones = (run.codes[:, :algorithm.bits] == Symbol.ONE).tolist()
    return {ports[u]: sum(1 << r for r, one in enumerate(row) if one)
            for u, row in enumerate(ones) if u != v}


def all_port_tables(n, limit=5):
    """Every KT0 port-table assignment; ((n-1)!)^n of them, so n is capped."""
    if n > limit:
        raise ResourceLimitError(
            f"full port-space enumeration needs n<={limit}, got n={n}"
        )
    per_vertex = []
    others = [[u for u in range(n) if u != v] for v in range(n)]
    for v in range(n):
        tables = []
        for perm in permutations(range(1, n)):
            row = [0] * n
            for u, p in zip(others[v], perm):
                row[u] = p
            tables.append(tuple(row))
        per_vertex.append(tables)
    for combo in product(*per_vertex):
        yield tuple(combo)


def canonical_kt0_ports(ids):
    """The KT0 port law as a full table, the oracle for ``sim``'s: port of
    v facing u = rank of u by id among the vertices other than v, from 1."""
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
    """The KT1 port law as a full table: the edge {u,v} sits at port ids[u]
    on v's side."""
    base = list(ids)
    rows = []
    for v in range(len(ids)):
        row = base.copy()
        row[v] = 0
        rows.append(tuple(row))
    return tuple(rows)


def random_kt0_ports(rng, n):
    """Independent uniformly random KT0 port bijections, one per vertex."""
    rows = []
    for v in range(n):
        labels = list(range(1, n))
        rng.shuffle(labels)
        labels.insert(v, 0)
        rows.append(tuple(labels))
    return tuple(rows)


def law_table(mode, ids):
    return canonical_kt0_ports(ids) if mode == KT0 else kt1_ports(ids)


def full_table_cross(instance, e1, e2):
    """:func:`bcclab.crossing.cross` on the whole port table, through
    make_instance: the four endpoints swap the ports facing the two
    tails (heads), and the input edges follow."""
    rows = [list(row) for row in instance.ports]
    v1, u1, v2, u2 = e1.head, e1.tail, e2.head, e2.tail
    for a, x, y in ((v1, u1, u2), (u1, v1, v2), (v2, u2, u1), (u2, v2, v1)):
        rows[a][x], rows[a][y] = rows[a][y], rows[a][x]
    edges = set(instance.input_edges) - {tuple(sorted((v1, u1))), tuple(sorted((v2, u2)))}
    edges |= {tuple(sorted((v1, u2))), tuple(sorted((v2, u1)))}
    return make_instance(instance.n, edges, ids=instance.ids, ports=rows)


def random_ids(rng, n):
    """n distinct ids, neither contiguous nor in vertex order."""
    return rng.sample(range(3 * n + 5), n)


class RecordingIdExchange(IdExchange):
    """IdExchange that also keeps every inbox, sorted by port, in its state."""

    def initialize(self, view):
        return (view, ())

    def broadcast(self, state, round_no):
        return super().broadcast(state[0], round_no)

    def receive(self, state, round_no, inbox):
        return (state[0], state[1] + (tuple(sorted(inbox.items())),))


class InboxRandomTable(RandomTable):
    """RandomTable folding each port-keyed inbox through ``receive``.

    The per-inbox reference for ``RandomTable``'s round fold: overriding
    ``receive`` sends it down simulate's per-vertex inbox loop at any
    modulus.
    """

    def receive(self, state, round_no, inbox):
        acc = state[0] * 31
        for port, sym in inbox.items():
            acc += port * 7 + int(sym) + 1
        return (acc % self.modulus,)


def cycle_instance(n, mode=KT0, **kw):
    return make_instance(n, [(i, (i + 1) % n) for i in range(n)], mode=mode, **kw)


class TestInstanceValidation:
    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="injective"):
            make_instance(3, [(0, 1)], ids=[1, 1, 2])

    def test_no_bandwidth_parameter(self):
        with pytest.raises(TypeError):
            make_instance(4, [], b=2)

    def test_edge_outside_network(self):
        with pytest.raises(ValueError, match="outside"):
            make_instance(3, [(0, 3)])

    def test_kt0_ports_must_be_bijection(self):
        ports = [[0, 1, 1], [1, 0, 2], [1, 2, 0]]
        with pytest.raises(ValueError, match="vertex 0"):
            make_instance(3, [(0, 1)], ports=ports)

    def test_kt1_port_law_enforced(self):
        good = make_instance(3, [(0, 1)], mode=KT1, ids=[5, 9, 2])
        for v in range(3):
            for u in range(3):
                if u != v:
                    assert good.port_at(v, u) == good.ids[u]
        with pytest.raises(ValueError, match="port law"):
            make_instance(
                3, [(0, 1)], mode=KT1, ids=[5, 9, 2],
                ports=[[0, 1, 2], [5, 0, 2], [5, 9, 0]],
            )

    def test_canonical_kt0_ports_follow_id_ranks(self):
        inst = make_instance(4, [], ids=[30, 10, 20, 40])
        # at vertex 0 (id 30): ranks among others by id: 10->1, 20->2, 40->3
        assert inst.port_at(0, 1) == 1
        assert inst.port_at(0, 2) == 2
        assert inst.port_at(0, 3) == 3
        # at vertex 3 (id 40, the largest): 10->1, 20->2, 30->3
        assert inst.port_at(3, 0) == 3

    def test_port_space_enumeration(self):
        tables = list(all_port_tables(3))
        assert len(tables) == (2) ** 3  # ((n-1)!)^n
        assert len(set(tables)) == len(tables)
        with pytest.raises(ResourceLimitError):
            next(all_port_tables(6))


class TestPortLaw:
    """The one port law against the full tables it replaced, the oracle."""

    def test_ports_and_entries_follow_the_law(self):
        rng = random.Random(20)
        for n in range(2, 41):
            for mode in (KT0, KT1):
                ids = random_ids(rng, n)
                inst = make_instance(n, [], mode=mode, ids=ids)
                table = law_table(mode, ids)
                assert inst.rewired == ()
                assert inst.ports == table
                assert [[inst.port_at(v, u) for u in range(n)] for v in range(n)] == \
                    [list(row) for row in table]
                # an explicit law table keeps no row; a random KT0 table
                # keeps the rows that differ from the law
                assert make_instance(n, [], mode=mode, ids=ids, ports=table) == inst
                if mode == KT0:
                    ports = random_kt0_ports(rng, n)
                    other = make_instance(n, [], ids=ids, ports=ports)
                    assert other.ports == ports
                    assert other.rewired == tuple(
                        (v, row) for v, row in enumerate(ports) if row != table[v])
                    assert all(other.port_at(v, u) == ports[v][u]
                               for v in range(n) for u in range(n))

    def test_member_formula_is_the_law(self):
        # simulate_members computes KT0 views from u + 1 if u < v, else u;
        # InputPorts says in round r whether port r carries an input edge
        rng = np.random.default_rng(21)
        for n in range(3, 12):
            table = canonical_kt0_ports(range(n))
            assert make_instance(n, []).ports == table
            shift = rng.integers(1, n, size=(50, n, 2))
            shift[:, :, 1] = (shift[:, :, 0] + rng.integers(1, n - 1, size=(50, n))) % n
            shift[:, :, 1] += shift[:, :, 1] == 0
            neighbors = (np.arange(n)[:, None] + shift) % n
            codes = simulate_members(neighbors, KT0, InputPorts(), n - 1).codes
            want = [[[int(r in {table[v][u] for u in nbr}) for r in range(1, n)]
                     for v, nbr in enumerate(member)] for member in neighbors.tolist()]
            assert codes.tolist() == want

    def test_crossings_equal_the_full_table_cross(self):
        rng = random.Random(22)
        for n in range(4, 16):
            for ports in (None, random_kt0_ports(rng, n)):
                inst = make_instance(n, [(i, (i + 1) % n) for i in range(n)],
                                     ids=random_ids(rng, n), ports=ports)
                for _ in range(6):  # a chain: rows are rewired, crossed back, ...
                    pairs = [(e1, e2) for e1 in directed_input_edges(inst)
                             for e2 in directed_input_edges(inst)
                             if cx.are_independent(inst, e1, e2)]
                    if not pairs:
                        break
                    e1, e2 = rng.choice(pairs)
                    crossed = cx.cross(inst, e1, e2)
                    oracle = full_table_cross(inst, e1, e2)
                    assert crossed == oracle
                    assert crossed.ports == oracle.ports
                    assert crossed.input_neighbors == oracle.input_neighbors
                    assert crossed.view(e1.head) == oracle.view(e1.head)
                    back = cx.cross(crossed, cx.oriented_edge(crossed, e1.head, e2.tail),
                                    cx.oriented_edge(crossed, e2.head, e1.tail))
                    assert back == inst and back.ports == inst.ports
                    inst = crossed

    def test_crossing_back_keeps_no_row(self):
        for n in (6, 9):
            inst = make_instance(n, [(i, (i + 1) % n) for i in range(n)], ids=range(n, 0, -1))
            for e1 in directed_input_edges(inst):
                for e2 in directed_input_edges(inst):
                    if not cx.are_independent(inst, e1, e2):
                        continue
                    crossed = cx.cross(inst, e1, e2)
                    assert [v for v, _ in crossed.rewired] == sorted(
                        {e1.head, e1.tail, e2.head, e2.tail})
                    back = cx.cross(crossed, cx.oriented_edge(crossed, e1.head, e2.tail),
                                    cx.oriented_edge(crossed, e2.head, e1.tail))
                    assert back == inst and back.rewired == ()

    def test_json_round_trips(self):
        rng = random.Random(23)
        for n in range(2, 13):
            for mode in (KT0, KT1):
                ids = random_ids(rng, n)
                edges = rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)],
                                   rng.randrange(n))
                ports = random_kt0_ports(rng, n) if mode == KT0 else None
                inst = make_instance(n, edges, mode=mode, ids=ids, ports=ports)
                text = instance_to_json(inst)
                # the table is written out in full, as the law's tables were
                doc = {"n": n, "mode": mode, "b": 1, "ids": ids,
                       "input_edges": sorted(list(e) for e in inst.input_edges),
                       "ports": [list(row) for row in ports or law_table(mode, ids)]}
                assert text == json.dumps(doc, sort_keys=True)
                assert instance_from_json(text) == inst


class TestSimulate:
    def test_always_silent_transcript(self):
        inst = cycle_instance(5)
        run = simulate(inst, AlwaysSilent(), 3)
        for v in range(5):
            assert run.sent[v] == (Symbol.SILENT,) * 3
            for r in range(1, 4):
                assert set(received(run, v, r).values()) == {Symbol.SILENT}

    def test_broadcast_consistency(self):
        inst = cycle_instance(6)
        algo = RandomTable(seed=3, modulus=3)
        run = simulate(inst, algo, 4)
        for v in range(6):
            for r in range(1, 5):
                inbox = received(run, v, r)
                for u in range(6):
                    if u != v:
                        assert inbox[inst.port_at(v, u)] == run.sent[u][r - 1]

    def test_determinism(self):
        inst = cycle_instance(7)
        algo = RandomTable(seed=11, modulus=2)
        r1 = simulate(inst, algo, 5)
        r2 = simulate(inst, algo, 5)
        assert r1.sent == r2.sent
        assert r1.states == r2.states
        assert r1.verdicts == r2.verdicts

    def test_zero_rounds(self):
        run = simulate(cycle_instance(4), AlwaysYes(), 0)
        assert run.sent == ((), (), (), ())
        assert run.system_verdict is Verdict.YES

    def test_locality_under_internal_relabeling(self):
        # permuting the hidden vertex numbering (carrying ids, ports and
        # edges along) must not change any vertex's state trajectory
        rng = random.Random(4)
        n = 7
        inst = cycle_instance(n, ports=random_kt0_ports(rng, n))
        perm = list(range(n))
        rng.shuffle(perm)
        ids2 = [0] * n
        ports2 = [[0] * n for _ in range(n)]
        for v in range(n):
            ids2[perm[v]] = inst.ids[v]
            for u in range(n):
                if u != v:
                    ports2[perm[v]][perm[u]] = inst.ports[v][u]
        edges2 = [(perm[u], perm[v]) for u, v in inst.input_edges]
        inst2 = make_instance(n, edges2, ids=ids2, ports=ports2)
        algo = IdExchange(bits=3)
        run1 = simulate(inst, algo, 3)
        run2 = simulate(inst2, algo, 3)
        for v in range(n):
            assert run1.states[v] == run2.states[perm[v]]
            assert run1.sent[v] == run2.sent[perm[v]]
            assert port_ids(algo, run1, v) == port_ids(algo, run2, perm[v])
        # adaptive machines: the recorder takes the inbox loop and keeps
        # every port-keyed inbox, RandomTable folds them in the engine
        for adaptive in (RecordingIdExchange(bits=3), RandomTable(seed=4, modulus=3)):
            run1 = simulate(inst, adaptive, 4)
            run2 = simulate(inst2, adaptive, 4)
            for v in range(n):
                assert run1.states[v] == run2.states[perm[v]]
                assert run1.sent[v] == run2.sent[perm[v]]
                for r in range(1, 5):
                    assert received(run1, v, r) == received(run2, perm[v], r)
        # the recorder's inboxes are the transcript read through the ports
        run = simulate(inst, RecordingIdExchange(bits=3), 4)
        assert len(set(run.states)) == n
        for v in range(n):
            assert run.states[v][1] == tuple(
                tuple(sorted(received(run, v, r).items())) for r in range(1, 5)
            )

    def test_no_public_tape(self):
        # a fixed public tape is a constructor parameter of the machine, so
        # no entry point takes one
        inst = cycle_instance(4)
        calls = [
            lambda: simulate(inst, AlwaysYes(), 1, ()),
            lambda: evaluate_error(AlwaysYes(), 1, [inst], [inst], ()),
            lambda: inst.view(0, ()),
            lambda: cx.states_identical(inst, inst, AlwaysYes(), 1, ()),
            lambda: rd.two_party_simulate(AlwaysYes(), "(1)(2)", "(1)(2)", rd.GENERAL, 1, ()),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()
        assert [f.name for f in dataclasses.fields(VertexView)] == [
            "mode", "n", "own_id", "input_ports", "all_ids"
        ]

    def test_views_hold_input_port_labels(self):
        ids = [10, 3, 7, 22, 5]
        for mode, labels in ((KT0, lambda inst, v, u: inst.ports[v][u]),
                             (KT1, lambda inst, v, u: inst.ids[u])):  # KT1 labels are ids
            inst = cycle_instance(5, mode=mode, ids=ids)
            for v in range(5):
                view = inst.view(v)
                assert (view.mode, view.n, view.own_id) == (mode, 5, ids[v])
                assert view.input_ports == {labels(inst, v, u) for u in inst.input_neighbors[v]}
                assert view.all_ids == (tuple(sorted(ids)) if mode == KT1 else ())


class TestBandwidth:
    class TwoSymbols(Algorithm):
        def initialize(self, view):
            return ()

        def broadcast(self, state, round_no):
            return (Symbol.ZERO, Symbol.ONE)

        def receive(self, state, round_no, inbox):
            return state

        def decide(self, state):
            return Verdict.YES

    def test_overflow_names_vertex_and_round(self):
        with pytest.raises(ProtocolViolation, match="vertex 0.*round 1"):
            simulate(cycle_instance(4), self.TwoSymbols(), 1)

    class EmptyAtB1(Algorithm):
        def initialize(self, view):
            return ()

        def broadcast(self, state, round_no):
            return ()

        def receive(self, state, round_no, inbox):
            return state

        def decide(self, state):
            return Verdict.YES

    def test_b1_requires_exactly_one_symbol(self):
        with pytest.raises(ProtocolViolation, match="exactly one"):
            simulate(cycle_instance(4), self.EmptyAtB1(), 1)

    class OddOneOut(Algorithm):
        """The vertex with id 2 broadcasts `payload` in round 2."""

        def __init__(self, payload):
            self.payload = payload

        def initialize(self, view):
            return view.own_id

        def broadcast(self, state, round_no):
            return self.payload if (state, round_no) == (2, 2) else Symbol.SILENT

        def decide(self, state):
            return Verdict.YES

    @pytest.mark.parametrize("payload", [(Symbol.ONE,), 1, "1", None])
    def test_anything_but_one_symbol_is_a_violation(self, payload):
        with pytest.raises(ProtocolViolation, match="vertex 2 .* round 2"):
            simulate(cycle_instance(4), self.OddOneOut(payload), 3)


class TestSystemVerdict:
    def test_all_yes(self):
        assert system_verdict([Verdict.YES] * 4) is Verdict.YES

    def test_one_no(self):
        assert system_verdict([Verdict.YES, Verdict.NO, Verdict.YES]) is Verdict.NO

    def test_all_no(self):
        assert system_verdict([Verdict.NO] * 3) is Verdict.NO

    def test_missing_verdict(self):
        with pytest.raises(ValueError):
            system_verdict([Verdict.YES, None])
        with pytest.raises(ValueError):
            system_verdict([])


class TestIdExchange:
    def test_learns_every_port_id(self):
        rng = random.Random(1)
        inst = cycle_instance(6, ids=[3, 7, 1, 0, 5, 2],
                              ports=random_kt0_ports(rng, 6))
        bits = max(inst.ids).bit_length()
        algo = IdExchange(bits=bits)
        run = simulate(inst, algo, bits)
        for v in range(6):
            decoded = port_ids(algo, run, v)
            truth = {inst.port_at(v, u): inst.ids[u] for u in range(6) if u != v}
            assert decoded == truth


def per_vertex_verdicts(run, algo):
    """FullExchangeSparse verdicts with every vertex decoding on its own.

    The oracle for ``decide_run``: vertex v reads each sender's d slots
    of W bits from its own receptions (KT1 ports are the sender ids),
    adds its own neighbor list and decides whether that graph connects
    every id.
    """
    verdicts = []
    for v, view in enumerate(run.views):
        w = max(1, max(view.all_ids).bit_length())
        if run.t < algo.max_degree * w:
            verdicts.append(Verdict.YES)
            continue
        rows = [received(run, v, r) for r in range(1, run.t + 1)]
        edges = {(view.own_id, x) for x in view.input_ports}  # KT1 labels are ids
        for sender in view.all_ids:
            if sender == view.own_id:
                continue
            for slot in range(algo.max_degree):
                bits = [rows[slot * w + bit][sender] for bit in range(w)]
                if all(s is Symbol.SILENT for s in bits):
                    continue
                value = sum(1 << bit for bit, s in enumerate(bits) if s is Symbol.ONE)
                edges.add((sender, value))
        adjacent = {x: set() for x in view.all_ids}
        for a, c in edges:
            if a != c and a in adjacent and c in adjacent:
                adjacent[a].add(c)
                adjacent[c].add(a)
        reached = {view.all_ids[0]}
        frontier = [view.all_ids[0]]
        while frontier:
            for y in adjacent[frontier.pop()] - reached:
                reached.add(y)
                frontier.append(y)
        one = reached == set(view.all_ids)
        verdicts.append(Verdict.YES if one else Verdict.NO)
    return tuple(verdicts)


class MisreportingExchange(FullExchangeSparse):
    """Vertex `liar` broadcasts `fake` in place of its first neighbor."""

    def __init__(self, liar, fake, max_degree=2):
        super().__init__(max_degree)
        self.liar, self.fake = liar, fake

    def initialize(self, view):
        return super().initialize(view) + (view.own_id,)

    def broadcast(self, state, round_no):
        neighbors, w, own_id = state
        if own_id == self.liar:
            neighbors = tuple(sorted((self.fake,) + neighbors[1:]))
        return super().broadcast((neighbors, w), round_no)


def _random_reduction(rng, n):
    return rd.build_reduction(
        rd.TWO_REGULAR, pt.random_pair_partition(rng, n), pt.random_pair_partition(rng, n)
    ).instance


class TestDecideRunAgainstPerVertexDecode:
    def test_random_two_regular_reductions(self):
        rng = random.Random(64)
        algo = FullExchangeSparse(max_degree=2)
        for n in range(2, 65, 2):
            for _ in range(2):
                inst = _random_reduction(rng, n)
                run = simulate(inst, algo, algo.round_budget(inst))
                assert run.verdicts == per_vertex_verdicts(run, algo)
                components = len(fm.cycles_of_instance(inst))
                assert run.system_verdict is (Verdict.YES if components == 1 else Verdict.NO)

    def test_kt1_family_n8(self):
        fam = fm.enumerate_family(8)
        algo = FullExchangeSparse(max_degree=2)
        for keys, make, truth in (
            (fam.one_cycles, fam.one_cycle_instance, Verdict.YES),
            (list(fam.all_two_cycle_keys()), fam.two_cycle_instance, Verdict.NO),
        ):
            for key in keys:
                inst = make(key, mode=KT1)
                run = simulate(inst, algo, algo.round_budget(inst))
                assert run.verdicts == per_vertex_verdicts(run, algo) == (truth,) * 8

    @pytest.mark.parametrize("offset", [-6, -1, 0, 1, 5])
    def test_t_around_budget(self, offset):
        rng = random.Random(100 + offset)
        algo = FullExchangeSparse(max_degree=2)
        for n in (4, 10, 24):
            inst = _random_reduction(rng, n)
            t = max(0, algo.round_budget(inst) + offset)
            run = simulate(inst, algo, t)
            assert run.verdicts == per_vertex_verdicts(run, algo)

    def test_larger_degree_bound(self):
        # a third, always silent slot; id 0 exists in the family instances,
        # so reading a silent slot as 0 would join the two cycles
        rng = random.Random(3)
        algo = FullExchangeSparse(max_degree=3)
        fam = fm.enumerate_family(6)
        disconnected = [fam.two_cycle_instance(k, mode=KT1) for k in fam.all_two_cycle_keys()]
        disconnected.append(make_instance(5, [(0, 1), (1, 2), (3, 4)], mode=KT1))
        for inst in disconnected + [_random_reduction(rng, n) for n in (6, 20)]:
            run = simulate(inst, algo, algo.round_budget(inst))
            assert run.verdicts == per_vertex_verdicts(run, algo)
            if inst in disconnected:
                assert run.system_verdict is Verdict.NO

    def test_ids_beyond_int64(self):
        algo = FullExchangeSparse(max_degree=2)
        for cycles in ([(0, 1, 2, 3, 4, 5)], [(0, 1, 2), (3, 4, 5)]):
            inst = fm.instance_from_cycles(cycles, mode=KT1)
            inst = make_instance(6, inst.input_edges, mode=KT1,
                                 ids=[(1 << 70) + 3 * k for k in range(6)])
            run = simulate(inst, algo, algo.round_budget(inst))
            assert run.verdicts == per_vertex_verdicts(run, algo)
            assert run.system_verdict is (Verdict.YES if len(cycles) == 1 else Verdict.NO)

    def test_misreported_neighbor_falls_back_per_vertex(self):
        # two 4-cycles; vertex 0 claims 4 instead of 1, which joins them for
        # everyone else, while vertex 0 itself still sees two cycles
        inst = fm.instance_from_cycles([(0, 1, 2, 3), (4, 5, 6, 7)], mode=KT1)
        algo = MisreportingExchange(liar=0, fake=4)
        run = simulate(inst, algo, algo.round_budget(inst))
        assert run.verdicts == per_vertex_verdicts(run, algo)
        assert run.verdicts == (Verdict.NO,) + (Verdict.YES,) * 7

    def test_random_misreports(self):
        rng = random.Random(17)
        for _ in range(40):
            n = 2 * rng.randint(2, 16)
            inst = _random_reduction(rng, n)
            algo = MisreportingExchange(
                liar=rng.choice(inst.ids), fake=rng.choice(inst.ids + (0, 1 << 12))
            )
            run = simulate(inst, algo, algo.round_budget(inst))
            assert run.verdicts == per_vertex_verdicts(run, algo)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_misreports_on_both_family_sides(self, n):
        # the liar's cells of a whole side decide in the batch's second
        # labelling; on a two-cycle member whose fake edge joins the cycles
        # only the liar says NO
        algo = MisreportingExchange(liar=0, fake=4)
        budget = algo.round_budget(cycle_instance(n, mode=KT1))
        for neighbors, instances in family_sides(n, KT1):
            for t in (budget, budget - 1):
                got = simulate_members(neighbors, KT1, algo, t, verdicts=True).system_yes
                want = []
                for inst in instances:
                    run = simulate(inst, algo, t)
                    assert run.verdicts == per_vertex_verdicts(run, algo)
                    want.append(run.system_verdict is Verdict.YES)
                assert got.tolist() == want


class TestFullExchangeSparse:
    def test_single_8_cycle_yes_after_budget(self):
        inst = cycle_instance(8, mode=KT1)  # ids < 8 -> width 3
        algo = FullExchangeSparse(max_degree=2)
        assert algo.round_budget(inst) == 6
        run = simulate(inst, algo, 6)
        assert run.system_verdict is Verdict.YES

    def test_two_disjoint_4_cycles_no(self):
        inst = fm.instance_from_cycles([(0, 1, 2, 3), (4, 5, 6, 7)], mode=KT1)
        algo = FullExchangeSparse(max_degree=2)
        run = simulate(inst, algo, algo.round_budget(inst))
        assert run.system_verdict is Verdict.NO

    def test_truncated_defaults_yes(self):
        inst = fm.instance_from_cycles([(0, 1, 2, 3), (4, 5, 6, 7)], mode=KT1)
        run = simulate(inst, FullExchangeSparse(max_degree=2), 0)
        assert run.system_verdict is Verdict.YES

    def test_requires_kt1(self):
        with pytest.raises(ValueError, match="KT1"):
            simulate(cycle_instance(6), FullExchangeSparse(), 1)

    def test_state_holds_no_view(self):
        inst = cycle_instance(8, mode=KT1)
        run = simulate(inst, FullExchangeSparse(), 2)
        for v, state in enumerate(run.states):
            assert not any(isinstance(part, VertexView) for part in state)
            assert state == (inst.input_neighbors[v], 3)


class TestEvaluateError:
    def test_always_yes_is_exactly_half(self):
        fam = fm.enumerate_family(6)
        yes = [fam.one_cycle_instance(k) for k in fam.one_cycles]
        no = [fam.two_cycle_instance(k) for k in fam.all_two_cycle_keys()]
        assert evaluate_error(AlwaysYes(), 0, yes, no) == Fraction(1, 2)

    def test_full_exchange_truncated_is_half(self):
        fam = fm.enumerate_family(6)
        yes = [fam.one_cycle_instance(k, mode=KT1) for k in fam.one_cycles]
        no = [fam.two_cycle_instance(k, mode=KT1) for k in fam.all_two_cycle_keys()]
        algo = FullExchangeSparse(max_degree=2)
        assert evaluate_error(algo, 0, yes, no) == Fraction(1, 2)

    def test_full_exchange_perfect_on_n7_families(self):
        fam = fm.enumerate_family(7)
        yes = [fam.one_cycle_instance(k, mode=KT1) for k in fam.one_cycles]
        no = [fam.two_cycle_instance(k, mode=KT1) for k in fam.all_two_cycle_keys()]
        algo = FullExchangeSparse(max_degree=2)
        budget = algo.round_budget(yes[0])
        assert evaluate_error(algo, budget, yes, no) == 0

    def test_mixed_modes_rejected(self):
        fam = fm.enumerate_family(6)
        yes = [fam.one_cycle_instance(fam.one_cycles[0])]
        no = [fam.two_cycle_instance(next(fam.all_two_cycle_keys()), mode=KT1)]
        with pytest.raises(ValueError, match="share"):
            evaluate_error(AlwaysYes(), 0, yes, no)


class TestCatalog:
    def test_minimum_contents(self):
        names = set(reference_algorithms())
        assert {"always-yes", "always-silent", "id-exchange",
                "full-exchange-sparse"} <= names

    def test_make_algorithm_fills_bits(self):
        inst = cycle_instance(6, ids=[0, 1, 2, 3, 4, 9])
        algo = make_algorithm("id-exchange", inst)
        assert algo.bits == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_algorithm("nope")


def assert_same_run(fast, slow):
    assert fast.states == slow.states
    assert fast.sent == slow.sent
    assert fast.verdicts == slow.verdicts


# the largest modulus whose fold stays in int64: 33 (modulus - 1) < 2^63
EDGE = (2**63 - 1) // 33 + 1


class TestRandomTable:
    def test_record_only_at_modulus_one(self):
        assert type(RandomTable(seed=5)).receive is Algorithm.receive
        assert RandomTable(seed=5).members_receiver([10] * 5) is None
        assert make_algorithm("random-table", modulus=2).modulus == 2
        # the rule is read on the class: a receive bound on the instance
        # (a tracer's wrapper, say) is never called, and the run is the same
        inst = cycle_instance(5)
        for modulus in (1, 3):
            want = simulate(inst, RandomTable(seed=5, modulus=modulus), 4)
            machine = RandomTable(seed=5, modulus=modulus)
            machine.receive = fail
            assert_same_run(simulate(inst, machine, 4), want)

    def test_the_fold_follows_the_modulus(self):
        # int64 up to the edge, Python integers past it
        zeros, silent = np.zeros((2, 5), dtype=np.int64), np.full((2, 5), 2, dtype=np.int8)
        for modulus, dtype in ((3, np.int64), (EDGE, np.int64), (EDGE + 1, object),
                               (10**30 + 57, object)):
            fold = RandomTable(seed=5, modulus=modulus).members_receiver([10] * 5)
            assert fold(zeros, 1, silent).dtype == dtype

    def test_delivery_does_not_change_modulus_one_runs(self):
        inst = cycle_instance(9)
        record_only = simulate(inst, RandomTable(seed=5), 4)
        delivered = simulate(inst, InboxRandomTable(seed=5, modulus=1), 4)
        assert_same_run(record_only, delivered)

    def test_memoized_symbols_are_the_hashed_trits(self):
        seed, modulus, t = 11, 3, 6
        machine = RandomTable(seed=seed, modulus=modulus)
        rng = random.Random(4)
        for n in (5, 8):
            simulate(cycle_instance(n), machine, t)
            simulate(cycle_instance(n, ports=random_kt0_ports(rng, n)), machine, t)
        assert machine._symbols
        for (r, d), symbol in machine._symbols.items():
            assert 1 <= r <= t and 0 <= d < modulus
            assert symbol is Symbol(_stable_trit(seed, r, d))
        for r in range(1, t + 1):
            for d in range(modulus):
                assert machine.broadcast((d,), r) is Symbol(_stable_trit(seed, r, d))
        assert len(machine._symbols) == t * modulus


def crossed_instance(rng, n):
    """A random-port KT0 cycle crossed on two independent edges."""
    inst = cycle_instance(n, ports=random_kt0_ports(rng, n))
    i = rng.randrange(n)
    j = (i + rng.randrange(3, n - 2)) % n  # both cycles keep 3 or more vertices
    e1 = cx.oriented_edge(inst, i, (i + 1) % n)
    e2 = cx.oriented_edge(inst, j, (j + 1) % n)
    return cx.cross(inst, e1, e2)


class TestRoundFoldAgainstInboxOracle:
    """RandomTable's round fold equals the per-inbox receive exactly."""

    @staticmethod
    def assert_fold_matches(inst, seed, moduli=range(1, 6)):
        for modulus in moduli:
            for t in range(7):
                fast = simulate(inst, RandomTable(seed, modulus), t)
                slow = simulate(inst, InboxRandomTable(seed, modulus), t)
                assert_same_run(fast, slow)

    def test_canonical_kt0(self):
        self.assert_fold_matches(make_instance(2, [(0, 1)]), seed=2)
        for n in (3, 7):
            self.assert_fold_matches(cycle_instance(n), seed=n)

    def test_random_kt0_ports(self):
        rng = random.Random(7)
        for n in (4, 6, 9):
            inst = cycle_instance(n, ports=random_kt0_ports(rng, n),
                                  ids=rng.sample(range(50), n))
            self.assert_fold_matches(inst, seed=rng.randrange(2**30))

    def test_crossed_instances(self):
        rng = random.Random(8)
        for n in (6, 8, 9):
            inst = crossed_instance(rng, n)
            assert len(fm.cycles_of_instance(inst)) == 2
            self.assert_fold_matches(inst, seed=rng.randrange(2**30))

    def test_kt1_with_id_zero(self):
        rng = random.Random(9)
        for n in (3, 6, 8):
            ids = rng.sample(range(1, 3 * n), n)
            ids[rng.randrange(1, n)] = 0  # id 0 on a port, not only on the diagonal
            inst = cycle_instance(n, mode=KT1, ids=ids)
            self.assert_fold_matches(inst, seed=rng.randrange(2**30))

    def test_kt1_ids_beyond_2_70(self):
        rng = random.Random(10)
        for n in (3, 7):
            inst = cycle_instance(n, mode=KT1, ids=rng.sample(range(2**70, 2**70 + 1000), n))
            self.assert_fold_matches(inst, seed=rng.randrange(2**30))

    def test_moduli_around_the_int64_edge(self):
        # the int64 fold up to EDGE, the Python-integer fold past it
        moduli = (EDGE - 1, EDGE, EDGE + 1, 2**61 + 1, 10**30 + 57)
        rng = random.Random(13)
        for n in (6, 8):
            random_ports = cycle_instance(n, ports=random_kt0_ports(rng, n),
                                          ids=rng.sample(range(50), n))
            kt1 = cycle_instance(n, mode=KT1, ids=rng.sample(range(2**64, 2**64 + 1000), n))
            for inst in (random_ports, crossed_instance(rng, n), kt1):
                self.assert_fold_matches(inst, rng.randrange(2**30), moduli)

    def test_port_sums_are_the_row_sums(self):
        rng = random.Random(14)
        for n in (2, 5, 9):
            ids = rng.sample(range(2**64, 2**64 + 100), n)
            ids[rng.randrange(n)] = 0
            for inst in (cycle_instance(n, ports=random_kt0_ports(rng, n), ids=ids),
                         cycle_instance(n, mode=KT1, ids=ids)):
                assert inst._port_sums() == [sum(row) for row in inst.ports]

    @pytest.mark.parametrize("variant", [rd.TWO_REGULAR, rd.GENERAL])
    def test_two_party_runs(self, variant):
        rng = random.Random(11)
        draw = pt.random_pair_partition if variant == rd.TWO_REGULAR else pt.random_partition
        for n in (4, 6, 8):
            p_a, p_b = draw(rng, n), draw(rng, n)
            for modulus in (2, 3, 5):
                for t in (0, 3, 6):
                    seed = rng.randrange(2**30)
                    fast = rd.two_party_simulate(RandomTable(seed, modulus), p_a, p_b, variant, t)
                    slow = rd.two_party_simulate(
                        InboxRandomTable(seed, modulus), p_a, p_b, variant, t)
                    assert fast.equivalent and slow.equivalent
                    assert fast.states == slow.states
                    assert fast.verdicts == slow.verdicts
                    assert fast.trace == slow.trace


@cache
def family_sides(n, mode):
    """Each side of the n-vertex family: its neighbor array and its instances."""
    fam = fm.enumerate_family(n)
    return (
        (fam.one_cycle_neighbors(), [fam.one_cycle_instance(k, mode) for k in fam.one_cycles]),
        (fam.two_cycle_neighbors(),
         [fam.two_cycle_instance(k, mode) for k in fam.all_two_cycle_keys()]),
    )


class Inbox(Algorithm):
    """A record-only machine delivered through simulate's inbox loop.

    Its ``receive`` keeps the state, as record-only delivery does, but
    overriding it sends every run down the per-vertex inbox loop.
    """

    def __init__(self, machine):
        self.machine = machine

    def initialize(self, view):
        return self.machine.initialize(view)

    def broadcast(self, state, round_no):
        return self.machine.broadcast(state, round_no)

    def receive(self, state, round_no, inbox):
        return state

    def decide(self, state):
        return self.machine.decide(state)

    def decide_run(self, *batch):
        return self.machine.decide_run(*batch)

    def round_budget(self, instance):
        return self.machine.round_budget(instance)


def inbox_twin(machine):
    """The same machine run through simulate's per-vertex inbox loop."""
    if type(machine).receive is not Algorithm.receive:
        return machine
    if type(machine) is RandomTable:
        return InboxRandomTable(machine.seed, machine.modulus)
    return Inbox(machine)


def assert_members_match(neighbors, instances, mode, algorithm, t):
    """simulate_members equals the inbox loop + system_verdict on every member."""
    got = simulate_members(neighbors, mode, algorithm, t, verdicts=True)
    oracle = inbox_twin(algorithm)
    runs = [simulate(inst, oracle, t) for inst in instances]
    assert got.codes.dtype == np.int8
    assert got.codes.shape == (len(instances), neighbors.shape[1], t)
    assert got.codes.tolist() == [[list(map(int, row)) for row in run.sent] for run in runs]
    assert got.system_yes.tolist() == [run.system_verdict is Verdict.YES for run in runs]
    return got


class InputPorts(Algorithm):
    """Record-only machine that shows its input port labels.

    No shipped machine reads the port labels in KT0, so this one makes a
    wrong port formula visible: round r says whether port r is an input
    port, and a vertex says YES iff its labels sum to a multiple of 3.
    """

    name = "input-ports"

    def initialize(self, view):
        return view.input_ports

    def broadcast(self, ports, round_no):
        return Symbol.ONE if round_no in ports else Symbol.ZERO

    def decide(self, ports):
        return Verdict.YES if sum(ports) % 3 == 0 else Verdict.NO


# name -> (machine factory, modes, round budget on n <= 8 vertices or None)
MEMBER_MACHINES = {
    "input-ports": (InputPorts, (KT0, KT1), None),
    "always-yes": (AlwaysYes, (KT0, KT1), None),
    "always-silent": (AlwaysSilent, (KT0, KT1), None),
    "id-exchange": (lambda: IdExchange(bits=3), (KT0, KT1), 3),
    "full-exchange-sparse": (FullExchangeSparse, (KT1,), 6),
    # vertex 0 claims 4 for its first neighbor, so its cells decide apart
    "misreporting-exchange": (lambda: MisreportingExchange(liar=0, fake=4), (KT1,), 6),
    **{f"random-table-{modulus}": (lambda modulus=modulus: RandomTable(19, modulus), (KT0, KT1),
                                   None) for modulus in (1, 3, 5, 2**61 + 1)},
    "inbox-random-table": (lambda: InboxRandomTable(19, 3), (KT0, KT1), None),
    # the inbox loop's batch, decided by a decide_run that reads the views
    "inbox-full-exchange-sparse": (lambda: Inbox(FullExchangeSparse()), (KT1,), 6),
    "inbox-misreporting-exchange": (lambda: Inbox(MisreportingExchange(liar=0, fake=4)),
                                    (KT1,), 6),
}


def fail(*args, **kwargs):
    raise AssertionError("a member ran one by one")


class TestSimulateMembers:
    """The batched family runs against per-member simulate, the oracle."""

    # the inbox twins of the exchange machines are left out at n = 8, the
    # slowest size, where their record-only originals run the same oracle
    @pytest.mark.parametrize("n, name", [
        (n, name) for n in (5, 6, 7, 8) for name in sorted(MEMBER_MACHINES)
        if n < 8 or not name.startswith(("inbox-full", "inbox-misreporting"))])
    def test_equals_simulate_on_both_family_sides(self, n, name):
        make, modes, budget = MEMBER_MACHINES[name]
        assert make().round_budget(cycle_instance(n, mode=modes[-1])) == budget
        largest = (budget or 3) + 1
        # every t up to n = 7; the n = 8 oracle runs 3507 members a round
        # count, so there t is 0, the budget and the budget + 1
        rounds = range(largest + 1) if n < 8 else sorted({0, budget or 0, largest})
        for mode in modes:
            for neighbors, instances in family_sides(n, mode):
                for t in rounds:
                    got = assert_members_match(neighbors, instances, mode, make(), t)
                # without verdicts the call skips them, and sends the same
                bare = simulate_members(neighbors, mode, make(), largest)
                assert bare.system_yes is None
                assert np.array_equal(bare.codes, got.codes)

    def test_the_path_follows_the_machine(self, monkeypatch):
        assert AlwaysYes().members_receiver([10] * 5) is None
        # no machine builds an instance, the inbox machines included
        neighbors = family_sides(7, KT1)[0][0]
        runs = {name: simulate_members(neighbors, KT1, make(), 6, verdicts=True)
                for name, (make, _, _) in MEMBER_MACHINES.items()}
        monkeypatch.setattr(sim, "simulate", fail)
        monkeypatch.setattr(sim, "make_instance", fail)
        for name, (make, _, _) in MEMBER_MACHINES.items():
            again = simulate_members(neighbors, KT1, make(), 6, verdicts=True)
            assert np.array_equal(again.codes, runs[name].codes)
            assert np.array_equal(again.system_yes, runs[name].system_yes)

    def test_array_fold_equals_exact_fold_at_the_int64_edge(self):
        rng = random.Random(12)
        for modulus in (EDGE, EDGE + 1, 10**30 + 57):
            oracle = InboxRandomTable(0, modulus)
            for mode in (KT0, KT1):
                inst = cycle_instance(7, mode=mode)
                fold = RandomTable(0, modulus).members_receiver([sum(row) for row in inst.ports])
                for _ in range(50):
                    digests = [rng.choice((0, modulus - 1, rng.randrange(modulus)))
                               for _ in range(7)]
                    heard = [Symbol(rng.randrange(3)) for _ in range(7)]
                    want = [
                        oracle.receive((d,), 1, {inst.ports[v][u]: heard[u]
                                                 for u in range(7) if u != v})[0]
                        for v, d in enumerate(digests)
                    ]
                    got = fold(np.array([digests]), 1, np.array([heard], dtype=np.int8))
                    assert got.tolist() == [want]

    def test_machine_wrapped_on_the_instance(self):
        # as the benchmark's tracer wraps broadcast and decide
        neighbors, instances = family_sides(6, KT0)[1]
        for make in (lambda: IdExchange(bits=3), lambda: RandomTable(4, 3)):
            machine = make()
            calls = []
            for method in ("broadcast", "decide"):
                def traced(*args, _inner=getattr(machine, method)):
                    calls.append(args)
                    return _inner(*args)
                setattr(machine, method, traced)
            got = simulate_members(neighbors, KT0, machine, 3, verdicts=True)
            want = simulate_members(neighbors, KT0, make(), 3, verdicts=True)
            assert calls
            assert np.array_equal(got.codes, want.codes)
            assert np.array_equal(got.system_yes, want.system_yes)
            assert_members_match(neighbors, instances, KT0, machine, 3)

    def test_full_exchange_sparse_requires_kt1(self):
        neighbors, instances = family_sides(6, KT0)[0]
        with pytest.raises(ValueError, match="requires KT1 knowledge") as batched:
            simulate_members(neighbors, KT0, FullExchangeSparse(), 1)
        with pytest.raises(ValueError, match="requires KT1 knowledge") as single:
            simulate(instances[0], FullExchangeSparse(), 1)
        assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("payload", [(Symbol.ONE,), 1, None])
    def test_anything_but_one_symbol_is_a_violation(self, payload):
        neighbors = family_sides(6, KT0)[0][0]
        with pytest.raises(ProtocolViolation, match="vertex 2 .* round 2"):
            simulate_members(neighbors, KT0, TestBandwidth.OddOneOut(payload), 3)

    def test_unhashable_states(self):
        class ListState(IdExchange):
            def initialize(self, view):
                return [view]

            def broadcast(self, state, round_no):
                return super().broadcast(state[0], round_no)

        for neighbors, instances in family_sides(6, KT1):
            assert_members_match(neighbors, instances, KT1, ListState(bits=3), 3)

    def test_bad_input(self):
        neighbors = family_sides(6, KT0)[0][0]
        with pytest.raises(ValueError, match="shape"):
            simulate_members(neighbors[:, :, 0], KT0, AlwaysYes(), 1)
        with pytest.raises(ValueError, match="mode"):
            simulate_members(neighbors, "KT2", AlwaysYes(), 1)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_members(neighbors, KT0, AlwaysYes(), -1)
        for bad in (neighbors + 1, neighbors - 1, np.zeros_like(neighbors)):
            with pytest.raises(ValueError, match="other vertices"):
                simulate_members(bad, KT0, AlwaysYes(), 1)


class Replay(Algorithm):
    """The oracle of a hosted run: the vertices ``hosted`` run ``machine``
    through simulate's inbox loop, and every other vertex v broadcasts
    ``sent[v]`` round by round. Vertex v is the one with id ``ids[v]``."""

    def __init__(self, machine, ids, hosted, sent):
        self.machine = inbox_twin(machine)
        self.vertex = {i: v for v, i in enumerate(ids)}
        self.hosted = set(hosted)
        self.sent = sent

    def initialize(self, view):
        v = self.vertex[view.own_id]
        return v, self.machine.initialize(view) if v in self.hosted else None

    def broadcast(self, state, round_no):
        v, inner = state
        if v in self.hosted:
            return self.machine.broadcast(inner, round_no)
        return Symbol(int(self.sent[v, round_no - 1]))

    def receive(self, state, round_no, inbox):
        v, inner = state
        return (v, self.machine.receive(inner, round_no, inbox)) if v in self.hosted else state

    def decide(self, state):
        return Verdict.YES


class TestSimulateHosted:
    """simulate_hosted against full inbox-loop runs that replay the transcript."""

    @staticmethod
    def instances(rng, n, mode):
        if mode == KT1:
            ids = rng.sample(range(1, 3 * n), n)
            ids[rng.randrange(n)] = 0  # id 0 on a port, not only on the diagonal
            return [cycle_instance(n, mode=KT1, ids=ids)]
        return [cycle_instance(n), crossed_instance(rng, n),
                cycle_instance(n, ports=random_kt0_ports(rng, n), ids=rng.sample(range(50), n))]

    @pytest.mark.parametrize("name", sorted(MEMBER_MACHINES))
    def test_equals_the_replay_oracle(self, name):
        make, modes, _ = MEMBER_MACHINES[name]
        rng = random.Random(sorted(MEMBER_MACHINES).index(name))
        for mode in modes:
            for n in (6, 9):
                for inst in self.instances(rng, n, mode):
                    for t in (0, 1, 3, 7):
                        own = np.array([[int(s) for s in row] for row in
                                        simulate(inst, make(), t).sent], dtype=np.int8).reshape(n, t)
                        noise = np.array([[rng.randrange(3) for _ in range(t)] for _ in range(n)],
                                         dtype=np.int8).reshape(n, t)
                        for sent in (own, noise):
                            for size in (0, 1, 4, n):
                                hosted = sorted(rng.sample(range(n), size))
                                given = sent.tobytes()
                                views, got = simulate_hosted(inst, make(), t, hosted, sent)
                                assert sent.flags.writeable and sent.tobytes() == given
                                run = simulate(inst, Replay(make(), inst.ids, hosted, sent), t)
                                assert got.dtype == np.int8 and got.shape == (size, t)
                                assert got.tolist() == [list(map(int, run.sent[v])) for v in hosted]
                                assert views == tuple(inst.view(v) for v in hosted)
                        # against the run's own transcript, the rows are the run's
                        assert simulate_hosted(inst, make(), t, range(n), own)[1].tolist() \
                            == own.tolist()

    def test_runs_no_full_simulation(self, monkeypatch):
        inst = crossed_instance(random.Random(3), 9)
        sent = np.zeros((9, 4), dtype=np.int8)
        want = {name: simulate_hosted(inst, make(), 4, [1, 5], sent)[1]
                for name, (make, modes, _) in MEMBER_MACHINES.items() if KT0 in modes}
        monkeypatch.setattr(sim, "simulate", fail)
        for name, got in want.items():
            again = simulate_hosted(inst, MEMBER_MACHINES[name][0](), 4, [1, 5], sent)[1]
            assert np.array_equal(again, got)

    def test_bad_input(self):
        inst = cycle_instance(6)
        sent = np.zeros((6, 2), dtype=np.int8)
        for hosted in ([2, 1], [1, 1], [-1], [6]):
            with pytest.raises(ValueError, match="ascend among 0..5"):
                simulate_hosted(inst, AlwaysSilent(), 2, hosted, sent)
        for bad in (sent[:5], sent[:, :1], sent.astype(np.int64)):
            with pytest.raises(ValueError, match=r"\(6, 2\) int8"):
                simulate_hosted(inst, AlwaysSilent(), 2, [0], bad)
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_hosted(inst, AlwaysSilent(), -1, [0], sent)
        # the vertex is named, not its place among the hosted
        with pytest.raises(ProtocolViolation, match="vertex 2 broadcast None in round 2"):
            simulate_hosted(inst, TestBandwidth.OddOneOut(None), 2, [0, 2], sent)


class TestInstanceFormat:
    def test_round_trip(self):
        rng = random.Random(2)
        inst = cycle_instance(5, ids=[4, 0, 3, 1, 2],
                              ports=random_kt0_ports(rng, 5))
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_ports_default_to_canonical(self):
        inst = cycle_instance(5)
        doc = json.loads(instance_to_json(inst))
        del doc["ports"]
        assert instance_from_json(json.dumps(doc)) == inst
