"""Simulator semantics: delivery, verdicts, knowledge modes, error eval."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from bcclab import crossing as cx
from bcclab import families as fm
from bcclab import partitions as pt
from bcclab import reduction as rd
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
    evaluate_error,
    instance_from_json,
    instance_to_json,
    make_instance,
    random_kt0_ports,
    simulate,
    system_verdict,
)


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

    The per-inbox reference for ``RandomTable``'s round fold: it takes
    the default per-vertex delivery step at any modulus.
    """

    round_receiver = Algorithm.round_receiver

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


class TestSimulate:
    def test_always_silent_transcript(self):
        inst = cycle_instance(5)
        run = simulate(inst, AlwaysSilent(), 3)
        for v in range(5):
            assert run.sent[v] == (Symbol.SILENT,) * 3
            for r in range(1, 4):
                assert set(run.received(v, r).values()) == {Symbol.SILENT}

    def test_broadcast_consistency(self):
        inst = cycle_instance(6)
        algo = RandomTable(seed=3, modulus=3)
        run = simulate(inst, algo, 4)
        for v in range(6):
            for r in range(1, 5):
                inbox = run.received(v, r)
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
            assert algo.port_ids(run1, v) == algo.port_ids(run2, perm[v])
        # adaptive machines take the delivery path of the round loop: the
        # recorder keeps every port-keyed inbox, RandomTable folds them
        for adaptive in (RecordingIdExchange(bits=3), RandomTable(seed=4, modulus=3)):
            run1 = simulate(inst, adaptive, 4)
            run2 = simulate(inst2, adaptive, 4)
            for v in range(n):
                assert run1.states[v] == run2.states[perm[v]]
                assert run1.sent[v] == run2.sent[perm[v]]
                for r in range(1, 5):
                    assert run1.received(v, r) == run2.received(perm[v], r)
        # the recorder's inboxes are the transcript read through the ports
        run = simulate(inst, RecordingIdExchange(bits=3), 4)
        assert len(set(run.states)) == n
        for v in range(n):
            assert run.states[v][1] == tuple(
                tuple(sorted(run.received(v, r).items())) for r in range(1, 5)
            )

    def test_coins_identical_at_all_vertices(self):
        inst = cycle_instance(4)
        run = simulate(inst, AlwaysYes(), 1, coins=(1, 0, 1))
        assert all(view.coins == (1, 0, 1) for view in run.views)


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

    def test_b2_accepts_two_symbols(self):
        run = simulate(cycle_instance(4, b=2), self.TwoSymbols(), 2)
        assert run.sent[0] == ((Symbol.ZERO, Symbol.ONE),) * 2

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
            decoded = algo.port_ids(run, v)
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
        rows = [run.received(v, r) for r in range(1, run.t + 1)]
        edges = {(view.own_id, x) for x in view.neighbor_ids}
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

    def broadcast(self, state, round_no):
        view, neighbors, w = state
        if view.own_id == self.liar:
            state = (view, tuple(sorted((self.fake,) + neighbors[1:])), w)
        return super().broadcast(state, round_no)


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

    def test_wide_payloads_read_as_zero(self):
        # at b = 2 every payload is a tuple, which is neither ONE nor silent
        algo = FullExchangeSparse(max_degree=2)
        for cycles in ([(0, 1, 2, 3, 4, 5)], [(0, 1, 2), (3, 4, 5)]):
            inst = fm.instance_from_cycles(cycles, mode=KT1, b=2)
            run = simulate(inst, algo, algo.round_budget(inst))
            assert run.verdicts == per_vertex_verdicts(run, algo)

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


class TestRandomTable:
    def test_record_only_at_modulus_one(self):
        inst = cycle_instance(5)
        record_only = RandomTable(seed=5)
        assert type(record_only).receive is Algorithm.receive
        assert record_only.round_receiver(inst) is None
        # the rule is read on the class: a receive bound on the instance
        # (a tracer's wrapper, say) leaves the machine record-only
        record_only.receive = lambda state, round_no, inbox: state
        assert record_only.round_receiver(inst) is None
        folding = RandomTable(seed=5, modulus=3)
        assert isinstance(folding, RandomTable)
        assert type(folding) is RandomTable
        assert folding.round_receiver(inst) is not None
        oracle = InboxRandomTable(seed=5, modulus=3)
        assert type(oracle) is InboxRandomTable
        assert type(oracle).round_receiver is Algorithm.round_receiver
        assert oracle.round_receiver(inst) is not None
        assert make_algorithm("random-table", modulus=2).modulus == 2

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

    def test_folding_requires_b_one(self):
        inst = cycle_instance(4, b=2)
        with pytest.raises(ValueError, match="requires b = 1, got b = 2"):
            simulate(inst, RandomTable(seed=5, modulus=3), 2)
        # record-only at modulus 1, it runs at any bandwidth
        assert simulate(inst, RandomTable(seed=5), 2).system_verdict is Verdict.YES


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
    def assert_fold_matches(inst, seed):
        for modulus in range(1, 6):
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


class TestInstanceFormat:
    def test_round_trip(self):
        rng = random.Random(2)
        inst = cycle_instance(5, ids=[4, 0, 3, 1, 2],
                              ports=random_kt0_ports(rng, 5))
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_ports_default_to_canonical(self):
        inst = cycle_instance(5)
        text = instance_to_json(inst, include_ports=False)
        assert instance_from_json(text) == inst
