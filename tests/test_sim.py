"""Simulator semantics: delivery, verdicts, knowledge modes, error eval."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from bcclab import families as fm
from bcclab.algorithms import (
    AlwaysSilent,
    AlwaysYes,
    FullExchangeSparse,
    IdExchange,
    RandomTable,
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
            decoded = algo.port_ids(run.states[v])
            truth = {inst.port_at(v, u): inst.ids[u] for u in range(6) if u != v}
            assert decoded == truth


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
