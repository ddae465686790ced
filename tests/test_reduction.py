"""Reduction graphs, join correspondence, two-party bisimulation."""

import random

import pytest

from bcclab import partitions as pt
from bcclab import reduction as rd
from bcclab.algorithms import AlwaysSilent, FullExchangeSparse, RandomTable
from bcclab.sim import Symbol, Verdict, simulate


def vertex_label(graph, v):
    """The paper's name of vertex v: its group letter and 1-based index."""
    group, i = divmod(v, graph.n)
    return rd.GROUPS[graph.variant][group] + str(i + 1)


def transcript_from_trace(result):
    """Per-vertex broadcasts read back from the two parties' messages."""
    graph = result.graph
    by_vertex = [()] * graph.instance.n
    for msg_a, msg_b in result.trace.rounds:
        for vertices, msg in ((graph.alice_vertices, msg_a), (graph.bob_vertices, msg_b)):
            for v, sym in zip(vertices, msg):
                by_vertex[v] += (sym,)
    return tuple(by_vertex)


class TestBuildTwoRegular:
    def test_two_four_cycles(self):
        p = pt.parse_partition("(1,2)(3,4)")
        g = rd.build_reduction(rd.TWO_REGULAR, p, p)
        comps = rd.components_partition(g)
        assert str(comps) == "(1,2)(3,4)"
        # every vertex has degree exactly 2; components are even cycles >= 4
        inst = g.instance
        assert all(len(nbr) == 2 for nbr in inst.input_neighbors)

    def test_single_eight_cycle(self):
        p_a = pt.parse_partition("(1,2)(3,4)")
        p_b = pt.parse_partition("(2,3)(4,1)")
        g = rd.build_reduction(rd.TWO_REGULAR, p_a, p_b)
        assert rd.components_partition(g).is_trivial

    def test_id_scheme(self):
        p = pt.parse_partition("(1,2)(3,4)")
        g = rd.build_reduction(rd.TWO_REGULAR, p, p)
        n = 4
        for i in range(1, n + 1):
            assert g.instance.ids[g.l_vertex(i)] == n + i
            assert g.instance.ids[g.r_vertex(i)] == 2 * n + i

    def test_requires_pair_partitions(self):
        with pytest.raises(ValueError, match="pair"):
            rd.build_reduction(
                rd.TWO_REGULAR,
                pt.parse_partition("(1,2,3)(4)"),
                pt.parse_partition("(1,2)(3,4)"),
            )

    def test_cycle_structure_exhaustive_n4(self):
        for p_a in pt.enumerate_pair_partitions(4):
            for p_b in pt.enumerate_pair_partitions(4):
                g = rd.build_reduction(rd.TWO_REGULAR, p_a, p_b)
                inst = g.instance
                assert all(len(nbr) == 2 for nbr in inst.input_neighbors)
                from bcclab.families import cycles_of_instance

                cycles = cycles_of_instance(inst)
                assert all(len(c) >= 4 and len(c) % 2 == 0 for c in cycles)
                assert len(cycles) == len(pt.join(p_a, p_b).blocks)


class TestBuildGeneral:
    def test_all_singletons(self):
        p = pt.SetPartition.singletons(3)
        g = rd.build_reduction(rd.GENERAL, p, p)
        assert rd.components_partition(g) == p

    def test_paper_join_example_through_the_graph(self):
        p_a = pt.parse_partition("(1,2)(3,4)(5)")
        p_b = pt.parse_partition("(1,2,4)(3)(5)")
        g = rd.build_reduction(rd.GENERAL, p_a, p_b)
        assert str(rd.components_partition(g)) == "(1,2,3,4)(5)"

    def test_id_scheme(self):
        p = pt.SetPartition.singletons(3)
        g = rd.build_reduction(rd.GENERAL, p, p)
        assert g.instance.ids == tuple(range(1, 13))
        assert [vertex_label(g, v) for v in (0, 3, 6, 9)] == ["a1", "l1", "r1", "b1"]

    def test_leftover_hubs_attach_to_last_rung(self):
        p_a = pt.parse_partition("(1,2,3)")  # one part: a_2, a_3 are leftovers
        p_b = pt.SetPartition.singletons(3)
        g = rd.build_reduction(rd.GENERAL, p_a, p_b)
        edges = g.instance.input_edges
        l3 = g.l_vertex(3)
        assert tuple(sorted((1, l3))) in edges  # a_2
        assert tuple(sorted((2, l3))) in edges  # a_3

    def test_ground_size_mismatch(self):
        with pytest.raises(ValueError, match="ground"):
            rd.build_reduction(
                rd.GENERAL, pt.SetPartition.singletons(3),
                pt.SetPartition.singletons(4),
            )


class TestJoinCorrespondence:
    def test_exhaustive_general_n3(self):
        universe = list(pt.enumerate_partitions(3))
        for p_a in universe:
            for p_b in universe:
                assert rd.verify_join_correspondence(p_a, p_b, rd.GENERAL)

    def test_exhaustive_two_regular_n4(self):
        universe = list(pt.enumerate_pair_partitions(4))
        for p_a in universe:
            for p_b in universe:
                assert rd.verify_join_correspondence(p_a, p_b, rd.TWO_REGULAR)

    def test_random_large(self):
        rng = random.Random(31)
        for _ in range(50):
            p_a = pt.random_partition(rng, 100)
            p_b = pt.random_partition(rng, 100)
            assert rd.verify_join_correspondence(p_a, p_b, rd.GENERAL)
        for _ in range(50):
            p_a = pt.random_pair_partition(rng, 100)
            p_b = pt.random_pair_partition(rng, 100)
            assert rd.verify_join_correspondence(p_a, p_b, rd.TWO_REGULAR)


class TestTwoParty:
    def test_always_silent_trace(self):
        p = pt.parse_partition("(1,2)(3,4)")
        res = rd.two_party_simulate(AlwaysSilent(), p, p, rd.TWO_REGULAR, 3)
        assert res.equivalent
        for msg_a, msg_b in res.trace.rounds:
            assert msg_a == (Symbol.SILENT,) * 4
            assert msg_b == (Symbol.SILENT,) * 4
        assert res.trace.total_symbols == 2 * 3 * 4

    def test_full_exchange_verdict_matches_ground_truth(self):
        rng = random.Random(8)
        for _ in range(10):
            n = 2 * rng.randint(2, 8)
            p_a = pt.random_pair_partition(rng, n)
            p_b = pt.random_pair_partition(rng, n)
            algo = FullExchangeSparse(max_degree=2)
            g = rd.build_reduction(rd.TWO_REGULAR, p_a, p_b)
            t = algo.round_budget(g.instance)
            res = rd.two_party_simulate(algo, p_a, p_b, rd.TWO_REGULAR, t)
            assert res.equivalent
            assert res.system == rd.multicycle_ground_truth(p_a, p_b)
            assert res.trace.total_symbols == 2 * t * n

    def test_general_variant_message_width(self):
        p_a = pt.parse_partition("(1,2,3)")
        p_b = pt.SetPartition.singletons(3)
        res = rd.two_party_simulate(AlwaysSilent(), p_a, p_b, rd.GENERAL, 2)
        assert res.trace.symbols_per_message == 6  # 2n symbols per side
        assert res.trace.total_symbols == 2 * 2 * 6
        assert res.equivalent

    def test_bisimulation_against_monolithic(self):
        p_a = pt.parse_partition("(1,4)(2,3)")
        p_b = pt.parse_partition("(1,2)(3,4)")
        algo = FullExchangeSparse(max_degree=2)
        g = rd.build_reduction(rd.TWO_REGULAR, p_a, p_b)
        t = algo.round_budget(g.instance)
        res = rd.two_party_simulate(algo, p_a, p_b, rd.TWO_REGULAR, t)
        mono = simulate(g.instance, algo, t)
        assert res.equivalent
        for v in range(g.instance.n):
            assert res.states[v] == mono.states[v]
            assert res.verdicts[v] == mono.verdicts[v]
        assert res.system == mono.system_verdict
        assert transcript_from_trace(res) == mono.sent

    @pytest.mark.parametrize("machine", ["full-exchange", "random-table"])
    def test_swapped_senders_break_equivalence(self, monkeypatch, machine):
        p_a = pt.parse_partition("(1,4)(2,3)(5,6)")
        p_b = pt.parse_partition("(1,2)(3,6)(4,5)")
        g = rd.build_reduction(rd.TWO_REGULAR, p_a, p_b)
        if machine == "full-exchange":
            algo = FullExchangeSparse(max_degree=2)
            t = algo.round_budget(g.instance)
        else:
            algo, t = RandomTable(seed=5, modulus=3), 6
        mono = simulate(g.instance, algo, t)
        a0, a1 = g.alice_vertices[:2]
        assert mono.sent[a0] != mono.sent[a1]  # the swap is observable
        assert rd.two_party_simulate(algo, p_a, p_b, rd.TWO_REGULAR, t).equivalent

        honest = rd._rebuilt_round

        def swapped(graph, msg_a, msg_b):
            msg_a = (msg_a[1], msg_a[0]) + msg_a[2:]
            return honest(graph, msg_a, msg_b)

        monkeypatch.setattr(rd, "_rebuilt_round", swapped)
        assert not rd.two_party_simulate(algo, p_a, p_b, rd.TWO_REGULAR, t).equivalent

    @pytest.mark.parametrize("variant", [rd.TWO_REGULAR, rd.GENERAL])
    def test_one_run_per_simulation(self, variant):
        p_a = pt.parse_partition("(1,4)(2,3)")
        p_b = pt.parse_partition("(1,2)(3,4)")
        graph = rd.build_reduction(variant, p_a, p_b)
        degree = max(len(nbrs) for nbrs in graph.instance.input_neighbors)
        for base, params in ((FullExchangeSparse, {"max_degree": degree}),
                             (RandomTable, {"seed": 5, "modulus": 3})):

            class Counting(base):
                initialized = 0

                def initialize(self, view):
                    Counting.initialized += 1
                    return super().initialize(view)

            res = rd.two_party_simulate_graph(graph, Counting(**params), 6)
            assert res.equivalent
            assert Counting.initialized == graph.instance.n

    def test_b_greater_one_rejected(self):
        p = pt.parse_partition("(1,2)")
        graph = rd.build_reduction(rd.TWO_REGULAR, p, p)
        assert graph.instance.b == 1  # the wire format is defined for b=1


class TestTritPacking:
    def test_round_trip(self):
        symbols = (Symbol.ZERO, Symbol.SILENT, Symbol.ONE, Symbol.SILENT)
        packed = rd.pack_trits(symbols)
        assert rd.unpack_trits(packed, 4) == symbols

    def test_trace_hex_dump(self):
        p = pt.parse_partition("(1,2)(3,4)")
        res = rd.two_party_simulate(AlwaysSilent(), p, p, rd.TWO_REGULAR, 2)
        for a_hex, b_hex in res.trace.hex_rounds():
            assert rd.unpack_trits(a_hex, 4) == (Symbol.SILENT,) * 4
            assert rd.unpack_trits(b_hex, 4) == (Symbol.SILENT,) * 4


def test_ground_truth_matches_join():
    rng = random.Random(2)
    for _ in range(20):
        p_a = pt.random_pair_partition(rng, 12)
        p_b = pt.random_pair_partition(rng, 12)
        expected = Verdict.YES if pt.join(p_a, p_b).is_trivial else Verdict.NO
        assert rd.multicycle_ground_truth(p_a, p_b) == expected
