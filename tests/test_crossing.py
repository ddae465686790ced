"""Crossing transform, indistinguishability checks, fooling-pair search.

The fooling-pair position arithmetic (same-bucket pairs at cyclic
distance 3..n-3) is validated here against the definitional predicates:
independence plus an explicit crossing whose result is inspected.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from bcclab import crossing as cx
from bcclab import families as fm
from bcclab.algorithms import AlwaysSilent, IdExchange, RandomTable
from bcclab.sim import KT1, Symbol, make_instance, random_kt0_ports, simulate


def crossed_counterparts(e1, e2):
    """The two directed edges whose crossing undoes cross(inst, e1, e2)."""
    return (
        cx.DirectedInputEdge(e1.head, e2.tail, e1.head_port, e2.tail_port),
        cx.DirectedInputEdge(e2.head, e1.tail, e2.head_port, e1.tail_port),
    )


def split_key(cycle, i, k):
    """Oracle: the two-cycle key left by crossing positions i < k of ``cycle``.

    Built by the scalar rules, one pair at a time; the pair must satisfy
    :func:`bcclab.crossing.splitting_pairs`.
    """
    return fm.two_cycle_key(
        fm.canonical_cycle(cycle[i + 1:k + 1]),
        fm.canonical_cycle(cycle[k + 1:] + cycle[:i + 1]),
    )


def label_from_run(run, edge, t):
    """2t-symbol label: head broadcasts for rounds 1..t, then tail's."""
    return run.sent[edge.head][:t] + run.sent[edge.tail][:t]


def edge_label(instance, algorithm, t, edge, coins=()):
    return label_from_run(simulate(instance, algorithm, t, coins), edge, t)


def active_edges(instance, algorithm, t, x, y, coins=()):
    """Directed input edges whose head broadcast x and tail broadcast y."""
    x, y = tuple(x), tuple(y)
    if len(x) != t or len(y) != t:
        raise ValueError(f"need |x| = |y| = t = {t}")
    run = simulate(instance, algorithm, t, coins)
    return tuple(
        e
        for e in cx.directed_input_edges(instance)
        if run.sent[e.head][:t] == x and run.sent[e.tail][:t] == y
    )


def cycle_instance(n, **kw):
    return make_instance(n, [(i, (i + 1) % n) for i in range(n)], **kw)


def random_cycle_instance(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    return make_instance(n, edges, ports=random_kt0_ports(rng, n))


class TestIndependence:
    def test_spec_positive_case(self):
        inst = cycle_instance(6)
        assert cx.are_independent(
            inst, cx.oriented_edge(inst, 0, 1), cx.oriented_edge(inst, 3, 4)
        )

    def test_crossed_counterpart_present(self):
        # (2,1) is an input edge of the 6-cycle, so (0,1) vs (2,3) fails
        inst = cycle_instance(6)
        assert not cx.are_independent(
            inst, cx.oriented_edge(inst, 0, 1), cx.oriented_edge(inst, 2, 3)
        )

    def test_shared_vertex(self):
        inst = cycle_instance(6)
        assert not cx.are_independent(
            inst, cx.oriented_edge(inst, 0, 1), cx.oriented_edge(inst, 1, 2)
        )

    def test_foreign_edge_rejected(self):
        inst = cycle_instance(6)
        other = cycle_instance(8)
        with pytest.raises(ValueError, match="does not belong"):
            cx.are_independent(
                inst, cx.oriented_edge(inst, 0, 1), cx.oriented_edge(other, 6, 7)
            )

    def test_distance_two_aligned_pairs_excluded_exhaustively(self):
        for n in range(6, 10):
            inst = cycle_instance(n)
            for i in range(n):
                for j in range(i + 1, n):
                    e1 = cx.oriented_edge(inst, i, (i + 1) % n)
                    e2 = cx.oriented_edge(inst, j, (j + 1) % n)
                    d = (j - i) % n
                    expected = 3 <= d <= n - 3
                    assert cx.are_independent(inst, e1, e2) == expected


class TestCross:
    def test_six_cycle_split(self):
        inst = cycle_instance(6)
        crossed = cx.cross(
            inst, cx.oriented_edge(inst, 0, 1), cx.oriented_edge(inst, 3, 4)
        )
        assert fm.cycles_of_instance(crossed) == ((0, 4, 5), (1, 2, 3))

    def test_two_cycle_merge(self):
        inst = fm.instance_from_cycles([(0, 1, 2), (3, 4, 5)])
        crossed = cx.cross(
            inst, cx.oriented_edge(inst, 0, 1), cx.oriented_edge(inst, 3, 4)
        )
        merged = fm.cycles_of_instance(crossed)
        assert merged == (fm.canonical_cycle((0, 4, 5, 3, 1, 2)),)

    def test_ports_preserved_in_role(self):
        inst = cycle_instance(6)
        e1 = cx.oriented_edge(inst, 0, 1)
        e2 = cx.oriented_edge(inst, 3, 4)
        crossed = cx.cross(inst, e1, e2)
        # the new input edge (0,4) occupies e1's head port and e2's tail port
        assert crossed.port_at(0, 4) == e1.head_port
        assert crossed.port_at(4, 0) == e2.tail_port
        assert crossed.port_at(3, 1) == e2.head_port
        assert crossed.port_at(1, 3) == e1.tail_port
        # every vertex keeps its set of input-carrying ports
        for v in range(6):
            assert inst.view(v) == crossed.view(v)

    def test_dependent_pair_rejected(self):
        inst = cycle_instance(6)
        with pytest.raises(ValueError, match="independent"):
            cx.cross(inst, cx.oriented_edge(inst, 0, 1),
                     cx.oriented_edge(inst, 1, 2))

    def test_kt1_unsupported(self):
        inst = cycle_instance(6, mode=KT1)
        e1 = cx.DirectedInputEdge(0, 1, inst.port_at(0, 1), inst.port_at(1, 0))
        e2 = cx.DirectedInputEdge(3, 4, inst.port_at(3, 4), inst.port_at(4, 3))
        with pytest.raises(ValueError, match="KT0"):
            cx.cross(inst, e1, e2)

    def test_involution_random_draws(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randrange(6, 31)
            inst = random_cycle_instance(rng, n)
            edges = cx.directed_input_edges(inst)
            e1, e2 = rng.sample(edges, 2)
            if not cx.are_independent(inst, e1, e2):
                continue
            crossed = cx.cross(inst, e1, e2)
            c1, c2 = crossed_counterparts(e1, e2)
            assert cx.cross(crossed, c1, c2) == inst

    def test_both_reversed_gives_same_instance(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(6, 20)
            inst = random_cycle_instance(rng, n)
            edges = cx.directed_input_edges(inst)
            e1, e2 = rng.sample(edges, 2)
            if not cx.are_independent(inst, e1, e2):
                continue
            assert cx.cross(inst, e1, e2) == cx.cross(
                inst, e1.reversed(), e2.reversed()
            )

    def test_crossing_type_law_exhaustive(self):
        # aligned pairs at distance j split into (j, n-j); anti-aligned
        # independent pairs merge into a single n-cycle
        for n in range(6, 10):
            inst = cycle_instance(n)
            for i in range(n):
                for j in range(i + 1, n):
                    d = j - i
                    fwd_i = cx.oriented_edge(inst, i, (i + 1) % n)
                    fwd_j = cx.oriented_edge(inst, j, (j + 1) % n)
                    rev_j = cx.oriented_edge(inst, (j + 1) % n, j)
                    if 3 <= d <= n - 3:
                        crossed = cx.cross(inst, fwd_i, fwd_j)
                        lengths = sorted(
                            len(c) for c in fm.cycles_of_instance(crossed)
                        )
                        assert lengths == sorted((d, n - d))
                    if d not in (0, 1, n - 1):
                        assert cx.are_independent(inst, fwd_i, rev_j)
                        merged = cx.cross(inst, fwd_i, rev_j)
                        assert len(fm.cycles_of_instance(merged)) == 1


class TestSplitKernel:
    def test_kernel_matches_instance_crossings(self):
        # every same-direction position pair of a randomly wired cycle:
        # the kernel selects exactly the pairs whose instance-level
        # crossing is independent and splits into cycles of >= m vertices,
        # and split_key names the crossed instance's two cycles
        rng = random.Random(11)
        for n in range(6, 11):
            inst = random_cycle_instance(rng, n)
            cycle = cx.cycle_orientation(inst)
            for m in (3, 4):
                expected = []
                for i, k in combinations(range(n), 2):
                    ends = [(cycle[p], cycle[(p + 1) % n]) for p in (i, k)]
                    keys = set()
                    for (h1, t1), (h2, t2) in (ends, [e[::-1] for e in ends]):
                        e1 = cx.oriented_edge(inst, h1, t1)
                        e2 = cx.oriented_edge(inst, h2, t2)
                        if not cx.are_independent(inst, e1, e2):
                            continue
                        key = fm.cycles_of_instance(cx.cross(inst, e1, e2))
                        if len(key) == 2 and len(key[0]) >= m:
                            keys.add(key)
                    if keys:
                        assert keys == {split_key(cycle, i, k)}
                        expected.append((i, k))
                got = cx.splitting_pairs(range(n), n, m).tolist()
                assert [tuple(p) for p in got] == expected

    @pytest.mark.parametrize("n, m", [(6, 3), (7, 3), (8, 3), (8, 4)])
    def test_split_codes_match_the_oracle(self, n, m):
        # every member and splitting pair of the family: the code names the
        # key that split_key builds and that crossing the instance leaves
        fam = fm.enumerate_family(n, min_cycle_len=m)
        keys = dict(zip(fam.key_codes().tolist(), fam.all_two_cycle_keys()))
        assert len(keys) == fam.v2_size
        pairs = cx.splitting_pairs(range(n), n, m)
        table = cx.split_codes(np.array(fam.one_cycles, dtype=np.int8), pairs)
        assert table.shape == (fam.v1_size, len(pairs))
        for lk, codes in zip(fam.one_cycles, table.tolist()):
            inst = fam.one_cycle_instance(lk)
            for (i, k), code in zip(pairs.tolist(), codes):
                e1 = cx.oriented_edge(inst, lk[i], lk[i + 1])
                e2 = cx.oriented_edge(inst, lk[k], lk[(k + 1) % n])
                key = keys[code]
                assert key == split_key(lk, i, k)
                assert key == fm.cycles_of_instance(cx.cross(inst, e1, e2))

    def test_subset_of_positions(self):
        pairs = cx.splitting_pairs([0, 1, 4, 5, 7], 9)
        assert pairs.tolist() == [[0, 4], [0, 5], [1, 4], [1, 5], [1, 7], [4, 7]]
        assert cx.splitting_pairs([2], 9).shape == (0, 2)


class TestLabelsAndActivity:
    def test_t0_everything_active(self):
        inst = cycle_instance(7)
        active = active_edges(inst, AlwaysSilent(), 0, (), ())
        assert len(active) == 14  # both orientations of all 7 edges

    def test_silent_labels(self):
        inst = cycle_instance(6)
        e = cx.oriented_edge(inst, 0, 1)
        assert edge_label(inst, AlwaysSilent(), 2, e) == (Symbol.SILENT,) * 4

    def test_id_exchange_labels_partition_by_id_bits(self):
        inst = cycle_instance(6)
        algo = IdExchange(bits=3)
        run = simulate(inst, algo, 1)
        for e in cx.directed_input_edges(inst):
            label = label_from_run(run, e, 1)
            assert label == (Symbol(inst.ids[e.head] & 1),
                             Symbol(inst.ids[e.tail] & 1))

    def test_active_length_validation(self):
        inst = cycle_instance(6)
        with pytest.raises(ValueError, match=r"\|x\|"):
            active_edges(inst, AlwaysSilent(), 2, (Symbol.SILENT,), ())


class TestStatesIdentical:
    def test_reflexive(self):
        inst = cycle_instance(8)
        assert cx.states_identical(inst, inst, IdExchange(bits=3), 3)

    def test_matching_sequences_stay_indistinguishable(self):
        inst = cycle_instance(9)
        e1 = cx.oriented_edge(inst, 0, 1)
        e2 = cx.oriented_edge(inst, 4, 5)
        crossed = cx.cross(inst, e1, e2)
        # silent machine: all heads and tails share sequences trivially
        assert cx.states_identical(inst, crossed, AlwaysSilent(), 4)

    def test_matching_low_bits_stay_indistinguishable(self):
        # ids 0,4 share bits 0..1 and so do 1,5: the hypothesis holds
        # for two id-exchange rounds even though the full ids differ
        inst = cycle_instance(8)
        e1 = cx.oriented_edge(inst, 0, 1)
        e2 = cx.oriented_edge(inst, 4, 5)
        crossed = cx.cross(inst, e1, e2)
        algo = IdExchange(bits=3)
        assert cx.states_identical(inst, crossed, algo, 2)
        assert not cx.states_identical(inst, crossed, algo, 3)  # bit 2 differs

    def test_violating_case_reports_difference(self):
        inst = cycle_instance(8)
        e1 = cx.oriented_edge(inst, 0, 1)  # head bit 0 = 0, tail bit 0 = 1
        e2 = cx.oriented_edge(inst, 3, 4)  # head bit 0 = 1, tail bit 0 = 0
        crossed = cx.cross(inst, e1, e2)
        algo = IdExchange(bits=3)
        diff = cx.compare_states(inst, crossed, algo, 2)
        assert diff is not None
        assert diff.kind == "received"
        assert diff.vertex in (0, 1, 3, 4)
        assert 1 <= diff.round_no <= 2
        assert diff.port is not None


class TestFoolingPairs:
    def brute_force_pairs(self, inst, algorithm, t):
        """Definitional oracle: same-label independent pairs that split."""
        n = inst.n
        cycle = cx.cycle_orientation(inst)
        run = simulate(inst, algorithm, t)
        edges = [
            cx.oriented_edge(inst, cycle[i], cycle[(i + 1) % n]) for i in range(n)
        ]
        labels = [label_from_run(run, e, t) for e in edges]
        out = set()
        for i, k in combinations(range(n), 2):
            if labels[i] != labels[k]:
                continue
            if not cx.are_independent(inst, edges[i], edges[k]):
                continue
            crossed = cx.cross(inst, edges[i], edges[k])
            cycles = fm.cycles_of_instance(crossed)
            if len(cycles) == 2 and all(len(c) >= 3 for c in cycles):
                out.add((i, k))
        return out

    @pytest.mark.parametrize("n", [6, 7, 9, 12])
    def test_t0_matches_definitional_oracle(self, n):
        inst = cycle_instance(n)
        report = cx.find_fooling_pairs(inst, AlwaysSilent(), 0)
        got = {tuple(p) for p in report.pairs.tolist()}
        assert got == self.brute_force_pairs(inst, AlwaysSilent(), 0)

    def test_id_exchange_matches_oracle(self):
        inst = cycle_instance(12)
        algo = IdExchange(bits=4)
        for t in (0, 1, 2):
            report = cx.find_fooling_pairs(inst, algo, t, verify="full")
            got = {tuple(p) for p in report.pairs.tolist()}
            assert got == self.brute_force_pairs(inst, algo, t)

    def test_silent_any_t_equals_t0(self):
        inst = cycle_instance(12)
        r0 = cx.find_fooling_pairs(inst, AlwaysSilent(), 0)
        r5 = cx.find_fooling_pairs(inst, AlwaysSilent(), 5)
        assert r0.pairs.tolist() == r5.pairs.tolist()

    def test_full_verification_mode(self):
        inst = cycle_instance(10)
        report = cx.find_fooling_pairs(inst, RandomTable(seed=2, modulus=2), 2,
                                       verify="full")
        assert report.verification["checked"] == len(report)

    def test_split_lengths(self):
        inst = cycle_instance(9)
        report = cx.find_fooling_pairs(inst, AlwaysSilent(), 0)
        for idx in range(len(report)):
            a, b = report.pairs[idx]
            assert report.split_lengths(idx) == (b - a, 9 - (b - a))

    def test_requires_one_cycle(self):
        inst = fm.instance_from_cycles([(0, 1, 2), (3, 4, 5)])
        with pytest.raises(ValueError, match="single cycle"):
            cx.find_fooling_pairs(inst, AlwaysSilent(), 0)

    def test_kt1_rejected(self):
        with pytest.raises(ValueError, match="KT0"):
            cx.find_fooling_pairs(cycle_instance(6, mode=KT1), AlwaysSilent(), 0)


class TestCycleOrientation:
    def test_starts_at_min_id_toward_smaller_neighbor(self):
        inst = make_instance(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], ids=[10, 3, 7, 1, 9]
        )
        cycle = cx.cycle_orientation(inst)
        assert cycle[0] == 3  # vertex with id 1
        # neighbors of 3 are 2 (id 7) and 4 (id 9): head toward id 7
        assert cycle[1] == 2

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)],  # path 3-4-5 off the walk
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],  # degree 3 on the walk
            [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],  # figure eight at 0
            [(1, 2), (2, 3), (3, 1)],  # start vertex 0 isolated
        ],
    )
    def test_rejects_graphs_that_are_not_2_regular(self, edges):
        inst = make_instance(6, edges)
        with pytest.raises(ValueError):
            cx.cycle_orientation(inst)
