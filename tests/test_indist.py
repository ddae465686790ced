"""Indistinguishability-graph construction, statistics and Hall checks.

The position-kernel builder is checked field by field against an
instance-level reference that crosses every active directed pair; the
reference's witnesses are re-crossed and re-simulated.
"""

import gc
import tracemalloc
from dataclasses import fields, replace
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from bcclab import families as fm
from bcclab import indist as ig
from bcclab import matching as mt
from bcclab.algorithms import AlwaysSilent, IdExchange, RandomTable
from bcclab.cli import main
from bcclab.crossing import are_independent, cross, states_identical
from bcclab.errors import InternalConsistencyError
from bcclab.sim import Symbol, simulate
from oracles import dict_degree_stats, directed_input_edges, reversed_edge


def _op_key(f1, f2):
    """Canonical representative of {f1, f2} under both-edge reversal."""
    a = tuple(sorted((tuple(f1), tuple(f2))))
    b = tuple(sorted((tuple(reversed_edge(f1)), tuple(reversed_edge(f2)))))
    return min(a, b)


def instance_level_graph(family, algorithm, t, x=(), y=()):
    """Reference builder: crosses every active directed pair as an instance.

    Returns a record with every :class:`bcclab.indist.IndistGraph` field
    but ``edges`` and ``active``, the two key adjacencies, the two active
    edge counts by one-cycle key, ``op_counts``, the distinct
    pairs up to both-edge reversal per edge, and ``witnesses``, the first
    crossing pair of each edge in combinations(directed_input_edges(...), 2)
    order.
    """
    x, y = tuple(x), tuple(y)
    right_index = set(family.all_two_cycle_keys())
    adjacency = {}
    right_adjacency = {rk: set() for rk in right_index}
    op_counts, active_directed, active_undirected, witnesses = {}, {}, {}, {}
    for lk in family.one_cycles:
        inst = family.one_cycle_instance(lk)
        sent = simulate(inst, algorithm, t).sent
        active = [
            f for f in directed_input_edges(inst)
            if sent[f.head] == x and sent[f.tail] == y
        ]
        active_directed[lk] = len(active)
        active_undirected[lk] = len({frozenset((f.head, f.tail)) for f in active})
        ops = {}
        for f1, f2 in combinations(active, 2):
            if not are_independent(inst, f1, f2):
                continue
            key = fm.cycles_of_instance(cross(inst, f1, f2))
            if len(key) != 2 or len(key[0]) < family.min_cycle_len:
                continue
            assert key in right_index
            if key not in ops:
                witnesses[(lk, key)] = (f1, f2)
            ops.setdefault(key, set()).add(_op_key(f1, f2))
        if ops:
            adjacency[lk] = frozenset(ops)
            for rk, reps in ops.items():
                op_counts[(lk, rk)] = len(reps)
                right_adjacency[rk].add(lk)
    return SimpleNamespace(
        family=family, t=t, x=x, y=y,
        algorithm_name=getattr(algorithm, "name", "?"), adjacency=adjacency,
        right_adjacency={rk: frozenset(v) for rk, v in right_adjacency.items()},
        active_directed=active_directed, active_undirected=active_undirected,
        op_counts=op_counts, witnesses=witnesses,
    )


def assert_edge_array(graph):
    """The edges are a read-only (e, 2) int32 array, ascending in the
    one-cycle index, with no repeated row."""
    edges = graph.edges
    assert edges.dtype == np.int32 and edges.shape == (len(edges), 2)
    assert not edges.flags.writeable
    assert (np.diff(edges[:, 0]) >= 0).all()
    assert len(set(map(tuple, edges.tolist()))) == len(edges)


def assert_matches_oracle(got, want):
    """Every IndistGraph field but the two arrays, the key adjacencies and
    active counts derived from them, and the derived operation counts agree."""
    arrays = ("edges", "active")
    names = [field.name for field in fields(ig.IndistGraph) if field.name not in arrays]
    for name in names + ["adjacency", "right_adjacency", "active_directed", "active_undirected"]:
        assert getattr(got, name) == getattr(want, name), name
    assert_edge_array(got)
    assert got.active.dtype == np.int16 and got.active.shape == (len(got.left), 2)
    assert not got.active.flags.writeable
    # one operation per edge, counted by the oracle's own reversal
    # classes: the removed edges E(lk) - E(rk) fix the crossed pair
    assert got.op_counts == want.op_counts


def assert_witnesses_verified(got, want, algorithm):
    """The built edges are the oracle's, and each oracle witness crosses
    into its two-cycle and fools the full simulator."""
    edges = {(lk, rk) for lk, rks in got.adjacency.items() for rk in rks}
    assert edges == want.witnesses.keys()
    for (lk, rk), (f1, f2) in want.witnesses.items():
        i1 = got.family.one_cycle_instance(lk)
        i2 = cross(i1, f1, f2)
        assert fm.cycles_of_instance(i2) == rk
        assert states_identical(i1, i2, algorithm, got.t)


def hall_check(graph, subset, k):
    """Polygamous Hall condition |N(S)| >= k|S| on the left subset S."""
    adjacency = {lk: graph.adjacency.get(lk, frozenset()) for lk in subset}
    return mt.hall_check(adjacency, subset, k)


@pytest.fixture(scope="module")
def fam6():
    return fm.enumerate_family(6)


@pytest.fixture(scope="module")
def fam7():
    return fm.enumerate_family(7)


@pytest.fixture(scope="module")
def g6(fam6):
    return ig.build_indist_graph(fam6, AlwaysSilent(), 0)


@pytest.fixture(scope="module")
def g7(fam7):
    return ig.build_indist_graph(fam7, AlwaysSilent(), 0)


class TestBuildAtRoundZero:
    def test_n6_every_one_cycle_has_three_t3_neighbors(self, fam6, g6):
        for lk in fam6.one_cycles:
            neighbors = g6.adjacency[lk]
            assert len(neighbors) == 3
            assert all(len(rk[0]) == 3 for rk in neighbors)

    def test_n7_operation_fixtures(self, fam7, g7):
        # one operation per edge, so per-vertex operations are degrees
        assert all(g7.degree(lk) == 7 for lk in fam7.one_cycles)
        assert all(g7.right_degree(rk) == 24 for rk in g7.right)
        total = sum(g7.op_counts.values())
        assert total == 2520
        assert sum(g7.degree(lk) for lk in fam7.one_cycles) == total
        assert sum(g7.right_degree(rk) for rk in g7.right) == total

    def test_all_active_at_t0(self, fam6, g6):
        assert all(g6.active_directed[lk] == 12 for lk in fam6.one_cycles)
        assert all(g6.active_undirected[lk] == 6 for lk in fam6.one_cycles)

    def test_edges_verified_by_simulator(self, fam6, g6):
        algo = AlwaysSilent()
        assert_witnesses_verified(g6, instance_level_graph(fam6, algo, 0), algo)

    def test_keys_are_the_familys_objects_and_memory_is_small(self):
        fam = fm.enumerate_family(8)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = ig.build_indist_graph(fam, AlwaysSilent(), 0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        ones = {lk: lk for lk in fam.one_cycles}
        twos = {rk: rk for rk in fam.all_two_cycle_keys()}
        assert graph.edge_count() > 0
        for lk, rks in graph.adjacency.items():
            assert ones[lk] is lk
            assert all(twos[rk] is rk for rk in rks)
        for rk, lks in graph.right_adjacency.items():
            assert twos[rk] is rk
            assert all(ones[lk] is lk for lk in lks)
        assert retained < 8 * 2**20

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_edge_array(self, n):
        assert_edge_array(ig.build_indist_graph(fm.enumerate_family(n), AlwaysSilent(), 0))

    def test_adjacencies_keep_the_key_order(self, fam7, g7):
        assert list(g7.adjacency) == list(fam7.one_cycles)
        assert list(g7.right_adjacency) == list(fam7.all_two_cycle_keys())
        assert g7.right == tuple(fam7.all_two_cycle_keys())
        assert g7.adjacency is g7.adjacency  # derived once per graph

    def test_x_y_length_validation(self, fam6):
        with pytest.raises(ValueError, match=r"\|x\|"):
            ig.build_indist_graph(fam6, AlwaysSilent(), 1, (), ())

    @pytest.mark.parametrize("n", [7, 8])
    def test_family_missing_a_class_raises(self, n):
        fam = fm.enumerate_family(n)
        for i in fam.two_cycle_rows:
            twos = {j: rows for j, rows in fam.two_cycle_rows.items() if j != i}
            broken = replace(fam, two_cycle_rows=twos)
            with pytest.raises(InternalConsistencyError, match="missing from the enumerated family"):
                ig.build_indist_graph(broken, AlwaysSilent(), 0)


class TestBuildAtLaterRounds:
    def test_silent_t2_equals_t0_graph(self, fam6, g6):
        silent = (Symbol.SILENT, Symbol.SILENT)
        g = ig.build_indist_graph(fam6, AlwaysSilent(), 2, silent, silent)
        assert g.adjacency == g6.adjacency
        assert g.op_counts == g6.op_counts

    def test_id_exchange_prunes_edges(self, fam6, g6):
        x = (Symbol.ZERO,)
        y = (Symbol.ONE,)
        g = ig.build_indist_graph(fam6, IdExchange(bits=3), 1, x, y)
        assert g.edge_count() < g6.edge_count()
        # every surviving edge has a witness that passes the full simulator
        algo = IdExchange(bits=3)
        assert_witnesses_verified(g, instance_level_graph(fam6, algo, 1, x, y), algo)


def _common_broadcast(family, algorithm, t):
    # RandomTable machines broadcast one common sequence on these canonical
    # KT0 cycles, so x = y = that sequence is the non-empty choice
    inst = family.one_cycle_instance(family.one_cycles[0])
    return simulate(inst, algorithm, t).sent[0]


ORACLE_CASES = {
    "silent-t0": (AlwaysSilent(), 0, None),
    "id-exchange-t1": (IdExchange(bits=3), 1, ((Symbol.ZERO,), (Symbol.ONE,))),
    "table-mod2-t2": (RandomTable(seed=2, modulus=2), 2, None),
    "table-mod3-t2": (RandomTable(seed=2, modulus=3), 2, None),
}


class TestAgainstInstanceLevelOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("n", [6, 7])
    def test_equal_on_every_field(self, n, case, fam6, fam7):
        fam = {6: fam6, 7: fam7}[n]
        algorithm, t, xy = ORACLE_CASES[case]
        if xy is None:
            xy = (_common_broadcast(fam, algorithm, t),) * 2
        got = ig.build_indist_graph(fam, algorithm, t, *xy)
        want = instance_level_graph(fam, algorithm, t, *xy)
        assert got.edge_count() > 0
        assert_matches_oracle(got, want)
        if n == 6:
            assert_witnesses_verified(got, want, algorithm)

    def test_equal_with_minimum_cycle_length_4(self):
        fam = fm.enumerate_family(8, min_cycle_len=4)
        args = (IdExchange(bits=3), 1, (Symbol.ZERO,), (Symbol.ONE,))
        got = ig.build_indist_graph(fam, *args)
        assert got.edge_count() > 0
        assert_matches_oracle(got, instance_level_graph(fam, *args))


def _raise_on_read(self):
    raise AssertionError("a key adjacency was read")


def _with_repeated_row(graph, left):
    """The graph with the first edge row of `left` repeated after its last,
    so the rows still ascend by left."""
    lefts = graph.edges[:, 0]
    first, end = lefts.searchsorted(left), lefts.searchsorted(left, side="right")
    edges = np.insert(graph.edges, end, graph.edges[first], axis=0)
    edges.flags.writeable = False
    return replace(graph, edges=edges)


class TestDegreeStats:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    @pytest.mark.parametrize("n, min_cycle_len", [(6, 3), (7, 3), (8, 3), (8, 4)])
    def test_record_equals_the_dict_oracle(self, n, min_cycle_len, case):
        fam = fm.enumerate_family(n, min_cycle_len)
        algorithm, t, xy = ORACLE_CASES[case]
        if xy is None:
            xy = (_common_broadcast(fam, algorithm, t),) * 2
        graph = ig.build_indist_graph(fam, algorithm, t, *xy)
        got = ig.degree_stats(graph)
        assert got.to_record() == dict_degree_stats(graph).to_record()

    def test_reads_no_key_adjacency(self, fam7, monkeypatch, capsys):
        graph = ig.build_indist_graph(fam7, AlwaysSilent(), 0)
        for name in ("adjacency", "right_adjacency"):
            monkeypatch.setattr(ig.IndistGraph, name, property(_raise_on_read))
        assert ig.degree_stats(graph).edge_count == 2520
        assert main(["indist-stats", "--n", "7"]) == 0
        assert '"pass": true' in capsys.readouterr().out

    def test_size_only_paths_build_no_key_tuples(self, monkeypatch, capsys):
        # the graph, its statistics and error-eval's two member batches read
        # the family's cycle arrays; the key tuples are derived only on read
        fam = fm.enumerate_family(7)
        ig.degree_stats(ig.build_indist_graph(fam, AlwaysSilent(), 0))
        built, enumerate_family = [], fm.enumerate_family

        def enumerate_and_keep(*args):
            built.append(enumerate_family(*args))
            return built[-1]

        monkeypatch.setattr(fm, "enumerate_family", enumerate_and_keep)
        assert main(["error-eval", "--n", "7"]) == 0
        assert '"error": ' in capsys.readouterr().out
        assert len(built) == 1
        for family in (fam, *built):
            assert "one_cycles" not in family.__dict__
            assert "two_cycles" not in family.__dict__

    @pytest.mark.parametrize("n, left", [(7, 0), (7, 359), (8, 1500)])
    def test_a_repeated_edge_row_fails_the_handshake(self, n, left):
        # n = 8 has 2520 lefts, so the row repeats in a later block of lefts
        graph = ig.build_indist_graph(fm.enumerate_family(n), AlwaysSilent(), 0)
        edges = len(graph.edges)
        with pytest.raises(InternalConsistencyError,
                           match=f"handshake violated: edges {edges + 1}/{edges}"):
            ig.degree_stats(_with_repeated_row(graph, left))

    def test_indist_stats_fails_with_the_witness(self, monkeypatch, capsys):
        build = ig.build_indist_graph
        monkeypatch.setattr(ig, "build_indist_graph",
                            lambda *args: _with_repeated_row(build(*args), 7))
        assert main(["indist-stats", "--n", "7"]) == 1
        out = capsys.readouterr().out
        assert '"pass": false' in out
        assert '"witness": "handshake violated: edges 2521/2520"' in out

    def test_handshake_and_totals_n7(self, g7):
        stats = ig.degree_stats(g7)
        assert stats.handshake_ok
        assert stats.edge_count == 2520
        assert stats.ti_edge_totals == {3: 2520}
        assert stats.ti_op_totals == {3: 2520}
        assert stats.left_degree_hist == {7: 360}
        assert stats.right_degree_hist == {24: 105}

    def test_degree_condition_rows_reported(self, g7):
        stats = ig.degree_stats(g7)
        # d=7 gives a single class i=3; observed simple-degree-12 neighbor
        # counts are reported (they are 0 here; the classical bookkeeping
        # counts one-orientation operations, not simple degrees)
        assert stats.degree_condition_rows == {(7, 3, 7, 0): 360}

    def test_record_shape(self, g6):
        record = ig.degree_stats(g6).to_record()
        assert record["handshake_ok"] is True
        assert record["left_size"] == 60
        assert record["right_size"] == 10

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_t0_operation_identity(self, n):
        # at round 0 each one-cycle instance admits exactly n crossing
        # operations into T_i for i < n/2 (n/2 for the balanced class), and
        # each T_i member admits 2*i*(n-i) back; equating the two totals
        # pins |T_i| = |V1|*n / (2*i*(n-i)) exactly (the orientation factor
        # 2 tightens the one-sided counting bound by half)
        fam = fm.enumerate_family(n)
        graph = ig.build_indist_graph(fam, AlwaysSilent(), 0)
        stats = ig.degree_stats(graph)
        for i, size in fam.t_sizes().items():
            per_left = n if 2 * i < n else n // 2
            per_right = 2 * i * (n - i) if 2 * i < n else 2 * i * i
            assert stats.ti_op_totals[i] == fam.v1_size * per_left
            assert stats.ti_op_totals[i] == size * per_right
            assert size * 2 * i * (n - i) <= fam.v1_size * n  # the loose form

    def test_t0_one_cycle_degree_constant(self, fam7, g7, fam6, g6):
        # exhaustive counts settle the degree constant: a one-cycle
        # instance has n(n-5)/2 neighbors at t=0 (distance-2 pairs fail
        # independence, so n-5 partners per edge, not n-3)
        for fam, graph in ((fam6, g6), (fam7, g7)):
            n = fam.n
            for lk in fam.one_cycles:
                assert graph.degree(lk) == n * (n - 5) // 2


class TestHallAndMatching:
    def test_empty_subset(self, g6):
        ok, witness = hall_check(g6, [], 1)
        assert ok and witness is None

    def test_full_left_k1_fails_small_n(self, fam7, g7):
        # |V2| = 105 < 360 = |V1|: a small-n counting effect (the
        # neighborhood cannot exceed the whole right side)
        ok, witness = hall_check(g7, list(fam7.one_cycles), 1)
        assert not ok
        assert len(witness.neighborhood) == 105

    def test_k_matching_on_transposed_graph(self, g7):
        # the right side is the small one: every T3 member can claim 3
        # disjoint one-cycle partners
        transposed = {rk: sorted(lks) for rk, lks in g7.right_adjacency.items()}
        result = mt.k_matching(transposed, 3)
        assert isinstance(result, mt.KMatching)
        assert len(result.assignment) == 105
