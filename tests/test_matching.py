"""Hopcroft-Karp, k-matchings, and the Hall-condition duality."""

import random
from collections import deque

import pytest

from bcclab import families as fm
from bcclab import indist as ig
from bcclab import matching as mt
from bcclab.algorithms import AlwaysSilent

INF = float("inf")


def random_bipartite(rng, left, right, density):
    return {
        u: [r for r in range(right) if rng.random() < density]
        for u in range(left)
    }


def hopcroft_karp_oracle(adjacency):
    """Reference Hopcroft-Karp on the caller's keys, with a recursive search.

    Lefts in sorted order, each neighbor list as sorted(set(...)); the
    list-indexed solver must return exactly what this returns.
    """
    lefts = sorted(adjacency)
    adj = {u: sorted(set(adjacency[u])) for u in lefts}
    match_left = {}
    match_right = {}
    dist = {}

    def bfs():
        queue = deque()
        for u in lefts:
            if u not in match_left:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = INF
        while queue:
            u = queue.popleft()
            if dist[u] < found:
                for r in adj[u]:
                    nxt = match_right.get(r)
                    if nxt is None:
                        found = dist[u] + 1
                    elif dist[nxt] == INF:
                        dist[nxt] = dist[u] + 1
                        queue.append(nxt)
        return found != INF

    def dfs(u):
        for r in adj[u]:
            nxt = match_right.get(r)
            if nxt is None or (dist[nxt] == dist[u] + 1 and dfs(nxt)):
                match_left[u] = r
                match_right[r] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in lefts:
            if u not in match_left:
                dfs(u)
    return len(match_left), match_left, match_right


def k_matching_oracle(adjacency, k):
    """Reference k-matching: a dict blow-up of (left, copy) keys, solved by
    hopcroft_karp_oracle, and the Hall witness by a BFS on those keys.

    The index-row k_matching must return exactly what this returns,
    the assignment's key order included.
    """
    blown = {(u, c): adjacency[u] for u in adjacency for c in range(k)}
    size, match_left, match_right = hopcroft_karp_oracle(blown)
    if size == len(blown):
        assignment = {}
        for (u, _c), r in match_left.items():
            assignment.setdefault(u, set()).add(r)
        return mt.KMatching(k, {u: frozenset(rs) for u, rs in assignment.items()})
    reachable = {u for u in blown if u not in match_left}
    queue = deque(reachable)
    seen_right = set()
    while queue:
        u = queue.popleft()
        for r in blown[u]:
            if r in seen_right:
                continue
            seen_right.add(r)
            partner = match_right.get(r)
            if partner is not None and partner not in reachable:
                reachable.add(partner)
                queue.append(partner)
    subset = frozenset(u for (u, _c) in reachable)
    return mt.HallViolation(k, subset, frozenset(mt.neighborhood(adjacency, subset)))


def assert_same_k_matching(got, want):
    assert type(got) is type(want)
    assert got == want
    if isinstance(want, mt.KMatching):
        assert list(got.assignment) == list(want.assignment)


class TestHopcroftKarp:
    def test_perfect_matching(self):
        adj = {0: [0, 1], 1: [1, 2], 2: [0, 2]}
        size, ml, mr = mt.hopcroft_karp(adj)
        assert size == 3
        assert sorted(ml) == [0, 1, 2]
        assert ml[0] in adj[0] and ml[1] in adj[1] and ml[2] in adj[2]
        assert len(set(ml.values())) == 3

    def test_deficient_graph(self):
        adj = {0: [0], 1: [0], 2: [0]}
        size, _, _ = mt.hopcroft_karp(adj)
        assert size == 1

    def test_matches_greedy_augmenting_oracle(self):
        # independent check: repeated DFS augmentation (Hungarian style)
        def augment_oracle(adj):
            match_right = {}

            def try_augment(u, seen):
                for r in adj[u]:
                    if r in seen:
                        continue
                    seen.add(r)
                    if r not in match_right or try_augment(match_right[r], seen):
                        match_right[r] = u
                        return True
                return False

            return sum(try_augment(u, set()) for u in sorted(adj))

        rng = random.Random(12)
        for _ in range(100):
            adj = random_bipartite(rng, rng.randint(1, 9), rng.randint(1, 9),
                                   rng.random())
            assert mt.hopcroft_karp(adj)[0] == augment_oracle(adj)


    @pytest.mark.parametrize("name", [
        lambda v: v,
        lambda v: f"v{v:02d}",
        lambda v: ((v % 3, (v, "x")), (v // 3,)),
    ], ids=["int", "str", "nested-tuple"])
    def test_identical_to_the_dict_oracle(self, name):
        rng = random.Random(2024)
        for _ in range(200):
            adj = random_bipartite(rng, rng.randint(1, 12), rng.randint(1, 14),
                                   rng.uniform(0.05, 0.8))
            # repeated and unsorted neighbors; right names disjoint from lefts
            adj = {u: rs + rs[:2] for u, rs in adj.items()}
            rng.shuffle(adj[0])
            graph = {name(u): [name(100 + r) for r in rs] for u, rs in adj.items()}
            # some lefts share one list object, so one row serves several
            lefts = list(graph)
            for _ in range(rng.randrange(3)):
                graph[rng.choice(lefts)] = graph[rng.choice(lefts)]
            got = mt.hopcroft_karp(graph)
            want = hopcroft_karp_oracle(graph)
            assert got == want
            assert list(got[1].items()) == list(want[1].items())
            assert list(got[2].items()) == list(want[2].items())
            for k in range(1, 5):
                assert_same_k_matching(mt.k_matching(graph, k), k_matching_oracle(graph, k))

    def test_long_augmenting_path(self):
        # the last left must shift all 3000 earlier matches along one path,
        # deeper than the interpreter's recursion limit
        adj = {i: [i - 1, i] for i in range(1, 3001)}
        adj[3001] = [0]
        size, ml, mr = mt.hopcroft_karp(adj)
        assert size == 3001
        assert ml == {i: i for i in range(1, 3001)} | {3001: 0}
        assert mr == {r: u for u, r in ml.items()}
        result = mt.k_matching(adj, 1)
        assert isinstance(result, mt.KMatching) and result.size == 3001


class TestKMatching:
    def test_star_with_k3(self):
        result = mt.k_matching({"c": ["r1", "r2", "r3"]}, 3)
        assert isinstance(result, mt.KMatching)
        assert result.assignment == {"c": frozenset({"r1", "r2", "r3"})}

    def test_complete_bipartite_regular(self):
        k, m = 3, 4
        adj = {u: list(range(k * m)) for u in range(m)}
        result = mt.k_matching(adj, k)
        assert isinstance(result, mt.KMatching)
        used = set()
        for u, rs in result.assignment.items():
            assert len(rs) == k and rs <= set(adj[u])
            assert not (rs & used)
            used |= rs

    def test_planted_instances_always_saturate(self):
        rng = random.Random(3)
        for _ in range(50):
            m, k = rng.randint(1, 8), rng.randint(1, 4)
            adj = {}
            base = 0
            for u in range(m):
                planted = list(range(base, base + k))
                base += k
                extra = [base + rng.randrange(10) for _ in range(rng.randrange(3))]
                adj[u] = planted + extra
            result = mt.k_matching(adj, k)
            assert isinstance(result, mt.KMatching)
            assert len(result.assignment) == m

    def test_violation_is_a_real_witness(self):
        adj = {0: [0, 1], 1: [0, 1], 2: [0, 1]}
        result = mt.k_matching(adj, 1)
        assert isinstance(result, mt.HallViolation)
        assert len(result.neighborhood) < len(result.subset)
        nbh = set()
        for u in result.subset:
            nbh.update(adj[u])
        assert nbh == set(result.neighborhood)

    def test_succeeds_iff_exhaustive_hall_passes(self):
        rng = random.Random(77)
        saturated_seen = violated_seen = 0
        for _ in range(200):
            left = rng.randint(1, 12)
            right = rng.randint(1, 14)
            k = rng.randint(1, 4)
            adj = random_bipartite(rng, left, right, rng.uniform(0.1, 0.9))
            result = mt.k_matching(adj, k)
            hall_ok, witness = mt.exhaustive_hall_check(adj, k)
            assert isinstance(result, mt.KMatching) == hall_ok
            if hall_ok:
                saturated_seen += 1
            else:
                violated_seen += 1
                assert len(witness.neighborhood) < k * len(witness.subset)
        assert saturated_seen and violated_seen


    @pytest.fixture(scope="class")
    def g7(self):
        return ig.build_indist_graph(fm.enumerate_family(7), AlwaysSilent(), 0)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_indist_graph_identical_to_the_dict_oracle(self, g7, side, k):
        if side == "left":
            adjacency = g7.bipartite_adjacency()
        else:
            adjacency = {rk: sorted(lks) for rk, lks in g7.right_adjacency.items()}
        assert_same_k_matching(mt.k_matching(adjacency, k), k_matching_oracle(adjacency, k))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_closed_form_k_at_t0(self, n):
        # the two-cycle side saturates exactly up to k = floor(|V1| / |V2|)
        # (6, 3, 2); the one-cycle side gets floor(|V2| / |V1|) = 0
        graph = ig.build_indist_graph(fm.enumerate_family(n), AlwaysSilent(), 0)
        counts = fm.family_counts(n)
        k = counts.v1 // counts.v2
        assert (k, counts.v2 // counts.v1) == ({6: 6, 7: 3, 8: 2}[n], 0)
        right = {rk: sorted(lks) for rk, lks in graph.right_adjacency.items()}
        left = graph.bipartite_adjacency()
        assert len(right) == counts.v2 and len(left) == counts.v1
        saturated = mt.k_matching(right, k)
        assert isinstance(saturated, mt.KMatching) and saturated.size == counts.v2
        for adjacency, bad in ((right, k + 1), (left, 1)):
            violation = mt.k_matching(adjacency, bad)
            assert isinstance(violation, mt.HallViolation)
            assert mt.hall_check(adjacency, violation.subset, bad) == (False, violation)


class TestHallCheck:
    def test_empty_subset_satisfied(self):
        ok, witness = mt.hall_check({0: [1]}, [], 5)
        assert ok and witness is None

    def test_reports_witness(self):
        ok, witness = mt.hall_check({0: [7], 1: [7]}, [0, 1], 1)
        assert not ok
        assert witness.subset == frozenset({0, 1})
        assert witness.neighborhood == frozenset({7})

    def test_foreign_vertex_rejected(self):
        with pytest.raises(ValueError, match="non-left"):
            mt.hall_check({0: [1]}, [0, 99], 1)
