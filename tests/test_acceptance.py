"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Everything here is exact: zero-tolerance integer
identities, exact rationals, and simulator-verified combinatorics; the
only float comparisons are the pinned log-ratio regression band and the
stated 1e-9 tolerance on a base-2 logarithm.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from bcclab import families as fm
from bcclab import indist as ig
from bcclab import joinmatrix as jm
from bcclab import matching as mt
from bcclab import partitions as pt
from bcclab import reduction as rd
from bcclab.algorithms import (
    AlwaysSilent,
    AlwaysYes,
    FullExchangeSparse,
    IdExchange,
    RandomTable,
)
from bcclab.bounds import entropy_comm_bound, pigeonhole_error_bound
from bcclab.crossing import (
    are_independent,
    cross,
    directed_input_edges,
    find_fooling_pairs,
    states_identical,
)
from bcclab.sim import (
    KT1,
    Verdict,
    evaluate_error,
    make_instance,
    random_kt0_ports,
    simulate,
)


def report(number, name, ok):
    print(f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_rank_identities():
    start = time.time()
    ok = True
    for n, dim in zip(range(1, 7), (1, 2, 5, 15, 52, 203)):
        matrix = jm.build_join_matrix("M", n)
        ok &= matrix.dimension == dim
        ok &= jm.exact_rank(matrix) == pt.bell(n) == dim
    for n, dim in zip((2, 4, 6, 8), (1, 3, 15, 105)):
        matrix = jm.build_join_matrix("E", n)
        ok &= matrix.dimension == dim
        ok &= jm.exact_rank(matrix) == pt.pair_partition_count(n) == dim
    ok &= time.time() - start < 120
    report(1, "rank identities M^n=B_n, E^n=(n-1)!!", ok)


def _random_cycle_instance(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    return make_instance(n, edges, ports=random_kt0_ports(rng, n))


def _matching_independent_pair(inst, algorithm, t, rng):
    run = simulate(inst, algorithm, t)
    buckets = {}
    for e in directed_input_edges(inst):
        label = (run.sent[e.head][:t], run.sent[e.tail][:t])
        buckets.setdefault(label, []).append(e)
    candidates = []
    for bucket in buckets.values():
        for e1, e2 in combinations(bucket, 2):
            if are_independent(inst, e1, e2):
                candidates.append((e1, e2))
        if len(candidates) > 200:
            break
    return rng.choice(candidates) if candidates else None


def test_criterion_02_crossing_indistinguishability_1000_trials():
    rng = random.Random(20240)
    trials = failures = 0
    while trials < 1000:
        n = rng.randrange(6, 31)
        t = rng.randrange(0, 5)
        inst = _random_cycle_instance(rng, n)
        algorithm = RandomTable(seed=rng.randrange(2**30),
                                modulus=rng.choice((1, 2, 3)))
        pair = _matching_independent_pair(inst, algorithm, t, rng)
        if pair is None:  # diverging machine left no same-label pair
            algorithm = RandomTable(seed=rng.randrange(2**30), modulus=1)
            pair = _matching_independent_pair(inst, algorithm, t, rng)
        e1, e2 = pair
        crossed = cross(inst, e1, e2)
        if not states_identical(inst, crossed, algorithm, t):
            failures += 1
        trials += 1
    report(2, "crossing indistinguishability, 1000 random trials",
           failures == 0)


def test_criterion_03_family_enumeration_and_handshake():
    ok = True
    start = time.time()
    for n in (6, 7, 8, 9):
        fam = fm.enumerate_family(n)
        fam_counts = fm.family_counts(n)
        ok &= fam.v1_size == fam_counts.v1 == _half_factorial(n)
        ok &= fam.t_sizes() == fam_counts.t_counts
        for i, size in fam.t_sizes().items():
            ok &= size <= Fraction(fam.v1_size * n, i * (n - i))
        graph = ig.build_indist_graph(fam, AlwaysSilent(), 0)
        stats = ig.degree_stats(graph)  # raises if the handshake fails
        ok &= stats.handshake_ok
    ok &= time.time() - start < 300
    report(3, "family counts = closed forms; T_i bound; handshake", ok)


def _half_factorial(n):
    from math import factorial

    return factorial(n - 1) // 2


def test_criterion_04_log_ratio_shadow():
    pinned = {
        10**2: 0.397062,
        10**3: 0.433025,
        10**4: 0.449891,
        10**5: 0.459923,
        10**6: 0.466603,
    }
    ok = True
    for n, expected in pinned.items():
        ok &= abs(fm.ratio_over_log(n) - expected) <= 0.02
    exact = [sum(fm.family_ratio_terms(n).values(), Fraction(0)) for n in range(6, 301)]
    ok &= all(a < b for a, b in zip(exact, exact[1:]))
    grid = [int(10 ** (k / 8)) for k in range(8, 49)]  # 10 .. 1e6
    floats = [fm.family_ratio_float(n) for n in grid]
    ok &= all(a < b for a, b in zip(floats, floats[1:]))
    report(4, "|V2|/|V1| increasing; ratio/ln(n) in the pinned band", ok)


def test_criterion_05_polygamous_hall():
    rng = random.Random(5150)
    ok = True
    for _ in range(200):
        left = rng.randint(1, 12)
        right = rng.randint(1, 16)
        k = rng.randint(1, 4)
        adjacency = {
            u: [r for r in range(right) if rng.random() < rng.uniform(0.2, 0.9)]
            for u in range(left)
        }
        result = mt.k_matching(adjacency, k)
        hall_ok, _ = mt.exhaustive_hall_check(adjacency, k)
        ok &= isinstance(result, mt.KMatching) == hall_ok
    for _ in range(50):  # planted saturating instances
        m, k = rng.randint(1, 10), rng.randint(1, 4)
        adjacency = {}
        base = 0
        for u in range(m):
            adjacency[u] = list(range(base, base + k))
            base += k
        result = mt.k_matching(adjacency, k)
        ok &= isinstance(result, mt.KMatching) and len(result.assignment) == m
    report(5, "k-matching iff exhaustive Hall; planted always saturate", ok)


def test_criterion_06_join_correspondence():
    ok = True
    for n in range(1, 6):  # exhaustive over all B_n^2 pairs, GENERAL
        universe = list(pt.enumerate_partitions(n))
        for p_a in universe:
            for p_b in universe:
                ok &= rd.verify_join_correspondence(p_a, p_b, rd.GENERAL)
    for n in (2, 4):  # exhaustive TWO_REGULAR
        universe = list(pt.enumerate_pair_partitions(n))
        for p_a in universe:
            for p_b in universe:
                ok &= rd.verify_join_correspondence(p_a, p_b, rd.TWO_REGULAR)
    rng = random.Random(606)
    for _ in range(1000):
        p_a = pt.random_partition(rng, 200)
        p_b = pt.random_partition(rng, 200)
        ok &= rd.verify_join_correspondence(p_a, p_b, rd.GENERAL)
    for _ in range(1000):
        p_a = pt.random_pair_partition(rng, 200)
        p_b = pt.random_pair_partition(rng, 200)
        graph = rd.build_reduction(rd.TWO_REGULAR, p_a, p_b)
        ok &= rd.components_partition(graph) == pt.join(p_a, p_b)
        ok &= all(len(nbr) == 2 for nbr in graph.instance.input_neighbors)
        cycles = fm.cycles_of_instance(graph.instance)
        ok &= all(len(c) >= 4 and len(c) % 2 == 0 for c in cycles)
    report(6, "join correspondence (exhaustive small, 1000 random n=200)", ok)


def test_criterion_07_two_party_bisimulation():
    rng = random.Random(707)
    ok = True
    for algorithm_factory in (
        lambda: FullExchangeSparse(max_degree=2),
        lambda: AlwaysSilent(),
    ):
        for _ in range(50):
            n = 2 * rng.randint(1, 64)  # ground size <= 128
            p_a = pt.random_pair_partition(rng, n)
            p_b = pt.random_pair_partition(rng, n)
            algorithm = algorithm_factory()
            graph = rd.build_reduction(rd.TWO_REGULAR, p_a, p_b)
            t = algorithm.round_budget(graph.instance) or rng.randint(1, 4)
            result = rd.two_party_simulate(algorithm, p_a, p_b, rd.TWO_REGULAR, t)
            ok &= result.equivalent
            ok &= result.trace.symbols_per_message == n
            ok &= result.trace.total_symbols == 2 * t * n
            if isinstance(algorithm, FullExchangeSparse):
                ok &= result.system == rd.multicycle_ground_truth(p_a, p_b)
    p_a = pt.parse_partition("(1,2)(3,4)(5)")
    p_b = pt.parse_partition("(1,2,4)(3)(5)")
    general = rd.two_party_simulate(AlwaysSilent(), p_a, p_b, rd.GENERAL, 3)
    ok &= general.equivalent and general.trace.symbols_per_message == 2 * 5
    report(7, "two-party bisimulation + exact symbol accounting", ok)


def test_criterion_08_fooling_pair_adversary():
    n = 2000
    inst = make_instance(n, [(i, (i + 1) % n) for i in range(n)])
    expected_t0 = np.array(
        [(i, k) for i, k in combinations(range(n), 2) if 3 <= k - i <= n - 3],
        dtype=np.int64,
    )
    ok = True
    for algorithm in (AlwaysYes(), AlwaysSilent(), IdExchange(bits=11)):
        for t in (0, 1, 2):
            report_obj = find_fooling_pairs(inst, algorithm, t, sample=6)
            ok &= len(report_obj) > 0
            ok &= report_obj.verification["failures"] == 0
            ok &= report_obj.verification["checked"] > 0
            if t == 0:
                ok &= report_obj.pairs.shape == expected_t0.shape
                ok &= bool(np.array_equal(report_obj.pairs, expected_t0))
    report(8, "fooling pairs: nonempty, verified; t=0 exact set", ok)


def test_criterion_09_error_evaluator():
    fam = fm.enumerate_family(8)
    yes0 = [fam.one_cycle_instance(k) for k in fam.one_cycles]
    no0 = [fam.two_cycle_instance(k) for k in fam.all_two_cycle_keys()]
    ok = evaluate_error(AlwaysYes(), 0, yes0, no0) == Fraction(1, 2)
    yes1 = [fam.one_cycle_instance(k, mode=KT1) for k in fam.one_cycles]
    no1 = [fam.two_cycle_instance(k, mode=KT1) for k in fam.all_two_cycle_keys()]
    algorithm = FullExchangeSparse(max_degree=2)
    budget = algorithm.round_budget(yes1[0])
    ok &= budget == 6  # ids < 8 at degree 2
    ok &= evaluate_error(algorithm, budget, yes1, no1) == 0
    report(9, "error: always-yes = 1/2 exactly; full exchange = 0", ok)


def test_criterion_10_bounds_arithmetic():
    import math

    ok = all(pigeonhole_error_bound(n, 0) == 1 for n in (9, 10, 33, 1000))
    ok &= abs(entropy_comm_bound(3, 0) - math.log2(5)) <= 1e-9
    full = entropy_comm_bound(12, 0)
    for num in range(10):
        eps = Fraction(num, 10)
        ok &= abs(entropy_comm_bound(12, eps) - float(1 - eps) * full) <= 1e-9
    report(10, "bounds: pigeonhole t=0 is 1; entropy = log2 B_n; linear", ok)
