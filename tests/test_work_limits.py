"""The one size policy: every size refusal goes through check_work.

The admit and refuse lists are judged from the recorded estimates, so
neither side runs its work. The guard tests lower a limit and show that
each site refuses before its work starts.
"""

import gc
import re
import tracemalloc
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from bcclab import cli, errors
from bcclab import crossing as cx
from bcclab import families as fm
from bcclab import indist as ig
from bcclab import joinmatrix as jm
from bcclab import matching as mt
from bcclab import partitions as pt
from bcclab import sim
from bcclab.algorithms import AlwaysSilent, IdExchange
from bcclab.cli import main
from bcclab.crossing import splitting_pairs
from bcclab.errors import ResourceLimitError
from work_estimates import admitted, estimate, largest_admitted


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def family_stub(n, min_cycle_len=3):
    """What build_indist_graph reads before its checks, without the family:
    every one-cycle member is the cycle 0, 1, ..., n-1."""
    count = fm.one_cycle_count(n)
    return SimpleNamespace(
        n=n, min_cycle_len=min_cycle_len,
        one_cycle_rows=np.broadcast_to(np.arange(n, dtype=np.int8), (count, n)),
    )


def fail(*args, **kwargs):
    raise AssertionError("work started before the size check")


class InboxSilent(AlwaysSilent):
    """AlwaysSilent delivered through simulate's per-vertex inbox loop."""

    def receive(self, state, round_no, inbox):
        return state


@cache
def family_graph(n):
    # every directed edge is active, as in the benchmark's family workload
    return ig.build_indist_graph(fm.enumerate_family(n), AlwaysSilent(), 0)


def family_k_matching(n, side, k):
    graph = family_graph(n)
    if side == "right":
        adjacency = {rk: sorted(lks) for rk, lks in graph.right_adjacency.items()}
    else:
        adjacency = graph.bipartite_adjacency()
    return mt.k_matching(adjacency, k)


def kmatch(*args):
    return main(["kmatch", *args])


# (description, call, args, site label)
ADMIT = [
    ("bell --n 1413", pt.bell, (1413,), "bell"),
    ("M^7", jm.build_join_matrix, ("M", 7), "kind M"),
    ("E^10", jm.build_join_matrix, ("E", 10), "kind E"),
    ("indist-stats --n 10: family", fm.enumerate_family, (10,), "family"),
    ("indist-stats --n 10: graph", ig.build_indist_graph,
     (family_stub(10), AlwaysSilent(), 0), "the indist"),
    ("indist-stats --n 10: member runs", ig.build_indist_graph,
     (family_stub(10), AlwaysSilent(), 0), "a batch"),
    *[(f"error-eval --n {n} --algo full-exchange-sparse --mode KT1: member runs", main,
       (["error-eval", "--n", str(n), "--algo", "full-exchange-sparse", "--mode", "KT1"],),
       "a batch") for n in (9, 10)],
    *[entry for n in (5000, 20000) for entry in (
        (f"fool --n {n} --t 3: instance", sim.make_instance, (n, cycle_edges(n)), "an instance"),
        (f"fool --n {n} --t 3: run", main, (["fool", "--n", str(n), "--t", "3"],), "3 rounds"),
        (f"fool --n {n} --t 3: sweep", main, (["fool", "--n", str(n), "--t", "3"],), "verifying"),
    )],
    # 5439 pairs, each crossed and checked on its four endpoints
    ("fool --n 300 --t 3 --verify full: sweep", main,
     (["fool", "--n", "300", "--t", "3", "--verify", "full"],), "verifying"),
    # a record-only run gets no deliveries: 10^6 broadcast calls
    ("record-only id-exchange at n=5000, t=200", sim.simulate,
     (SimpleNamespace(n=5000), IdExchange(bits=13), 200), "200 rounds"),
    ("family --n 2000", fm.family_counts, (2000,), "exact"),
    # the largest inputs tier-1 and the demos run
    ("partitions at n=10", pt.enumerate_partitions, (10,), "partition"),
    ("pairings at n=12", pt.enumerate_pair_partitions, (12,), "pairing"),
    ("family at n=9", fm.enumerate_family, (9,), "family"),
    ("Hall check on 12 lefts", mt.exhaustive_hall_check,
     ({u: [] for u in range(12)}, 1), "the exhaustive"),
    ("completion counts at n=200", pt._completions.__wrapped__, (200,), "the completion"),
    # the benchmark's family k-matchings
    *[(f"family k-matching at n=8: right, k={k}", family_k_matching, (8, "right", k),
       f"a {k}-matching") for k in (1, 2, 3)],
    ("family k-matching at n=8: left, k=1", family_k_matching, (8, "left", 1), "a 1-matching"),
    *[(f"kmatch --left 6 --right 12 --k 2 --trials 5: {what}", kmatch,
       ("--left", "6", "--right", "12", "--k", "2", "--trials", "5"), site)
      for what, site in (("draw", "a 6 x 12"), ("Hall checks", "the exhaustive"),
                         ("k-matchings", "a 2-matching"))],
    ("kmatch --left 6 --right 12 --k 100000: k-matching", kmatch,
     ("--left", "6", "--right", "12", "--k", "100000"), "a 100000-matching"),
    ("kmatch --left 6 --right 1000000: draw", kmatch,
     ("--left", "6", "--right", "1000000"), "a 6 x"),
]

REFUSE = [
    ("M^8", jm.build_join_matrix, ("M", 8), "kind M"),
    ("E^12", jm.build_join_matrix, ("E", 12), "kind E"),
    ("M^9", jm.build_join_matrix, ("M", 9), "kind M"),
    ("M at n=1000", jm.build_join_matrix, ("M", 1000), "kind M"),
    ("M at n=10^5", jm.build_join_matrix, ("M", 10**5), "kind M"),
    ("enumerate_family(12)", fm.enumerate_family, (12,), "family"),
    ("enumerate_partitions(13)", pt.enumerate_partitions, (13,), "partition"),
    ("enumerate_pair_partitions(16)", pt.enumerate_pair_partitions, (16,), "pairing"),
    ("bell(5000)", pt.bell, (5000,), "bell"),
    ("bell(10**9)", pt.bell, (10**9,), "bell"),
    ("indist-stats --n 11: graph", ig.build_indist_graph,
     (family_stub(11), AlwaysSilent(), 0), "the indist"),
    # an explicit table is refused on its n^2 entries before a row is read
    ("an explicit port table on 20000 vertices", sim.make_instance,
     (20000, [], sim.KT0, None, fail), "an instance"),
    # 12,487,500 pairs, each an O(n) crossing
    ("fool --n 5000 --t 0 --algo always-silent --verify full: sweep", main,
     (["fool", "--n", "5000", "--t", "0", "--algo", "always-silent", "--verify", "full"],),
     "verifying"),
    # the inbox loop delivers each of 10^6 broadcasts to 4999 ports
    ("inbox machine at n=5000, t=200", sim.simulate,
     (SimpleNamespace(n=5000), InboxSilent(), 200), "200 rounds"),
    ("10^7 members on 10 vertices: past the memory limit", sim.simulate_members,
     (np.broadcast_to(np.array([[1, 2]], dtype=np.int8), (10**7, 10, 2)), sim.KT0,
      AlwaysSilent(), 0), "a batch"),
    ("k_matching k=10^8 on 6 lefts", mt.k_matching,
     ({u: list(range(12)) for u in range(6)}, 10**8), "a 100000000-matching"),
    # the kmatch commands' refusals: TestCommandsRefuseFirst
]


@pytest.mark.parametrize("name, call, args, site", ADMIT, ids=[a[0] for a in ADMIT])
def test_admitted(name, call, args, site):
    assert admitted(estimate(call, *args, site=site))


@pytest.mark.parametrize("name, call, args, site", REFUSE, ids=[r[0] for r in REFUSE])
def test_refused(name, call, args, site):
    record = estimate(call, *args, site=site)
    assert not admitted(record)
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(record[0])} is estimated at"):
        errors.check_work(*record)


@pytest.mark.parametrize("n, algorithm, t", [
    (6000, AlwaysSilent(), 0), (20000, IdExchange(bits=15), 3),
], ids=["always-silent-6000-t0", "id-exchange-20000-t3"])
def test_run_estimate_bounds_its_peak(n, algorithm, t):
    # the views and states a run keeps are counted, not only its transcript
    inst = sim.make_instance(n, cycle_edges(n))
    memory = estimate(sim.simulate, inst, algorithm, t, site=f"{t} rounds")[2]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim.simulate(inst, algorithm, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak <= memory


@pytest.mark.parametrize("n", [9, 10])
def test_family_estimate_bounds_its_peak(n):
    # the bytes charged a key cover the n-cycle table's permutation buffer,
    # its filtered copy and the np.repeat temporaries of the two-cycle rows
    memory = estimate(fm.enumerate_family, n, site="family")[2]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fm.enumerate_family(n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak <= memory


@pytest.mark.parametrize("kind, n", [("M", 6), ("E", 8), ("E", 10)])
def test_matrix_estimate_bounds_the_rank_peak(kind, n):
    # the bytes of the build's check cover the rank's int64 residues, its
    # panel and GEMM blocks, and the buffers numpy takes for them
    memory = estimate(jm.build_join_matrix, kind, n, site=f"kind {kind}")[2]
    matrix = jm.build_join_matrix(kind, n)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        jm.exact_rank(matrix)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak <= memory


def test_member_batch_refused_on_memory_alone():
    name, call, args, site = next(r for r in REFUSE if r[1] is sim.simulate_members)
    _, steps, memory = estimate(call, *args, site=site)
    assert steps <= errors.STEP_LIMIT and memory > errors.MEMORY_LIMIT


class TestCheckWork:
    def test_one_line_naming_estimate_and_limits(self):
        with pytest.raises(ResourceLimitError) as e:
            errors.check_work("a job", 2 * errors.STEP_LIMIT, 5)
        assert str(e.value) == (
            "a job is estimated at 8e+09 steps and 5 bytes, "
            "over the limits of 4e+09 steps and 2.147e+09 bytes"
        )

    def test_either_limit_refuses(self):
        errors.check_work("a job", errors.STEP_LIMIT, errors.MEMORY_LIMIT)
        with pytest.raises(ResourceLimitError):
            errors.check_work("a job", 0, errors.MEMORY_LIMIT + 1)

    def test_estimates_of_any_size_print(self):
        with pytest.raises(ResourceLimitError, match="at 1e\\+300 steps"):
            errors.check_work("a job", 2**2000, 0)

    def test_counts_are_exact_to_64_and_floored_past_it(self):
        assert errors.capped_count(pt.bell, 64) == pt.bell(64) > 2**63
        assert errors.capped_count(fail, 65) == 2**63
        for count in (pt.bell, pt.pair_partition_count, fm.one_cycle_count):
            assert count(64) > 2**63


def test_sweep_estimate_counts_the_checks_it_makes():
    for n in (6, 12, 13):
        inst = sim.make_instance(n, cycle_edges(n))
        for algo, t in ((AlwaysSilent(), 0), (IdExchange(bits=4), 2)):
            pairs = len(cx.find_fooling_pairs(inst, algo, t, verify="none"))
            for verify, sample, checks in (("full", 8, pairs), ("sampled", 3, min(3, pairs)),
                                           ("sampled", 8, min(8, pairs)), ("none", 8, 0)):
                what = estimate(cx.find_fooling_pairs, inst, algo, t, verify, sample,
                                site="verifying")[0]
                assert what == f"verifying {checks} of {pairs} fooling pairs on {n} vertices"


def test_graph_estimate_counts_every_splitting_pair():
    # the closed form n (n - 2m + 1) / 2 against the pairs the build crosses
    for n in range(5, 13):
        for min_cycle_len in (3, 4, 5):
            what = estimate(ig.check_graph_size, n, min_cycle_len, site="the indist")[0]
            pairs = splitting_pairs([0] * n, min_cycle_len)
            assert what.endswith(f"up to {fm.one_cycle_count(n) * len(pairs)} edges")


def test_largest_admitted_matrices_keep_block_closures_in_int16():
    # _block_closures needs n <= 15; test_largest_code_fits_int64 checks
    # two_cycle_codes' int64 bound the same way
    assert largest_admitted(lambda n: jm.build_join_matrix("M", n), "kind", 1) == 7
    assert largest_admitted(lambda n: jm.build_join_matrix("E", 2 * n), "kind", 1) == 5


class TestRefusalComesFirst:
    """Each site, with a limit lowered, refuses before its work starts."""

    @pytest.fixture
    def limits(self, monkeypatch):
        def lower(steps=errors.STEP_LIMIT, memory=errors.MEMORY_LIMIT):
            monkeypatch.setattr(errors, "STEP_LIMIT", steps)
            monkeypatch.setattr(errors, "MEMORY_LIMIT", memory)
        return lower

    def test_bell(self, limits):
        limits(steps=10)
        with pytest.raises(ResourceLimitError, match=r"^bell\(3\)"):
            pt.bell(3)

    def test_partitions(self, limits, monkeypatch):
        monkeypatch.setattr(pt.SetPartition, "from_rgs", fail)
        limits(steps=10**6)  # B_8 is counted, the 4140 partitions are not built
        with pytest.raises(ResourceLimitError, match="^partition enumeration at n=8"):
            next(pt.enumerate_partitions(8))

    def test_pairings(self, limits, monkeypatch):
        monkeypatch.setattr(pt, "SetPartition", fail)
        limits(steps=10**5)
        with pytest.raises(ResourceLimitError, match="^pairing enumeration at n=10"):
            next(pt.enumerate_pair_partitions(10))

    def test_completion_counts(self, limits):
        pt._completions.cache_clear()
        limits(memory=10**4)
        with pytest.raises(ResourceLimitError, match="^the completion counts at n=30"):
            pt.partition_at(30, 0)

    def test_join_matrix(self, limits, monkeypatch):
        monkeypatch.setitem(jm.KINDS, "M", (pt.bell, fail))
        limits(steps=10**4)
        with pytest.raises(ResourceLimitError, match="^kind M at n=5 with dimension 52"):
            jm.build_join_matrix("M", 5)

    def test_family(self, limits, monkeypatch):
        monkeypatch.setattr(fm, "_cycle_table", fail)
        limits(memory=10**3)  # the estimate at n = 6 is 70 keys of 18 bytes
        with pytest.raises(ResourceLimitError, match="^family enumeration at n=6"):
            fm.enumerate_family(6)

    def test_family_counts(self, limits, monkeypatch):
        monkeypatch.setattr(fm, "one_cycle_count", fail)
        limits(steps=1)
        with pytest.raises(ResourceLimitError, match="^exact closed-form counts at n=6"):
            fm.family_counts(6)

    def test_hall_check(self, limits, monkeypatch):
        monkeypatch.setattr(mt, "hall_check", fail)
        limits(steps=10)
        with pytest.raises(ResourceLimitError, match="^the exhaustive Hall check on 2 left"):
            mt.exhaustive_hall_check({0: [0], 1: [1]}, 1)

    def test_k_matching(self, limits, monkeypatch):
        monkeypatch.setattr(mt, "_index_graph", fail)
        limits(memory=500)
        with pytest.raises(ResourceLimitError, match="^a 5-matching on 2 left vertices and 3 edges"):
            mt.k_matching({0: [0, 1], 1: [1]}, 5)

    def test_make_instance_builds_no_port_table(self, limits, monkeypatch):
        monkeypatch.setattr(sim.BccInstance, "_law_row", fail)
        limits(memory=22 * 10)  # the 5 ids and 5 edges pass, a 5 x 5 table does not
        inst = sim.make_instance(5, cycle_edges(5))
        assert inst.rewired == () and inst.port_at(0, 4) == 4
        with pytest.raises(ResourceLimitError, match="^an instance on 5 vertices"):
            sim.make_instance(5, cycle_edges(5), ports=fail)  # never read

    def test_simulate(self, limits):
        inst = sim.make_instance(5, cycle_edges(5))
        machine = AlwaysSilent()
        machine.initialize = fail
        limits(steps=100)
        with pytest.raises(ResourceLimitError, match="^3 rounds on 5 vertices"):
            sim.simulate(inst, machine, 3)

    def test_fooling_pair_sweep(self, limits, monkeypatch):
        inst = sim.make_instance(12, cycle_edges(12))
        monkeypatch.setattr(cx, "cross", fail)
        monkeypatch.setattr(cx, "simulate_hosted", fail)
        limits(steps=10**5)  # the instance and the one run pass
        with pytest.raises(ResourceLimitError, match="^verifying 42 of 42 fooling pairs on 12"):
            cx.find_fooling_pairs(inst, AlwaysSilent(), 0, verify="full")

    def test_indist_graph_simulates_no_member(self, limits, monkeypatch):
        family = fm.enumerate_family(7)
        monkeypatch.setattr(ig, "simulate_members", fail)
        limits(memory=5 * 10**4)  # the 2520 cells are estimated at 88,200 bytes
        with pytest.raises(ResourceLimitError, match="^the indistinguishability graph at n=7"):
            ig.build_indist_graph(family, AlwaysSilent(), 0)


class TestCommandsRefuseFirst:
    def test_simulate_refuses_a_20000_vertex_table_before_its_rows(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        # a row read would end in "one port row per vertex required"
        path.write_text('{"n": 20000, "input_edges": [], "ports": []}')
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--instance", str(path), "--t", "1"])
        assert e.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("bcclab: error: an instance on 20000 vertices is estimated")

    @pytest.mark.parametrize("args, what", [
        ("--left 6 --right 12 --k 100000000", "a 100000000-matching on 6 left vertices"),
        ("--left 30 --right 100000000", "a 30 x 100000000 pair draw"),
        ("--left 22 --right 100000", "the exhaustive Hall check on 22 left vertices"),
        ("--left 20 --right 40 --trials 100",
         "the exhaustive Hall check on 20 left vertices, 100 times"),
    ])
    def test_kmatch_refuses_before_the_first_draw(self, capsys, monkeypatch, args, what):
        monkeypatch.setattr(cli.random, "Random", fail)
        with pytest.raises(SystemExit) as e:
            main(["kmatch", *args.split()])
        assert e.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"bcclab: error: {what}")

    def test_error_eval_refuses_a_batch_before_the_family_is_enumerated(
        self, capsys, monkeypatch
    ):
        # the 1,814,400 one-cycle members are counted in closed form, and
        # their batch is refused before a family key is listed
        monkeypatch.setattr(fm, "enumerate_family", fail)
        with pytest.raises(SystemExit) as e:
            main(["error-eval", "--n", "11", "--algo", "id-exchange"])
        assert e.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "bcclab: error: a batch of 1814400 members on 11 vertices over 4 rounds is estimated"
            " at 5.189e+09 steps and 2.076e+09 bytes, over the limits of 4e+09 steps and"
            " 2.147e+09 bytes"
        ]

    def test_error_eval_refuses_a_negative_t_before_the_family_is_enumerated(
        self, capsys, monkeypatch
    ):
        # a negative t shrinks the batch estimate; it is refused there
        monkeypatch.setattr(fm, "enumerate_family", fail)
        with pytest.raises(SystemExit) as e:
            main(["error-eval", "--n", "11", "--t", "-1"])
        assert e.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            "bcclab: error: round count must be nonnegative"
        ]

    def test_indist_stats_refuses_the_graph_before_any_member_runs(
        self, capsys, monkeypatch
    ):
        # the graph's closed-form estimate refuses n = 11 before the family
        # is enumerated, so no member is built or simulated
        graph = estimate(ig.build_indist_graph, family_stub(11), AlwaysSilent(), 0,
                         site="the indist")
        assert not admitted(graph)
        monkeypatch.setattr(fm, "enumerate_family", fail)
        monkeypatch.setattr(ig, "simulate_members", fail)
        with pytest.raises(SystemExit) as e:
            main(["indist-stats", "--n", "11"])
        assert e.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"bcclab: error: {graph[0]} is estimated")

