"""The one size policy: every size refusal goes through check_work.

The admit and refuse lists are judged from the recorded estimates, so
neither side runs its work. The guard tests lower a limit and show that
each site refuses before its work starts.
"""

import re
from types import SimpleNamespace

import pytest

from bcclab import errors
from bcclab import families as fm
from bcclab import indist as ig
from bcclab import joinmatrix as jm
from bcclab import matching as mt
from bcclab import partitions as pt
from bcclab import sim
from bcclab.algorithms import AlwaysSilent
from bcclab.cli import main
from bcclab.errors import ResourceLimitError
from work_estimates import admitted, estimate, largest_admitted


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def family_stub(n, min_cycle_len=3):
    """What build_indist_graph reads before its check, without the family."""
    return SimpleNamespace(
        n=n, min_cycle_len=min_cycle_len, one_cycles=range(fm.one_cycle_count(n))
    )


def fail(*args, **kwargs):
    raise AssertionError("work started before the size check")


# (description, call, args, site label)
ADMIT = [
    ("bell --n 1413", pt.bell, (1413,), "bell"),
    ("M^7", jm.build_join_matrix, ("M", 7), "kind M"),
    ("E^10", jm.build_join_matrix, ("E", 10), "kind E"),
    ("indist-stats --n 10: family", fm.enumerate_family, (10,), "family"),
    ("indist-stats --n 10: graph", ig.build_indist_graph,
     (family_stub(10), AlwaysSilent(), 0), "the indist"),
    ("fool --n 5000 --t 3: instance", sim.make_instance, (5000, []), "an instance"),
    ("fool --n 5000 --t 3: run", sim.simulate,
     (SimpleNamespace(n=5000, b=1), AlwaysSilent(), 3), "3 rounds"),
    ("family --n 2000", fm.family_counts, (2000,), "exact"),
    # the largest inputs tier-1 and the demos run
    ("partitions at n=10", pt.enumerate_partitions, (10,), "partition"),
    ("pairings at n=12", pt.enumerate_pair_partitions, (12,), "pairing"),
    ("family at n=9", fm.enumerate_family, (9,), "family"),
    ("Hall check on 12 lefts", mt.exhaustive_hall_check,
     ({u: [] for u in range(12)}, 1), "the exhaustive"),
    ("completion counts at n=200", pt._completions.__wrapped__, (200,), "the completion"),
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
    ("fool --n 20000 --t 3: instance", sim.make_instance, (20000, []), "an instance"),
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
        monkeypatch.setattr(fm, "one_cycle_keys", fail)
        monkeypatch.setattr(fm, "two_cycle_keys", fail)
        limits(memory=10**4)
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

    def test_make_instance_builds_no_port_table(self, limits, monkeypatch):
        monkeypatch.setattr(sim, "canonical_kt0_ports", fail)
        limits(memory=100)
        with pytest.raises(ResourceLimitError, match="^an instance on 5 vertices"):
            sim.make_instance(5, cycle_edges(5))
        with pytest.raises(ResourceLimitError, match="^an instance on 5 vertices"):
            sim.make_instance(5, cycle_edges(5), ports=fail)  # never read

    def test_simulate(self, limits):
        inst = sim.make_instance(5, cycle_edges(5))
        machine = AlwaysSilent()
        machine.initialize = fail
        limits(steps=100)
        with pytest.raises(ResourceLimitError, match="^3 rounds on 5 vertices"):
            sim.simulate(inst, machine, 3)

    def test_indist_graph_simulates_no_member(self, limits, monkeypatch):
        family = fm.enumerate_family(7)
        monkeypatch.setattr(ig, "simulate", fail)
        limits(memory=10**5)
        with pytest.raises(ResourceLimitError, match="^the indistinguishability graph at n=7"):
            ig.build_indist_graph(family, AlwaysSilent(), 0)


class TestCommandsRefuseFirst:
    def test_fool_at_20000_builds_no_port_table(self, capsys, monkeypatch):
        monkeypatch.setattr(sim, "canonical_kt0_ports", fail)
        with pytest.raises(SystemExit) as e:
            main(["fool", "--n", "20000", "--t", "3"])
        assert e.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("bcclab: error: an instance on 20000 vertices is estimated")

    def test_indist_stats_refuses_the_graph_before_any_member_runs(
        self, capsys, monkeypatch
    ):
        # at n = 11 the family (admitted) is enumerated first; the same
        # order at n = 8 with the graph's memory over a lowered limit
        family = estimate(fm.enumerate_family, 8, site="family")
        graph = estimate(ig.build_indist_graph, family_stub(8), AlwaysSilent(), 0,
                         site="the indist")
        monkeypatch.setattr(errors, "MEMORY_LIMIT", family[2])
        assert graph[2] > family[2]
        monkeypatch.setattr(ig, "simulate", fail)
        with pytest.raises(SystemExit) as e:
            main(["indist-stats", "--n", "8"])
        assert e.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"bcclab: error: {graph[0]} is estimated")

