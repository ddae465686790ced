"""Partition algebra tests.

The enumeration oracle here is recursive insertion (element k joins an
existing block or opens a new one), a different algorithm from the
restricted-growth-string loop under test.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bcclab import partitions as pt
from bcclab.errors import STEP_LIMIT, PartitionParseError, ResourceLimitError
from bcclab.partitions import SetPartition
from oracles import component_minima
from work_estimates import estimate


def brute_partitions(n):
    if n == 0:
        return [[]]
    out = []
    for p in brute_partitions(n - 1):
        for i in range(len(p)):
            out.append(p[:i] + [p[i] + [n]] + p[i + 1 :])
        out.append(p + [[n]])
    return out


def as_rgs(p):
    """Restricted growth string: position i carries the block index of i+1."""
    block_of = {e: i for i, block in enumerate(p.blocks) for e in block}
    return tuple(block_of[e] for e in range(1, p.ground_size + 1))


@st.composite
def partition_pairs(draw, max_n=7, count=2):
    n = draw(st.integers(1, max_n))
    parts = []
    for _ in range(count):
        rgs = [0]
        for _i in range(1, n):
            rgs.append(draw(st.integers(0, max(rgs) + 1)))
        parts.append(SetPartition.from_rgs(rgs))
    return parts


class TestCanonicalForm:
    def test_blocks_sorted_by_minimum(self):
        p = SetPartition(5, [[5], [3, 4], [2, 1]])
        assert str(p) == "(1,2)(3,4)(5)"

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SetPartition(3, [[1, 2], [2, 3]])

    def test_rejects_gaps(self):
        with pytest.raises(ValueError, match="missing"):
            SetPartition(4, [[1, 2], [4]])

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty"):
            SetPartition(2, [[1, 2], []])


class TestJoin:
    def test_paper_join_examples(self):
        p_a = pt.parse_partition("(1,2)(3,4)(5)")
        p_b = pt.parse_partition("(1,2,4)(3)(5)")
        p_c = pt.parse_partition("(1,2,4)(3,5)")
        assert str(pt.join(p_a, p_b)) == "(1,2,3,4)(5)"
        assert str(pt.join(p_a, p_c)) == "(1,2,3,4,5)"

    def test_idempotent(self):
        for p in pt.enumerate_partitions(4):
            assert pt.join(p, p) == p

    def test_ground_size_mismatch(self):
        with pytest.raises(ValueError, match="ground sizes"):
            pt.join(SetPartition.trivial(3), SetPartition.trivial(4))

    @given(partition_pairs(count=2))
    def test_commutative(self, pair):
        p, q = pair
        assert pt.join(p, q) == pt.join(q, p)

    @given(partition_pairs(count=3))
    def test_associative(self, triple):
        p, q, r = triple
        assert pt.join(pt.join(p, q), r) == pt.join(p, pt.join(q, r))

    @given(partition_pairs(count=1))
    def test_identity_and_absorbing(self, single):
        (p,) = single
        n = p.ground_size
        assert pt.join(p, SetPartition.singletons(n)) == p
        assert pt.join(p, SetPartition.trivial(n)).is_trivial

    def test_finest_coarsening_exhaustive_n4(self):
        # join(p, q) is coarsened by both, and is the finest such partition
        universe = list(pt.enumerate_partitions(4))
        for p in universe:
            for q in universe:
                j = pt.join(p, q)
                assert pt.is_refinement(p, j) and pt.is_refinement(q, j)
                for r in universe:
                    if pt.is_refinement(p, r) and pt.is_refinement(q, r):
                        assert pt.is_refinement(j, r)

    @settings(max_examples=30)
    @given(partition_pairs(max_n=6, count=2))
    def test_finest_coarsening_sampled(self, pair):
        p, q = pair
        j = pt.join(p, q)
        assert pt.is_refinement(p, j) and pt.is_refinement(q, j)
        for r in pt.enumerate_partitions(p.ground_size):
            if pt.is_refinement(p, r) and pt.is_refinement(q, r):
                assert pt.is_refinement(j, r)


def random_rgs_partition(rng, n, p_new):
    """A restricted growth string that opens a block with probability p_new."""
    rgs, top = [0], 0
    for _ in range(n - 1):
        if rng.random() < p_new:
            top += 1
            rgs.append(top)
        else:
            rgs.append(rng.randint(0, top))
    return SetPartition.from_rgs(rgs)


class TestJoinAgainstOracle:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([0.002, 0.02, 0.2, 0.9]),
           st.sampled_from([0.002, 0.02, 0.2, 0.9]))
    def test_n2000_matches_bfs_labels(self, seed, p_new, q_new):
        n, rng = 2000, random.Random(seed)
        p, q = random_rgs_partition(rng, n, p_new), random_rgs_partition(rng, n, q_new)
        # the element graph: each block a path over its elements, 0-based
        pairs = [(a - 1, b - 1) for part in (p, q) for block in part.blocks
                 for a, b in zip(block, block[1:])]
        label = component_minima(n, pairs)
        blocks = {}
        for e in range(1, n + 1):
            blocks.setdefault(label[e - 1], []).append(e)
        assert pt.join(p, q) == SetPartition(n, blocks.values())


class TestRefinement:
    def test_paper_footnote_example(self):
        p = pt.parse_partition("(1,2)(3,4)(5)")
        q = pt.parse_partition("(1,2)(3,4,5)")
        assert pt.is_refinement(p, q)
        assert not pt.is_refinement(q, p)

    def test_reflexive(self):
        for p in pt.enumerate_partitions(4):
            assert pt.is_refinement(p, p)

    def test_split_block_is_not_refined(self):
        assert not pt.is_refinement(
            pt.parse_partition("(1,2,3)"), SetPartition(3, [[1, 2], [3]])
        )


class TestEnumeration:
    def test_single_element(self):
        assert [str(p) for p in pt.enumerate_partitions(1)] == ["(1)"]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_insertion_oracle(self, n):
        enumerated = list(pt.enumerate_partitions(n))
        oracle = {
            SetPartition(n, blocks) for blocks in brute_partitions(n)
        }
        assert len(enumerated) == len(oracle)
        assert set(enumerated) == oracle

    @pytest.mark.parametrize("n", range(1, 11))
    def test_length_is_bell(self, n):
        assert sum(1 for _ in pt.enumerate_partitions(n)) == pt.bell(n)

    def test_rgs_lexicographic_order(self):
        seqs = [as_rgs(p) for p in pt.enumerate_partitions(5)]
        assert seqs == sorted(seqs)

    def test_limit(self):
        with pytest.raises(ResourceLimitError, match="partition enumeration at n=13 is estimated"):
            next(pt.enumerate_partitions(13))


class TestUnranking:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_partition_at_follows_the_enumeration(self, n):
        # so a uniform index gives an exactly uniform partition
        assert [pt.partition_at(n, i) for i in range(pt.bell(n))] == list(
            pt.enumerate_partitions(n)
        )

    def test_index_out_of_range(self):
        for index in (-1, 52):
            with pytest.raises(ValueError, match="outside 0..B_5 - 1"):
                pt.partition_at(5, index)
        with pytest.raises(ValueError, match="positive integer"):
            pt.partition_at(0, 0)

    def test_random_partition_draws_a_uniform_index(self):
        rng, twin = random.Random(7), random.Random(7)
        for n in (1, 5, 200):
            assert pt.random_partition(rng, n) == pt.partition_at(n, twin.randrange(pt.bell(n)))

    def test_completion_table_is_built_only_for_a_new_largest_size(self, monkeypatch):
        built = []
        check = pt._check_triangle

        def counted(what, n, rows):
            if what.startswith("the completion counts"):
                built.append(n)
            check(what, n, rows)

        monkeypatch.setattr(pt, "_check_triangle", counted)
        pt._completions.cache_clear()
        rng, twin = random.Random(8), random.Random(8)
        for n in (5, 40, 12, 40, 3, 60, 59, 7, 1, 60, 33):
            assert pt.random_partition(rng, n) == pt.partition_at(n, twin.randrange(pt.bell(n)))
        assert built == [5, 40, 60]
        # the n = 60 table unranks every smaller n as its own table does
        assert [pt.partition_at(6, i) for i in range(pt.bell(6))] == list(pt.enumerate_partitions(6))
        assert built == [5, 40, 60]

    def test_large_index_unranks_exactly(self):
        last = pt.partition_at(60, pt.bell(60) - 1)
        assert last == pt.SetPartition.singletons(60)
        assert pt.partition_at(60, 0) == pt.SetPartition.trivial(60)


class TestPairPartitions:
    def test_n2(self):
        assert [str(p) for p in pt.enumerate_pair_partitions(2)] == ["(1,2)"]

    def test_n4(self):
        got = {str(p) for p in pt.enumerate_pair_partitions(4)}
        assert got == {"(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)"}

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_counts(self, n):
        members = list(pt.enumerate_pair_partitions(n))
        assert len(members) == pt.pair_partition_count(n)
        assert len(set(members)) == len(members)
        assert all(p.is_pair_partition for p in members)

    def test_odd_rejected(self):
        with pytest.raises(ValueError, match="even"):
            next(pt.enumerate_pair_partitions(5))

    def test_limit(self):
        with pytest.raises(ResourceLimitError, match="pairing enumeration at n=16 is estimated"):
            next(pt.enumerate_pair_partitions(16))


class TestBell:
    def test_known_values(self):
        assert [pt.bell(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_binomial_recurrence(self):
        # independent cross-check: B_{n+1} = sum_k C(n,k) B_k
        from math import comb

        for n in range(12):
            assert pt.bell(n + 1) == sum(
                comb(n, k) * pt.bell(k) for k in range(n + 1)
            )

    def test_work_limit(self):
        n = 2688  # the largest n whose triangle estimate is within STEP_LIMIT
        assert estimate(pt.bell, n)[1] <= STEP_LIMIT < estimate(pt.bell, n + 1)[1]
        with pytest.raises(ResourceLimitError, match=r"bell\(2689\) is estimated at 4e\+09 "
                           r"steps and 2.331e\+07 bytes, over the limits of 4e\+09 steps"):
            pt.bell(n + 1)
        with pytest.raises(ResourceLimitError, match=r"bell\(1000000000\) is estimated"):
            pt.bell(10**9)  # refused before any work


class TestParseFormat:
    def test_parse_canonicalizes(self):
        assert str(pt.parse_partition("(2,1)(5)(4,3)")) == "(1,2)(3,4)(5)"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip(self, n):
        for p in pt.enumerate_partitions(n):
            assert pt.parse_partition(str(p)) == p

    def test_duplicate_element_position(self):
        with pytest.raises(PartitionParseError, match="duplicate element 2") as e:
            pt.parse_partition("(1,2)(2,3)")
        assert e.value.position == 6

    def test_gap_reported(self):
        with pytest.raises(PartitionParseError, match="missing"):
            pt.parse_partition("(1,3)")

    def test_malformed(self):
        with pytest.raises(PartitionParseError):
            pt.parse_partition("(1,2")
        with pytest.raises(PartitionParseError):
            pt.parse_partition("1,2)")
        with pytest.raises(PartitionParseError):
            pt.parse_partition("(1,,2)")


def test_random_pair_partition_is_valid():
    rng = random.Random(0)
    for _ in range(50):
        p = pt.random_pair_partition(rng, 20)
        assert p.is_pair_partition and p.ground_size == 20


def partition_index(n):
    """List of all partitions of {1..n} in enumeration order (the matrix index)."""
    return list(pt.enumerate_partitions(n))


def pair_partition_index(n):
    return list(pt.enumerate_pair_partitions(n))


def test_index_helpers_match_enumeration_order():
    # the matrix index contract: position k maps to the k-th enumerated
    # partition, stably across calls
    assert partition_index(5) == list(pt.enumerate_partitions(5))
    assert pair_partition_index(6) == list(pt.enumerate_pair_partitions(6))
