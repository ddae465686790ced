"""Family enumeration vs closed forms, canonical keys, ratio shadow."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from bcclab import families as fm
from bcclab.errors import ResourceLimitError
from bcclab.sim import make_instance
from oracles import family_ratio_terms, one_cycle_keys, two_cycle_key, two_cycle_keys
from work_estimates import largest_admitted


class TestCanonicalCycle:
    def test_rotation_and_reflection_invariance(self):
        base = (0, 3, 1, 4, 2)
        for k in range(5):
            rotated = base[k:] + base[:k]
            assert fm.canonical_cycle(rotated) == fm.canonical_cycle(base)
            assert fm.canonical_cycle(rotated[::-1]) == fm.canonical_cycle(base)

    def test_starts_at_minimum(self):
        assert fm.canonical_cycle((2, 5, 3))[0] == 2

    def test_too_short(self):
        with pytest.raises(ValueError):
            fm.canonical_cycle((0, 1))

    def test_batch_rule_matches_the_scalar_rule(self):
        rng = random.Random(6)
        for length in range(3, 12):
            rows = [rng.sample(range(11), length) for _ in range(200)]
            got = fm.canonical_cycles(np.array(rows, dtype=np.int8))
            assert [tuple(r) for r in got.tolist()] == [fm.canonical_cycle(r) for r in rows]


class TestTwoCycleCodes:
    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    def test_codes_follow_key_order_and_are_distinct(self, n):
        fam = fm.enumerate_family(n)
        keys = list(fam.all_two_cycle_keys())
        codes = fam.key_codes().tolist()
        assert len(set(codes)) == len(codes) == fam.v2_size
        by_code = [key for _, key in sorted(zip(codes, keys))]
        assert by_code == sorted(keys, key=lambda key: [fm.cycle_order(c) for c in key])

    def test_pieces_in_either_order_give_the_key_code(self):
        rng = random.Random(8)
        for n, i in [(6, 3), (8, 4), (9, 3), (11, 5)]:
            pieces = []
            for _ in range(50):
                vs = rng.sample(range(n), n)
                pieces.append((fm.canonical_cycle(vs[:i]), fm.canonical_cycle(vs[i:])))
            a = np.array([p[0] for p in pieces], dtype=np.int8)
            b = np.array([p[1] for p in pieces], dtype=np.int8)
            forward = fm.two_cycle_codes(a, b)
            assert forward.tolist() == fm.two_cycle_codes(b, a).tolist()
            for (ca, cb), code in zip(pieces, forward.tolist()):
                first, second = two_cycle_key(ca, cb)
                digits = first + second
                assert code == len(first) * n**n + sum(
                    d * n ** (n - 1 - p) for p, d in enumerate(digits)
                )

    def test_largest_code_fits_int64(self):
        n = largest_admitted(fm.enumerate_family, "family enumeration", start=5)
        assert n == 11
        assert (n // 2 + 1) * n**n < 2**63


# SHA-256 of repr(list(...)) of each enumeration: the family's one-cycle
# keys, and (i, key) for each two-cycle key of T_i. IndistGraph keys and
# `family --dump-members` follow this order, so it is part of the contract.
ONE_CYCLE_ORDER = {
    5: "ea0bcd8bad4617ece40f41befd4b46bfa1e3915e9aa6aeb2701697beb898cb65",
    6: "369778b78fbeeb1d42f4f0bfa4d502d6fc76aafa5c0aa6447fd18eb05af89b12",
    7: "dc3dac0547b9742591f86ec923907b004e2adea2e52260d6d1762f8877f6e10d",
    8: "36c82679498bc2aeaa6dd8c6d94ac15ef91432ebdfb6a7539640dc3c2c2e9d75",
    9: "8ddce68b66c3ecc2e0bb3ea1342c72dfb553b440f96936c74fa3976fec28a4b1",
}
TWO_CYCLE_ORDER = {
    (5, 3): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (5, 4): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (6, 3): "aa855af6cc53b645e90a20f354cb9465b416c0730157b9c010b2592e9c2086a7",
    (6, 4): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (7, 3): "c108582e903fe51df63a6d0fe99d1f168515ad2130eea7fc60f955545d3de980",
    (7, 4): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (8, 3): "e78a781c0959e84141683e9dbe9cb94c8516772fd38cbab0768987dfea589a2e",
    (8, 4): "7fc62f564551d8b8369f3fb29448462d50ab344328bcb3d8d59bac3e0dbe68df",
    (9, 3): "51ddf3a3c16b52426e82645bee2b2f5936adaec3d99e654b33ba60506bfbc601",
    (9, 4): "2a0c7d0fb60b1ca653b94d3e8c7ac928a612f8767ca1e58b529cec8d403b7f28",
}


def order_digest(keys):
    return hashlib.sha256(repr(list(keys)).encode()).hexdigest()


class TestEnumerationOrder:
    @pytest.mark.parametrize("n", sorted(ONE_CYCLE_ORDER))
    def test_one_cycle_keys(self, n):
        assert order_digest(fm.enumerate_family(n).one_cycles) == ONE_CYCLE_ORDER[n]

    @pytest.mark.parametrize("n, m", sorted(TWO_CYCLE_ORDER))
    def test_two_cycle_keys(self, n, m):
        fam = fm.enumerate_family(n, m)
        keys = ((i, key) for i, class_keys in fam.two_cycles.items() for key in class_keys)
        assert order_digest(keys) == TWO_CYCLE_ORDER[n, m]

    @pytest.mark.parametrize("n", range(5, 10))
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_arrays_and_keys_match_the_reference_enumeration(self, n, m):
        fam = fm.enumerate_family(n, m)
        ones = tuple(one_cycle_keys(n))
        twos = {}
        for i, key in two_cycle_keys(n, m):
            twos.setdefault(i, []).append(key)
        assert fam.one_cycles == ones
        assert fam.two_cycles == {i: tuple(keys) for i, keys in twos.items()}
        assert {type(v) for key in fam.one_cycles for v in key} == {int}
        arrays = [fam.one_cycle_rows, *chain.from_iterable(fam.two_cycle_rows.values())]
        assert all(a.dtype == np.int8 and not a.flags.writeable for a in arrays)
        assert fam.one_cycle_rows.tolist() == [list(key) for key in ones]
        assert list(fam.two_cycle_rows) == list(twos)
        for i, (first, second) in fam.two_cycle_rows.items():
            assert first.shape[1] == i
            assert list(zip(map(tuple, first.tolist()), map(tuple, second.tolist()))) == twos[i]


class TestEnumeration:
    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_counts_match_closed_forms(self, n):
        fam = fm.enumerate_family(n)
        counts = fm.family_counts(n)
        assert fam.v1_size == counts.v1
        assert fam.t_sizes() == counts.t_counts
        assert fam.v2_size == counts.v2

    def test_no_duplicates(self):
        fam = fm.enumerate_family(7)
        assert len(set(fam.one_cycles)) == fam.v1_size
        twos = list(fam.all_two_cycle_keys())
        assert len(set(twos)) == len(twos)

    def test_keys_are_canonical(self):
        fam = fm.enumerate_family(6)
        for key in fam.one_cycles:
            assert key == fm.canonical_cycle(key)
        for key in fam.all_two_cycle_keys():
            a, b = key
            assert a == fm.canonical_cycle(a) and b == fm.canonical_cycle(b)
            assert (len(a), a) <= (len(b), b)

    def test_min_cycle_len_4(self):
        assert fm.enumerate_family(7, min_cycle_len=4).v2_size == 0
        fam8 = fm.enumerate_family(8, min_cycle_len=4)
        assert fam8.t_sizes() == {4: fm.t_class_count(8, 4)}

    def test_instances_recover_keys(self):
        fam = fm.enumerate_family(6)
        inst = fam.one_cycle_instance(fam.one_cycles[17])
        assert fm.cycles_of_instance(inst) == (fam.one_cycles[17],)
        key = next(fam.all_two_cycle_keys())
        inst2 = fam.two_cycle_instance(key)
        assert fm.cycles_of_instance(inst2) == key

    def test_limits(self):
        with pytest.raises(ValueError):
            fm.enumerate_family(4)
        with pytest.raises(ResourceLimitError):
            fm.enumerate_family(12)

    def test_min_cycle_len_below_3_rejected(self):
        for build in (fm.enumerate_family, fm.family_counts):
            with pytest.raises(ValueError, match="min_cycle_len must be at least 3"):
                build(7, min_cycle_len=2)


class TestCyclesOfInstance:
    def test_any_cycle_count_in_key_order(self):
        inst = fm.instance_from_cycles([(9, 8, 7, 6), (0, 1, 2), (3, 5, 4)])
        assert fm.cycles_of_instance(inst) == ((0, 1, 2), (3, 4, 5), (6, 7, 8, 9))

    def test_isolated_vertices_are_skipped(self):
        inst = make_instance(5, fm.cycle_edges((1, 2, 3)))
        assert fm.cycles_of_instance(inst) == ((1, 2, 3),)

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)],  # path 3-4-5 off the first walk
            [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)],  # degree 3 inside the walk
            [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)],  # figure eight at 0
        ],
    )
    def test_rejects_graphs_that_are_not_cycles(self, edges):
        with pytest.raises(ValueError, match="exactly two"):
            fm.cycles_of_instance(make_instance(6, edges))


class TestCycleNeighbors:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_each_members_input_neighbors(self, n):
        fam = fm.enumerate_family(n)
        for neighbors, keys, make in (
            (fam.one_cycle_neighbors(), fam.one_cycles, fam.one_cycle_instance),
            (fam.two_cycle_neighbors(), list(fam.all_two_cycle_keys()), fam.two_cycle_instance),
        ):
            assert neighbors.shape == (len(keys), n, 2)
            for row, key in zip(neighbors.tolist(), keys):
                assert tuple(tuple(sorted(pair)) for pair in row) == make(key).input_neighbors


class TestClosedForms:
    def test_spec_values(self):
        c6 = fm.family_counts(6)
        assert (c6.v1, c6.t_counts, c6.ratio) == (60, {3: 10}, Fraction(1, 6))
        c9 = fm.family_counts(9)
        assert c9.v1 == 20160
        assert c9.t_counts == {3: 5040, 4: 4536}

    def test_ratio_terms_simplification(self):
        # |T_i|/|V1| must equal n/(2 i (n-i)) with the balanced halving
        for n in range(6, 30):
            counts = fm.family_counts(n)
            for i, term in family_ratio_terms(n).items():
                assert Fraction(counts.t_counts[i], counts.v1) == term

    @pytest.mark.parametrize("n", [10, 50, 144, 1001])
    def test_float_matches_exact(self, n):
        exact = float(sum(family_ratio_terms(n).values(), Fraction(0)))
        assert fm.family_ratio_float(n) == pytest.approx(exact, rel=1e-12)

    def test_ratio_increasing(self):
        values = [fm.family_ratio_float(n) for n in range(6, 4000, 13)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_ratio_over_log_pinned_band(self):
        # regression values from the first verified computation
        pinned = {
            10**2: 0.397062,
            10**3: 0.433025,
            10**4: 0.449891,
            10**5: 0.459923,
            10**6: 0.466603,
        }
        for n, expected in pinned.items():
            assert fm.ratio_over_log(n) == pytest.approx(expected, abs=2e-2)

    def test_ratio_matches_harmonic_sum(self):
        # sum_i n/(2 i (n-i)) telescopes to (H_{n-3} - H_2) / 2 exactly
        # (the balanced-class halving cancels the double-counted middle)
        for n in (10**4, 10**7):
            gamma = 0.5772156649015329
            approx = (math.log(n - 3) + gamma - 1.5) / 2
            assert fm.family_ratio_float(n) == pytest.approx(approx, rel=1e-4)

    def test_ti_upper_bound_from_counting(self):
        # |T_i| <= |V1| * n / (i (n-i)) for every enumerated class
        for n in (6, 7, 8, 9):
            counts = fm.family_counts(n)
            for i, size in counts.t_counts.items():
                assert size <= Fraction(counts.v1 * n, i * (n - i))
