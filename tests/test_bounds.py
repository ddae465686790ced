"""Bound arithmetic: exact rationals, precision, monotonicity."""

import math
import time
from fractions import Fraction

import pytest

from bcclab import bounds as bd
from bcclab.partitions import bell


class TestPigeonhole:
    def test_t0_is_one(self):
        for n in (9, 27, 81, 1000):
            assert bd.pigeonhole_error_bound(n, 0) == 1

    def test_worked_example(self):
        # n=81: floor(81/3)=27, s=ceil(27/9)=3, C(3,2)/C(27,2) = 3/351
        assert bd.pigeonhole_error_bound(81, 1) == Fraction(3, 351)

    def test_monotone_nonincreasing_in_t(self):
        for n in (9, 30, 100, 5000):
            values = [bd.pigeonhole_error_bound(n, t) for t in range(6)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(0 <= v <= 1 for v in values)

    def test_positive_while_bucket_holds_two(self):
        for n in (100, 1000):
            m = n // 3
            for t in range(5):
                if 3 ** (2 * t) <= m // 2:
                    assert bd.pigeonhole_error_bound(n, t) > 0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 9"):
            bd.pigeonhole_error_bound(8, 0)

    def test_equals_the_formula_past_the_shortcut(self):
        # the bound skips 3^(2t) once t >= bit_length(m); the values agree
        for n in range(9, 400, 7):
            m = n // 3
            for t in range(m.bit_length() + 3):
                s = -(-m // 3 ** (2 * t))
                want = Fraction(math.comb(s, 2), math.comb(m, 2))
                assert bd.pigeonhole_error_bound(n, t) == want

    def test_huge_t_is_zero_at_once(self):
        start = time.perf_counter()
        assert bd.pigeonhole_error_bound(9, 10**9) == 0
        assert bd.pigeonhole_error_bound(10**6, 10**9) == 0
        assert time.perf_counter() - start < 1


class TestEntropy:
    def test_n3_eps0_is_log2_5(self):
        assert bd.entropy_comm_bound(3, 0) == pytest.approx(
            math.log2(5), abs=1e-9
        )

    def test_linear_in_one_minus_eps(self):
        full = bd.entropy_comm_bound(6, 0)
        assert bd.entropy_comm_bound(6, Fraction(1, 2)) == pytest.approx(
            full / 2, rel=1e-12
        )
        assert bd.entropy_comm_bound(6, Fraction(1, 3)) == pytest.approx(
            full * 2 / 3, rel=1e-12
        )

    def test_worked_example_n6(self):
        assert bd.entropy_comm_bound(6, Fraction(1, 3)) == pytest.approx(
            (2 / 3) * math.log2(203), rel=1e-12
        )

    def test_monotone(self):
        values = [bd.entropy_comm_bound(n, 0) for n in range(2, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))
        eps_values = [
            bd.entropy_comm_bound(10, Fraction(k, 10)) for k in range(10)
        ]
        assert all(a > b for a, b in zip(eps_values, eps_values[1:]))

    def test_eps_range(self):
        with pytest.raises(ValueError):
            bd.entropy_comm_bound(5, 1)
        with pytest.raises(ValueError):
            bd.entropy_comm_bound(5, -0.1)

    @pytest.mark.parametrize("eps", ["1/0", math.inf, -math.inf, math.nan])
    def test_bad_eps_raises_value_error(self, eps):
        # not ZeroDivisionError or OverflowError from Fraction
        with pytest.raises(ValueError):
            bd.entropy_comm_bound(5, eps)
        with pytest.raises(ValueError):
            bd.entropy_report(5, eps)

    def test_log2_big_precision(self):
        # float conversion is exact while bell(n) stays in float range
        for n in (10, 50, 120):
            b = bell(n)
            assert bd.log2_big(b) == pytest.approx(math.log2(float(b)), rel=1e-12)
        assert bd.log2_big(2**100) == 100
        assert bd.log2_big(2**5000) == 5000
        assert bd.log2_big(3**4000) == pytest.approx(4000 * math.log2(3), rel=1e-12)


class TestRoundConversion:
    def test_one_round_exactly(self):
        for n in (4, 64, 1000):
            assert bd.round_bound_from_comm(4 * n * bd.LOG2_3, n) == 1

    def test_doubling(self):
        base = bd.entropy_comm_bound(64, 0)
        r1 = bd.round_bound_from_comm(base, 64)
        r2 = bd.round_bound_from_comm(2 * base, 64)
        assert r1 <= r2 <= 2 * r1 + 1

    def test_regression_pinned_composition(self):
        # entropy bound at n=64 pushed through the trit conversion;
        # log2(bell(64)) = 216.70886 pinned from the first verified run
        comm = bd.entropy_comm_bound(64, 0)
        assert comm == pytest.approx(216.70886, abs=1e-4)
        assert bd.round_bound_from_comm(comm, 64) == 1

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            bd.round_bound_from_comm(0, 5)

    @pytest.mark.parametrize("comm_bits", [math.inf, -math.inf, math.nan])
    def test_non_finite_comm_bits_raise_value_error(self, comm_bits):
        # math.ceil(inf) would raise OverflowError
        with pytest.raises(ValueError, match="finite"):
            bd.round_bound_from_comm(comm_bits, 5)
        with pytest.raises(ValueError, match="finite"):
            bd.round_bound_report(comm_bits, 5)


class TestCrossModuleSanityLink:
    @pytest.mark.parametrize("n", [6, 7])
    def test_accept_all_floor_on_enumerated_families(self, n):
        # the always-accepting machine's measured error on the enumerated
        # families never drops below the trivial 1/2 floor
        from bcclab import families as fm
        from bcclab.algorithms import AlwaysYes
        from bcclab.sim import evaluate_error

        fam = fm.enumerate_family(n)
        yes = [fam.one_cycle_instance(k) for k in fam.one_cycles]
        no = [fam.two_cycle_instance(k) for k in fam.all_two_cycle_keys()]
        assert evaluate_error(AlwaysYes(), 0, yes, no) >= Fraction(1, 2)


class TestReports:
    def test_pigeonhole_report_record(self):
        rec = bd.pigeonhole_report(81, 1).to_record()
        assert rec["exact"] == "1/117"
        assert "C(" in rec["formula"]

    def test_entropy_report_params(self):
        rec = bd.entropy_report(3, Fraction(1, 2)).to_record()
        assert rec["params"]["eps"] == "1/2"
        assert rec["value"] == pytest.approx(math.log2(5) / 2, rel=1e-12)

    def test_round_report_documents_trit_factor(self):
        rec = bd.round_bound_report(100.0, 8).to_record()
        assert "log2(3)" in rec["formula"]
