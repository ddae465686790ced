"""Join-matrix construction and exact-rank tests.

Each fast path is checked against a slow oracle kept here or in the
module: the bitmask build against pairwise partition joins, and the
modular rank and its kernel certificate against fraction-free (Bareiss)
elimination and plain rational Gaussian elimination on everything small
enough to afford it.
"""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bcclab import joinmatrix as jm
from bcclab import partitions as pt
from bcclab.errors import ResourceLimitError
from oracles import full_lift_certificate, inverse_mod_prime, per_pivot_echelon

P = jm.PRIME


def rank_by_rational_elimination(rows):
    """Plain Gaussian elimination over Fraction; the cross-check oracle."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def join_row(index, i, columns):
    """Row i of the join matrix over `index`, one pt.join per entry."""
    return tuple(
        1 if pt.join(index[i], index[j]).is_trivial else 0 for j in columns
    )


def packed_msb_first(rows):
    """Row-major bits, 8 entries per byte, the last byte zero-padded."""
    bits = bytearray()
    acc = 0
    count = 0
    for row in rows:
        for v in row:
            acc = (acc << 1) | v
            count += 1
            if count == 8:
                bits.append(acc)
                acc, count = 0, 0
    if count:
        bits.append(acc << (8 - count))
    return bytes(bits)


def pairwise_join_rows(index):
    columns = range(len(index))
    return tuple(join_row(index, i, columns) for i in columns)


class TestBuild:
    def test_m1_is_trivially_one(self):
        m = jm.build_join_matrix("M", 1)
        assert m.rows.tolist() == [[1]]

    def test_m2_entries(self):
        # index order is RGS-lexicographic: (1,2) before (1)(2)
        m = jm.build_join_matrix("M", 2)
        assert [str(p) for p in m.index] == ["(1,2)", "(1)(2)"]
        assert m.rows.tolist() == [[1, 1], [1, 0]]

    def test_e4_is_all_ones_minus_identity(self):
        e = jm.build_join_matrix("E", 4)
        assert e.dimension == 3
        for i in range(3):
            for j in range(3):
                assert e.entry(i, j) == (0 if i == j else 1)

    def test_diagonal_law(self):
        m = jm.build_join_matrix("M", 4)
        for i, p in enumerate(m.index):
            assert m.entry(i, i) == (1 if p.is_trivial else 0)
        e = jm.build_join_matrix("E", 6)
        assert all(e.entry(i, i) == 0 for i in range(e.dimension))

    def test_symmetry(self):
        m = jm.build_join_matrix("M", 5)
        for i in range(m.dimension):
            for j in range(m.dimension):
                assert m.entry(i, j) == m.entry(j, i)

    def test_rows_are_true_when_they_have_a_row(self):
        # as a list of rows is, since exact_rank's callers pass either;
        # a comparison of the rows stays a plain array
        m = jm.build_join_matrix("M", 3)
        assert m.rows and m.rows[np.ix_([0, 2], [1, 2])]
        assert type(m.rows == 1) is np.ndarray
        with pytest.raises(ValueError, match="ambiguous"):
            bool(m.rows == 1)

    def test_limits(self):
        with pytest.raises(ResourceLimitError):
            jm.build_join_matrix("M", 8)
        with pytest.raises(ResourceLimitError):
            jm.build_join_matrix("E", 12)

    @pytest.mark.parametrize(
        "kind, n, dimension", [("M", 8, 4140), ("E", 12, 10395), ("M", 9, 21147)]
    )
    def test_cap_is_on_the_dimension_formula(self, kind, n, dimension):
        assert jm.expected_rank(kind, n) == dimension
        with pytest.raises(ResourceLimitError, match=f"dimension {dimension}"):
            jm.build_join_matrix(kind, n)

    def test_bell_count_serves_the_cap(self, monkeypatch):
        # M at n = 1000 refuses on the floor 2^63 of its dimension, and
        # computes no Bell number past B_64 to get there
        counted = []
        monkeypatch.setitem(jm.KINDS, "M", (lambda n: counted.append(n) or pt.bell(n), None))
        with pytest.raises(ResourceLimitError, match="n=1000 with dimension over 2\\^63"):
            jm.build_join_matrix("M", 1000)
        assert counted == []

    def test_huge_n_refused_without_its_count(self):
        with pytest.raises(ResourceLimitError, match="n=100000 with dimension over 2\\^63"):
            jm.build_join_matrix("M", 10**5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            jm.build_join_matrix("Q", 3)


class TestBuildAgainstPairwiseJoins:
    @pytest.mark.parametrize(
        "kind, n", [("M", n) for n in range(1, 7)] + [("E", n) for n in (2, 4, 6, 8)]
    )
    def test_whole_matrix(self, kind, n):
        m = jm.build_join_matrix(kind, n)
        assert tuple(map(tuple, m.rows.tolist())) == pairwise_join_rows(m.index)
        assert m.rows.dtype == np.int8 and m.rows.shape == (m.dimension, m.dimension)
        assert m.rows.flags.c_contiguous and not m.rows.flags.writeable
        assert type(m.entry(0, m.dimension - 1)) is int

    @pytest.mark.parametrize("kind, n", [("M", 7), ("E", 10)])
    def test_sampled_rows(self, kind, n):
        m = jm.build_join_matrix(kind, n)
        columns = range(m.dimension)
        rng = random.Random(f"{kind}{n}")
        for i in rng.sample(columns, 40):
            assert tuple(m.rows[i].tolist()) == join_row(m.index, i, columns)

    def test_no_partition_join_calls(self, monkeypatch):
        def refuse(p, q):
            raise AssertionError("build_join_matrix called pt.join")

        monkeypatch.setattr(pt, "join", refuse)
        assert jm.build_join_matrix("M", 5).dimension == 52


class TestExactRank:
    def test_zero_matrix(self):
        assert jm.exact_rank([[0, 0], [0, 0], [0, 0]]) == 0

    def test_m2_rank(self):
        assert jm.exact_rank(jm.build_join_matrix("M", 2)) == 2

    def test_e4_rank(self):
        assert jm.exact_rank(jm.build_join_matrix("E", 4)) == 3

    @pytest.mark.parametrize("n", range(1, 6))
    def test_m_rank_is_bell(self, n):
        assert jm.exact_rank(jm.build_join_matrix("M", n)) == pt.bell(n)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_e_rank_is_pairing_count(self, n):
        assert (
            jm.exact_rank(jm.build_join_matrix("E", n))
            == pt.pair_partition_count(n)
        )

    def test_m7_rank_877(self):
        assert jm.exact_rank(jm.build_join_matrix("M", 7)) == 877

    def test_e10_rank_945(self):
        assert jm.exact_rank(jm.build_join_matrix("E", 10)) == 945

    def test_rectangular(self):
        assert jm.exact_rank([[1, 2, 3], [2, 4, 6]]) == 1
        assert jm.exact_rank([[1, 0], [0, 1], [1, 1]]) == 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 15).flatmap(
            lambda n: st.lists(
                st.lists(
                    # multiples of PRIME make some matrices singular mod p only
                    st.integers(-5, 5) | st.sampled_from([P, -P, 2 * P, 2**70]),
                    min_size=n,
                    max_size=n,
                ),
                min_size=1,
                max_size=15,
            )
        )
    )
    def test_agrees_with_rational_oracle(self, rows):
        truth = rank_by_rational_elimination(rows)
        assert jm.exact_rank(rows) == jm.bareiss_rank(rows) == truth

    def test_agrees_on_join_matrices(self):
        for kind, n in (("M", 3), ("M", 4), ("E", 6)):
            m = jm.build_join_matrix(kind, n)
            if m.dimension <= 15:
                assert jm.exact_rank(m) == rank_by_rational_elimination(m.rows.tolist())


class TestModularCertificate:
    @pytest.mark.parametrize(
        "rows, rank",
        [
            ([[P, 0], [0, 1]], 2),
            ([[P]], 1),
            ([[P, 1], [0, P]], 2),
            ([[1, 1], [1, 1 + P]], 2),
            ([[2**70, 1], [1, 2**70]], 2),
            ([[2**70, 2**71], [1, 2]], 1),
            ([[-3, 5], [6, -10]], 1),
            ([[-3, 5], [6, 10]], 2),
            ([[], [], []], 0),
            ([[0, 0], [0, 0]], 0),
        ],
    )
    def test_rank_matches_bareiss(self, rows, rank):
        # the first four are full rank over Q but singular mod PRIME
        assert jm.bareiss_rank(rows) == rank
        assert jm.exact_rank(rows) == rank

    def test_singular_mod_p_falls_back_to_bareiss(self, monkeypatch):
        calls = []
        bareiss = jm.bareiss_rank

        def spy(rows):
            calls.append(rows)
            return bareiss(rows)

        monkeypatch.setattr(jm, "bareiss_rank", spy)
        assert jm._echelon_mod_prime(jm._integer_array([[P, 0], [0, 1]]))[0] == 1
        assert jm.exact_rank([[P, 0], [0, 1]]) == 2
        assert len(calls) == 1
        assert jm.exact_rank(jm.build_join_matrix("M", 4)) == 15
        assert len(calls) == 1  # full rank mod p needs no fallback

    def test_deficient_rank_needs_an_exact_certificate(self, monkeypatch):
        # with Bareiss answering -1, any other answer is the certificate's
        monkeypatch.setattr(jm, "bareiss_rank", lambda rows: -1)
        rows = jm.build_join_matrix("M", 4).rows.tolist()
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        assert jm.exact_rank(rows) == 14
        # rank 1 mod p, 2 over Q: the kernel identity fails on row 0
        assert jm.exact_rank([[P, 0], [0, 1]]) == -1
        step = jm._padic_step

        def perturbed(*args):
            digit, residual = step(*args)
            digit[0, 0] = (digit[0, 0] + 1) % P
            return digit, residual

        monkeypatch.setattr(jm, "_padic_step", perturbed)
        assert jm.exact_rank(rows) == -1

    def test_hadamard_bound_lifts_far_enough(self, monkeypatch):
        # Y = (a + 1) / a with a near 0.45 P: P < 2 (a^2 + (a + 1)^2) < P^2,
        # so the lifting needs two steps (mod P alone this fraction cannot
        # be reconstructed) and two suffice
        a = 9 * P // 20
        rows = [[a, a + 1], [2 * a, 2 * a + 2]]
        monkeypatch.setattr(jm, "bareiss_rank", lambda rows: -1)
        steps = counted_steps(monkeypatch)
        assert jm.exact_rank(rows) == 1
        assert len(steps) == 2

    def test_identity_past_int64(self, monkeypatch):
        # Y = (x + 1) / x with x near 2^30 and rows scaled by 2^5: the
        # identity's sums reach 2^65, so they are taken in Python integers
        x = 2**30 + 7
        monkeypatch.setattr(jm, "bareiss_rank", lambda rows: -1)
        assert jm.exact_rank([[x, x + 1], [2**5 * x, 2**5 * (x + 1)]]) == 1

    def test_row_sums_of_squares_past_int64(self, monkeypatch):
        # 2 (2^33)^2 leaves int64 while r beta PRIME does not: the Hadamard
        # bound is summed in Python integers
        monkeypatch.setattr(jm, "bareiss_rank", lambda rows: -1)
        assert jm.exact_rank([[2**33, 2**33], [2**34, 2**34]]) == 1
        assert jm.exact_rank([[2**33, -(2**33)], [-(2**34), 2**34]]) == 1

    def test_non_integer_entries_rejected(self):
        # truncating 1.5 to 1 would certify a rank-1 matrix as full rank
        with pytest.raises(TypeError):
            jm.exact_rank([[1.5, 3], [1, 2]])

    def test_bareiss_rejects_non_integer_entries(self):
        # floor division by the pivot 0.5 would rank this rank-2 matrix 1
        with pytest.raises(TypeError):
            jm.bareiss_rank([[0.5, 1], [1, 3]])


def counted_steps(monkeypatch):
    """The calls to jm._padic_step from here on, one entry per lifted digit."""
    calls = []
    step = jm._padic_step

    def spy(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(jm, "_padic_step", spy)
    return calls


@st.composite
def echelon_inputs(draw):
    """Integer matrices whose elimination mod PRIME crosses panel edges:
    widths around one and two panels, low rank, zero and repeated
    columns, a dependent row, multiples of PRIME, and 2^70 entries (an
    object array)."""
    nrows = draw(st.integers(1, 70))
    ncols = draw(st.sampled_from((1, 2, 7, 31, 32, 33, 63, 64, 65)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # 0/1 entries, as join matrices have
        a = (rng.random((nrows, ncols)) < draw(st.sampled_from((0.1, 0.5)))).astype(np.int64)
    else:
        k = draw(st.integers(0, min(nrows, ncols)))
        a = rng.integers(-3, 4, (nrows, k)) @ rng.integers(-3, 4, (k, ncols))
    a[:, rng.random(ncols) < draw(st.sampled_from((0, 0.1, 0.4)))] = 0
    for j in np.flatnonzero(rng.random(ncols) < draw(st.sampled_from((0, 0.1)))):
        a[:, j] = a[:, rng.integers(j + 1)]
    if nrows > 2 and draw(st.booleans()):
        a[-1] = a[0] + a[1]
    multiples = rng.random(a.shape) < draw(st.sampled_from((0, 0.02, 0.2)))
    a[multiples] = PRIME_MULTIPLES[rng.integers(len(PRIME_MULTIPLES), size=multiples.sum())]
    if draw(st.booleans()):
        a = a.astype(object)
        a[rng.integers(nrows), rng.integers(ncols)] = 2**70
    return a


PRIME_MULTIPLES = np.array([P, -P, 2 * P, 0])


def factors_of(lu, rank, pivot_cols):
    """(L, U) of B = A[R, C] from the getrf layout of _echelon_mod_prime."""
    block = lu[:rank, pivot_cols]
    return np.tril(block), np.triu(block, 1) + np.eye(rank, dtype=np.int64)


class TestPanelEchelonAgainstOracles:
    @settings(max_examples=200, deadline=None)
    @given(echelon_inputs())
    def test_pivots_and_factors(self, a):
        rank, pivot_rows, pivot_cols, lu = jm._echelon_mod_prime(a)
        expected = per_pivot_echelon(a)
        assert (rank, pivot_rows.tolist(), pivot_cols.tolist()) == (
            expected[0], expected[1].tolist(), expected[2].tolist())
        lower, upper = factors_of(lu, rank, pivot_cols)
        b = a[np.ix_(pivot_rows, pivot_cols)] % P
        assert ((lower @ upper) % P == b).all()

    @settings(max_examples=100, deadline=None)
    @given(echelon_inputs(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_factor_solve_is_the_inverse(self, a, width, seed):
        rank, pivot_rows, pivot_cols, lu = jm._echelon_mod_prime(a)
        b = a[np.ix_(pivot_rows, pivot_cols)]
        if b.dtype == object:  # a 2^70 entry: the certificate refuses to lift
            return
        factors = lu[:rank, pivot_cols]
        inverses = [pow(int(p), -1, P) for p in factors.diagonal()]
        v = np.random.default_rng(seed).integers(-(2**40), 2**40, (rank, width))
        digit, _ = jm._padic_step(factors, inverses, b, v)
        assert (digit == inverse_mod_prime(b) @ (v % P) % P).all()

    def test_m7_and_e10(self):
        for kind, n in (("M", 7), ("E", 10)):
            a = jm.build_join_matrix(kind, n).rows
            rank, pivot_rows, pivot_cols, lu = jm._echelon_mod_prime(a)
            expected = per_pivot_echelon(a)
            assert rank == expected[0] == len(a)
            assert (pivot_rows == expected[1]).all() and (pivot_cols == expected[2]).all()
            lower, upper = factors_of(lu, rank, pivot_cols)
            rows = np.random.default_rng(n).choice(rank, 40, replace=False)
            assert ((lower[rows] @ upper) % P == a[np.ix_(pivot_rows[rows], pivot_cols)]).all()


class TestEarlyStopAgainstFullLift:
    """The certificate stops once its identity holds; the full lift to the
    Hadamard cap (the oracle) must give the same answer."""

    @staticmethod
    def both(rows):
        a = jm._integer_array(rows)
        rank, pivot_rows, pivot_cols, lu = jm._echelon_mod_prime(a)
        assert rank < min(a.shape)
        return (jm._kernel_certificate(a, lu, pivot_rows, pivot_cols),
                full_lift_certificate(a, pivot_rows, pivot_cols))

    @pytest.mark.parametrize("m, n", [(7, 7), (12, 9), (9, 12), (23, 40), (40, 17), (40, 40)])
    def test_low_rank_products(self, m, n):
        rng = random.Random(f"low-rank/{m}x{n}")
        for k in range(min(m, n)):
            assert self.both(low_rank_product(rng, m, n, k)) == (True, True)

    def test_m6_with_a_dependent_row_takes_one_digit(self, monkeypatch):
        rows = jm.build_join_matrix("M", 6).rows.tolist()
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        assert self.both(rows) == (True, True)
        steps = counted_steps(monkeypatch)
        assert jm.exact_rank(rows) == 202
        assert len(steps) == 1

    def test_deficient_principal_subset_of_m7(self):
        m = jm.build_join_matrix("M", 7)
        subset = sorted(random.Random(3).sample(range(m.dimension), 220))
        assert self.both(m.rows[np.ix_(subset, subset)]) == (True, True)

    @pytest.mark.parametrize("rows", [[[P, 0], [0, 1]], [[1, 1], [1, 1 + P]], [[P, 1], [0, P]]])
    def test_refused_where_the_rank_is_not_the_prime_rank(self, rows):
        assert self.both(rows) == (False, False)

    @settings(max_examples=60, deadline=None)
    @given(echelon_inputs())
    def test_random(self, a):
        rank, pivot_rows, pivot_cols, lu = jm._echelon_mod_prime(a)
        if rank < min(a.shape):
            assert jm._kernel_certificate(a, lu, pivot_rows, pivot_cols) == (
                full_lift_certificate(a, pivot_rows, pivot_cols))


def low_rank_product(rng, m, n, k):
    """U V with U m x k and V k x n, entries in -3..3: rank at most k."""
    u = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
    v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    return [[sum(u[i][t] * v[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


class TestKernelCertificateAgainstOracles:
    @pytest.mark.parametrize(
        "m, n",
        [(1, 1), (1, 6), (6, 1), (7, 7), (12, 9), (9, 12), (23, 40), (40, 17), (40, 40)],
    )
    def test_low_rank_products(self, m, n, monkeypatch):
        rng = random.Random(f"low-rank/{m}x{n}")
        cases = [low_rank_product(rng, m, n, k) for k in range(min(m, n) + 1)]
        truths = [jm.bareiss_rank(rows) for rows in cases]
        if min(m, n) <= 12:
            assert truths == [rank_by_rational_elimination(rows) for rows in cases]
        assert truths == list(range(min(m, n) + 1))  # every rank occurs
        # entries this small always fit the certificate: no fallback
        monkeypatch.setattr(jm, "bareiss_rank", lambda rows: -1)
        assert [jm.exact_rank(rows) for rows in cases] == truths

    def test_m6_with_a_dependent_row(self):
        rows = jm.build_join_matrix("M", 6).rows.tolist()
        rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        assert jm.exact_rank(rows) == jm.bareiss_rank(rows) == 202

    def test_deficient_principal_subset_of_m7(self):
        m = jm.build_join_matrix("M", 7)
        subset = sorted(random.Random(3).sample(range(m.dimension), 220))
        sub = m.rows[np.ix_(subset, subset)].tolist()
        assert not jm.verify_principal_submatrix_rank(m, subset)
        assert jm.exact_rank(sub) == jm.bareiss_rank(sub) == 219


class TestPrincipalSubmatrix:
    def test_empty_subset(self):
        m = jm.build_join_matrix("M", 3)
        assert jm.verify_principal_submatrix_rank(m, [])

    def test_full_index(self):
        m = jm.build_join_matrix("M", 3)
        assert jm.verify_principal_submatrix_rank(m, range(m.dimension))

    def test_pair_partition_rows_of_m4(self):
        m = jm.build_join_matrix("M", 4)
        pair_rows = [
            i for i, p in enumerate(m.index) if p.is_pair_partition
        ]
        assert len(pair_rows) == 3
        assert jm.verify_principal_submatrix_rank(m, pair_rows)

    def test_singleton_counterexample(self):
        # the diagonal of a full-rank 0/1 matrix can be 0, so principal
        # submatrices of full-rank matrices are NOT full rank in general:
        # any non-one-block partition joins itself to itself
        m = jm.build_join_matrix("M", 5)
        idx = next(i for i, p in enumerate(m.index) if not p.is_trivial)
        assert not jm.verify_principal_submatrix_rank(m, [idx])
        e = jm.build_join_matrix("E", 4)
        assert jm.exact_rank(e) == 3  # full rank, zero diagonal
        assert not jm.verify_principal_submatrix_rank(e, [0])

    def test_random_subsets_of_m5_match_oracle(self):
        # the checker's verdict must agree with independent elimination
        # on every subset, full rank or not
        m = jm.build_join_matrix("M", 5)
        rng = random.Random(7)
        full, deficient = 0, 0
        for _ in range(50):
            size = rng.randint(1, m.dimension)
            subset = sorted(rng.sample(range(m.dimension), size))
            sub = m.rows[np.ix_(subset, subset)].tolist()
            truth = rank_by_rational_elimination(sub) == len(subset)
            assert jm.verify_principal_submatrix_rank(m, subset) == truth
            full, deficient = full + truth, deficient + (not truth)
        assert full and deficient  # both outcomes occur

    def test_out_of_range(self):
        m = jm.build_join_matrix("M", 2)
        with pytest.raises(ValueError, match="range"):
            jm.verify_principal_submatrix_rank(m, [5])

    def test_detects_singular_submatrix(self):
        rows = np.array(((1, 1, 0), (1, 1, 0), (0, 0, 1)), dtype=np.int8)
        fake = jm.JoinMatrix("M", 0, (None, None, None), rows)
        assert not jm.verify_principal_submatrix_rank(fake, [0, 1])


class TestReportsAndExports:
    def test_rank_report(self):
        rec = jm.rank_report(jm.build_join_matrix("M", 4))
        assert rec == {
            "kind": "M", "n": 4, "dimension": 15, "rank": 15,
            "expected": 15, "pass": True,
        }

    def test_text_export_header(self):
        m = jm.build_join_matrix("E", 4)
        text = jm.export_text(m)
        head, *rows = text.strip().split("\n")
        assert "kind=E" in head and "dimension=3" in head
        assert rows == ["011", "101", "110"]

    def test_binary_export_round_trip_bits(self):
        m = jm.build_join_matrix("M", 3)
        blob = jm.export_binary(m)
        header, packed = blob.split(b"\n", 1)
        meta = json.loads(header)
        assert meta["dimension"] == 5
        bits = []
        for byte in packed:
            bits.extend((byte >> (7 - k)) & 1 for k in range(8))
        flat = m.rows.ravel().tolist()
        assert bits[: len(flat)] == flat

    @pytest.mark.parametrize(
        "kind, n", [("M", n) for n in range(1, 7)] + [("E", n) for n in (2, 4, 6, 8)]
    )
    def test_binary_export_matches_bit_packing_oracle(self, kind, n):
        m = jm.build_join_matrix(kind, n)
        header, packed = jm.export_binary(m).split(b"\n", 1)
        assert json.loads(header)["dimension"] == m.dimension
        assert packed == packed_msb_first(m.rows.tolist())

    # whole matrices, past the pairwise oracle's 40 sampled rows; the
    # digests come from an independent build (a per-row closure fixed point)
    @pytest.mark.parametrize(
        "kind, n, text_sha, binary_sha",
        [
            ("M", 7, "22aae64c3bfefdd7cc2b090f26edabb105585ecace3fe4511b09130452d039cc",
             "fa146d51815ff32afc67efd3438b0ca1cef521eed0404b54ba3307d166cb3e3f"),
            ("E", 8, "a58d004d99177a82e33b2e966052cea883081751190d724736df5637cba738f2",
             "26caf5a8d9d08e590f0bcb1ce4f3daafcd89765ce988ca4d0690c3cab562264b"),
            ("E", 10, "5d9b2537b6b9edbeb5e154b8f6a2f97800128ef36b634e63836cab9b64c0195b",
             "cd8250d8262db6fb8b7fdb1022a56147638f4122a70c252a1b166e6de36a2654"),
        ],
    )
    def test_exports_match_pinned_digests(self, kind, n, text_sha, binary_sha):
        m = jm.build_join_matrix(kind, n)
        assert hashlib.sha256(jm.export_text(m).encode()).hexdigest() == text_sha
        assert hashlib.sha256(jm.export_binary(m)).hexdigest() == binary_sha

    def test_index_hash_is_stable(self):
        a = jm.build_join_matrix("M", 4).index_hash()
        b = jm.build_join_matrix("M", 4).index_hash()
        assert a == b and len(a) == 64
