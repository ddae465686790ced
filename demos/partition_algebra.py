"""Set-partition joins, Bell numbers, and the full-rank join matrices.
=====================================================================

Walks the exact algebra layer: canonical partitions, the join as the
finest common coarsening, enumeration in a stable order, and the 0/1
join-indicator matrices whose exact integer rank equals their dimension.
"""

from bcclab import (
    bell,
    build_join_matrix,
    enumerate_partitions,
    exact_rank,
    join,
    parse_partition,
    rank_report,
)

# the worked example: (1,2)(3,4)(5) join (1,2,4)(3)(5) glues 1,2,3,4
p_a = parse_partition("(1,2)(3,4)(5)")
p_b = parse_partition("(1,2,4)(3)(5)")
p_c = parse_partition("(1,2,4)(3,5)")
print("P_A               =", p_a)
print("P_B               =", p_b)
print("P_A v P_B         =", join(p_a, p_b))
print("P_A v P_C         =", join(p_a, p_c), "(the one-block partition)")
print()

# Bell numbers count the partitions; the enumerator agrees exactly
for n in range(1, 9):
    assert sum(1 for _ in enumerate_partitions(n)) == bell(n)
print("bell numbers      =", [bell(n) for n in range(9)])
print()

# the join matrix M^n has entry 1 where the join is one-block, and its
# rank over the rationals is the full dimension B_n
for n in range(1, 6):
    print("rank report M^%d   =" % n, rank_report(build_join_matrix("M", n)))

# the pairings-only submatrix E^n is full rank too; for n=4 it is the
# 3x3 all-ones-minus-identity
e4 = build_join_matrix("E", 4)
print("E^4 rows          =", e4.rows.tolist())
print("rank(E^4)         =", exact_rank(e4))
