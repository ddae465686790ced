"""The bipartite indistinguishability graph over cycle families.
================================================================

Enumerates all one-cycle and two-cycle instances on 7 vertices, builds
the crossing-induced bipartite graph at round 0, and reproduces its
counting identities: per-side operation totals agree (handshake), the
class sizes match their closed forms, and the two-cycle/one-cycle size
ratio grows like a logarithm.
"""

from bcclab import build_indist_graph, degree_stats, enumerate_family, family_counts
from bcclab.algorithms import AlwaysSilent
from bcclab.families import family_ratio_float, ratio_over_log

fam = enumerate_family(7)
print("|V1| =", fam.v1_size, "  classes:", fam.t_sizes())
counts = family_counts(7)
print("closed forms     :", counts.v1, counts.t_counts, " ratio =", counts.ratio)
print()

graph = build_indist_graph(fam, AlwaysSilent(), 0)
stats = degree_stats(graph)
print("edges            :", stats.edge_count)
print("ops per one-cycle:", sorted({graph.degree(lk) for lk in fam.one_cycles}))
print("ops per two-cycle:", sorted({graph.right_degree(rk) for rk in graph.right}))
print("handshake        :", stats.handshake_ok,
      "(total operations =", stats.ops_total, "from both sides)")
print()

# the finite shadow of the log-factor law: |V2|/|V1| ~ ln(n)/2
for k in range(2, 7):
    n = 10**k
    print(f"n = 10^{k}:  ratio = {family_ratio_float(n):8.4f}"
          f"   ratio/ln(n) = {ratio_over_log(n):.4f}")
