"""Bipartite k-matchings via Hopcroft-Karp on a blown-up left side.

A k-matching assigns to each chosen left vertex a set of k right
vertices, all sets pairwise disjoint and every assigned pair an edge.
Saturating every left vertex is possible exactly when |N(S)| >= k|S|
for every left subset S; the solver below either returns such an
assignment or a concrete violating subset extracted from the
alternating-reachability cut of a maximum matching.
"""

from collections import deque
from dataclasses import dataclass

INF = float("inf")
HALL_CHECK_LIMIT = 20  # left vertices; the oracle visits all 2^left subsets


def hopcroft_karp(adjacency):
    """Maximum matching of a bipartite graph given as left -> right lists.

    Returns (size, match_left, match_right). Left and right vertices may
    be any hashable values; iteration order is made deterministic by
    sorting, so repeated runs give identical matchings.
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


@dataclass(frozen=True)
class KMatching:
    k: int
    assignment: dict  # left vertex -> frozenset of k right vertices

    @property
    def size(self):
        return len(self.assignment)


@dataclass(frozen=True)
class HallViolation:
    k: int
    subset: frozenset  # left vertices with |N(subset)| < k * |subset|
    neighborhood: frozenset


def neighborhood(adjacency, subset):
    out = set()
    for u in subset:
        out.update(adjacency[u])
    return out


def hall_check(adjacency, subset, k):
    """(satisfied, witness): does |N(subset)| >= k|subset| hold?"""
    subset = set(subset)
    missing = subset - set(adjacency)
    if missing:
        raise ValueError(f"subset contains non-left vertices: {sorted(missing)}")
    nbh = neighborhood(adjacency, subset)
    if len(nbh) >= k * len(subset):
        return True, None
    return False, HallViolation(k, frozenset(subset), frozenset(nbh))


def exhaustive_hall_check(adjacency, k):
    """Check |N(S)| >= k|S| over every left subset (oracle; exponential)."""
    lefts = sorted(adjacency)
    if len(lefts) > HALL_CHECK_LIMIT:
        raise ValueError(f"exhaustive check capped at {HALL_CHECK_LIMIT} left vertices")
    for mask in range(1, 1 << len(lefts)):
        subset = [lefts[i] for i in range(len(lefts)) if mask >> i & 1]
        ok, witness = hall_check(adjacency, subset, k)
        if not ok:
            return False, witness
    return True, None


def k_matching(adjacency, k):
    """A saturating k-matching, or the Hall-violating subset preventing one.

    Each left vertex is split into k copies sharing its neighborhood and
    a maximum matching is computed; if it saturates every copy the copies'
    partners form the k-matching. Otherwise the left vertices with a copy
    reachable from an unmatched copy by an alternating path form a set S
    with |N(S)| < k|S|, returned as a HallViolation.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    blown = {(u, c): adjacency[u] for u in adjacency for c in range(k)}
    size, match_left, match_right = hopcroft_karp(blown)
    if size == len(blown):
        assignment = {}
        for (u, _c), r in match_left.items():
            assignment.setdefault(u, set()).add(r)
        return KMatching(k, {u: frozenset(rs) for u, rs in assignment.items()})
    # alternating BFS from unmatched copies: left via any edge, right via
    # its matching edge; reachable lefts witness the deficiency
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
    nbh = frozenset(neighborhood(adjacency, subset))
    if len(nbh) >= k * len(subset):  # pragma: no cover - Koenig guarantees this
        raise AssertionError("deficient matching without a Hall violation")
    return HallViolation(k, subset, nbh)
