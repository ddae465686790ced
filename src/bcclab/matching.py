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

from .errors import PY_OP, check_work


def hopcroft_karp(adjacency):
    """Maximum matching of a bipartite graph given as left -> right lists.

    Returns (size, match_left, match_right). Left and right vertices may
    be any hashable values; lefts are visited in sorted order and each
    neighbor list in sorted order, so repeated runs give identical
    matchings. The phases run on list indices (lefts in sorted order,
    rights in first-seen order) and map back to the caller's values only
    at the end; the augmenting search keeps its own stack, so a long
    augmenting path needs no recursion.
    """
    lefts = sorted(adjacency)
    rights = []
    index = {}
    rows = {}  # id of a neighbor list -> its row; k_matching's copies share one
    adj = []
    for u in lefts:
        neighbors = adjacency[u]
        row = rows.get(id(neighbors))
        if row is None:
            row = rows[id(neighbors)] = []
            for r in sorted(set(neighbors)):
                j = index.get(r)
                if j is None:
                    j = index[r] = len(rights)
                    rights.append(r)
                row.append(j)
        adj.append(row)
    far = len(lefts) + 1  # farther than any BFS layer
    match_left = [-1] * len(lefts)
    match_right = [-1] * len(rights)
    dist = [0] * len(lefts)
    matched_lefts = []  # in the order they were first matched
    matched_rights = []

    def bfs():
        queue = []
        for u, r in enumerate(match_left):
            if r < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = far
        found = far
        for u in queue:  # the queue grows while it is read
            step = dist[u] + 1
            if step <= found:
                for r in adj[u]:
                    nxt = match_right[r]
                    if nxt < 0:
                        found = step
                    elif dist[nxt] == far:
                        dist[nxt] = step
                        queue.append(nxt)
        return found != far

    def augment(root):
        # path[d] is a left on the search path and at[d] the index in its
        # row of the right it tries; a child that fails is set far, so its
        # parent's scan resumes past it
        path, at = [root], [0]
        while path:
            u = path[-1]
            row = adj[u]
            i = at[-1]
            while i < len(row):
                nxt = match_right[row[i]]
                if nxt < 0:  # a free right: flip the path
                    at[-1] = i
                    for v, j in zip(path, at):
                        match_left[v] = adj[v][j]
                        match_right[adj[v][j]] = v
                    matched_lefts.append(root)
                    matched_rights.append(row[i])
                    return
                if dist[nxt] == dist[u] + 1:
                    break
                i += 1
            if i < len(row):
                at[-1] = i
                path.append(nxt)
                at.append(0)
            else:
                dist[u] = far
                path.pop()
                at.pop()

    while bfs():
        for u in range(len(lefts)):
            if match_left[u] < 0:
                augment(u)
    return (
        len(matched_lefts),
        {lefts[u]: rights[match_left[u]] for u in matched_lefts},
        {rights[r]: lefts[match_right[r]] for r in matched_rights},
    )


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


def check_hall_size(m, times=1):
    """Refuse `times` exhaustive Hall checks on m left vertices: each takes
    2^m subsets of about 5 Python-level operations per left vertex."""
    what = f"the exhaustive Hall check on {m} left vertices"
    if times != 1:
        what += f", {times} times"
    check_work(what, times * 2**m * 5 * m * PY_OP, 8 * m)


def exhaustive_hall_check(adjacency, k):
    """Check |N(S)| >= k|S| over every left subset (oracle; exponential)."""
    lefts = sorted(adjacency)
    check_hall_size(len(lefts))
    for mask in range(1, 1 << len(lefts)):
        subset = [lefts[i] for i in range(len(lefts)) if mask >> i & 1]
        ok, witness = hall_check(adjacency, subset, k)
        if not ok:
            return False, witness
    return True, None


def check_k_matching_size(lefts, edges, k, times=1):
    """Refuse `times` k-matchings before k copies of each left vertex are made;
    a copy measures about 40 Python-level operations and 220 bytes, a copied
    edge 4."""
    what = f"a {k}-matching on {lefts} left vertices and {edges} edges"
    if times != 1:
        what += f", {times} times"
    check_work(what, times * (40 * lefts + 4 * edges) * k * PY_OP, 220 * k * lefts)


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
    check_k_matching_size(len(adjacency), sum(map(len, adjacency.values())), k)
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
