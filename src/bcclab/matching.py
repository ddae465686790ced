"""Bipartite k-matchings via Hopcroft-Karp on integer index rows.

A k-matching assigns to each chosen left vertex a set of k right
vertices, all sets pairwise disjoint and every assigned pair an edge.
Saturating every left vertex is possible exactly when |N(S)| >= k|S|
for every left subset S; the solver below either returns such an
assignment or a concrete violating subset extracted from the
alternating-reachability cut of a maximum matching.

Key objects appear only at the two ends. One builder numbers the lefts
(sorted) and rights (first seen) and turns each distinct neighbor list
into one sorted row of right indices; one core matches on those rows.
The k copies of a left are indices u*k + c sharing its row, so no
blown-up graph is built. The core opens with a first-fit greedy pass
(exact: it is what the first Hopcroft-Karp phase does when every left
is free) and its BFS scans each distinct row once (exact: a second scan
within one BFS finds nothing new). The Hall witness is read from the
core's last BFS layering and mapped back to keys at the end.
"""

from dataclasses import dataclass

from .errors import PY_OP, check_work


def _index_graph(adjacency):
    """(lefts, rights, row_of, rows): the graph on list indices.

    Lefts are sorted and rights numbered in first-seen order. Each
    distinct neighbor list (by identity) becomes one row of right
    indices, sorted and without repeats: sorting brings equal rights
    together, so dropping an index equal to the one before it removes
    every repeat. row_of[u] is the row of left u.
    """
    lefts = sorted(adjacency)
    rights = []
    index = {}
    rows = []
    row_ids = {}  # id of a neighbor list -> its row
    row_of = []
    for u in lefts:
        neighbors = adjacency[u]
        g = row_ids.get(id(neighbors))
        if g is None:
            g = row_ids[id(neighbors)] = len(rows)
            row = []
            last = -1
            for r in sorted(neighbors):
                j = index.get(r)
                if j is None:
                    j = index[r] = len(rights)
                    rights.append(r)
                if j != last:
                    row.append(j)
                    last = j
            rows.append(row)
        row_of.append(g)
    return lefts, rights, row_of, rows


def _match_rows(row_of, rows, n_rights):
    """Hopcroft-Karp on index rows: left u may take any right in rows[row_of[u]].

    Returns (match_left, match_right, matched_lefts, matched_rights,
    dist): the partner of each left and right (-1 if free), the lefts and
    rights in the order they were first matched, and the layer of each
    left in the last BFS, ``len(row_of) + 1`` if it reached none. Unless
    every left is matched, that BFS found no augmenting path, so it layered
    exactly the lefts an alternating path reaches from a free left. Three
    shortcuts keep the answer of the plain algorithm:

    - Phase 1 is a first-fit greedy pass. With every left free, every
      dist is 0, so an augmenting search from a free left can only take
      a free right of its own row, the first one it meets. Rights only
      become matched during the pass, so the first free right of a row
      only moves forward, and each row keeps a cursor.
    - A BFS scans each distinct row once. BFS takes layers in
      nondecreasing order and match_right does not change during it, so
      a second scan of the same row finds no new free right and no new
      unlayered left.
    - The phases stop once every left or every right is matched: no
      augmenting path is left, so the last BFS would find none. It still
      runs once when every right but not every left is matched, for the
      layers.

    The augmenting search keeps its own stack, so a long augmenting path
    needs no recursion.
    """
    m = len(row_of)
    far = m + 1  # farther than any BFS layer
    match_left = [-1] * m
    match_right = [-1] * n_rights
    dist = [0] * m
    matched_lefts = []
    matched_rights = []
    cursor = [0] * len(rows)
    for u, g in enumerate(row_of):
        row = rows[g]
        i = cursor[g]
        while i < len(row) and match_right[row[i]] >= 0:
            i += 1
        cursor[g] = i
        if i < len(row):
            match_left[u] = row[i]
            match_right[row[i]] = u
            matched_lefts.append(u)
            matched_rights.append(row[i])

    def bfs():
        queue = []
        for u, r in enumerate(match_left):
            if r < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = far
        scanned = bytearray(len(rows))
        found = far
        for u in queue:  # the queue grows while it is read
            g = row_of[u]
            step = dist[u] + 1
            if step <= found and not scanned[g]:
                scanned[g] = 1
                for r in rows[g]:
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
            row = rows[row_of[u]]
            step = dist[u] + 1
            for i in range(at[-1], len(row)):
                nxt = match_right[row[i]]
                if nxt < 0:  # a free right: flip the path
                    at[-1] = i
                    for v, j in zip(path, at):
                        r = rows[row_of[v]][j]
                        match_left[v] = r
                        match_right[r] = v
                    matched_lefts.append(root)
                    matched_rights.append(row[i])
                    return
                if dist[nxt] == step:
                    at[-1] = i
                    path.append(nxt)
                    at.append(0)
                    break
            else:
                dist[u] = far
                path.pop()
                at.pop()

    while len(matched_lefts) < min(m, n_rights) and bfs():
        for u in range(m):
            if match_left[u] < 0:
                augment(u)
    if n_rights == len(matched_lefts) < m:
        bfs()
    return match_left, match_right, matched_lefts, matched_rights, dist


def hopcroft_karp(adjacency):
    """Maximum matching of a bipartite graph given as left -> right lists.

    Returns (size, match_left, match_right). Left and right vertices may
    be any hashable values; lefts are visited in sorted order and each
    neighbor list in sorted order, so repeated runs give identical
    matchings. The phases run on index rows (lefts in sorted order,
    rights in first-seen order, one row per distinct neighbor list) and
    map back to the caller's values only at the end. The first phase is
    a first-fit greedy pass, which is what it computes when every left
    is free, and each BFS scans a distinct row once, because a second
    scan within one BFS finds nothing new.
    """
    lefts, rights, row_of, rows = _index_graph(adjacency)
    match_left, match_right, matched_lefts, matched_rights, _ = _match_rows(
        row_of, rows, len(rights))
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
    """Refuse `times` k-matchings before any key is numbered. A copy of a
    left vertex measures about 5 Python-level operations and 64 bytes (its
    row number, partner, layer and index object), a copied edge 1 operation
    (an augmenting scan per copy), and an edge, sorted and numbered once
    from its key, 4 operations and 32 bytes."""
    what = f"a {k}-matching on {lefts} left vertices and {edges} edges"
    if times != 1:
        what += f", {times} times"
    check_work(what, times * ((5 * lefts + edges) * k + 4 * edges) * PY_OP,
               64 * k * lefts + 32 * edges)


def k_matching(adjacency, k):
    """A saturating k-matching, or the Hall-violating subset preventing one.

    Each left vertex is split into k copies sharing its row and a maximum
    matching is computed; if it saturates every copy the copies' partners
    form the k-matching. Copy c of the u-th left in sorted order is index
    u*k + c, the order of sorted (u, c) pairs, so the copies are index
    arithmetic over one list of row numbers. Otherwise the left vertices
    with a copy reachable from an unmatched copy by an alternating path
    form a set S with |N(S)| < k|S|, returned as a HallViolation. S is
    read from the solver's last BFS layering, which reaches exactly those
    copies: all copies of a left share its row, so reaching one copy
    reaches every right the others would.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_k_matching_size(len(adjacency), sum(map(len, adjacency.values())), k)
    lefts, rights, row_of, rows = _index_graph(adjacency)
    copies = [g for g in row_of for _ in range(k)]
    match_left, _, matched_lefts, _, dist = _match_rows(copies, rows, len(rights))
    if len(matched_lefts) == len(copies):
        firsts = dict.fromkeys(c // k for c in matched_lefts)  # in first-matched order
        return KMatching(k, {
            lefts[u]: frozenset(rights[r] for r in match_left[u * k:(u + 1) * k])
            for u in firsts
        })
    # every right in a reached copy's row is matched, to a reached copy, so
    # N(S) is the reached copies' partners
    reached = [c for c, d in enumerate(dist) if d <= len(copies)]
    subset = frozenset(map(lefts.__getitem__, {c // k for c in reached}))
    nbh = frozenset(rights[match_left[c]] for c in reached if match_left[c] >= 0)
    if len(nbh) >= k * len(subset):  # pragma: no cover - Koenig guarantees this
        raise AssertionError("deficient matching without a Hall violation")
    return HallViolation(k, subset, nbh)
