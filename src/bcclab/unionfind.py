"""Connected components as least-vertex labels: a set-union forest with
linking by index and path halving (Tarjan and van Leeuwen, "Worst-case
analysis of set union algorithms", 1984)."""


def component_roots(size, pairs):
    """Each vertex's least component vertex, on the graph over range(size)
    with edges ``pairs``. A link points the larger root at the smaller, so
    every parent is below its child, and one ascending pass settles each
    vertex on the root its parent already holds."""
    parent = list(range(size))
    for u, v in pairs:
        while u != parent[u]:  # path halving
            parent[u] = u = parent[parent[u]]
        while v != parent[v]:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return parent
