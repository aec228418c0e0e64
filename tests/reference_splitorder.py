"""Reference implementation of the splitting order's digraph: every
morphism edge between distinct specs, and the Hasse reduction by the
definition, dropping an edge a -> b when some third spec c has edges
a -> c and c -> b.  The library's successor bitmasks are tested
against it."""

from tukeykit.splitorder import SplitSpec, bt_edge


def order_digraph(limit: int, *, hasse: bool = False):
    nodes = [SplitSpec(n, m) for n in range(1, limit + 1) for m in range(1, n + 1)]
    edges = [
        (a, b)
        for a in nodes
        for b in nodes
        if a != b and bt_edge(a, b).morphism
    ]
    if hasse:
        reachable = {(a, b) for a, b in edges}
        edges = [
            (a, b)
            for a, b in edges
            if not any(
                (a, c) in reachable and (c, b) in reachable
                for c in nodes
                if c not in (a, b)
            )
        ]
    return nodes, edges
